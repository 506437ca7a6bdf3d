"""AES-GCM-128 protection for data frames and discovery PDUs, and SAK derivation.

Every IV is deterministic in the sense of NIST SP 800-38D §8.2.1: a fixed
field followed by an invocation counter.  Data frames: IV is SCI(8) +
packet number(4); the AAD covers the outer Ethernet header plus the
SecTAG, so any header bit flip breaks the 16-byte ICV.  Discovery PDUs:
the nonce is the sealing switch's MAC(6) + its 48-bit seal counter
(`lldp_nonce`), and the AAD is the 4-byte sequence number carried in
clear.  All four operations work on frame bytes and read their fields at
the fixed offsets in `wire`.  Each key, SAK or discovery key, builds its
AES-GCM context once, on first use.

SAK number KN is AES-128, under a master key, of a block that encodes KN
(`MasterKey`), as MKA indexes its SAKs by key number: AES is a
permutation, so distinct KNs give distinct SAKs and no set of issued keys
is needed to prove it.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import IntegrityFailure, TruncatedFrame
from .wire import (
    ETH_HEADER_LEN,
    ETHERTYPE_LLDP,
    ETHERTYPE_MACSEC,
    ICV_LEN,
    LLDP_NONCE_OFFSET,
    LLDP_SEALED_OFFSET,
    LLDP_SEQ_OFFSET,
    MAX_PN,
    MIN_LLDP_LEN,
    MIN_MACSEC_LEN,
    NONCE_LEN,
    PN_OFFSET,
    SCI_LEN,
    SCI_OFFSET,
    SECURE_DATA_OFFSET,
    TCI_C,
    TCI_E,
    TCI_SC,
    EthernetFrame,
)

KEY_LEN = 16  # AES-GCM-128


class _AesKey:
    """Fingerprint and cached AES-GCM context shared by both key types."""

    key: bytes

    @property
    def fingerprint(self) -> str:
        """8-hex-char identifier safe to print in dumps."""
        return hashlib.sha256(self.key).hexdigest()[:8]

    @cached_property
    def cipher(self) -> AESGCM:
        """The AES-GCM context for this key, built on first use and kept."""
        return AESGCM(self.key)

    def __deepcopy__(self, memo):
        # Immutable, and the cached cipher cannot be copied.
        return self


@dataclass(frozen=True)
class Sak(_AesKey):
    """Secure association key."""

    key: bytes

    def __post_init__(self):
        if len(self.key) != KEY_LEN:
            raise ValueError("SAK must be 16 bytes")


@dataclass(frozen=True)
class LldpKey(_AesKey):
    """Common discovery key plus its rotation generation counter."""

    key: bytes
    key_id: int

    def __post_init__(self):
        if len(self.key) != KEY_LEN:
            raise ValueError("LLDP key must be 16 bytes")


@dataclass(frozen=True)
class MasterKey(_AesKey):
    """The key server's master key, drawn once: every SAK derives from it."""

    key: bytes

    def __post_init__(self):
        if len(self.key) != KEY_LEN:
            raise ValueError("master key must be 16 bytes")

    def derive_sak(self, kn: int) -> Sak:
        """SAK number `kn` (below 2**96): AES-128 of the block KN(12) + 00000001.

        That block is GCM's pre-counter block J0 for the 12-byte IV KN, and
        the tag of an empty message is AES of J0: the cached AES-GCM context
        computes it, where an ECB context costs a dozen times more to build.
        """
        return Sak(self.cipher.encrypt(kn.to_bytes(NONCE_LEN, "big"), b"", None))


_SECTAG_HEAD = struct.Struct(">HBBI")  # EtherType, TCI/AN, SL, PN


def macsec_protect(
    sak: Sak,
    sci: bytes,
    pn: int,
    frame: bytes | EthernetFrame,
    *,
    an: int = 0,
    confidentiality: bool = True,
) -> bytes:
    """Transform an Ethernet frame into the bytes of a MACsec frame under one SA.

    `frame` is the frame's bytes (or an EthernetFrame, which holds them).
    The original EtherType and payload become the secure data (encrypted
    unless confidentiality is off, in which case they ride in clear and are
    only authenticated); the Ethernet header and the SecTAG are the AAD.
    """
    if isinstance(frame, EthernetFrame):
        frame = frame.to_bytes()
    if len(sci) != SCI_LEN:
        raise ValueError("SCI must be 8 bytes")
    if not 1 <= pn <= MAX_PN:
        raise ValueError("packet number must be 1..2**32-1")
    if len(frame) < ETH_HEADER_LEN:
        raise TruncatedFrame(f"{len(frame)} bytes is below the 14-byte Ethernet minimum")
    plaintext = frame[12:]
    tci = TCI_SC | (TCI_E | TCI_C if confidentiality else 0) | (an & 0x03)
    size = len(plaintext)  # the secure data: SL carries its length below 48 bytes, else 0
    tag_head = _SECTAG_HEAD.pack(ETHERTYPE_MACSEC, tci, size if size < 48 else 0, pn)
    header = frame[:12] + tag_head + sci
    iv = sci + tag_head[4:]  # SCI, then the PN as packed in the tag
    if confidentiality:
        return header + sak.cipher.encrypt(iv, plaintext, header)
    # GMAC-style: no encryption, the ICV additionally covers the cleartext.
    return header + plaintext + sak.cipher.encrypt(iv, b"", header + plaintext)


def macsec_validate(sak: Sak, data: bytes, *, confidentiality: bool = True) -> bytes:
    """Verify the ICV of MACsec frame bytes and recover the original frame's bytes.

    Raises IntegrityFailure when any bit of the header, SecTAG, secure
    data or ICV was altered (or the SAK is wrong), and TruncatedFrame when
    `data` is shorter than the MACsec minimum.
    """
    if len(data) < MIN_MACSEC_LEN:
        raise TruncatedFrame(f"MACsec frame needs >= {MIN_MACSEC_LEN} bytes, got {len(data)}")
    iv = data[SCI_OFFSET:SECURE_DATA_OFFSET] + data[PN_OFFSET:SCI_OFFSET]
    try:
        if confidentiality:
            plaintext = sak.cipher.decrypt(iv, data[SECURE_DATA_OFFSET:], data[:SECURE_DATA_OFFSET])
        else:
            sak.cipher.decrypt(iv, data[-ICV_LEN:], data[:-ICV_LEN])
            plaintext = data[SECURE_DATA_OFFSET:-ICV_LEN]
    except InvalidTag as exc:
        raise IntegrityFailure("MACsec ICV verification failed") from exc
    return data[:12] + plaintext


_LLDP_TYPE = ETHERTYPE_LLDP.to_bytes(2, "big")
SEAL_COUNTER_LEN = NONCE_LEN - 6  # the nonce's counter field follows the 6-byte MAC


def lldp_nonce(mac: bytes, counter: int) -> bytes:
    """The nonce of a switch's `counter`-th seal: its MAC, then the 48-bit counter."""
    return mac + counter.to_bytes(SEAL_COUNTER_LEN, "big")


def lldp_seal(key: LldpKey, nonce: bytes, seq: int, plaintext: bytes, src: bytes, dst: bytes) -> bytes:
    """Seal an encoded discovery PDU into sealed-LLDP frame bytes, authenticating the sequence number."""
    if len(nonce) != NONCE_LEN:
        raise ValueError("nonce must be 12 bytes")
    seq_bytes = struct.pack(">I", seq)
    return dst + src + _LLDP_TYPE + nonce + seq_bytes + key.cipher.encrypt(nonce, plaintext, seq_bytes)


def lldp_open(key: LldpKey, data: bytes) -> tuple[int, bytes]:
    """Verify and decrypt the bytes of a sealed discovery frame into (seq, plaintext PDU).

    Raises TruncatedFrame below the sealed-LLDP minimum and IntegrityFailure
    on a bad tag (tampering, replayed nonce games, or a rotated-out key).
    `wire.read_lldpdu` reads the plaintext.
    """
    if len(data) < MIN_LLDP_LEN:
        raise TruncatedFrame(f"sealed LLDP frame needs >= {MIN_LLDP_LEN} bytes, got {len(data)}")
    nonce, seq_bytes = data[LLDP_NONCE_OFFSET:LLDP_SEQ_OFFSET], data[LLDP_SEQ_OFFSET:LLDP_SEALED_OFFSET]
    try:
        plaintext = key.cipher.decrypt(nonce, data[LLDP_SEALED_OFFSET:], seq_bytes)
    except InvalidTag as exc:
        raise IntegrityFailure("sealed LLDP ICV verification failed") from exc
    return int.from_bytes(seq_bytes, "big"), plaintext
