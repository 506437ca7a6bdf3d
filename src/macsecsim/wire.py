"""Byte-exact encode/decode for the three frame classes on the wire.

Multi-byte integers are big-endian throughout.  Three frame classes are
dispatched on the EtherType at offset 12:

* plain Ethernet            dst(6) src(6) type(2) payload
* MACsec (type 0x88E5)      dst(6) src(6) type(2) sectag(14) secure_data icv(16)
* sealed LLDP (type 0x88CC) dst(6) src(6) type(2) nonce(12) seq(4) ciphertext icv(16)

The SecTAG is tci_an(1) short_length(1) packet_number(4) sci(8); the SCI is
always present (SC bit set on every frame this code emits).  No FCS is
modeled.

The simulator itself reads frames as bytes: the pipeline, MACsec protect
and validate, LLDP seal and open, and a host NIC use the fixed offsets and
the minimum lengths (`MIN_FRAME_LEN`) below.  A host's inbox reads its
frames as `EthernetFrame` views; `parse_frame` and the other frame classes
serve tests and tools.  An `EthernetFrame` is a view over its
wire bytes: parsing one copies nothing, and its fields are read from those
bytes when asked.  The MACsec and sealed-LLDP classes are dataclasses of
their fields.

A MAC's text is read by one rule, `mac_from_str`, for the spec loader and
a scenario's `send` alike.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

from .errors import DecodeFailure, TruncatedFrame

ETHERTYPE_MACSEC = 0x88E5
ETHERTYPE_LLDP = 0x88CC
ETHERTYPE_IPV4 = 0x0800

LLDP_MULTICAST = bytes.fromhex("0180c200000e")

ETH_HEADER_LEN = 14
SECTAG_LEN = 14
ICV_LEN = 16
NONCE_LEN = 12
SCI_LEN = 8
MAX_PN = 2**32 - 1
MAX_PORT = 0xFFFF  # a switch port is two bytes of an SCI and of an LLDP Port ID TLV

# TCI bits within tci_an (low two bits carry the AN)
TCI_SC = 0x20  # SCI explicitly present
TCI_E = 0x08   # secure_data is encrypted
TCI_C = 0x04   # ICV covers changed (encrypted) user data

MIN_MACSEC_LEN = ETH_HEADER_LEN + SECTAG_LEN + 2 + ICV_LEN
MIN_LLDP_LEN = ETH_HEADER_LEN + NONCE_LEN + 4 + ICV_LEN
# EtherType -> minimum length of the frame classes that have one.
MIN_FRAME_LEN = {ETHERTYPE_MACSEC: MIN_MACSEC_LEN, ETHERTYPE_LLDP: MIN_LLDP_LEN}

# Byte offsets within a MACsec frame: the SecTAG's PN and SCI, then the
# secure data.  The header before SECURE_DATA_OFFSET is authenticated, never
# encrypted.
PN_OFFSET = ETH_HEADER_LEN + 2
SCI_OFFSET = PN_OFFSET + 4
SECURE_DATA_OFFSET = ETH_HEADER_LEN + SECTAG_LEN

# Byte offsets within a sealed LLDP frame: the nonce, the clear sequence
# number, then the sealed PDU (ciphertext and ICV) to the end of the frame.
LLDP_NONCE_OFFSET = ETH_HEADER_LEN
LLDP_SEQ_OFFSET = LLDP_NONCE_OFFSET + NONCE_LEN
LLDP_SEALED_OFFSET = LLDP_SEQ_OFFSET + 4

_MAC = re.compile(r"[0-9A-Fa-f]{1,2}(?::[0-9A-Fa-f]{1,2}){5}")


def mac_to_str(mac: bytes) -> str:
    return ":".join(f"{b:02x}" for b in mac)


def mac_from_str(text: str) -> bytes:
    """Six ':'-separated octets of one or two ASCII hex digits each; anything
    else is a `ValueError`, and a value that is not a string a `TypeError`."""
    if not _MAC.fullmatch(text):
        raise ValueError(f"bad MAC address {text!r}")
    return bytes(int(p, 16) for p in text.split(":"))


def make_sci(switch_mac: bytes, port: int) -> bytes:
    """SCI = sender switch MAC (6) + sender egress port (2)."""
    return switch_mac + struct.pack(">H", port)


def sci_port(sci: bytes) -> int:
    """The sender egress port of an SCI built by `make_sci`."""
    return struct.unpack(">H", sci[6:8])[0]


@dataclass(frozen=True, init=False, repr=False)
class EthernetFrame:
    """A plain Ethernet frame, held as its bytes on the wire.

    The frame keeps one immutable `bytes` and reads `dst`, `src`,
    `ether_type` and `payload` from it when asked, so `parse_frame` wraps a
    delivered frame without copying it.  As a frozen dataclass of those
    bytes it has equality, a hash and `FrozenInstanceError` on assignment;
    its constructor, checks and repr are those of the four fields.
    """

    __slots__ = ("_data",)
    _data: bytes

    def __init__(self, dst: bytes, src: bytes, ether_type: int, payload: bytes):
        if len(dst) != 6 or len(src) != 6:
            raise ValueError("MAC addresses must be 6 bytes")
        if not 0 <= ether_type <= 0xFFFF:
            raise ValueError("ether_type out of range")
        object.__setattr__(self, "_data", bytes(dst + src + struct.pack(">H", ether_type) + payload))

    @classmethod
    def _view(cls, data: bytes) -> "EthernetFrame":
        """The frame `data` holds, at least 14 bytes; exact bytes are not copied."""
        frame = object.__new__(cls)
        object.__setattr__(frame, "_data", bytes(data))
        return frame

    @property
    def dst(self) -> bytes:
        return self._data[:6]

    @property
    def src(self) -> bytes:
        return self._data[6:12]

    @property
    def ether_type(self) -> int:
        return self._data[12] << 8 | self._data[13]

    @property
    def payload(self) -> bytes:
        return self._data[ETH_HEADER_LEN:]

    def to_bytes(self) -> bytes:
        return self._data

    def __repr__(self):
        return (
            f"{self.__class__.__qualname__}(dst={self.dst!r}, src={self.src!r}, "
            f"ether_type={self.ether_type!r}, payload={self.payload!r})"
        )

    def __reduce__(self):  # unpickling would set the slot through the frozen __setattr__
        return self.__class__._view, (self._data,)


@dataclass(frozen=True)
class SecTag:
    tci_an: int
    short_length: int
    packet_number: int
    sci: bytes

    def __post_init__(self):
        if len(self.sci) != SCI_LEN:
            raise ValueError("SCI must be 8 bytes")
        if not 0 <= self.packet_number <= MAX_PN:
            raise ValueError("packet number out of range")

    @property
    def an(self) -> int:
        return self.tci_an & 0x03

    def to_bytes(self) -> bytes:
        return struct.pack(">BBI", self.tci_an, self.short_length, self.packet_number) + self.sci

    @classmethod
    def from_bytes(cls, data: bytes) -> "SecTag":
        tci_an, sl, pn = struct.unpack(">BBI", data[:6])
        return cls(tci_an=tci_an, short_length=sl, packet_number=pn, sci=data[6:14])


@dataclass(frozen=True)
class MacsecFrame:
    dst: bytes
    src: bytes
    sec_tag: SecTag
    secure_data: bytes
    icv: bytes

    ether_type = ETHERTYPE_MACSEC

    def __post_init__(self):
        if len(self.dst) != 6 or len(self.src) != 6:
            raise ValueError("MAC addresses must be 6 bytes")
        if len(self.icv) != ICV_LEN:
            raise ValueError("ICV must be 16 bytes")
        if len(self.secure_data) < 2:
            raise ValueError("secure data carries at least the original EtherType")

    def to_bytes(self) -> bytes:
        return (
            self.dst
            + self.src
            + struct.pack(">H", ETHERTYPE_MACSEC)
            + self.sec_tag.to_bytes()
            + self.secure_data
            + self.icv
        )


@dataclass(frozen=True)
class SecureLldpFrame:
    dst: bytes
    src: bytes
    nonce: bytes
    seq: int
    ciphertext: bytes
    icv: bytes

    ether_type = ETHERTYPE_LLDP

    def __post_init__(self):
        if len(self.dst) != 6 or len(self.src) != 6:
            raise ValueError("MAC addresses must be 6 bytes")
        if len(self.nonce) != NONCE_LEN:
            raise ValueError("nonce must be 12 bytes")
        if not 0 <= self.seq <= 0xFFFFFFFF:
            raise ValueError("seq out of range")
        if len(self.icv) != ICV_LEN:
            raise ValueError("ICV must be 16 bytes")

    def to_bytes(self) -> bytes:
        return (
            self.dst
            + self.src
            + struct.pack(">H", ETHERTYPE_LLDP)
            + self.nonce
            + struct.pack(">I", self.seq)
            + self.ciphertext
            + self.icv
        )


Frame = EthernetFrame | MacsecFrame | SecureLldpFrame

# LLDPDU TLV types
_TLV_END = 0
_TLV_CHASSIS_ID = 1
_TLV_PORT_ID = 2


def _tlv(tlv_type: int, value: bytes) -> bytes:
    return struct.pack(">H", (tlv_type << 9) | len(value)) + value


@dataclass(frozen=True)
class Lldpdu:
    """Discovery payload: Chassis ID, Port ID, End — in that order."""

    chassis_id: bytes
    port_id: int

    def __post_init__(self):
        if not 0 < len(self.chassis_id) <= 64:
            raise ValueError("chassis id must be 1..64 bytes")
        if not 0 <= self.port_id <= MAX_PORT:
            raise ValueError("port id out of range")

    def encode(self) -> bytes:
        return (
            _tlv(_TLV_CHASSIS_ID, self.chassis_id)
            + _tlv(_TLV_PORT_ID, struct.pack(">H", self.port_id))
            + _tlv(_TLV_END, b"")
        )


_PORT_ID_HEAD = _tlv(_TLV_PORT_ID, b"\0\0")[:2]


def read_lldpdu(data: bytes) -> tuple[bytes, int]:
    """(chassis id, port id) of an LLDPDU, read at the offsets of its TLVs.

    Accepts a Chassis ID TLV of 1..64 bytes, a 2-byte Port ID TLV and an End
    TLV whose value, of any length, runs to the last byte; raises
    DecodeFailure on anything else.
    """
    size = len(data)
    chassis_len = (data[0] << 8 | data[1]) - (_TLV_CHASSIS_ID << 9) if size > 1 else 0
    port_at = 2 + chassis_len  # the Port ID TLV's offset
    if not 0 < chassis_len <= 64 or size < port_at + 6:
        raise DecodeFailure("LLDPDU needs a Chassis ID TLV of 1..64 bytes, then Port ID and End TLVs")
    end_len = data[port_at + 4] << 8 | data[port_at + 5]  # an End TLV's header is its length
    if data[port_at : port_at + 2] != _PORT_ID_HEAD or end_len != size - port_at - 6 or end_len > 0x1FF:
        raise DecodeFailure("LLDPDU needs a 2-byte Port ID TLV, then an End TLV that ends it")
    return data[2:port_at], data[port_at + 2] << 8 | data[port_at + 3]


def parse_frame(data: bytes) -> Frame:
    """Classify raw bytes by the EtherType at offset 12 and parse them.

    Ethernet is the fallback class, a view over `data` itself; MACsec and
    sealed-LLDP frames raise TruncatedFrame when shorter than their fixed
    minimum.
    """
    if len(data) < ETH_HEADER_LEN:
        raise TruncatedFrame(f"{len(data)} bytes is below the 14-byte Ethernet minimum")
    ether_type = data[12] << 8 | data[13]

    if ether_type == ETHERTYPE_MACSEC:
        if len(data) < MIN_MACSEC_LEN:
            raise TruncatedFrame(f"MACsec frame needs >= {MIN_MACSEC_LEN} bytes, got {len(data)}")
        sec_tag = SecTag.from_bytes(data[ETH_HEADER_LEN:SECURE_DATA_OFFSET])
        return MacsecFrame(
            dst=data[0:6],
            src=data[6:12],
            sec_tag=sec_tag,
            secure_data=data[SECURE_DATA_OFFSET:-ICV_LEN],
            icv=data[-ICV_LEN:],
        )

    if ether_type == ETHERTYPE_LLDP:
        if len(data) < MIN_LLDP_LEN:
            raise TruncatedFrame(f"sealed LLDP frame needs >= {MIN_LLDP_LEN} bytes, got {len(data)}")
        nonce = data[LLDP_NONCE_OFFSET:LLDP_SEQ_OFFSET]
        seq = int.from_bytes(data[LLDP_SEQ_OFFSET:LLDP_SEALED_OFFSET], "big")
        ciphertext, icv = data[LLDP_SEALED_OFFSET:-ICV_LEN], data[-ICV_LEN:]
        return SecureLldpFrame(
            dst=data[0:6], src=data[6:12], nonce=nonce, seq=seq, ciphertext=ciphertext, icv=icv
        )

    return EthernetFrame._view(data)


def classify(data: bytes) -> str:
    """Trace-level classification: 'ethernet', 'macsec' or 'secure_lldp'."""
    if len(data) >= ETH_HEADER_LEN:
        ether_type = data[12] << 8 | data[13]
        if ether_type == ETHERTYPE_MACSEC:
            return "macsec"
        if ether_type == ETHERTYPE_LLDP:
            return "secure_lldp"
    return "ethernet"
