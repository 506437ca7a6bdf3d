import copy
import random
import re
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gcm_oracle
from macsecsim import crypto
from macsecsim.crypto import (
    LldpKey,
    MasterKey,
    Sak,
    lldp_nonce,
    lldp_open,
    lldp_seal,
    macsec_protect,
    macsec_validate,
)
from macsecsim.errors import DecodeFailure, IntegrityFailure, TruncatedFrame
from macsecsim.wire import (
    ETHERTYPE_MACSEC,
    LLDP_MULTICAST,
    MIN_MACSEC_LEN,
    SecureLldpFrame,
    EthernetFrame,
    Lldpdu,
    MacsecFrame,
    make_sci,
    parse_frame,
    read_lldpdu,
)

KEY = Sak(bytes(range(16)))
SCI = make_sci(b"\x02\x00\x00\x00\x00\x01", 2)
LKEY = LldpKey(key=bytes(range(16, 32)), key_id=1)

macs = st.binary(min_size=6, max_size=6)


def ether(payload=b"data", ether_type=0x0800):
    return EthernetFrame(dst=b"\xaa" * 6, src=b"\xbb" * 6, ether_type=ether_type, payload=payload)


@pytest.mark.parametrize("key,iv,pt,aad,ct,tag", gcm_oracle.NIST_VECTORS)
def test_oracle_matches_published_vectors(key, iv, pt, aad, ct, tag):
    got_ct, got_tag = gcm_oracle.gcm_encrypt(
        bytes.fromhex(key), bytes.fromhex(iv), bytes.fromhex(pt), bytes.fromhex(aad)
    )
    assert got_ct.hex() == ct
    assert got_tag.hex() == tag
    assert gcm_oracle.gcm_decrypt(
        bytes.fromhex(key), bytes.fromhex(iv), bytes.fromhex(ct), bytes.fromhex(tag), bytes.fromhex(aad)
    ) == bytes.fromhex(pt)


def test_sak_length_enforced():
    with pytest.raises(ValueError):
        Sak(b"\x00" * 15)
    with pytest.raises(ValueError):
        LldpKey(key=b"\x00" * 17, key_id=0)


@given(dst=macs, src=macs, ether_type=st.integers(0, 0xFFFF), payload=st.binary(max_size=600),
       pn=st.integers(1, 2**32 - 1), an=st.integers(0, 3))
def test_protect_validate_round_trip(dst, src, ether_type, payload, pn, an):
    frame = EthernetFrame(dst=dst, src=src, ether_type=ether_type, payload=payload)
    raw = macsec_protect(KEY, SCI, pn, frame.to_bytes(), an=an)
    protected = parse_frame(raw)
    assert protected.dst == dst and protected.src == src
    assert len(protected.secure_data) == len(payload) + 2
    assert protected.sec_tag.packet_number == pn
    assert protected.sec_tag.sci == SCI
    assert protected.sec_tag.an == an
    assert macsec_validate(KEY, raw) == frame.to_bytes()


def test_protect_matches_independent_oracle():
    frame = ether(payload=b"fixed payload vector")
    pn = 0x01020304
    raw = macsec_protect(KEY, SCI, pn, frame.to_bytes())
    assert macsec_protect(KEY, SCI, pn, frame) == raw  # a frame object is accepted too
    protected = parse_frame(raw)
    iv = SCI + struct.pack(">I", pn)
    aad = (
        frame.dst
        + frame.src
        + struct.pack(">H", ETHERTYPE_MACSEC)
        + protected.sec_tag.to_bytes()
    )
    plaintext = struct.pack(">H", frame.ether_type) + frame.payload
    ct, tag = gcm_oracle.gcm_encrypt(KEY.key, iv, plaintext, aad)
    assert protected.secure_data == ct
    assert protected.icv == tag


def test_integrity_only_mode_matches_oracle():
    frame = ether(payload=b"cleartext but authenticated")
    pn = 9
    protected = parse_frame(macsec_protect(KEY, SCI, pn, frame.to_bytes(), confidentiality=False))
    plaintext = struct.pack(">H", frame.ether_type) + frame.payload
    assert protected.secure_data == plaintext
    iv = SCI + struct.pack(">I", pn)
    aad = (
        frame.dst + frame.src + struct.pack(">H", ETHERTYPE_MACSEC) + protected.sec_tag.to_bytes()
    )
    _, tag = gcm_oracle.gcm_encrypt(KEY.key, iv, b"", aad + plaintext)
    assert protected.icv == tag
    assert macsec_validate(KEY, protected.to_bytes(), confidentiality=False) == frame.to_bytes()
    tampered = MacsecFrame(
        dst=protected.dst,
        src=protected.src,
        sec_tag=protected.sec_tag,
        secure_data=b"\x08\x00" + b"X" * (len(plaintext) - 2),
        icv=protected.icv,
    )
    with pytest.raises(IntegrityFailure):
        macsec_validate(KEY, tampered.to_bytes(), confidentiality=False)


def test_distinct_pn_distinct_ciphertext():
    frame = ether(payload=b"same payload")
    a = parse_frame(macsec_protect(KEY, SCI, 5, frame.to_bytes()))
    b = parse_frame(macsec_protect(KEY, SCI, 6, frame.to_bytes()))
    assert a.secure_data != b.secure_data


def test_pn_zero_rejected():
    with pytest.raises(ValueError):
        macsec_protect(KEY, SCI, 0, ether().to_bytes())


def test_exhaustive_bit_flip_sweep_macsec():
    """Every single-bit corruption is rejected at parse or by the ICV."""
    raw = macsec_protect(KEY, SCI, 7, ether(payload=b"tiny").to_bytes())
    for pos in range(len(raw)):
        for bit in range(8):
            mutated = bytearray(raw)
            mutated[pos] ^= 1 << bit
            try:
                reparsed = parse_frame(bytes(mutated))
            except Exception:
                continue
            if not isinstance(reparsed, MacsecFrame):
                assert 12 <= pos < 14
                continue
            with pytest.raises(IntegrityFailure):
                macsec_validate(KEY, bytes(mutated))


def test_wrong_sak_fails():
    protected = macsec_protect(KEY, SCI, 3, ether().to_bytes())
    with pytest.raises(IntegrityFailure):
        macsec_validate(Sak(b"\x55" * 16), protected)


def _oracle_seal(sak, sci, pn, an, frame, confidentiality):
    """802.1AE framing written out by hand, sealed by the independent GCM oracle."""
    plaintext = struct.pack(">H", frame.ether_type) + frame.payload
    tci = 0x20 | (0x0C if confidentiality else 0) | an
    short_length = len(plaintext) if len(plaintext) < 48 else 0
    header = frame.dst + frame.src + struct.pack(">HBBI", 0x88E5, tci, short_length, pn) + sci
    iv = sci + struct.pack(">I", pn)
    if confidentiality:
        ct, tag = gcm_oracle.gcm_encrypt(sak.key, iv, plaintext, header)
        return header + ct + tag
    _, tag = gcm_oracle.gcm_encrypt(sak.key, iv, b"", header + plaintext)
    return header + plaintext + tag


@pytest.mark.parametrize("confidentiality", [True, False])
def test_protect_and_validate_agree_with_oracle(confidentiality):
    rng = random.Random(8)
    for _ in range(30):
        sak, sci, pn, an = Sak(rng.randbytes(16)), rng.randbytes(8), rng.randrange(1, 2**32), rng.randrange(4)
        frame = EthernetFrame(
            dst=rng.randbytes(6),
            src=rng.randbytes(6),
            ether_type=rng.randrange(0x10000),
            payload=rng.randbytes(rng.randrange(0, 100)),
        )
        sealed = _oracle_seal(sak, sci, pn, an, frame, confidentiality)
        got = macsec_protect(sak, sci, pn, frame.to_bytes(), an=an, confidentiality=confidentiality)
        assert got == sealed
        assert macsec_validate(sak, sealed, confidentiality=confidentiality) == frame.to_bytes()


@pytest.mark.parametrize("confidentiality", [True, False])
@pytest.mark.parametrize("secure_data_len, short_length", [(47, 47), (48, 0)])
def test_short_length_carries_secure_data_below_48_bytes(secure_data_len, short_length, confidentiality):
    """SL, the SecTAG's second byte, is the secure data's length (EtherType
    plus payload) below 48 bytes and 0 from 48 on."""
    frame = ether(payload=bytes(secure_data_len - 2))
    protected = macsec_protect(KEY, SCI, 9, frame.to_bytes(), confidentiality=confidentiality)
    assert protected[15] == short_length
    assert parse_frame(protected).sec_tag.short_length == short_length
    assert protected == _oracle_seal(KEY, SCI, 9, 0, frame, confidentiality)


def test_sak_builds_its_cipher_once_and_deep_copies_to_itself():
    sak = Sak(b"\x21" * 16)
    assert sak.cipher is sak.cipher
    assert copy.deepcopy(sak) is sak
    assert sak == Sak(b"\x21" * 16)


def pdu(chassis=b"s1", port=3):
    return Lldpdu(chassis_id=chassis, port_id=port).encode()


def test_lldp_key_builds_its_cipher_once(monkeypatch):
    built = []
    real = crypto.AESGCM
    monkeypatch.setattr(crypto, "AESGCM", lambda key: built.append(key) or real(key))
    key = LldpKey(key=b"\x42" * 16, key_id=3)
    for seq in range(1, 4):
        data = lldp_seal(key, bytes([seq]) * 12, seq, pdu(), src=b"\x02" * 6, dst=LLDP_MULTICAST)
        assert lldp_open(key, data) == (seq, pdu())
    assert built == [key.key]
    assert key.cipher is key.cipher
    assert copy.deepcopy(key) is key


def test_lldp_seal_open_round_trip():
    data = lldp_seal(LKEY, bytes(range(12)), 42, pdu(), src=b"\x02" * 6, dst=LLDP_MULTICAST)
    seq, opened = lldp_open(LKEY, data)
    assert seq == 42
    assert opened == pdu()


def test_lldp_seal_matches_independent_oracle():
    nonce = bytes(range(100, 112))
    data = lldp_seal(LKEY, nonce, 77, pdu(b"agg1", 9), src=b"\x02" * 6, dst=LLDP_MULTICAST)
    ct, tag = gcm_oracle.gcm_encrypt(LKEY.key, nonce, pdu(b"agg1", 9), struct.pack(">I", 77))
    assert data[:30] == LLDP_MULTICAST + b"\x02" * 6 + b"\x88\xcc" + nonce + struct.pack(">I", 77)
    assert data[30:] == ct + tag


def test_lldp_distinct_nonces_distinct_ciphertexts():
    a = lldp_seal(LKEY, b"\x01" * 12, 5, pdu(), src=b"\x02" * 6, dst=LLDP_MULTICAST)
    b = lldp_seal(LKEY, b"\x02" * 12, 5, pdu(), src=b"\x02" * 6, dst=LLDP_MULTICAST)
    assert a[30:-16] != b[30:-16]  # the ciphertexts


def test_lldp_seq_is_authenticated():
    raw = lldp_seal(LKEY, b"\x07" * 12, 41, pdu(), src=b"\x02" * 6, dst=LLDP_MULTICAST)
    for pos in range(26, 30):  # the four seq bytes
        for bit in range(8):
            mutated = bytearray(raw)
            mutated[pos] ^= 1 << bit
            with pytest.raises(IntegrityFailure):
                lldp_open(LKEY, bytes(mutated))


def test_lldp_rotated_out_key_fails():
    data = lldp_seal(LKEY, b"\x09" * 12, 4, pdu(), src=b"\x02" * 6, dst=LLDP_MULTICAST)
    with pytest.raises(IntegrityFailure):
        lldp_open(LldpKey(key=b"\x33" * 16, key_id=2), data)


def test_lldp_open_decode_failure():
    ct, tag = gcm_oracle.gcm_encrypt(LKEY.key, b"\x0a" * 12, b"not a pdu", struct.pack(">I", 8))
    data = LLDP_MULTICAST + b"\x02" * 6 + b"\x88\xcc" + b"\x0a" * 12 + struct.pack(">I", 8) + ct + tag
    assert lldp_open(LKEY, data) == (8, b"not a pdu")  # authentic, but no LLDPDU
    with pytest.raises(DecodeFailure):
        read_lldpdu(lldp_open(LKEY, data)[1])


# (call, its error, the error's message): one row per input check of protect,
# validate and seal; each call is otherwise well formed.
BAD_CRYPTO_INPUT = {
    "protect-7-byte-sci": (
        lambda: macsec_protect(KEY, SCI[:7], 1, ether().to_bytes()),
        ValueError,
        "SCI must be 8 bytes",
    ),
    "protect-13-byte-frame": (
        lambda: macsec_protect(KEY, SCI, 1, ether().to_bytes()[:13]),
        TruncatedFrame,
        "13 bytes is below the 14-byte Ethernet minimum",
    ),
    "validate-short-frame": (
        lambda: macsec_validate(KEY, macsec_protect(KEY, SCI, 1, ether(payload=b"").to_bytes())[:-1]),
        TruncatedFrame,
        f"MACsec frame needs >= {MIN_MACSEC_LEN} bytes, got {MIN_MACSEC_LEN - 1}",
    ),
    "seal-11-byte-nonce": (
        lambda: lldp_seal(LKEY, b"\x0b" * 11, 1, pdu(), src=b"\x02" * 6, dst=LLDP_MULTICAST),
        ValueError,
        "nonce must be 12 bytes",
    ),
    "master-15-byte-key": (lambda: MasterKey(b"\x0f" * 15), ValueError, "master key must be 16 bytes"),
    "sak-kn-past-96-bits": (lambda: MasterKey(b"\x0f" * 16).derive_sak(2**96), OverflowError, "int too big to convert"),
    "seal-counter-past-48-bits": (lambda: lldp_nonce(b"\x02" * 6, 2**48), OverflowError, "int too big to convert"),
}


@pytest.mark.parametrize("call, error, message", BAD_CRYPTO_INPUT.values(), ids=BAD_CRYPTO_INPUT)
def test_a_bad_crypto_input_is_refused_before_any_cipher_runs(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_lldp_open_rejects_a_frame_below_the_sealed_minimum():
    data = lldp_seal(LKEY, b"\x0b" * 12, 3, pdu(), src=b"\x02" * 6, dst=LLDP_MULTICAST)
    with pytest.raises(TruncatedFrame):
        lldp_open(LKEY, data[:45])
    with pytest.raises(IntegrityFailure):  # 46 bytes is long enough to be checked
        lldp_open(LKEY, data[:46])


def test_sak_fingerprint_is_stable_and_short():
    assert len(KEY.fingerprint) == 8
    assert KEY.fingerprint == Sak(bytes(range(16))).fingerprint
    assert KEY.fingerprint != Sak(b"\x01" * 16).fingerprint


@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.binary(min_size=12, max_size=12),
    seq=st.integers(0, 2**32 - 1),
    chassis=st.binary(min_size=1, max_size=64),
    port=st.integers(0, 0xFFFF),
)
def test_lldp_seal_open_property(key, nonce, seq, chassis, port):
    lkey = LldpKey(key=key, key_id=1)
    plaintext = Lldpdu(chassis_id=chassis, port_id=port).encode()
    data = lldp_seal(lkey, nonce, seq, plaintext, src=b"\x02" * 6, dst=LLDP_MULTICAST)
    seq_opened, opened = lldp_open(lkey, data)
    assert (seq_opened, opened) == (seq, plaintext)
    assert read_lldpdu(opened) == (chassis, port)
    frame = parse_frame(data)  # the wire parser reads the same layout
    assert isinstance(frame, SecureLldpFrame) and (frame.nonce, frame.seq) == (nonce, seq)


def test_sak_kn_is_aes_128_of_kn_then_one_under_the_master_key():
    """The block is GCM's pre-counter block for the 12-byte IV KN, so the
    oracle's tag of an empty message under that IV is the same SAK."""
    master = random.Random(11).randbytes(16)
    kns = (1, 2, 3, 2**32, 2**64 + 5, 2**96 - 1)
    saks = [MasterKey(master).derive_sak(kn) for kn in kns]
    for kn, sak in zip(kns, saks):
        assert sak.key == gcm_oracle._aes_block(master, kn.to_bytes(12, "big") + b"\x00\x00\x00\x01")
        assert sak.key == gcm_oracle.gcm_encrypt(master, kn.to_bytes(12, "big"), b"", b"")[1]
    assert len({sak.key for sak in saks}) == len(saks)
