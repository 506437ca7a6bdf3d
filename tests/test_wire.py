import copy
import pickle
import re
import struct
from dataclasses import FrozenInstanceError, dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from macsecsim.errors import DecodeFailure, TruncatedFrame
from macsecsim.wire import (
    ETHERTYPE_LLDP,
    ETHERTYPE_MACSEC,
    LLDP_MULTICAST,
    MAX_PN,
    MIN_LLDP_LEN,
    EthernetFrame,
    Lldpdu,
    MacsecFrame,
    SecTag,
    SecureLldpFrame,
    classify,
    mac_from_str,
    mac_to_str,
    make_sci,
    parse_frame,
    read_lldpdu,
)

macs = st.binary(min_size=6, max_size=6)
payloads = st.binary(min_size=0, max_size=1500)


def ether(dst=b"\xaa" * 6, src=b"\xbb" * 6, ether_type=0x0800, payload=b""):
    return EthernetFrame(dst=dst, src=src, ether_type=ether_type, payload=payload)


def test_minimum_ethernet_frame():
    raw = b"\x01\x02\x03\x04\x05\x06" + b"\x0a\x0b\x0c\x0d\x0e\x0f" + struct.pack(">H", 0x0800)
    frame = parse_frame(raw)
    assert isinstance(frame, EthernetFrame)
    assert frame.ether_type == 0x0800
    assert frame.payload == b""


def test_secure_lldp_field_order():
    nonce = bytes(range(12))
    ciphertext = b"\xcc" * 8
    icv = b"\xdd" * 16
    raw = (
        LLDP_MULTICAST
        + b"\x02\x00\x00\x00\x00\x01"
        + struct.pack(">H", ETHERTYPE_LLDP)
        + nonce
        + struct.pack(">I", 77)
        + ciphertext
        + icv
    )
    frame = parse_frame(raw)
    assert isinstance(frame, SecureLldpFrame)
    assert frame.nonce == nonce
    assert frame.seq == 77
    assert frame.ciphertext == ciphertext
    assert frame.icv == icv
    assert frame.to_bytes() == raw


def test_truncated_macsec_frame():
    raw = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", ETHERTYPE_MACSEC) + b"\x00" * 10
    with pytest.raises(TruncatedFrame):
        parse_frame(raw)


def test_frame_below_ethernet_minimum():
    with pytest.raises(TruncatedFrame):
        parse_frame(b"\x00" * 13)


def test_truncated_sealed_lldp_frame():
    raw = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", ETHERTYPE_LLDP) + b"\x00" * (MIN_LLDP_LEN - 14)
    assert isinstance(parse_frame(raw), SecureLldpFrame)
    with pytest.raises(TruncatedFrame, match=f"^sealed LLDP frame needs >= {MIN_LLDP_LEN} bytes, got {MIN_LLDP_LEN - 1}$"):
        parse_frame(raw[:-1])


MAC, ICV = b"\x02" * 6, b"\x0c" * 16
TAG = dict(tci_an=0x20, short_length=0, packet_number=1, sci=b"\x05" * 8)
# Fields each wire class accepts; each row of BAD_FIELDS breaks one of them.
VALID = {
    EthernetFrame: dict(dst=MAC, src=MAC, ether_type=0x0800, payload=b""),
    SecTag: TAG,
    MacsecFrame: dict(dst=MAC, src=MAC, sec_tag=SecTag(**TAG), secure_data=b"\x08\x00", icv=ICV),
    SecureLldpFrame: dict(dst=LLDP_MULTICAST, src=MAC, nonce=b"\x0b" * 12, seq=0, ciphertext=b"", icv=ICV),
    Lldpdu: dict(chassis_id=b"s1", port_id=3),
}

BAD_FIELDS = [
    (EthernetFrame, dict(ether_type=0x10000), "ether_type out of range"),
    (SecTag, dict(sci=b"\x05" * 7), "SCI must be 8 bytes"),
    (SecTag, dict(packet_number=MAX_PN + 1), "packet number out of range"),
    (MacsecFrame, dict(dst=MAC[:5]), "MAC addresses must be 6 bytes"),
    (MacsecFrame, dict(icv=ICV[:15]), "ICV must be 16 bytes"),
    (MacsecFrame, dict(secure_data=b"\x08"), "secure data carries at least the original EtherType"),
    (SecureLldpFrame, dict(src=MAC + b"\x02"), "MAC addresses must be 6 bytes"),
    (SecureLldpFrame, dict(nonce=b"\x0b" * 11), "nonce must be 12 bytes"),
    (SecureLldpFrame, dict(seq=2**32), "seq out of range"),
    (SecureLldpFrame, dict(icv=ICV + b"\x0c"), "ICV must be 16 bytes"),
    (Lldpdu, dict(chassis_id=b"c" * 65), "chassis id must be 1..64 bytes"),
    (Lldpdu, dict(port_id=65536), "port id out of range"),
]


@pytest.mark.parametrize(
    "cls, bad, message", BAD_FIELDS, ids=[f"{cls.__name__}-{next(iter(bad))}" for cls, bad, _ in BAD_FIELDS]
)
def test_a_wire_class_refuses_each_bad_field(cls, bad, message):
    cls(**VALID[cls])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**{**VALID[cls], **bad})


@given(dst=macs, src=macs, ether_type=st.integers(0, 0xFFFF), payload=payloads)
def test_ethernet_round_trip(dst, src, ether_type, payload):
    frame = EthernetFrame(dst=dst, src=src, ether_type=ether_type, payload=payload)
    raw = frame.to_bytes()
    assert len(raw) == 14 + len(payload)
    if ether_type not in (ETHERTYPE_MACSEC, ETHERTYPE_LLDP):
        assert parse_frame(raw) == frame


@dataclass(frozen=True)
class ReferenceEthernetFrame:
    """The frozen dataclass `EthernetFrame` was before it held its wire
    bytes: four fields, checked once, serialized on each `to_bytes`."""

    dst: bytes
    src: bytes
    ether_type: int
    payload: bytes

    def __post_init__(self):
        if len(self.dst) != 6 or len(self.src) != 6:
            raise ValueError("MAC addresses must be 6 bytes")
        if not 0 <= self.ether_type <= 0xFFFF:
            raise ValueError("ether_type out of range")

    def to_bytes(self) -> bytes:
        return self.dst + self.src + struct.pack(">H", self.ether_type) + self.payload


def _built(cls, *fields):
    try:
        return cls(*fields)
    except ValueError as exc:
        return ValueError, str(exc)


ether_fields = st.tuples(macs, macs, st.integers(0, 0xFFFF), st.binary(max_size=64))
bad_ether_fields = st.tuples(
    st.sampled_from([b"\x02" * 5, b"\x02" * 6, b"\x02" * 7]),
    st.sampled_from([b"\x04" * 5, b"\x04" * 6, b"\x04" * 7]),
    st.sampled_from([-1, 0, 0xFFFF, 0x10000]),
    st.binary(max_size=8),
)


@given(fields=st.one_of(ether_fields, bad_ether_fields), other=ether_fields)
def test_ethernet_frame_agrees_with_the_reference_dataclass(fields, other):
    frame, reference = _built(EthernetFrame, *fields), _built(ReferenceEthernetFrame, *fields)
    if isinstance(frame, tuple) or isinstance(reference, tuple):
        assert frame == reference  # both refused, with the same ValueError
        return
    assert [getattr(frame, f) for f in ("dst", "src", "ether_type", "payload")] == list(fields)
    assert frame.to_bytes() == reference.to_bytes()
    assert repr(frame) == repr(reference).replace("ReferenceEthernetFrame(", "EthernetFrame(", 1)
    for pair in (other, fields):
        same = EthernetFrame(*pair) == frame
        assert same == (ReferenceEthernetFrame(*pair) == reference)
        assert not same or hash(EthernetFrame(*pair)) == hash(frame)
    assert EthernetFrame(*fields) != reference  # frames of another class are never equal


def test_ethernet_frame_is_frozen_and_round_trips():
    frame = ether(payload=b"abc")
    for field in ("dst", "payload", "_data", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(frame, field, b"x")
        with pytest.raises(FrozenInstanceError):
            delattr(frame, field)
    assert not hasattr(frame, "__dict__")
    assert parse_frame(frame.to_bytes()) == frame
    assert pickle.loads(pickle.dumps(frame)) == copy.deepcopy(frame) == frame


def test_parse_frame_wraps_ethernet_bytes_without_copying():
    raw = ether(payload=b"x" * 100).to_bytes()
    assert parse_frame(raw).to_bytes() is raw
    copied = parse_frame(bytearray(raw))  # a mutable buffer is copied once
    assert copied.to_bytes() == raw and type(copied.to_bytes()) is bytes


@given(
    dst=macs,
    src=macs,
    tci=st.integers(0, 255),
    sl=st.integers(0, 255),
    pn=st.integers(0, 2**32 - 1),
    sci=st.binary(min_size=8, max_size=8),
    secure_data=st.binary(min_size=2, max_size=200),
    icv=st.binary(min_size=16, max_size=16),
)
def test_macsec_round_trip_and_length(dst, src, tci, sl, pn, sci, secure_data, icv):
    tag = SecTag(tci_an=tci, short_length=sl, packet_number=pn, sci=sci)
    frame = MacsecFrame(dst=dst, src=src, sec_tag=tag, secure_data=secure_data, icv=icv)
    raw = frame.to_bytes()
    assert len(raw) == 14 + 14 + len(secure_data) + 16
    assert parse_frame(raw) == frame
    assert parse_frame(raw).sec_tag.an == tci & 0x03


@given(
    src=macs,
    nonce=st.binary(min_size=12, max_size=12),
    seq=st.integers(0, 2**32 - 1),
    ciphertext=st.binary(min_size=0, max_size=120),
    icv=st.binary(min_size=16, max_size=16),
)
def test_secure_lldp_round_trip(src, nonce, seq, ciphertext, icv):
    frame = SecureLldpFrame(
        dst=LLDP_MULTICAST, src=src, nonce=nonce, seq=seq, ciphertext=ciphertext, icv=icv
    )
    assert parse_frame(frame.to_bytes()) == frame


@given(chassis=st.text(min_size=1, max_size=21), port=st.integers(0, 0xFFFF))
def test_lldpdu_round_trip(chassis, port):
    pdu = Lldpdu(chassis_id=chassis.encode("utf-8")[:64] or b"x", port_id=port)
    assert Lldpdu(*read_lldpdu(pdu.encode())) == pdu


def test_lldpdu_example():
    pdu = Lldpdu(chassis_id=b"s1", port_id=3)
    assert Lldpdu(*read_lldpdu(pdu.encode())) == pdu


def test_lldpdu_rejects_garbage():
    with pytest.raises(DecodeFailure):
        read_lldpdu(b"\x00")
    with pytest.raises(DecodeFailure):
        read_lldpdu(Lldpdu(chassis_id=b"s1", port_id=3).encode() + b"\x00")
    # TLV order is fixed: Port ID first is invalid.
    bad = struct.pack(">H", (2 << 9) | 2) + b"\x00\x01"
    with pytest.raises(DecodeFailure):
        read_lldpdu(bad)


def reference_read_lldpdu(data: bytes) -> tuple[bytes, int]:
    """The TLV walk the LLDPDU decoder ran before `read_lldpdu`: each TLV's
    header, type and length checked in turn, then the fields' sizes."""
    fields = {}
    offset = 0
    for expected in (1, 2, 0):  # Chassis ID, Port ID, End
        if len(data) < offset + 2:
            raise DecodeFailure("LLDPDU ends mid-TLV")
        header = struct.unpack(">H", data[offset : offset + 2])[0]
        tlv_type, length = header >> 9, header & 0x1FF
        offset += 2
        if tlv_type != expected:
            raise DecodeFailure(f"expected TLV {expected}, found {tlv_type}")
        if len(data) < offset + length:
            raise DecodeFailure("TLV value truncated")
        fields[tlv_type] = data[offset : offset + length]
        offset += length
    if offset != len(data):
        raise DecodeFailure("trailing bytes after End TLV")
    if len(fields[2]) != 2:
        raise DecodeFailure("Port ID TLV must be 2 bytes")
    if not 0 < len(fields[1]) <= 64:
        raise DecodeFailure("chassis id must be 1..64 bytes")
    return fields[1], struct.unpack(">H", fields[2])[0]


def _outcome(read, data):
    try:
        return read(data)
    except DecodeFailure:
        return DecodeFailure


def _tlv(tlv_type, value):
    return struct.pack(">H", (tlv_type << 9) | len(value)) + value


@st.composite
def lldpdu_like(draw):
    """Near-LLDPDUs: chassis IDs around the 1..64 bounds, Port ID values of
    0..3 bytes, End TLVs with a value, wrong TLV types, then a mutation."""
    types = draw(st.sampled_from([(1, 2, 0)] * 4 + [(2, 1, 0), (1, 2, 1), (0, 2, 0), (1, 3, 0), (65, 2, 0)]))
    chassis = draw(st.one_of(st.sampled_from([0, 1, 64, 65]), st.integers(0, 70)))
    port = draw(st.sampled_from([2, 2, 2, 0, 1, 3]))
    end = draw(st.sampled_from([0, 0, 0, 1, 2, 511]))
    data = b"".join(
        _tlv(t, draw(st.binary(min_size=n, max_size=n))) for t, n in zip(types, (chassis, port, end))
    )
    mutation = draw(st.sampled_from(["none", "flip", "truncate", "append"]))
    if mutation == "flip" and data:
        pos, bit = draw(st.integers(0, len(data) - 1)), draw(st.integers(0, 7))
        data = data[:pos] + bytes([data[pos] ^ 1 << bit]) + data[pos + 1 :]
    elif mutation == "truncate":
        data = data[: draw(st.integers(0, len(data)))]
    elif mutation == "append":
        data += draw(st.binary(min_size=1, max_size=4))
    return data


@given(data=st.one_of(lldpdu_like(), st.binary(max_size=80)))
def test_read_lldpdu_agrees_with_the_tlv_walk(data):
    expected = _outcome(reference_read_lldpdu, data)
    assert _outcome(read_lldpdu, data) == expected  # raises nothing but DecodeFailure
    if expected is not DecodeFailure:
        assert Lldpdu(*read_lldpdu(data)) == Lldpdu(*expected)


def test_read_lldpdu_accepts_an_end_tlv_with_a_value():
    data = Lldpdu(chassis_id=b"s1", port_id=3).encode()[:-2] + _tlv(0, b"xyz")
    assert read_lldpdu(data) == reference_read_lldpdu(data) == (b"s1", 3)
    with pytest.raises(DecodeFailure):
        read_lldpdu(data[:-1])
    with pytest.raises(DecodeFailure):
        read_lldpdu(data + b"\x00")
    # A header of 512 is a type-1 TLV of length 0, not an End TLV of length 512.
    typed = data[:-5] + struct.pack(">H", 1 << 9) + bytes(512)
    assert _outcome(read_lldpdu, typed) == _outcome(reference_read_lldpdu, typed) == DecodeFailure


@pytest.mark.parametrize("chassis_len, ok", [(0, False), (1, True), (64, True), (65, False)])
def test_read_lldpdu_bounds_the_chassis_id(chassis_len, ok):
    data = _tlv(1, b"c" * chassis_len) + _tlv(2, b"\x00\x07") + _tlv(0, b"")
    assert _outcome(read_lldpdu, data) == ((b"c" * chassis_len, 7) if ok else DecodeFailure)
    assert _outcome(reference_read_lldpdu, data) == _outcome(read_lldpdu, data)


def _field_values(frame):
    if isinstance(frame, EthernetFrame):
        return {
            "dst": frame.dst,
            "src": frame.src,
            "ether_type": frame.ether_type,
            "payload": frame.payload,
        }
    if isinstance(frame, MacsecFrame):
        return {
            "dst": frame.dst,
            "src": frame.src,
            "tci_an": frame.sec_tag.tci_an,
            "short_length": frame.sec_tag.short_length,
            "packet_number": frame.sec_tag.packet_number,
            "sci": frame.sec_tag.sci,
            "secure_data": frame.secure_data,
            "icv": frame.icv,
        }
    return {
        "dst": frame.dst,
        "src": frame.src,
        "nonce": frame.nonce,
        "seq": frame.seq,
        "ciphertext": frame.ciphertext,
        "icv": frame.icv,
    }


@pytest.mark.parametrize(
    "frame",
    [
        ether(payload=b"hello-world-123"),
        MacsecFrame(
            dst=b"\xaa" * 6,
            src=b"\xbb" * 6,
            sec_tag=SecTag(tci_an=0x2C, short_length=10, packet_number=9, sci=make_sci(b"\xbb" * 6, 2)),
            secure_data=b"\x08\x00payload!",
            icv=b"\x99" * 16,
        ),
        SecureLldpFrame(
            dst=LLDP_MULTICAST,
            src=b"\xbb" * 6,
            nonce=bytes(range(12)),
            seq=41,
            ciphertext=b"\xc0" * 9,
            icv=b"\x88" * 16,
        ),
    ],
    ids=["ethernet", "macsec", "secure_lldp"],
)
def test_single_byte_position_stability(frame):
    """Each mutated byte changes exactly one field, reclassifies, or errors."""
    raw = frame.to_bytes()
    baseline = _field_values(frame)
    for pos in range(len(raw)):
        mutated = bytearray(raw)
        mutated[pos] ^= 0xFF
        try:
            reparsed = parse_frame(bytes(mutated))
        except TruncatedFrame:
            continue
        if type(reparsed) is not type(frame):
            assert 12 <= pos < 14  # only EtherType bytes may reclassify
            continue
        diffs = [k for k, v in _field_values(reparsed).items() if baseline[k] != v]
        assert len(diffs) == 1, f"byte {pos} changed fields {diffs}"


def test_mac_string_helpers():
    assert mac_to_str(b"\x02\x00\x00\x00\x10\x01") == "02:00:00:00:10:01"
    assert mac_from_str("02:00:00:00:10:01") == b"\x02\x00\x00\x00\x10\x01"
    with pytest.raises(ValueError):
        mac_from_str("02:00:00")


def test_classify():
    assert classify(ether().to_bytes()) == "ethernet"
    assert classify(b"\x00" * 12 + struct.pack(">H", ETHERTYPE_MACSEC)) == "macsec"
    assert classify(b"\x00" * 12 + struct.pack(">H", ETHERTYPE_LLDP)) == "secure_lldp"
    assert classify(b"\x00") == "ethernet"


def test_sci_layout():
    assert make_sci(b"\x02\x00\x00\x00\x00\x07", 513) == b"\x02\x00\x00\x00\x00\x07\x02\x01"


@given(data=st.binary(min_size=0, max_size=200))
def test_parse_frame_is_total(data):
    """Arbitrary bytes either classify cleanly or raise TruncatedFrame."""
    try:
        frame = parse_frame(data)
    except TruncatedFrame:
        return
    assert type(frame) in (EthernetFrame, MacsecFrame, SecureLldpFrame)
    assert frame.to_bytes() == data
