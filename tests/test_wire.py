import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from macsecsim.errors import DecodeFailure, TruncatedFrame
from macsecsim.wire import (
    ETHERTYPE_LLDP,
    ETHERTYPE_MACSEC,
    LLDP_MULTICAST,
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


@given(dst=macs, src=macs, ether_type=st.integers(0, 0xFFFF), payload=payloads)
def test_ethernet_round_trip(dst, src, ether_type, payload):
    frame = EthernetFrame(dst=dst, src=src, ether_type=ether_type, payload=payload)
    raw = frame.to_bytes()
    assert len(raw) == 14 + len(payload)
    if ether_type not in (ETHERTYPE_MACSEC, ETHERTYPE_LLDP):
        assert parse_frame(raw) == frame


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
    assert Lldpdu.decode(pdu.encode()) == pdu


def test_lldpdu_example():
    pdu = Lldpdu(chassis_id=b"s1", port_id=3)
    assert Lldpdu.decode(pdu.encode()) == pdu


def test_lldpdu_rejects_garbage():
    with pytest.raises(DecodeFailure):
        Lldpdu.decode(b"\x00")
    with pytest.raises(DecodeFailure):
        Lldpdu.decode(Lldpdu(chassis_id=b"s1", port_id=3).encode() + b"\x00")
    # TLV order is fixed: Port ID first is invalid.
    bad = struct.pack(">H", (2 << 9) | 2) + b"\x00\x01"
    with pytest.raises(DecodeFailure):
        Lldpdu.decode(bad)


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
