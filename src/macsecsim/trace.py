"""Per-link frame capture and pcapng export.

Every transmitted frame becomes one TraceRecord; frames the receiver
refuses keep their record and gain a drop annotation.  Export writes a
pcapng file with one synthetic interface per link direction so standard
analyzers can open captures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from .wire import classify

_SHB_TYPE = 0x0A0D0D0A
_IDB_TYPE = 0x00000001
_EPB_TYPE = 0x00000006
_BYTE_ORDER_MAGIC = 0x1A2B3C4D
_LINKTYPE_ETHERNET = 1


@dataclass
class TraceRecord:
    index: int
    time_us: int
    link: str
    direction: str  # "a2b" | "b2a"
    data: bytes
    classification: str
    dropped: Optional[str] = None


@dataclass
class Trace:
    records: list[TraceRecord] = field(default_factory=list)

    def record(self, time_us: int, link: str, direction: str, data: bytes) -> TraceRecord:
        rec = TraceRecord(
            index=len(self.records),
            time_us=time_us,
            link=link,
            direction=direction,
            data=data,
            classification=classify(data),
        )
        self.records.append(rec)
        return rec

    def query(
        self,
        *,
        link: str | None = None,
        classification: str | None = None,
        direction: str | None = None,
        t_min_us: int | None = None,
    ) -> list[TraceRecord]:
        out = []
        for rec in self.records:
            if link is not None and rec.link != link:
                continue
            if classification is not None and rec.classification != classification:
                continue
            if direction is not None and rec.direction != direction:
                continue
            if t_min_us is not None and rec.time_us < t_min_us:
                continue
            out.append(rec)
        return out


def _pad4(data: bytes) -> bytes:
    return data + b"\x00" * (-len(data) % 4)


def _block(block_type: int, body: bytes) -> bytes:
    body = _pad4(body)
    total = len(body) + 12
    return struct.pack("<II", block_type, total) + body + struct.pack("<I", total)


def _option(code: int, value: bytes) -> bytes:
    return struct.pack("<HH", code, len(value)) + _pad4(value)


_OPT_END = struct.pack("<HH", 0, 0)


def write_pcapng(path, interfaces: list[str], records: list[TraceRecord]) -> None:
    """Write records to `path`; `interfaces` fixes the id of each link direction."""
    iface_ids = {name: i for i, name in enumerate(interfaces)}
    with open(path, "wb") as fh:
        shb = struct.pack("<IHHq", _BYTE_ORDER_MAGIC, 1, 0, -1)
        fh.write(_block(_SHB_TYPE, shb))
        for name in interfaces:
            body = struct.pack("<HHI", _LINKTYPE_ETHERNET, 0, 0)
            body += _option(2, name.encode("utf-8")) + _OPT_END
            fh.write(_block(_IDB_TYPE, body))
        for rec in records:
            iface = iface_ids[f"{rec.link}:{rec.direction}"]
            body = struct.pack(
                "<IIIII",
                iface,
                rec.time_us >> 32,
                rec.time_us & 0xFFFFFFFF,
                len(rec.data),
                len(rec.data),
            )
            body += _pad4(rec.data)
            if rec.dropped:
                body += _option(1, f"dropped: {rec.dropped}".encode("utf-8")) + _OPT_END
            fh.write(_block(_EPB_TYPE, body))


@dataclass
class PcapngPacket:
    interface: str
    time_us: int
    data: bytes
    comment: Optional[str] = None


def read_pcapng(path) -> list[PcapngPacket]:
    """Minimal reader used to round-trip our own exports."""
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0
    interfaces: list[str] = []
    packets: list[PcapngPacket] = []
    while offset < len(blob):
        block_type, total = struct.unpack_from("<II", blob, offset)
        body = blob[offset + 8 : offset + total - 4]
        if block_type == _IDB_TYPE:
            name = ""
            for code, value in _iter_options(body[8:]):
                if code == 2:
                    name = value.decode("utf-8")
            interfaces.append(name)
        elif block_type == _EPB_TYPE:
            iface, ts_high, ts_low, cap_len, _ = struct.unpack_from("<IIIII", body, 0)
            data = body[20 : 20 + cap_len]
            comment = None
            for code, value in _iter_options(body[20 + (-cap_len % 4) + cap_len :]):
                if code == 1:
                    comment = value.decode("utf-8")
            packets.append(
                PcapngPacket(
                    interface=interfaces[iface],
                    time_us=(ts_high << 32) | ts_low,
                    data=data,
                    comment=comment,
                )
            )
        offset += total
    return packets


def _iter_options(data: bytes):
    offset = 0
    while offset + 4 <= len(data):
        code, length = struct.unpack_from("<HH", data, offset)
        if code == 0:
            return
        yield code, data[offset + 4 : offset + 4 + length]
        offset += 4 + length + (-length % 4)
