"""Per-link frame capture and pcapng export.

The trace keeps one row per transmitted frame, the tuple
``(time_us, link, direction, data)``, and a dict from row index to drop
reason for the frames the receiver refused: `record` returns the index that
`drop` takes.  Rows hold only atomic values, so the garbage collector stops
tracking them.  `Trace.query` (and `records`, the unfiltered query) builds
`TraceRecord` views of the rows on demand, and `trace[i]` builds one;
editing a view changes nothing in the trace.  Export reads the rows and
writes a pcapng file with one synthetic interface per link direction so
standard analyzers can open captures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from .wire import classify

_SHB_TYPE = 0x0A0D0D0A
_IDB_TYPE = 0x00000001
_EPB_TYPE = 0x00000006
_BYTE_ORDER_MAGIC = 0x1A2B3C4D
_LINKTYPE_ETHERNET = 1


@dataclass
class TraceRecord:
    """A view of one captured frame."""

    index: int
    time_us: int
    link: str
    direction: str  # "a2b" | "b2a"
    data: bytes
    dropped: Optional[str] = None

    @property
    def classification(self) -> str:
        return classify(self.data)


class Trace:
    def __init__(self):
        self._rows: list[tuple[int, str, str, bytes]] = []
        self._drops: dict[int, str] = {}

    def record(self, time_us: int, link: str, direction: str, data: bytes) -> int:
        """Capture one frame; returns its index for `drop`."""
        rows = self._rows
        rows.append((time_us, link, direction, data))
        return len(rows) - 1

    def drop(self, index: int, reason: str) -> None:
        """Annotate the frame at `index` as refused by its receiver."""
        self._drops[index] = reason

    def __getitem__(self, index: int) -> TraceRecord:
        """A view of one captured frame; a negative index counts from the end."""
        row = self._rows[index]
        if index < 0:
            index += len(self._rows)
        return TraceRecord(index, *row, self._drops.get(index))

    @property
    def records(self) -> list[TraceRecord]:
        """A fresh view of every captured frame, in capture order."""
        return self.query()

    def query(
        self,
        *,
        link: str | None = None,
        classification: str | None = None,
        direction: str | None = None,
        t_min_us: int | None = None,
    ) -> list[TraceRecord]:
        out = []
        for i, (time_us, rec_link, rec_direction, data) in enumerate(self._rows):
            if link is not None and rec_link != link:
                continue
            if classification is not None and classify(data) != classification:
                continue
            if direction is not None and rec_direction != direction:
                continue
            if t_min_us is not None and time_us < t_min_us:
                continue
            out.append(TraceRecord(i, time_us, rec_link, rec_direction, data, self._drops.get(i)))
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


def write_pcapng(path, interfaces: list[str], trace: Trace) -> None:
    """Write the trace's frames to `path`; `interfaces` fixes the id of each link direction."""
    iface_ids = {name: i for i, name in enumerate(interfaces)}
    drops = trace._drops
    with open(path, "wb") as fh:
        shb = struct.pack("<IHHq", _BYTE_ORDER_MAGIC, 1, 0, -1)
        fh.write(_block(_SHB_TYPE, shb))
        for name in interfaces:
            body = struct.pack("<HHI", _LINKTYPE_ETHERNET, 0, 0)
            body += _option(2, name.encode("utf-8")) + _OPT_END
            fh.write(_block(_IDB_TYPE, body))
        for index, (time_us, link, direction, data) in enumerate(trace._rows):
            iface = iface_ids[f"{link}:{direction}"]
            body = struct.pack("<IIIII", iface, time_us >> 32, time_us & 0xFFFFFFFF, len(data), len(data))
            body += _pad4(data)
            dropped = drops.get(index)
            if dropped:
                body += _option(1, f"dropped: {dropped}".encode("utf-8")) + _OPT_END
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
