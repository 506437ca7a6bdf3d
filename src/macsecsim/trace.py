"""Per-link frame capture and pcapng export.

The trace stores its rows in chunks of `CHUNK_ROWS` rows, each three
columns: an `array('q')` of capture times in µs, an `array('I')` of wire
ids and a list of the frames' bytes.  A chunk is allocated whole when its
first row is recorded and never resized, so the trace grows in step with
its rows and keeps no object per row beyond the frame's own bytes.  A dict
from row index to drop reason holds the frames the receiver refused:
`record` returns the index that `drop` takes.

A wire is one direction of a link.  `add_link` gives each link a trace id;
its wire ids are twice that id plus the direction bit, 0 for ``a2b`` and 1
for ``b2a`` (`DIRECTIONS`).  `Trace.query` (and `records`, the unfiltered
query) builds `TraceRecord` views of the rows on demand, mapping each wire
id back to its link name and direction, and `trace[i]` builds one; editing
a view changes nothing in the trace.  Export reads the columns and writes a
pcapng file with one synthetic interface per wire, its id the wire id, so
standard analyzers can open captures.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional

from .wire import classify

_SHB_TYPE = 0x0A0D0D0A
_IDB_TYPE = 0x00000001
_EPB_TYPE = 0x00000006
_BYTE_ORDER_MAGIC = 0x1A2B3C4D
_LINKTYPE_ETHERNET = 1

DIRECTIONS = ("a2b", "b2a")  # indexed by a wire id's low bit

_CHUNK_BITS = 10
CHUNK_ROWS = 1 << _CHUNK_BITS  # rows per chunk
_ROW_MASK = CHUNK_ROWS - 1


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
        self._links: list[str] = []  # trace id -> link name
        self._chunks: list[tuple[array, array, list]] = []  # (times, wire ids, frames)
        self._times = self._wires = self._frames = None  # the last chunk's columns
        self._len = 0
        self._drops: dict[int, str] = {}

    def add_link(self, name: str) -> int:
        """Register a link; returns its `a2b` wire id, and its `b2a` is one more."""
        self._links.append(name)
        return 2 * (len(self._links) - 1)

    def record(self, time_us: int, wire: int, data: bytes) -> int:
        """Capture one frame sent on `wire`; returns its index for `drop`."""
        index = self._len
        row = index & _ROW_MASK
        if not row:
            self._times = array("q", bytes(8 * CHUNK_ROWS))
            self._wires = array("I", bytes(4 * CHUNK_ROWS))
            self._frames = [None] * CHUNK_ROWS
            self._chunks.append((self._times, self._wires, self._frames))
        self._times[row] = time_us
        self._wires[row] = wire
        self._frames[row] = data
        self._len = index + 1
        return index

    def drop(self, index: int, reason: str) -> None:
        """Annotate the frame at `index` as refused by its receiver."""
        self._drops[index] = reason

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int) -> TraceRecord:
        """A view of one captured frame; a negative index counts from the end."""
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("trace index out of range")
        times, wires, frames = self._chunks[index >> _CHUNK_BITS]
        row = index & _ROW_MASK
        wire = wires[row]
        return TraceRecord(
            index, times[row], self._links[wire >> 1], DIRECTIONS[wire & 1], frames[row], self._drops.get(index)
        )

    def _rows(self) -> Iterator[tuple[int, int, int, bytes]]:
        """Every row as ``(index, time_us, wire, data)``, in capture order."""
        for i, (times, wires, frames) in enumerate(self._chunks):
            start = i << _CHUNK_BITS
            yield from zip(range(start, min(start + CHUNK_ROWS, self._len)), times, wires, frames)

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
        links, drops = self._links, self._drops
        for i, time_us, wire, data in self._rows():
            rec_link, rec_direction = links[wire >> 1], DIRECTIONS[wire & 1]
            if link is not None and rec_link != link:
                continue
            if classification is not None and classify(data) != classification:
                continue
            if direction is not None and rec_direction != direction:
                continue
            if t_min_us is not None and time_us < t_min_us:
                continue
            out.append(TraceRecord(i, time_us, rec_link, rec_direction, data, drops.get(i)))
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


def write_pcapng(path, trace: Trace) -> None:
    """Write the trace's frames to `path`, with one interface per registered
    wire, named ``<link>:<direction>``: an interface id is the wire id."""
    drops = trace._drops
    with open(path, "wb") as fh:
        shb = struct.pack("<IHHq", _BYTE_ORDER_MAGIC, 1, 0, -1)
        fh.write(_block(_SHB_TYPE, shb))
        for link in trace._links:
            for direction in DIRECTIONS:
                body = struct.pack("<HHI", _LINKTYPE_ETHERNET, 0, 0)
                body += _option(2, f"{link}:{direction}".encode("utf-8")) + _OPT_END
                fh.write(_block(_IDB_TYPE, body))
        for index, time_us, wire, data in trace._rows():
            body = struct.pack("<IIIII", wire, time_us >> 32, time_us & 0xFFFFFFFF, len(data), len(data))
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
