"""Per-link frame capture and pcapng export.

A trace keeps the first `snaplen` bytes of each frame, its head, and the
frame's length, as a pcapng capture with a SnapLen does.  The default,
`HEAD_LEN`, is the minimum length of a MACsec or sealed-LLDP frame (46
bytes).  It covers every field a trace is read for: the Ethernet header, a
MACsec frame's SecTAG through its SCI (28 bytes) and a sealed probe's nonce
and sequence number (30 bytes).  A frame a receiver refuses as too short
is kept whole.  A 46-byte head is one 80-byte pymalloc block.  A 30-byte
head would be a 64-byte block, the size class of the short-lived 28-byte
AAD slices and headers every protected hop makes, and on the
`fabric_mixed` benchmark that cost about 5% of the data-plane rate
(CPython 3.11, 2-vCPU Xeon).  A
trace built with ``snaplen=None`` keeps whole frames, for callers that
replay or export them; a row then holds the very bytes object it was
given.  Consecutive rows that record one bytes object, as a flood's do,
share one head.

The trace stores its rows in chunks of `CHUNK_ROWS` rows, each four
columns: an `array('q')` of capture times in µs, an `array('I')` of wire
ids, an `array('I')` of frame lengths and a list of the heads.  A chunk is
allocated whole when its first row is recorded and never resized, so the
trace grows in step with its rows and keeps no object per row beyond the
head's bytes.  A dict from row index to drop reason holds the frames the
receiver refused: `record` returns the index that `drop` takes.

A wire is one direction of a link.  `add_link` gives each link a trace id;
its wire ids are twice that id plus the direction bit, 0 for ``a2b`` and 1
for ``b2a`` (`DIRECTIONS`).  `Trace.query` (and `records`, the unfiltered
query) builds `TraceRecord` views of the rows on demand, mapping each wire
id back to its link name and direction, and `trace[i]` builds one; editing
a view changes nothing in the trace.  A filter that names no registered
link, no direction or no frame class raises `ValueError`, so a misspelt
query cannot pass as one that matched nothing.  Export reads the columns
and writes a pcapng file with one synthetic interface per wire, its id the
wire id and its SnapLen the trace's, so standard analyzers can open
captures.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional

from .wire import MIN_FRAME_LEN, classify

_SHB_TYPE = 0x0A0D0D0A
_IDB_TYPE = 0x00000001
_EPB_TYPE = 0x00000006
_BYTE_ORDER_MAGIC = 0x1A2B3C4D
_LINKTYPE_ETHERNET = 1

DIRECTIONS = ("a2b", "b2a")  # indexed by a wire id's low bit
CLASSES = ("ethernet", "macsec", "secure_lldp")  # what `classify` returns
HEAD_LEN = max(MIN_FRAME_LEN.values())  # bytes kept of each frame by default: 46

_CHUNK_BITS = 10
CHUNK_ROWS = 1 << _CHUNK_BITS  # rows per chunk
_ROW_MASK = CHUNK_ROWS - 1


@dataclass
class TraceRecord:
    """A view of one captured frame: `data` is its captured head, `length`
    the frame's length on the wire."""

    index: int
    time_us: int
    link: str
    direction: str  # "a2b" | "b2a"
    data: bytes
    length: int
    dropped: Optional[str] = None

    @property
    def classification(self) -> str:
        return classify(self.data)


class Trace:
    def __init__(self, snaplen: int | None = HEAD_LEN):
        if snaplen is not None and snaplen < 1:
            raise ValueError(f"snaplen must be positive or None, not {snaplen}")
        self.snaplen = snaplen
        self._links: list[str] = []  # trace id -> link name
        self._chunks: list[tuple[array, array, array, list]] = []  # (times, wire ids, lengths, heads)
        self._times = self._wires = self._lengths = self._frames = None  # the last chunk's columns
        self._len = 0
        self._drops: dict[int, str] = {}
        self._last = self._head = None  # the last bytes object recorded, and its head

    def add_link(self, name: str) -> int:
        """Register a link; returns its `a2b` wire id, and its `b2a` is one more."""
        self._links.append(name)
        return 2 * (len(self._links) - 1)

    def record(self, time_us: int, wire: int, data: bytes) -> int:
        """Capture the head and length of one frame sent on `wire`; returns
        its index for `drop`.  ``data[:None]`` is `data` itself.  A flood
        sends one bytes object on many wires, so a row that records the
        same object as the row before stores that row's head again."""
        index = self._len
        row = index & _ROW_MASK
        if not row:
            self._times = array("q", bytes(8 * CHUNK_ROWS))
            self._wires = array("I", bytes(4 * CHUNK_ROWS))
            self._lengths = array("I", bytes(4 * CHUNK_ROWS))
            self._frames = [None] * CHUNK_ROWS
            self._chunks.append((self._times, self._wires, self._lengths, self._frames))
        self._times[row] = time_us
        self._wires[row] = wire
        self._lengths[row] = len(data)
        if data is not self._last:
            self._last = data
            self._head = data[: self.snaplen]
        self._frames[row] = self._head
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
        times, wires, lengths, frames = self._chunks[index >> _CHUNK_BITS]
        row = index & _ROW_MASK
        wire = wires[row]
        return TraceRecord(
            index,
            times[row],
            self._links[wire >> 1],
            DIRECTIONS[wire & 1],
            frames[row],
            lengths[row],
            self._drops.get(index),
        )

    def _rows(self) -> Iterator[tuple[int, int, int, int, bytes]]:
        """Every row as ``(index, time_us, wire, length, head)``, in capture order."""
        for i, (times, wires, lengths, frames) in enumerate(self._chunks):
            start = i << _CHUNK_BITS
            yield from zip(range(start, min(start + CHUNK_ROWS, self._len)), times, wires, lengths, frames)

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
        """The rows matching every filter given, in capture order."""
        links, drops = self._links, self._drops
        if link is not None and link not in links:
            raise ValueError(f"no link {link!r} in the trace")
        if classification is not None and classification not in CLASSES:
            raise ValueError(f"classification must be one of {CLASSES}, not {classification!r}")
        if direction is not None and direction not in DIRECTIONS:
            raise ValueError(f"direction must be a2b or b2a, not {direction!r}")
        out = []
        for i, time_us, wire, length, data in self._rows():
            rec_link, rec_direction = links[wire >> 1], DIRECTIONS[wire & 1]
            if link is not None and rec_link != link:
                continue
            if classification is not None and classify(data) != classification:
                continue
            if direction is not None and rec_direction != direction:
                continue
            if t_min_us is not None and time_us < t_min_us:
                continue
            out.append(TraceRecord(i, time_us, rec_link, rec_direction, data, length, drops.get(i)))
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
    wire, named ``<link>:<direction>``: an interface id is the wire id.  Each
    interface's SnapLen is the trace's (0, no limit, for whole frames), and
    each packet's captured length is its head's, its original length the
    frame's."""
    drops = trace._drops
    with open(path, "wb") as fh:
        shb = struct.pack("<IHHq", _BYTE_ORDER_MAGIC, 1, 0, -1)
        fh.write(_block(_SHB_TYPE, shb))
        for link in trace._links:
            for direction in DIRECTIONS:
                body = struct.pack("<HHI", _LINKTYPE_ETHERNET, 0, trace.snaplen or 0)
                body += _option(2, f"{link}:{direction}".encode("utf-8")) + _OPT_END
                fh.write(_block(_IDB_TYPE, body))
        for index, time_us, wire, length, data in trace._rows():
            body = struct.pack("<IIIII", wire, time_us >> 32, time_us & 0xFFFFFFFF, len(data), length)
            body += _pad4(data)
            dropped = drops.get(index)
            if dropped:
                body += _option(1, f"dropped: {dropped}".encode("utf-8")) + _OPT_END
            fh.write(_block(_EPB_TYPE, body))


@dataclass
class PcapngPacket:
    interface: str
    time_us: int
    data: bytes  # the captured bytes
    length: int  # the packet's original length
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
            iface, ts_high, ts_low, cap_len, orig_len = struct.unpack_from("<IIIII", body, 0)
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
                    length=orig_len,
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
