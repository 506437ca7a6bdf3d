"""Naive trace used as the chunked trace's equivalence oracle.

One list of ``(time_us, link, direction, head, length)`` row tuples and a
dict of drops, with the same calls as `macsecsim.trace.Trace`.  A row keeps
the first `snaplen` bytes of its frame, or the whole frame when `snaplen` is
None, and the frame's length.  Its pcapng writer packs every block by hand
from the format's field list.  Nothing here is shared with the module under
test but the `TraceRecord` view it returns.
"""

from __future__ import annotations

import struct

from macsecsim.trace import TraceRecord
from macsecsim.wire import classify

CLASSES = ("ethernet", "macsec", "secure_lldp")


class ReferenceTrace:
    def __init__(self, snaplen: int | None = None):
        self.snaplen = snaplen
        self.links: list[str] = []
        self.rows: list[tuple[int, str, str, bytes, int]] = []
        self.drops: dict[int, str] = {}

    def add_link(self, name: str) -> int:
        self.links.append(name)
        return 2 * (len(self.links) - 1)

    def record(self, time_us: int, wire: int, data: bytes) -> int:
        direction = "b2a" if wire % 2 else "a2b"
        head = data if self.snaplen is None else data[: self.snaplen]
        self.rows.append((time_us, self.links[wire // 2], direction, head, len(data)))
        return len(self.rows) - 1

    def drop(self, index: int, reason: str) -> None:
        self.drops[index] = reason

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> TraceRecord:
        row = self.rows[index]
        if index < 0:
            index += len(self.rows)
        return TraceRecord(index, *row, self.drops.get(index))

    @property
    def records(self) -> list[TraceRecord]:
        return self.query()

    def query(self, *, link=None, classification=None, direction=None, t_min_us=None) -> list[TraceRecord]:
        if link is not None and link not in self.links:
            raise ValueError(f"no link {link!r} in the trace")
        if classification is not None and classification not in CLASSES:
            raise ValueError(f"no frame class {classification!r}")
        if direction is not None and direction not in ("a2b", "b2a"):
            raise ValueError(f"no direction {direction!r}")
        out = []
        for i, (time_us, rec_link, rec_direction, head, length) in enumerate(self.rows):
            if link is not None and rec_link != link:
                continue
            if classification is not None and classify(head) != classification:
                continue
            if direction is not None and rec_direction != direction:
                continue
            if t_min_us is not None and time_us < t_min_us:
                continue
            out.append(TraceRecord(i, time_us, rec_link, rec_direction, head, length, self.drops.get(i)))
        return out


def _padded(data: bytes) -> bytes:
    return data + bytes(-len(data) % 4)


def _block(block_type: int, body: bytes) -> bytes:
    body = _padded(body)
    return struct.pack("<II", block_type, len(body) + 12) + body + struct.pack("<I", len(body) + 12)


def _comment(text: str) -> bytes:
    value = text.encode("utf-8")
    return struct.pack("<HH", 1, len(value)) + _padded(value) + struct.pack("<HH", 0, 0)


def reference_pcapng(interfaces: list[str], trace: ReferenceTrace) -> bytes:
    """A section header, one interface description per name, one enhanced
    packet per row.  An interface's SnapLen is the trace's, 0 for no limit;
    a packet's captured length is its head's and its original length the
    frame's."""
    out = [_block(0x0A0D0D0A, struct.pack("<IHHq", 0x1A2B3C4D, 1, 0, -1))]
    for name in interfaces:
        value = name.encode("utf-8")
        body = struct.pack("<HHI", 1, 0, trace.snaplen or 0)
        body += struct.pack("<HH", 2, len(value)) + _padded(value)
        out.append(_block(0x00000001, body + struct.pack("<HH", 0, 0)))
    for i, (time_us, link, direction, head, length) in enumerate(trace.rows):
        iface = interfaces.index(f"{link}:{direction}")
        body = struct.pack("<IIIII", iface, time_us >> 32, time_us & 0xFFFFFFFF, len(head), length)
        body += _padded(head)
        if trace.drops.get(i):
            body += _comment(f"dropped: {trace.drops[i]}")
        out.append(_block(0x00000006, body))
    return b"".join(out)
