"""Naive trace used as the chunked trace's equivalence oracle.

One list of ``(time_us, link, direction, data)`` row tuples and a dict of
drops, with the same calls as `macsecsim.trace.Trace`; its pcapng writer
packs every block by hand from the format's field list.  Nothing here is
shared with the module under test but the `TraceRecord` view it returns.
"""

from __future__ import annotations

import struct

from macsecsim.trace import TraceRecord
from macsecsim.wire import classify


class ReferenceTrace:
    def __init__(self):
        self.links: list[str] = []
        self.rows: list[tuple[int, str, str, bytes]] = []
        self.drops: dict[int, str] = {}

    def add_link(self, name: str) -> int:
        self.links.append(name)
        return 2 * (len(self.links) - 1)

    def record(self, time_us: int, wire: int, data: bytes) -> int:
        direction = "b2a" if wire % 2 else "a2b"
        self.rows.append((time_us, self.links[wire // 2], direction, data))
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
        out = []
        for i, (time_us, rec_link, rec_direction, data) in enumerate(self.rows):
            if link is not None and rec_link != link:
                continue
            if classification is not None and classify(data) != classification:
                continue
            if direction is not None and rec_direction != direction:
                continue
            if t_min_us is not None and time_us < t_min_us:
                continue
            out.append(TraceRecord(i, time_us, rec_link, rec_direction, data, self.drops.get(i)))
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
    """A section header, one interface description per name, one enhanced packet per row."""
    out = [_block(0x0A0D0D0A, struct.pack("<IHHq", 0x1A2B3C4D, 1, 0, -1))]
    for name in interfaces:
        value = name.encode("utf-8")
        body = struct.pack("<HHI", 1, 0, 0) + struct.pack("<HH", 2, len(value)) + _padded(value)
        out.append(_block(0x00000001, body + struct.pack("<HH", 0, 0)))
    for i, (time_us, link, direction, data) in enumerate(trace.rows):
        iface = interfaces.index(f"{link}:{direction}")
        body = struct.pack("<IIIII", iface, time_us >> 32, time_us & 0xFFFFFFFF, len(data), len(data))
        body += _padded(data)
        if trace.drops.get(i):
            body += _comment(f"dropped: {trace.drops[i]}")
        out.append(_block(0x00000006, body))
    return b"".join(out)
