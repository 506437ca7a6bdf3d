"""The chunked trace against a list-of-tuples reference, and its cost per row."""

import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macsecsim.trace import CHUNK_ROWS, Trace, write_pcapng
from reference_trace import ReferenceTrace, reference_pcapng

LINKS = ("s1-s2", "s2-s3", "s2-h1")
INTERFACES = [f"{link}:{direction}" for link in LINKS for direction in ("a2b", "b2a")]
FRAMES = (
    bytes(range(10)),  # below the Ethernet header: classified ethernet
    bytes(12) + b"\x08\x00" + b"payload",
    bytes(12) + b"\x88\xe5" + bytes(32),
    bytes(12) + b"\x88\xcc" + bytes(33),
)
REASONS = ("truncated", "link_down", "replay_pn", "")

# A run records `count` frames on one wire, times stepping by `step` µs; a drop
# annotates the row at `position` modulo the rows recorded so far.
runs = st.tuples(
    st.just("run"),
    st.integers(1, CHUNK_ROWS),
    st.integers(0, 2 * len(LINKS) - 1),
    st.sampled_from([0, 1, 7, 2**31]),
    st.integers(0, len(FRAMES) - 1),
)
drops = st.tuples(st.just("drop"), st.integers(0, 2**20), st.sampled_from(REASONS))


def replay(ops, start_us: int):
    """Apply `ops` to a chunked trace and to the reference; at least three chunks' worth."""
    trace, ref = Trace(), ReferenceTrace()
    for link in LINKS:
        assert trace.add_link(link) == ref.add_link(link)
    time_us = start_us
    padding = ("run", 2 * CHUNK_ROWS + 1, 5, 1, 1)
    for op in [*ops, padding]:
        if op[0] == "drop":
            _, position, reason = op
            if len(ref):
                trace.drop(position % len(ref), reason)
                ref.drop(position % len(ref), reason)
            continue
        _, count, wire, step, frame = op
        for _ in range(count):
            index = trace.record(time_us, wire, FRAMES[frame])
            assert index == ref.record(time_us, wire, FRAMES[frame])
            time_us += step
    return trace, ref


@settings(max_examples=8, derandomize=True, deadline=None)
@given(ops=st.lists(st.one_of(runs, drops), max_size=8), start_us=st.sampled_from([0, 2**32 - 3, 2**40]))
def test_the_chunked_trace_reads_as_the_reference(ops, start_us):
    trace, ref = replay(ops, start_us)
    n = len(ref)
    assert len(trace) == n > 2 * CHUNK_ROWS
    assert trace.records == ref.records
    edges = {0, 1, n - 1, n // 2, *(k * CHUNK_ROWS + d for k in (1, 2) for d in (-1, 0, 1))} & set(range(n))
    for i in sorted(edges | {i - n for i in edges}):
        assert trace[i] == ref[i], i
    for i in (n, n + CHUNK_ROWS, -n - 1):
        with pytest.raises(IndexError):
            trace[i]
        with pytest.raises(IndexError):
            ref[i]
    t_mid = ref[n // 2].time_us
    filters = [{"link": link} for link in (*LINKS, "nosuch")]
    filters += [{"direction": d} for d in ("a2b", "b2a", "up")]
    filters += [{"classification": c} for c in ("ethernet", "macsec", "secure_lldp")]
    filters += [{"t_min_us": t} for t in (start_us, t_mid, t_mid + 1, 2**62)]
    filters += [{"link": LINKS[2], "direction": "b2a", "classification": "ethernet", "t_min_us": t_mid}]
    for kwargs in filters:
        assert trace.query(**kwargs) == ref.query(**kwargs), kwargs
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.pcapng"
        write_pcapng(path, INTERFACES, trace)
        assert path.read_bytes() == reference_pcapng(INTERFACES, ref)


def test_a_trace_row_costs_at_most_32_bytes_beyond_its_frame():
    trace = Trace()
    wire = trace.add_link("s1-s2")
    data = bytes(64)  # one shared frame, so only the row itself is counted
    rows = 4096
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for time_us in range(rows):
            trace.record(time_us, wire, data)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == rows
    assert grown / rows <= 32, grown / rows
