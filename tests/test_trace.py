"""The chunked trace against a list-of-tuples reference, and its cost per
row and per simulated frame."""

import gc
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macsecsim.netsim import Simulation
from macsecsim.topology import chain_spec
from macsecsim.trace import CHUNK_ROWS, HEAD_LEN, Trace, read_pcapng, write_pcapng
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


def replay(ops, start_us: int, snaplen: int | None):
    """Apply `ops` to a chunked trace and to the reference; at least three chunks' worth."""
    trace, ref = Trace(snaplen), ReferenceTrace(snaplen)
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
    for snaplen in (None, 14, 30, HEAD_LEN):
        check_against_the_reference(ops, start_us, snaplen)


def check_against_the_reference(ops, start_us: int, snaplen: int | None):
    trace, ref = replay(ops, start_us, snaplen)
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
    filters = [{"link": link} for link in LINKS]
    filters += [{"direction": d} for d in ("a2b", "b2a")]
    filters += [{"classification": c} for c in ("ethernet", "macsec", "secure_lldp")]
    filters += [{"t_min_us": t} for t in (start_us, t_mid, t_mid + 1, 2**62)]
    filters += [{"link": LINKS[2], "direction": "b2a", "classification": "ethernet", "t_min_us": t_mid}]
    for kwargs in filters:
        assert trace.query(**kwargs) == ref.query(**kwargs), kwargs
    # A filter naming nothing the trace holds is a caller's typo, not an empty match.
    typos = [{"link": "nosuch"}, {"direction": "up"}, {"direction": "A2B"}, {"classification": "Ethernet"}]
    for kwargs in typos:
        with pytest.raises(ValueError):
            trace.query(**kwargs)
        with pytest.raises(ValueError):
            ref.query(**kwargs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.pcapng"
        write_pcapng(path, trace)
        assert path.read_bytes() == reference_pcapng(INTERFACES, ref)
        packets = read_pcapng(path)
    assert [(p.data, p.length) for p in packets] == [(rec.data, rec.length) for rec in ref.records]


def test_a_head_is_the_frame_start_and_a_whole_frame_row_is_its_bytes_object():
    frame = bytes(range(64))
    heads, whole = Trace(), Trace(None)
    for trace in (heads, whole):
        trace.record(0, trace.add_link("l"), frame)
    assert (heads[0].data, heads[0].length) == (frame[:HEAD_LEN], 64)
    assert whole[0].data is frame and whole[0].length == 64
    with pytest.raises(ValueError):
        Trace(0)


def _broadcast_rows(spec, keep_frames: bool):
    """h1's broadcast on the hierarchical fabric: the row of h1's send and,
    by sending switch, the rows the flood leaves on wires to hosts."""
    sim = Simulation(spec, seed=1, keep_frames=keep_frames)
    sim.quiesce()
    start = len(sim.trace)
    sim.host_send("h1", b"\xff" * 6, 0x0800, bytes(100))
    sim.quiesce()
    sent, *rows = sim.trace.records[start:]
    to_hosts = {}
    for rec in rows:
        link = sim.links[rec.link]
        sender, receiver = (link.a, link.b) if rec.direction == "a2b" else (link.b, link.a)
        if receiver[0] in sim.hosts:
            to_hosts.setdefault(sender[0], []).append(rec)
    return sent, to_hosts


def test_the_rows_of_one_flood_share_one_head(hierarchical_spec):
    sent, to_hosts = _broadcast_rows(hierarchical_spec, keep_frames=False)
    assert sorted(map(len, to_hosts.values())) == [2, 3, 3, 3]  # access1 skips h1's own port
    for rows in to_hosts.values():
        assert all(rec.data is rows[0].data for rec in rows)
    assert to_hosts["access1"][0].data == sent.data[:HEAD_LEN] and len(sent.data) == HEAD_LEN
    # With whole frames a row holds the very bytes object sent: access1 floods h1's bytes.
    sent, to_hosts = _broadcast_rows(hierarchical_spec, keep_frames=True)
    assert len(sent.data) == 114 and all(rec.data is sent.data for rec in to_hosts["access1"])


def test_a_trace_row_costs_at_most_32_bytes_beyond_its_frame():
    trace = Trace(None)
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


FRAMES_SENT = 200


def _retained_per_frame(keep_frames: bool) -> tuple[float, float]:
    """Bytes a quiesced `chain_spec(3)` keeps per 1500-B frame sent h1 -> h2,
    and the trace rows each frame adds."""
    sim = Simulation(chain_spec(3), seed=1, keep_frames=keep_frames)
    sim.quiesce()
    h2 = sim.hosts["h2"]
    payload = bytes(1500 - 14)
    rows = len(sim.trace)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(FRAMES_SENT):
            sim.host_send("h1", h2.mac, 0x0800, payload)
        sim.quiesce()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(h2.received) == FRAMES_SENT
    return grown / FRAMES_SENT, (len(sim.trace) - rows) / FRAMES_SENT


def test_a_simulated_frame_keeps_only_its_heads_in_the_trace():
    """By default each row keeps a head of at most one 80-B block plus its
    columns; the inbox keeps the one delivered frame whole."""
    per_frame, rows = _retained_per_frame(keep_frames=False)
    assert rows >= 4
    assert per_frame < rows * 96 + 1700, (per_frame, rows)
    per_frame, rows = _retained_per_frame(keep_frames=True)
    assert per_frame >= rows * 1500, (per_frame, rows)
