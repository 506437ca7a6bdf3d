"""The event queue keeps the run order of a heap-only event loop, and its
buckets behave at their edges.

`HeapOnly` is a reference loop of its own: its `schedule`, `_run` and
`pending` keep every entry, as the tuple ``(at_us, seq, housekeeping, fn,
args)``, on one heap, as the loop did before the zero-delay lane and the
per-instant buckets.  Run side by side on the same seed and the same
schedule of faults, replays and host traffic, it and `Simulation` must run
the same events in the same order, which shows in the event count, every
counter, every trace row and the entries still queued.
"""

from heapq import heappop, heappush
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from macsecsim import netsim
from macsecsim.errors import LivelockError
from macsecsim.netsim import Simulation
from macsecsim.topology import TopologySpec, chain_spec

from test_faults import apply_fault, replay_latest_probe

PARAMS = dict(discovery_interval=1, rekey_interval=2, grace=1, lldp_key_rotation=3)
HIERARCHICAL = TopologySpec.from_yaml(Path(__file__).parent.parent / "scenarios" / "hierarchical.yaml")
SPECS = [HIERARCHICAL] + [chain_spec(n) for n in (3, 4, 5)]


class HeapOnly(Simulation):
    """A reference event loop: every entry on one heap, popped in (at_us, seq) order."""

    def __init__(self, spec, seed=None, *, keep_frames=False):
        self._heap = []  # before the build, which queues the registrations
        super().__init__(spec, seed=seed, keep_frames=keep_frames)

    def schedule(self, delay_us, fn, *args, housekeeping=False):
        self._seq += 1
        if not housekeeping:
            self._actionable += 1
        heappush(self._heap, (self._clock_us + delay_us, self._seq, housekeeping, fn, args))

    def pending(self):
        return sorted(self._heap)

    def _run(self, target_us, caller):
        heap = self._heap
        limit = self.params.max_events
        stop = self.events_processed + limit
        while (heap and heap[0][0] <= target_us) if target_us is not None else self._actionable > 0:
            self._clock_us, _, housekeeping, fn, args = heappop(heap)
            if not housekeeping:
                self._actionable -= 1
            self.events_processed += 1
            fn(*args)
            if self.events_processed >= stop:
                raise LivelockError(f"exceeded {limit} events in {caller}")


# Each step picks its switch, link, host or link direction by index, modulo how many the spec has.
faults = st.tuples(st.just("fault"), st.sampled_from(["control", "link"]), st.integers(0, 99), st.booleans())
replays = st.tuples(st.just("replay"), st.integers(0, 99), st.integers(0, 99))
# One frame each way between two hosts every millisecond for `ms` ms: frames
# then reach the switches at the same microsecond as timers and control rounds.
traffic = st.tuples(st.just("traffic"), st.integers(0, 99), st.integers(0, 99), st.integers(1, 30))
steps = st.tuples(st.one_of(faults, replays, traffic), st.integers(0, 3))


def run(cls, spec, seed, schedule):
    sim = cls(spec, seed=seed, keep_frames=True)  # replays whole probes, compares whole rows
    switches = sorted(sim.switches)
    links = [link.name for link in sim.interswitch_links]
    directions = [(link, d) for link in links for d in ("a2b", "b2a")]
    hosts = sorted(sim.hosts)
    for step, seconds in schedule:
        if step[0] == "fault":
            _, kind, i, up = step
            names = switches if kind == "control" else links
            apply_fault(sim, kind, names[i % len(names)], up)
        elif step[0] == "replay":
            _, i, j = step
            replay_latest_probe(sim, directions[i % len(directions)], directions[j % len(directions)])
        else:
            _, i, j, ms = step
            src, dst = hosts[i % len(hosts)], hosts[j % len(hosts)]
            for _ in range(ms):
                sim.host_send(src, sim.hosts[dst].mac, 0x0800, b"there")
                sim.host_send(dst, sim.hosts[src].mac, 0x0800, b"back")
                sim.run_until(sim.now_s() + 0.001)
        sim.run_until(sim.now_s() + seconds)
    # Not quiesce: staggered rekey and retire timers can keep it running to its livelock guard.
    sim.run_until(sim.now_s() + 2)
    return (
        sim.events_processed,
        sim.counters_dump(),
        sim.central.counters.as_dict(),
        [(r.time_us, r.link, r.direction, r.data, r.dropped) for r in sim.trace.records],
        [(at_us, seq, housekeeping, fn.__name__, args) for at_us, seq, housekeeping, fn, args in sim.pending()],
    )


# No shrink phase: a failing example is at most four steps as generated, and shrinking
# it reruns both simulations hundreds of times.
@settings(max_examples=30, derandomize=True, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(
    spec=st.sampled_from(SPECS),
    seed=st.integers(0, 3),
    jitter=st.sampled_from([0.0, 0.0003]),
    schedule=st.lists(steps, max_size=4),
)
def test_the_bucket_queue_runs_events_in_heap_order(spec, seed, jitter, schedule):
    spec = spec.with_params(**PARAMS, latency_jitter=jitter)
    buckets, heap = run(Simulation, spec, seed, schedule), run(HeapOnly, spec, seed, schedule)
    events, switch_counters, central_counters, rows, queued = buckets
    assert events == heap[0]
    assert switch_counters == heap[1]
    assert central_counters == heap[2]
    assert first_difference(rows, heap[3]) is None
    assert first_difference(queued, heap[4]) is None


def first_difference(a: list, b: list) -> int | None:
    """The first index where two lists differ, or None; a short failure
    message where a diff of two long lists would take minutes."""
    if a == b:
        return None
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def stamper(sim, order):
    """A callback that records its name and the clock it ran at."""

    def stamp(name):
        order.append((name, sim.now_us()))

    return stamp


def test_a_quiesce_that_stops_mid_instant_leaves_the_rest_queued_in_order():
    sim = Simulation(chain_spec(2), seed=1)
    sim.quiesce()
    order = []
    stamp = stamper(sim, order)
    due_us = sim.now_us() + 1000
    sim.schedule(1000, stamp, "actionable")
    sim.schedule(1000, stamp, "housekeeping 1", housekeeping=True)
    sim.schedule(1000, stamp, "housekeeping 2", housekeeping=True)
    sim.quiesce()
    assert order == [("actionable", due_us)] and sim.now_us() == due_us
    assert [(at_us, args) for at_us, _seq, _hk, fn, args in sim.pending() if fn is stamp] == [
        (due_us, ("housekeeping 1",)), (due_us, ("housekeeping 2",)),
    ]
    sim.run_until(sim.now_s())  # a target at the clock runs the rest of its instant
    assert order[1:] == [("housekeeping 1", due_us), ("housekeeping 2", due_us)]
    assert stamp not in {fn for _at, _seq, _hk, fn, _args in sim.pending()}


@pytest.mark.parametrize("step_us", [0, 1], ids=["deque", "lone"])
def test_a_livelock_mid_instant_leaves_exactly_the_entries_that_did_not_run(step_us):
    """`deque`: the five entries share one instant; `lone`: each is the only
    entry at its own instant."""
    sim = Simulation(chain_spec(2), seed=1)
    sim.quiesce()
    before, events = sim.pending(), sim.events_processed
    order = []
    stamp = stamper(sim, order)
    for i, name in enumerate("abcde"):
        sim.schedule(1000 + i * step_us, stamp, name)
    mine = sim.pending()[:5]
    assert [args for *_, args in mine] == [(name,) for name in "abcde"]
    assert len({at_us for at_us, *_ in mine}) == (1 if step_us == 0 else 5)
    sim.params.max_events = 3  # the limit falls inside the five entries
    with pytest.raises(LivelockError, match="quiesce"):
        sim.quiesce()
    assert [name for name, _ in order] == ["a", "b", "c"]
    assert sim.pending() == mine[3:] + before
    assert sim.events_processed == events + 3


@pytest.mark.parametrize("others", [2, 0], ids=["deque", "lone"])
def test_an_entry_queued_at_delay_0_while_its_instant_drains_runs_last_in_it(others):
    sim = Simulation(chain_spec(2), seed=1)
    sim.quiesce()
    order = []
    stamp = stamper(sim, order)
    due_us = sim.now_us() + 1000
    sim.schedule(1000, lambda: (stamp("first"), sim.schedule(0, stamp, "queued at 0")))
    for i in range(others):
        sim.schedule(1000, stamp, f"other {i}")
    sim.quiesce()
    names = ["first"] + [f"other {i}" for i in range(others)] + ["queued at 0"]
    assert order == [(name, due_us) for name in names]


def test_the_heap_gets_one_push_per_new_instant_not_one_per_entry(monkeypatch):
    dues, pushes = [], []
    schedule = Simulation.schedule

    def recording(self, delay_us, fn, *args, housekeeping=False):
        dues.append(self._clock_us + delay_us)
        schedule(self, delay_us, fn, *args, housekeeping=housekeeping)

    def counting(heap, at_us):
        pushes.append(at_us)
        heappush(heap, at_us)

    monkeypatch.setattr(Simulation, "schedule", recording)  # before the build binds it
    spec = chain_spec(3).with_params(discovery_interval=1.0, rekey_interval=2.0, grace=1.0)
    sim = Simulation(spec, seed=1)
    sim.quiesce()
    queued_before, start = {at_us for at_us, *_ in sim.pending()}, len(dues)
    monkeypatch.setattr(netsim, "heappush", counting)
    sim.run_until(sim.now_s() + 5)  # discovery rounds, rekeys and their retires
    window = dues[start:]
    assert sorted(pushes) == sorted(set(pushes)) == sorted(set(window) - queued_before)
    assert len(window) > 5 * len(pushes)
