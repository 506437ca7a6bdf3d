"""The zero-delay lane keeps the run order of a heap-only event loop.

`HeapOnly` queues every entry on the heap, as the loop did before the
lane.  Run side by side on the same seed and the same schedule of faults,
replays and host traffic, the two must run the same events in the same
order, which shows in the event count, every counter and every trace row.
"""

from heapq import heappush
from pathlib import Path

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from macsecsim.netsim import Simulation
from macsecsim.topology import TopologySpec, chain_spec

from test_faults import apply_fault, replay_latest_probe

PARAMS = dict(discovery_interval=1, rekey_interval=2, grace=1, lldp_key_rotation=3)
HIERARCHICAL = TopologySpec.from_yaml(Path(__file__).parent.parent / "scenarios" / "hierarchical.yaml")
SPECS = [HIERARCHICAL] + [chain_spec(n) for n in (3, 4, 5)]


class HeapOnly(Simulation):
    """The event loop before the lane: every entry goes on the heap."""

    def schedule(self, delay_us, fn, *args, housekeeping=False):
        self._seq += 1
        if not housekeeping:
            self._actionable += 1
        heappush(self._queue, (self._clock_us + delay_us, self._seq, housekeeping, fn, args))


# Each step picks its switch, link, host or link direction by index, modulo how many the spec has.
faults = st.tuples(st.just("fault"), st.sampled_from(["control", "link"]), st.integers(0, 99), st.booleans())
replays = st.tuples(st.just("replay"), st.integers(0, 99), st.integers(0, 99))
# One frame each way between two hosts every millisecond for `ms` ms: frames
# then reach the switches at the same microsecond as timers and control rounds.
traffic = st.tuples(st.just("traffic"), st.integers(0, 99), st.integers(0, 99), st.integers(1, 30))
steps = st.tuples(st.one_of(faults, replays, traffic), st.integers(0, 3))


def run(cls, spec, seed, schedule):
    sim = cls(spec, seed=seed)
    switches = sorted(sim.switches)
    links = sim.interswitch_link_names()
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
def test_the_lane_runs_events_in_heap_order(spec, seed, jitter, schedule):
    spec = spec.with_params(**PARAMS, latency_jitter=jitter)
    lane, heap = run(Simulation, spec, seed, schedule), run(HeapOnly, spec, seed, schedule)
    events, switch_counters, central_counters, rows, queued = lane
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
