"""Property tests: after any schedule of control partitions, link flaps and
(in the second test) cross-link probe replays, and a heal of everything, the
fabric converges and carries traffic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from macsecsim.audit import audit
from macsecsim.netsim import build
from macsecsim.topology import chain_spec

SPEC = chain_spec(3).with_params(discovery_interval=1, rekey_interval=4, grace=1, lldp_key_rotation=6)
SWITCHES = ("s1", "s2", "s3")
LINKS = ("s1-s2", "s2-s3")
DIRECTIONS = [(link, direction) for link in LINKS for direction in ("a2b", "b2a")]

# (fault, up, seconds run after it); a fault is a switch's control channel or an inter-switch link.
steps = st.tuples(
    st.sampled_from([("control", name) for name in SWITCHES] + [("link", name) for name in LINKS]),
    st.booleans(),
    st.integers(1, 8),
)
# (("replay", captured on, injected on), seconds run after it), the two link directions on different links.
replays = st.tuples(
    st.sampled_from([("replay", src, dst) for src in DIRECTIONS for dst in DIRECTIONS if src[0] != dst[0]]),
    st.integers(1, 8),
)


def apply_fault(sim, kind, name, up):
    if kind == "control":
        sim.set_control_state(name, up)
    else:
        sim.set_link_state(name, up)


def replay_latest_probe(sim, src, dst):
    """Inject the latest sealed probe captured on link direction `src` onto `dst`, if one was."""
    probes = sim.trace_query(link=src[0], direction=src[1], classification="secure_lldp")
    if probes:
        sim.inject_frame(*dst, probes[-1].data)


def heal_and_check(sim):
    for name in SWITCHES:
        sim.set_control_state(name, True)
    for name in LINKS:
        sim.set_link_state(name, True)
    sim.run_until(sim.now_s() + 10)
    sim.quiesce()
    assert audit(sim) == []
    for src, dst in (("h1", "h2"), ("h2", "h1")):
        payload = f"{src}->{dst}".encode()
        sim.host_send(src, sim.hosts[dst].mac, 0x0800, payload)
        sim.quiesce()
        assert [f.payload for f in sim.host_recv(dst)] == [payload]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(schedule=st.lists(steps, max_size=6))
def test_fabric_converges_after_any_fault_schedule(schedule):
    sim = build(SPEC, seed=3)  # the first fault may land during bring-up
    for (kind, name), up, seconds in schedule:
        apply_fault(sim, kind, name, up)
        sim.run_until(sim.now_s() + seconds)
    heal_and_check(sim)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(schedule=st.lists(st.one_of(steps, replays), max_size=6))
def test_fabric_converges_after_any_fault_schedule_with_replayed_probes(schedule):
    """A probe replayed onto another link changes only the receiving port's
    report, so the real neighbour's next probe puts the link back."""
    sim = build(SPEC, seed=3)
    for step in schedule:
        if step[0][0] == "replay":
            (_, src, dst), seconds = step
            replay_latest_probe(sim, src, dst)
        else:
            (kind, name), up, seconds = step
            apply_fault(sim, kind, name, up)
        sim.run_until(sim.now_s() + seconds)
    heal_and_check(sim)
