"""Property tests: after any schedule of control partitions, link flaps and
(in the second test) cross-link probe replays, and a heal of everything, the
fabric converges and carries traffic.  A replayed probe never unprotects a
confirmed link.  The carrier tests pin what lets a
delivery check carrier once, on the link: through seeded flaps, a switch
port's state mirrors its link's."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIOS
from macsecsim.audit import audit
from macsecsim.netsim import Simulation
from macsecsim.topology import TopologySpec, chain_spec
from macsecsim.wire import EthernetFrame

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
    probes = sim.trace.query(link=src[0], direction=src[1], classification="secure_lldp")
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
    sim = Simulation(SPEC, seed=3)  # the first fault may land during bring-up
    for (kind, name), up, seconds in schedule:
        apply_fault(sim, kind, name, up)
        sim.run_until(sim.now_s() + seconds)
    heal_and_check(sim)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(schedule=st.lists(st.one_of(steps, replays), max_size=6))
def test_fabric_converges_after_any_fault_schedule_with_replayed_probes(schedule):
    """A probe replayed onto another link changes at most the receiving
    port's report, and only while that port's link is unconfirmed, so the
    real neighbour's next probe puts the link back."""
    sim = Simulation(SPEC, seed=3)
    for step in schedule:
        if step[0][0] == "replay":
            (_, src, dst), seconds = step
            replay_latest_probe(sim, src, dst)
        else:
            (kind, name), up, seconds = step
            apply_fault(sim, kind, name, up)
        sim.run_until(sim.now_s() + seconds)
    heal_and_check(sim)


def test_a_replayed_probe_leaves_a_confirmed_link_protected():
    """s3's probe from s3:2, replayed to s1:2, names another far end for a
    confirmed link: the report is contested and dropped, so the link keeps
    its channels and no frame crosses it in the clear."""
    sim = Simulation(chain_spec(5).with_params(discovery_interval=1), seed=1)
    sim.quiesce()
    for src, dst in (("h1", "h2"), ("h2", "h1")):
        sim.host_send(src, sim.hosts[dst].mac, 0x0800, b"learn")
    sim.quiesce()
    sim.run_until(sim.now_s() + 0.5)
    replay_latest_probe(sim, ("s3-s4", "a2b"), ("s1-s2", "b2a"))
    payloads = [b"frame %d" % i for i in range(20)]
    for payload in payloads:
        sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, payload)
        sim.run_until(sim.now_s() + 0.05)
    sim.run_until(sim.now_s() + 3)
    assert sim.trace.query(link="s1-s2", classification="ethernet") == []
    assert [f.payload for f in sim.host_recv("h2")] == [b"learn", *payloads]
    assert sim.central.counters.get("linkmap.contested") == 1
    assert audit(sim) == []


# The carrier mirror: a cabled switch port is up exactly while its link is, and
# a port with no cable is down, so a delivery need check carrier only on the link.
CARRIER_SPECS = {
    "hierarchical": lambda: TopologySpec.from_yaml(SCENARIOS / "hierarchical.yaml"),
    "chain4": lambda: chain_spec(4),
}


def link_ends(spec):
    """Each link's (a, b) endpoints, read from the spec; a host end is (host, 0)."""
    ends = {link.name: (link.a, link.b) for link in spec.links}
    ends.update({f"{h.switch}-{h.name}": ((h.switch, h.port), (h.name, 0)) for h in spec.hosts})
    return ends


def check_carrier_mirror(sim, cabled):
    for chassis, switch in sim.switches.items():
        for port, up in switch.ports_up.items():
            name = cabled.get((chassis, port))
            assert up == (name is not None and sim.links[name].up), (chassis, port, name)


@pytest.mark.parametrize("spec_name", sorted(CARRIER_SPECS))
def test_switch_ports_mirror_their_links_through_flaps(spec_name):
    spec = CARRIER_SPECS[spec_name]()
    sim = Simulation(spec, seed=11)
    ends = link_ends(spec)
    cabled = {end: name for name, pair in ends.items() for end in pair}
    names = sorted(ends)
    rng = random.Random(11)
    check_carrier_mirror(sim, cabled)
    repeats = 0
    for _ in range(40):
        name, up = rng.choice(names), rng.random() < 0.5
        repeats += sim.links[name].up == up
        sim.set_link_state(name, up)
        check_carrier_mirror(sim, cabled)
        sim.run_until(sim.now_s() + rng.choice((0.0, 0.0005, 0.003, 2.0)))
        check_carrier_mirror(sim, cabled)
    assert repeats  # a flap to the state a link already has changes nothing


def received(sim, node, port):
    """Frames handed to a node's port: a switch port's rx count, a host's inbox."""
    return sim.switches[node].rx[port] if node in sim.switches else len(sim.hosts[node].received)


@pytest.mark.parametrize("spec_name", sorted(CARRIER_SPECS))
def test_a_frame_crosses_a_down_up_flap_but_not_a_down_link(spec_name):
    spec = CARRIER_SPECS[spec_name]()
    sim = Simulation(spec, seed=12)
    sim.quiesce()
    frame = EthernetFrame(dst=b"\xff" * 6, src=b"\x02\x00\x00\x00\x99\x99", ether_type=0x0800, payload=b"in flight")
    data = frame.to_bytes()
    for name, (a, b) in link_ends(spec).items():
        for direction, (node, port) in (("a2b", b), ("b2a", a)):
            before = received(sim, node, port)
            sim.inject_frame(name, direction, data)
            sim.run_until(sim.now_s())  # on the wire, one latency from its receiver
            index = sim.trace.query(link=name, direction=direction)[-1].index
            sim.set_link_state(name, False)
            sim.set_link_state(name, True)
            sim.quiesce()
            assert sim.trace[index].dropped not in ("link_down", "port_down"), (name, direction)
            assert received(sim, node, port) > before, (name, direction)

            before = received(sim, node, port)
            sim.inject_frame(name, direction, data)
            sim.run_until(sim.now_s())
            index = sim.trace.query(link=name, direction=direction)[-1].index
            sim.set_link_state(name, False)
            sim.quiesce()
            assert sim.trace[index].dropped == "link_down", (name, direction)
            assert received(sim, node, port) == before, (name, direction)
            sim.set_link_state(name, True)
            sim.quiesce()
