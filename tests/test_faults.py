"""Property test: after any schedule of control partitions and link flaps,
and a heal of everything, the fabric converges and carries traffic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from macsecsim.audit import audit
from macsecsim.netsim import build
from macsecsim.topology import chain_spec

SPEC = chain_spec(3).with_params(discovery_interval=1, rekey_interval=4, grace=1, lldp_key_rotation=6)
SWITCHES = ("s1", "s2", "s3")
LINKS = ("s1-s2", "s2-s3")

# (fault, up, seconds run after it); a fault is a switch's control channel or an inter-switch link.
steps = st.tuples(
    st.sampled_from([("control", name) for name in SWITCHES] + [("link", name) for name in LINKS]),
    st.booleans(),
    st.integers(1, 8),
)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(schedule=st.lists(steps, max_size=6))
def test_fabric_converges_after_any_fault_schedule(schedule):
    sim = build(SPEC, seed=3)  # the first fault may land during bring-up
    for (kind, name), up, seconds in schedule:
        if kind == "control":
            sim.set_control_state(name, up)
        else:
            sim.set_link_state(name, up)
        sim.run_until(sim.now_s() + seconds)
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
