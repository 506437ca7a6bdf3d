import pytest

from macsecsim.netsim import Simulation
from macsecsim.randomness import IvUniquenessRegistry, RandomSource
from macsecsim.topology import chain_spec
from macsecsim.wire import LLDP_NONCE_OFFSET, LLDP_SEQ_OFFSET


def test_seeded_source_is_reproducible():
    a, b = RandomSource(5), RandomSource(5)
    assert a.rand_bytes(16) == b.rand_bytes(16)
    assert a.boot_seq() == b.boot_seq()
    assert RandomSource(5).rand_bytes(16) != RandomSource(6).rand_bytes(16)


def test_two_switches_first_probes_differ():
    """Both switches seal their first probe under the one discovery key with
    seal counter 1; their MACs keep the two nonces apart."""
    sim = Simulation(chain_spec(2), seed=1)
    sim.run_until(0.0)
    firsts = {}
    for rec in sim.trace.query(classification="secure_lldp"):
        firsts.setdefault(rec.data[6:12], rec.data)
    assert sorted(firsts) == sorted(sw.mac for sw in sim.switches.values())
    nonces = {mac: data[LLDP_NONCE_OFFSET:LLDP_SEQ_OFFSET] for mac, data in firsts.items()}
    assert nonces == {mac: mac + (1).to_bytes(6, "big") for mac in firsts}


def test_a_repeated_seal_counter_raises_in_the_registry():
    sim = Simulation(chain_spec(2), seed=1)
    sim.quiesce()
    ctl = sim.controllers["s1"]
    ctl.seal_count -= 1  # the next probe would reuse the last nonce
    with pytest.raises(AssertionError, match="reuse"):
        ctl.discovery_round()


def test_the_registry_forgets_one_channel_only():
    reg = IvUniquenessRegistry()
    reg.observe(b"k" * 16, b"a" * 8, 5)
    reg.observe(b"k" * 16, b"m" * 6, 9)
    reg.forget(b"k" * 16, b"a" * 8)
    reg.forget(b"k" * 16, b"x" * 8)  # never seen: nothing to forget
    assert reg._seen == {(b"k" * 16, b"m" * 6): 9}


def test_iv_registry_flags_reuse():
    reg = IvUniquenessRegistry()
    sci = b"s" * 8
    reg.observe(b"k" * 16, sci, 1)
    reg.observe(b"k" * 16, sci, 2)
    with pytest.raises(AssertionError, match="reuse"):
        reg.observe(b"k" * 16, sci, 2)


def test_iv_registry_rejects_a_pn_below_the_highest_seen():
    reg = IvUniquenessRegistry()
    sci = b"s" * 8
    reg.observe(b"k" * 16, sci, 5)
    with pytest.raises(AssertionError, match="PN regression"):
        reg.observe(b"k" * 16, sci, 3)  # never used, but below 5


def test_iv_registry_tracks_each_sci_under_a_key_on_its_own():
    reg = IvUniquenessRegistry()
    reg.observe(b"k" * 16, b"a" * 8, 5)
    reg.observe(b"k" * 16, b"b" * 8, 1)
    reg.observe(b"k" * 16, b"b" * 8, 2)
    with pytest.raises(AssertionError, match="reuse"):
        reg.observe(b"k" * 16, b"b" * 8, 2)
    assert len(reg._seen) == 2
