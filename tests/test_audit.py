"""The fabric audit: empty on a converged fabric, and exactly one violation,
of the corrupted kind on the corrupted link, for each targeted corruption."""

import pytest

from macsecsim.audit import KINDS, Violation, audit
from macsecsim.central_controller import link_key
from macsecsim.crypto import Sak
from macsecsim.dataplane import SaEntry
from macsecsim.netsim import Simulation
from macsecsim.topology import chain_spec

S1_S2 = link_key(("s1", 2), ("s2", 1))
UNWIRED = link_key(("s1", 3), ("s3", 3))


def quiesced(spec):
    sim = Simulation(spec, seed=5)
    sim.quiesce()
    return sim


def test_a_converged_chain_passes():
    assert audit(quiesced(chain_spec(3))) == []


def test_a_converged_hierarchical_fabric_passes(hierarchical_spec):
    sim = quiesced(hierarchical_spec)
    assert len(sim.central.sc_records) == 6
    assert audit(sim) == []


def _stray_sa(sim, d):
    sim.switches[d.sender].write_sa(SaEntry(sai=999, sak=Sak(b"\x01" * 16), an=(d.an + 1) % 4, sci=d.sci))


# kind -> (corruption of s1-s2's record `r` and its a2b direction `d`, link it names)
CORRUPTIONS = {
    "missing_link": (lambda sim, r, d: sim.central.reports.pop(("s2", 1)), S1_S2),
    "excess_link": (lambda sim, r, d: setattr(sim.links["s1-s2"], "up", False), S1_S2),
    "unconfirmed_link": (
        lambda sim, r, d: sim.central.reports.update({("s1", 3): ("s3", 3)}),
        UNWIRED,
    ),
    "unprotected": (lambda sim, r, d: setattr(d, "phase", "egress_pending"), S1_S2),
    "missing_row": (lambda sim, r, d: sim.switches[d.receiver].delete_ig_sc(d.sai), S1_S2),
    "stray_row": (lambda sim, r, d: _stray_sa(sim, d), S1_S2),
    "pending_batch": (lambda sim, r, d: sim.central._pending.update({999: (r, "a2b")}), S1_S2),
}


def test_every_kind_has_a_corruption():
    assert sorted(CORRUPTIONS) == sorted(KINDS)


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_a_corruption_yields_exactly_its_violation(kind):
    sim = quiesced(chain_spec(3))
    record = sim.central.sc_records[S1_S2]
    corrupt, link = CORRUPTIONS[kind]
    corrupt(sim, record, record.directions["a2b"])
    assert audit(sim) == [Violation(kind, link)]


def test_a_row_that_differs_from_its_record_is_both_missing_and_stray():
    sim = quiesced(chain_spec(3))
    d = sim.central.sc_records[S1_S2].directions["b2a"]
    receiver = sim.switches[d.receiver]
    receiver.delete_ig_sc(d.sai)
    receiver.tables.ig_sc[(d.sci, (d.an + 1) % 4)] = d.sai  # no table write keys a row off its SA
    assert audit(sim) == [Violation("missing_row", S1_S2), Violation("stray_row", S1_S2)]
