"""The state a fabric must reach once every fault has healed.

Shared by the partition tests and the fault-schedule property test.
"""

from __future__ import annotations


def assert_converged(sim) -> None:
    """Quiesce, then check: the link map is the wiring; every channel is
    active both ways; each switch holds exactly its channels' SA, EG-SC and
    IG-SC rows; and no config batch is waiting for its ack."""
    sim.quiesce()
    central = sim.central
    wiring = sim.ground_truth_links()
    assert {key: link.status for key, link in central.link_map.items()} == dict.fromkeys(wiring, "confirmed")
    assert set(central.sc_records) == wiring
    expected = {chassis: ({}, {}, {}) for chassis in sim.switches}  # sa, eg_sc, ig_sc
    for record in central.sc_records.values():
        assert record.state == "active", record.key
        for d in record.directions.values():
            assert d.phase == "active" and d.next is None, (record.key, d)
            for chassis in (d.sender, d.receiver):
                expected[chassis][0][d.sai] = (d.sak.key, d.an, d.sci)
            expected[d.sender][1][d.sender_port] = d.sai
            expected[d.receiver][2][(d.sci, d.an)] = d.sai
    for chassis, switch in sim.switches.items():
        tables = switch.tables
        sa = {sai: (entry.sak.key, entry.an, entry.sci) for sai, entry in tables.sa.items()}
        assert (sa, tables.eg_sc, tables.ig_sc) == expected[chassis], chassis
    assert central._pending == {}
