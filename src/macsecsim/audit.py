"""The fabric audit: the central link map equals the wiring, and every
confirmed link carries MACsec both ways.

`audit(sim)` is the only code that maps channel records to the SA, EG-SC and
IG-SC rows they imply.  A switch row belongs to the link of its sender port:
the EG-SC port, or the SCI's MAC and port for SA and IG-SC rows.  Audit a
quiesced run: inside a grace window the old generation's rows count as stray.
"""

from __future__ import annotations

from typing import NamedTuple

from .central_controller import LinkKey
from .wire import sci_port

# missing_link: wired, not confirmed.  excess_link: confirmed, not wired.
# unconfirmed_link: neither, yet half-reported or holding a channel record.
# unprotected: confirmed, without a record active both ways and no staged next.
# missing_row / stray_row: a row a record implies that its switch lacks, and
# a switch row no record implies.  pending_batch: a batch awaiting its ack.
KINDS = "missing_link excess_link unconfirmed_link unprotected missing_row stray_row pending_batch".split()


class Violation(NamedTuple):
    kind: str
    link: LinkKey


def audit(sim) -> list[Violation]:
    """Every way the fabric departs from its promise, sorted."""
    central, records = sim.central, sim.central.sc_records
    wiring, confirmed = sim.ground_truth_links(), central.confirmed_links()
    found = []
    for key in wiring | central.link_map.keys() | records.keys():
        if key not in confirmed:
            found.append(Violation("missing_link" if key in wiring else "unconfirmed_link", key))
        elif key not in wiring:
            found.append(Violation("excess_link", key))
    for key in confirmed:
        r = records.get(key)
        if r is None or r.state != "active" or any(d.phase != "active" or d.next for d in r.directions.values()):
            found.append(Violation("unprotected", key))

    # A row is (chassis, table, index, value); the expected ones map to their
    # record's link, the actual ones to their sender port.
    expected = {}
    for record in records.values():
        for d in record.directions.values():
            sa = (d.sai, (d.sak.key, d.an, d.sci))
            rows = [(d.sender, "sa", *sa), (d.receiver, "sa", *sa)]
            rows += [(d.sender, "eg_sc", d.sender_port, d.sai), (d.receiver, "ig_sc", (d.sci, d.an), d.sai)]
            expected.update(dict.fromkeys(rows, record.key))
    owner = {switch.mac: chassis for chassis, switch in sim.switches.items()}

    def sender(sci: bytes) -> tuple:
        return owner.get(sci[:6], sci[:6].hex()), sci_port(sci)

    actual = {}
    for chassis, switch in sim.switches.items():
        t = switch.tables
        actual.update({(chassis, "sa", sai, (e.sak.key, e.an, e.sci)): sender(e.sci) for sai, e in t.sa.items()})
        actual.update({(chassis, "eg_sc", port, sai): (chassis, port) for port, sai in t.eg_sc.items()})
        actual.update({(chassis, "ig_sc", k, sai): sender(k[0]) for k, sai in t.ig_sc.items()})
    ends = {end: link.key for link in sim.links.values() for end in link.key}
    found += [Violation("missing_row", link) for row, link in expected.items() if row not in actual]
    found += [Violation("stray_row", ends.get(e, (e, e))) for row, e in actual.items() if row not in expected]
    found += [Violation("pending_batch", record.key) for record, _ in central._pending.values()]
    return sorted(found)
