"""Central controller: global link map and secure-channel lifecycle.

The link map is each port's latest report: `reports` maps a port to the far
end its latest `LinkDelta` names.  A link is confirmed while each of its
ends reports the other, and each transition to or from confirmed deploys or
tears down its secure channels; a report replaces only its own port's, so it
never unseats a link between two other ports.  A port of a confirmed link
drops a report of another far end, counted `linkmap.contested`: only a
`None` report, from carrier loss or expiry, tears a confirmed link down.
Channel installs are ordered receiver-ingress before sender-egress (at
setup and rekey) so no in-flight frame ever meets a receiver that cannot
validate it.  Each SA's SAI doubles as MKA's key number KN, and its SAK is
derived from KN under the master key drawn at start (`crypto.MasterKey`),
so no SAK repeats by construction.

Only a stage batch (an install or rekey of one direction's ingress or
egress) carries a batch id and is acked.  In flight it holds the channel
record and direction it was sent for; the direction's phase names the stage
it installs.  Once teardown removes or replaces that record, the batch is
stale, and its ack is ignored.  The control channel delivers every message,
late if it is cut, so the one failure is a nack, which quarantines the
channel.  Delete batches, from a retire or a teardown, carry no id and get
no ack: a delete that failed or went missing leaves a row that the fabric
audit reports as `stray_row`.  Deletes sent together go out as one batch
per switch; a delete never fails, so one batch cannot roll back another
direction's deletes.

An IG-SC op names only its SA, whose own (SCI, AN) keys the row, so a retire
or teardown deletes the generations it names and the switch decides whether
a row still belongs to one of them.

Rekeys are deadlines, not timers of their own.  A direction that goes active
is filed, as (link key, direction, SAI), in a table keyed by the microsecond
its rekey is due; the first entry filed under an instant queues the one
housekeeping sweep for it.  The sweep runs the instant's entries in filing
order, so rekeys due at one instant start in the order their directions went
active, and the entries of one instant all run at the first one's place in
the event queue.  An entry holds no record: the sweep skips one whose record
was torn down, quarantined or rekeyed since, as its SAI then differs.

Retires are deadlines in the same way.  A finished rekey files the
generation it replaced, as (sender, receiver, SAIs), in a table keyed by
the microsecond one grace later, and the first entry under an instant
queues the one sweep for it.  That sweep is actionable, so `quiesce` waits
for it, and it sends every delete due then as one batch per switch,
whatever became of the record since: SAIs are never reused, and a receiver
deletes an IG-SC row only while it names that SAI.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

from .crypto import LldpKey, MasterKey, Sak
from .dataplane import Counters
from .messages import (
    DeleteEgSc,
    DeleteIgSc,
    DeleteSa,
    KeyInstall,
    LinkDelta,
    PnExhausted,
    ScAck,
    ScConfig,
    StartDiscovery,
    WriteEgSc,
    WriteIgSc,
    WriteSa,
)
from .topology import Endpoint
from .wire import make_sci, sci_port

log = logging.getLogger(__name__)

LinkKey = tuple[Endpoint, Endpoint]
# One direction's deletes: (sender, receiver, SAIs, the sender's EG-SC port or None)
Deletes = tuple[str, str, tuple[int, ...], Optional[int]]


def link_key(a: Endpoint, b: Endpoint) -> LinkKey:
    return tuple(sorted((a, b)))  # type: ignore[return-value]


def link_name(key: LinkKey) -> str:
    (ca, pa), (cb, pb) = key
    return f"{ca}:{pa}-{cb}:{pb}"


@dataclass
class ScDirection:
    """One unidirectional channel of a link's ScRecord."""

    sender: str
    sender_port: int
    receiver: str
    receiver_port: int
    sci: bytes
    sai: int
    an: int
    sak: Sak
    phase: str = "ingress_pending"  # ingress_pending | egress_pending | active
    rekey_count: int = 0
    next: Optional[tuple[int, int, Sak]] = None  # the staged (sai, an, sak) while a rekey is in flight


@dataclass
class ScRecord:
    """A link's two channels.  Its "a2b" runs from the sorted key's first end,
    which need not be the spec's `a` end that a trace row's or an `inject`'s a2b
    starts from: for link s9-s10, spec'd s9:2 -> s10:1, "s10" sorts first."""

    key: LinkKey
    directions: dict[str, ScDirection]  # "a2b" / "b2a" relative to the sorted key
    state: str = "installing"  # installing | active | quarantined


class CentralController:
    def __init__(
        self,
        *,
        now: Callable[[], int],
        schedule: Callable[..., None],
        send_to_local: Callable[[str, object], None],
        rng,
        rekey_interval_us: int = 60_000_000,
        lldp_rotation_us: int = 300_000_000,
        grace_us: int = 30_000_000,
        macsec_encrypt: bool = True,
    ):
        """`now()` reads the virtual clock, and `schedule(delay_us, fn, *args,
        housekeeping=False)` queues a timer; every time and interval is in whole
        microseconds of virtual time.
        `send_to_local(chassis, msg)` returns nothing: each message arrives,
        in order, though late if the switch's control channel is cut."""
        self._now = now
        self._schedule = schedule
        self._send = send_to_local
        self._rng = rng
        self.rekey_interval_us = rekey_interval_us
        self.lldp_rotation_us = lldp_rotation_us
        self.grace_us = grace_us
        self.macsec_encrypt = macsec_encrypt

        self.counters = Counters()
        self.switch_macs: dict[str, bytes] = {}
        self.reports: dict[Endpoint, Endpoint] = {}  # port -> the far end its latest report names
        self.sc_records: dict[LinkKey, ScRecord] = {}
        self.alerts: list[str] = []  # one line per quarantine

        self.lldp_key = LldpKey(key=rng.key_material(), key_id=1)
        self._master_key = MasterKey(rng.key_material())
        self._sai_seq = 0
        self._batch_seq = 0
        self._pending: dict[int, tuple[ScRecord, str]] = {}  # batch id -> (record, direction)
        # due microsecond -> (link key, direction, SAI) of each rekey due then, in filing order
        self._rekeys: dict[int, list[tuple[LinkKey, str, int]]] = {}
        # due microsecond -> (sender, receiver, SAIs, None) of each generation retired then, in filing order
        self._retires: dict[int, list[Deletes]] = {}
        # Bound once: every rekey sweep and retire sweep queues one of these two objects.
        self._rekey_sweep = self._rekey_sweep
        self._retire_sweep = self._retire_sweep

    def start(self) -> None:
        """Arm the periodic LLDP key rotation."""
        self._schedule(self.lldp_rotation_us, self._rotation_due, housekeeping=True)

    # -- message entry points ---------------------------------------------------

    def deliver(self, msg) -> None:
        if isinstance(msg, LinkDelta):
            self.handle_link_delta(msg)
        elif isinstance(msg, ScAck):
            self.handle_sc_ack(msg)
        elif isinstance(msg, PnExhausted):
            self.handle_pn_exhausted(msg)
        else:
            raise TypeError(f"unexpected control message {type(msg).__name__}")

    def handle_register(self, chassis_id: str, mac: bytes) -> None:
        self.switch_macs[chassis_id] = mac
        self._send(chassis_id, KeyInstall(key=self.lldp_key))
        self._send(chassis_id, StartDiscovery())

    # -- global link map ----------------------------------------------------------

    def handle_link_delta(self, delta: LinkDelta) -> None:
        if delta.chassis_id not in self.switch_macs:
            log.warning("delta from unregistered switch %s ignored", delta.chassis_id)
            self.counters.incr("linkmap.unknown_switch")
            return
        reports, end, remote = self.reports, (delta.chassis_id, delta.port), delta.remote
        old = reports.get(end)
        if old == remote:
            return
        if old is not None and reports.get(old) == end:
            if remote is not None:
                # A real recabling drops carrier first, so another far end on a
                # confirmed link is a probe replayed from elsewhere.
                self.counters.incr("linkmap.contested")
                return
            self._teardown_sc(link_key(end, old))
        if remote is None:
            del reports[end]
        else:
            reports[end] = remote
            if reports.get(remote) == end:
                self._deploy_sc(link_key(end, remote))

    @property
    def link_map(self) -> dict[LinkKey, str]:
        """Each reported link: "confirmed" while both its ends report each other, else "reported"."""
        reports = self.reports
        return {link_key(a, b): "confirmed" if reports.get(b) == a else "reported" for a, b in reports.items()}

    @property
    def sak_log(self) -> list[bytes]:
        """Every SAK issued, in KN order, derived again on each read: nothing stores it."""
        return [self._master_key.derive_sak(kn).key for kn in range(1, self._sai_seq + 1)]

    def confirmed_links(self) -> set[LinkKey]:
        return {key for key, status in self.link_map.items() if status == "confirmed"}

    # -- secure-channel lifecycle ---------------------------------------------------

    def _next_sa(self) -> tuple[int, Sak]:
        """A fresh SAI and its SAK.  The SAI doubles as MKA's key number KN, and
        SAK KN is AES-128 of a block encoding KN under the master key, so no SAK repeats."""
        self._sai_seq += 1
        return self._sai_seq, self._master_key.derive_sak(self._sai_seq)

    def _deploy_sc(self, key: LinkKey) -> None:
        (ca, pa), (cb, pb) = key
        directions = {}
        for name, (sender, s_port, receiver, r_port) in (
            ("a2b", (ca, pa, cb, pb)),
            ("b2a", (cb, pb, ca, pa)),
        ):
            sai, sak = self._next_sa()
            directions[name] = ScDirection(
                sender=sender,
                sender_port=s_port,
                receiver=receiver,
                receiver_port=r_port,
                sci=make_sci(self.switch_macs[sender], s_port),
                sai=sai,
                an=0,
                sak=sak,
            )
        record = self.sc_records[key] = ScRecord(key=key, directions=directions)
        for name in directions:
            self._send_stage(record, name)

    def _send_stage(self, record: ScRecord, name: str) -> None:
        """Write one direction's SA to the stage its phase names, the
        receiver's ingress (`ingress_pending`) or the sender's egress
        (`egress_pending`), tracking the batch until it is acked.

        A rekey writes the staged generation `d.next`.  The EG-SC row is what
        secures the sender's port: from that write on, every frame leaving the
        port is protected.
        """
        d = record.directions[name]
        sai, an, sak = d.next if d.next is not None else (d.sai, d.an, d.sak)
        ops = [WriteSa(sai=sai, an=an, sak=sak, sci=d.sci, confidentiality=self.macsec_encrypt)]
        if d.phase == "ingress_pending":
            chassis = d.receiver
            ops.append(WriteIgSc(sai=sai))
        else:
            chassis = d.sender
            ops.append(WriteEgSc(port=d.sender_port, sai=sai))
        self._batch_seq += 1
        self._pending[self._batch_seq] = (record, name)
        self._send(chassis, ScConfig(batch_id=self._batch_seq, ops=ops))

    def handle_sc_ack(self, ack: ScAck) -> None:
        """A direction has at most one stage batch in flight, and its phase
        names that stage: the receiver's ingress, then the sender's egress."""
        record, direction = self._pending.pop(ack.batch_id, (None, None))
        if record is None or self.sc_records.get(record.key) is not record:
            return
        d = record.directions[direction]
        ingress = d.phase == "ingress_pending"
        if not ack.ok:
            # Resending is futile: the batch writes its SA before anything
            # refers to it, and ports never change.
            stage, chassis = ("ingress", d.receiver) if ingress else ("egress", d.sender)
            self._quarantine(record, f"{stage} install on {chassis}: {ack.detail}")
        elif ingress:
            d.phase = "egress_pending"
            self._send_stage(record, direction)
        else:
            self._finish_activation(record, direction, d)

    def _finish_activation(self, record: ScRecord, direction: str, d: ScDirection) -> None:
        # The retire and rekey deadlines capture no record, so neither keeps a SAK alive.
        if d.next is not None:
            retire = (d.sender, d.receiver, (d.sai,), None)
            self._file(self._retires, self.grace_us, self._retire_sweep, retire, housekeeping=False)
            d.sai, d.an, d.sak = d.next
            d.next = None
            d.rekey_count += 1
        d.phase = "active"
        rekey = (record.key, direction, d.sai)
        self._file(self._rekeys, self.rekey_interval_us, self._rekey_sweep, rekey, housekeeping=True)
        if record.state == "installing" and all(
            x.phase == "active" for x in record.directions.values()
        ):
            record.state = "active"

    def _file(
        self, table: dict[int, list], delay_us: int, sweep: Callable[[int], None], entry, *, housekeeping: bool
    ) -> None:
        """File `entry` in `table` under the microsecond `delay_us` from now;
        the first entry filed under an instant queues the one `sweep` for it."""
        due_us = self._now() + delay_us
        filed = table.get(due_us)
        if filed is None:
            filed = table[due_us] = []
            self._schedule(delay_us, sweep, due_us, housekeeping=housekeeping)
        filed.append(entry)

    def _retire_sweep(self, due_us: int) -> None:
        """Delete every generation retired under `due_us`."""
        self._send_deletes(self._retires.pop(due_us))

    def _send_deletes(self, deletes: list[Deletes]) -> None:
        """Send one unacked batch to each switch the `deletes` name, in the order
        they first name it.  Per direction: at the receiver, each SA's IG-SC row,
        then the SAs; at the sender, the EG-SC row of its port if one is named,
        then the SAs."""
        batches: dict[str, list] = {}
        for sender, receiver, sais, eg_sc_port in deletes:
            ops = batches.setdefault(receiver, [])
            ops += [DeleteIgSc(sai=s) for s in sais]
            ops += [DeleteSa(sai=s) for s in sais]
            ops = batches.setdefault(sender, [])
            if eg_sc_port is not None:
                ops.append(DeleteEgSc(port=eg_sc_port))
            ops += [DeleteSa(sai=s) for s in sais]
        for chassis, ops in batches.items():
            self._send(chassis, ScConfig(batch_id=None, ops=ops))

    def _quarantine(self, record: ScRecord, detail: str) -> None:
        record.state = "quarantined"
        self.alerts.append(f"link {link_name(record.key)} quarantined: {detail}")
        self.counters.incr("channels.quarantined")
        log.error("link %s quarantined: %s", link_name(record.key), detail)

    def _teardown_sc(self, key: LinkKey) -> None:
        """Delete each direction's current and staged generations, in one batch to
        each end; one replaced within the grace window goes with its retire, at
        most one grace later."""
        self._send_deletes([
            (d.sender, d.receiver, (d.sai,) if d.next is None else (d.sai, d.next[0]), d.sender_port)
            for d in self.sc_records.pop(key).directions.values()
        ])

    # -- rekeying -------------------------------------------------------------------

    def _rekey_sweep(self, due_us: int) -> None:
        """Start every rekey filed under `due_us`, in filing order."""
        for key, direction, sai in self._rekeys.pop(due_us):
            self._rekey_due(key, direction, sai)

    def _rekey_due(self, key: LinkKey, direction: str, sai: int) -> None:
        """Due one rekey interval after the generation with SA `sai` went
        active.  SAIs are never reused, so the entry of an older generation,
        or of a record torn down and redeployed since, finds another SAI."""
        record = self.sc_records.get(key)
        if record is None or record.state == "quarantined":
            return
        d = record.directions[direction]
        if d.sai == sai and d.phase == "active":
            self._start_rekey(record, direction, d)

    def _start_rekey(self, record: ScRecord, direction: str, d: ScDirection) -> None:
        d.phase = "ingress_pending"
        sai, sak = self._next_sa()
        d.next = (sai, (d.an + 1) % 4, sak)
        self.counters.incr("channels.rekey")
        self._send_stage(record, direction)

    def handle_pn_exhausted(self, msg: PnExhausted) -> None:
        self.counters.incr("channels.pn_exhausted")
        end = (msg.chassis_id, sci_port(msg.sci))
        remote = self.reports.get(end)
        record = self.sc_records.get(link_key(end, remote)) if remote is not None else None
        if record is None or record.state == "quarantined":
            return
        for name, d in record.directions.items():
            if d.sci == msg.sci and d.phase == "active":
                self._start_rekey(record, name, d)

    # -- LLDP key rotation ------------------------------------------------------------

    def _rotation_due(self) -> None:
        self.rotate_lldp_key()
        self._schedule(self.lldp_rotation_us, self._rotation_due, housekeeping=True)

    def rotate_lldp_key(self) -> None:
        self.lldp_key = LldpKey(key=self._rng.key_material(), key_id=self.lldp_key.key_id + 1)
        self.counters.incr("discovery_key.rotated")
        for chassis in self.switch_macs:
            self._send(chassis, KeyInstall(key=self.lldp_key))

    # -- read-only query surface ---------------------------------------------------------

    def dump_link_map(self) -> list[str]:
        return [f"{status.upper():9s} {link_name(key)}" for key, status in sorted(self.link_map.items())]

    def dump_sc_records(self, *, unsafe_keys: bool = False) -> list[str]:
        """One line per record, then one per direction, named as in `ScRecord`:
        relative to the sorted key, not to the spec's a and b ends."""
        lines = []
        for key in sorted(self.sc_records):
            record = self.sc_records[key]
            lines.append(f"sc {link_name(key)} state={record.state}")
            for name in ("a2b", "b2a"):
                d = record.directions[name]
                shown = d.sak.key.hex() if unsafe_keys else d.sak.fingerprint
                lines.append(
                    f"  {name} {d.sender}:{d.sender_port}->{d.receiver}:{d.receiver_port}"
                    f" sci={d.sci.hex()} an={d.an} sai={d.sai} sak={shown}"
                    f" rekeys={d.rekey_count}"
                )
        return lines
