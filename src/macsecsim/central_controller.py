"""Central controller: global link map and secure-channel lifecycle.

Links become Confirmed only once both endpoint switches have reported
them; every transition to or from Confirmed drives secure-channel
reconciliation.  Channel installs are ordered receiver-ingress before
sender-egress (at setup and rekey) so no in-flight frame ever meets a
receiver that cannot validate it.

Each link is indexed under both of its endpoints.  Only a stage batch (an
install or rekey of one direction's ingress or egress) carries a batch id
and is acked.  In flight it holds the channel record and direction it was
sent for; the direction's phase names the stage it installs.  Once teardown
removes or replaces that record, the batch is stale, and its ack is
ignored.  The control channel delivers every message, late if it is cut,
so the one failure is a nack, which quarantines the channel.  Retire and
teardown batches carry no id and get no ack: a delete that failed or went
missing leaves a row that the fabric audit reports as `stray_row`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

from .crypto import LldpKey, Sak
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
from .wire import make_sci, sci_port

log = logging.getLogger(__name__)

Endpoint = tuple[str, int]
LinkKey = tuple[Endpoint, Endpoint]


def link_key(a: Endpoint, b: Endpoint) -> LinkKey:
    return tuple(sorted((a, b)))  # type: ignore[return-value]


def link_name(key: LinkKey) -> str:
    (ca, pa), (cb, pb) = key
    return f"{ca}:{pa}-{cb}:{pb}"


@dataclass
class LinkState:
    key: LinkKey
    reporters: set[str] = field(default_factory=set)

    @property
    def confirmed(self) -> bool:
        return len(self.reporters) == 2

    @property
    def status(self) -> str:
        return "confirmed" if self.confirmed else "reported"


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
        """`schedule(delay_us, fn, *args, housekeeping=False)` queues a timer;
        every interval is in whole microseconds of virtual time.
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
        self.link_map: dict[LinkKey, LinkState] = {}
        self._link_at: dict[Endpoint, LinkState] = {}
        self.sc_records: dict[LinkKey, ScRecord] = {}
        self.alerts: list[str] = []  # one line per quarantine
        self.sak_log: list[bytes] = []
        self._saks: set[bytes] = set()

        self.lldp_key = LldpKey(key=rng.key_material(), key_id=1)
        self._sai_seq = 0
        self._batch_seq = 0
        self._pending: dict[int, tuple[ScRecord, str]] = {}  # batch id -> (record, direction)

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
        for port in delta.removes:
            self._remove_report(delta.chassis_id, port)
        for port, remote in delta.adds.items():
            self._add_report(delta.chassis_id, port, remote)

    def _forget(self, link: LinkState) -> None:
        del self.link_map[link.key]
        for endpoint in link.key:
            del self._link_at[endpoint]

    def _remove_report(self, chassis: str, port: int) -> None:
        link = self._link_at.get((chassis, port))
        if link is None:
            return
        was_confirmed = link.confirmed
        link.reporters.discard(chassis)
        if was_confirmed and not link.confirmed:
            self._teardown_sc(link.key)
        if not link.reporters:
            self._forget(link)

    def _add_report(self, chassis: str, port: int, remote: tuple[str, int]) -> None:
        endpoint = (chassis, port)
        key = link_key(endpoint, remote)
        # A conflicting earlier link on either endpoint is deleted outright;
        # the replacement starts over as a one-way report.
        for ep in key:
            stale = self._link_at.get(ep)
            if stale is not None and stale.key != key:
                if stale.confirmed:
                    self._teardown_sc(stale.key)
                self._forget(stale)
        link = self.link_map.get(key)
        if link is None:
            link = LinkState(key=key)
            self.link_map[key] = link
            for ep in key:
                self._link_at[ep] = link
        was_confirmed = link.confirmed
        link.reporters.add(chassis)
        if link.confirmed and not was_confirmed:
            self._deploy_sc(key)

    def confirmed_links(self) -> set[LinkKey]:
        return {k for k, v in self.link_map.items() if v.confirmed}

    # -- secure-channel lifecycle ---------------------------------------------------

    def _next_sai(self) -> int:
        self._sai_seq += 1
        return self._sai_seq

    def _new_sak(self) -> Sak:
        sak = Sak(self._rng.key_material())
        if sak.key in self._saks:
            raise AssertionError("SAK reuse from the key source")
        self._saks.add(sak.key)
        self.sak_log.append(sak.key)
        return sak

    def _deploy_sc(self, key: LinkKey) -> None:
        if key in self.sc_records:
            return
        (ca, pa), (cb, pb) = key
        directions = {}
        for name, (sender, s_port, receiver, r_port) in (
            ("a2b", (ca, pa, cb, pb)),
            ("b2a", (cb, pb, ca, pa)),
        ):
            directions[name] = ScDirection(
                sender=sender,
                sender_port=s_port,
                receiver=receiver,
                receiver_port=r_port,
                sci=make_sci(self.switch_macs[sender], s_port),
                sai=self._next_sai(),
                an=0,
                sak=self._new_sak(),
            )
        record = self.sc_records[key] = ScRecord(key=key, directions=directions)
        for name, direction in directions.items():
            self._send_stage(record, name, direction, stage="ingress")

    def _send_stage(self, record: ScRecord, name: str, d: ScDirection, *, stage: str) -> None:
        """Write one direction's SA to the receiver's ingress ("ingress") or
        the sender's egress ("egress"), tracking the batch until it is acked.

        A rekey writes the staged generation `d.next`.  The EG-SC row is what
        secures the sender's port: from that write on, every frame leaving the
        port is protected.
        """
        sai, an, sak = d.next if d.next is not None else (d.sai, d.an, d.sak)
        ops = [WriteSa(sai=sai, an=an, sak=sak, sci=d.sci, confidentiality=self.macsec_encrypt)]
        if stage == "ingress":
            chassis = d.receiver
            ops.append(WriteIgSc(sci=d.sci, an=an, sai=sai))
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
            self._send_stage(record, direction, d, stage="egress")
        else:
            self._finish_activation(record, direction, d)

    def _finish_activation(self, record: ScRecord, direction: str, d: ScDirection) -> None:
        # The timers capture no record, so a queued timer keeps no SAK alive.
        key = record.key
        if d.next is not None:
            old_sai, old_an = d.sai, d.an
            d.sai, d.an, d.sak = d.next
            d.next = None
            d.rekey_count += 1
            self._schedule(self.grace_us, self._retire_old_sa, key, direction, old_sai, old_an)
        d.phase = "active"
        self._schedule(
            self.rekey_interval_us, self._rekey_due, key, direction, d.rekey_count, housekeeping=True
        )
        if record.state == "installing" and all(
            x.phase == "active" for x in record.directions.values()
        ):
            record.state = "active"

    def _retire_old_sa(self, key: LinkKey, direction: str, old_sai: int, old_an: int) -> None:
        """Delete a replaced generation's SA at both ends, even if a teardown has
        removed the record meanwhile; SAIs are never reused, so after a redeploy too."""
        (a, _), (b, _) = key
        sender, receiver = (a, b) if direction == "a2b" else (b, a)
        receiver_ops: list = [DeleteSa(sai=old_sai)]
        record = self.sc_records.get(key)
        if record is not None:
            d = record.directions[direction]
            # The AN may have wrapped back onto old_an within the grace window,
            # in which case the (SCI, AN) row now belongs to a live generation.
            if old_an != d.an and (d.next is None or old_an != d.next[1]):
                receiver_ops.insert(0, DeleteIgSc(sci=d.sci, an=old_an))
        self._send(receiver, ScConfig(batch_id=None, ops=receiver_ops))
        self._send(sender, ScConfig(batch_id=None, ops=[DeleteSa(sai=old_sai)]))

    def _quarantine(self, record: ScRecord, detail: str) -> None:
        record.state = "quarantined"
        self.alerts.append(f"link {link_name(record.key)} quarantined: {detail}")
        self.counters.incr("channels.quarantined")
        log.error("link %s quarantined: %s", link_name(record.key), detail)

    def _teardown_sc(self, key: LinkKey) -> None:
        record = self.sc_records.pop(key, None)
        if record is None:
            return
        for d in record.directions.values():
            sais = [d.sai] + ([d.next[0]] if d.next is not None else [])
            receiver_ops = [DeleteIgSc(sci=d.sci, an=an) for an in range(4)]
            receiver_ops += [DeleteSa(sai=s) for s in sais]
            self._send(d.receiver, ScConfig(batch_id=None, ops=receiver_ops))
            sender_ops = [DeleteEgSc(port=d.sender_port)] + [DeleteSa(sai=s) for s in sais]
            self._send(d.sender, ScConfig(batch_id=None, ops=sender_ops))

    # -- rekeying -------------------------------------------------------------------

    def _rekey_due(self, key: LinkKey, direction: str, generation: int) -> None:
        """Fired one rekey interval after the generation's activation; a
        timer of an older generation finds the count moved on."""
        record = self.sc_records.get(key)
        if record is None or record.state == "quarantined":
            return
        d = record.directions[direction]
        if d.rekey_count == generation and d.phase == "active":
            self._start_rekey(record, direction, d)

    def _start_rekey(self, record: ScRecord, direction: str, d: ScDirection) -> None:
        d.phase = "ingress_pending"
        d.next = (self._next_sai(), (d.an + 1) % 4, self._new_sak())
        self.counters.incr("channels.rekey")
        self._send_stage(record, direction, d, stage="ingress")

    def handle_pn_exhausted(self, msg: PnExhausted) -> None:
        self.counters.incr("channels.pn_exhausted")
        link = self._link_at.get((msg.chassis_id, sci_port(msg.sci)))
        record = self.sc_records.get(link.key) if link is not None else None
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
        lines = []
        for key in sorted(self.link_map):
            lines.append(f"{self.link_map[key].status.upper():9s} {link_name(key)}")
        return lines

    def dump_sc_records(self, *, unsafe_keys: bool = False) -> list[str]:
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
