"""Per-switch controller: MAC learning, link discovery, MACsec table agent.

One controller instance runs next to each switch.  All its inputs
(packet-ins, port events, timer ticks, central-controller messages) arrive
through the simulator's single event queue, so handlers never interleave.

The controller keeps no copy of what its switch holds: MAC learning reads
and writes the switch's MAC table, a MAC miss floods through the switch's
own flood path, and discovery probes are sealed to frame bytes that go out
by raw packet-out.  Each port's LLDPDU is encoded once; a punted probe is
opened from its bytes and its TLVs are read at their offsets.  A seal's
nonce is the switch MAC followed by the controller's seal counter, and the
seal is reported through the switch's `on_protect` hook, as a protected
frame's (SCI, PN) is; installing a new discovery key retires the old one
through `on_retire`.

Holding a discovery key is the one fact that says discovery runs.  The
first `KeyInstall` starts the rounds; until it arrives the switch seals
nothing, a port that comes up sends no probe, and a probe received is
counted as `discovery.no_key`.

The table agent applies a config batch through the switch's table writes,
the one place an entry is checked.  Each write returns its undo entry, and
the agent collects them.  If a write fails, the agent hands them back to
`Switch.restore`, which undoes the batch, and the batch fails: a batch with
an id is nacked, one without (a retire or teardown) sends nothing, as on
success.
"""

from __future__ import annotations

import logging
from typing import Callable

from .crypto import LldpKey, lldp_nonce, lldp_open, lldp_seal
from .dataplane import REASON_LLDP_PUNT, REASON_MAC_MISS, PacketIn, SaEntry, Switch
from .errors import DecodeFailure, IntegrityFailure, InvalidEntry
from .messages import (
    DeleteEgSc,
    DeleteIgSc,
    DeleteSa,
    KeyInstall,
    LinkDelta,
    PnExhausted,
    ScAck,
    ScConfig,
    WriteEgSc,
    WriteIgSc,
    WriteSa,
)
from .wire import LLDP_MULTICAST, MIN_LLDP_LEN, Lldpdu, classify, read_lldpdu

log = logging.getLogger(__name__)

# A discovered link expires after this many discovery intervals unheard.
LINK_EXPIRY_INTERVALS = 3


class LocalController:
    def __init__(
        self,
        switch: Switch,
        *,
        now: Callable[[], int],
        schedule: Callable[..., None],
        send_to_central: Callable[[object], None],
        rng,
        discovery_interval_us: int = 30_000_000,
    ):
        """`schedule(delay_us, fn, *args, housekeeping=False)` queues a timer;
        the discovery interval is in whole microseconds of virtual time.
        `send_to_central(msg)` returns nothing: each message arrives, in
        order, though late if the control channel is cut."""
        self.switch = switch
        self.chassis_id = switch.chassis_id
        self.counters = switch.counters
        self._now = now
        self._schedule = schedule
        self._send = send_to_central
        self.discovery_interval_us = discovery_interval_us

        # Link discovery state.
        self.lldp_key: LldpKey | None = None
        self.prev_key: LldpKey | None = None
        self.prev_key_expiry_us = 0
        self.tx_seq = rng.boot_seq()
        self.seal_count = 0  # seals so far, under any key: the counter half of each nonce
        # Replay floor: port -> sender chassis -> the last seq accepted from it.
        self.rx_seq: dict[int, dict[str, int]] = {}
        self.local_view: dict[int, tuple[str, int]] = {}
        self.last_seen_us: dict[int, int] = {}
        self._lldpdus: dict[int, bytes] = {}  # port -> its encoded LLDPDU

        switch.on_packet_in = self.handle_packet_in
        switch.on_port_event = self.handle_port_event
        switch.on_rekey_needed = self.handle_rekey_needed

    # -- message entry points -------------------------------------------------

    def deliver(self, msg) -> None:
        """Central-controller messages, one at a time."""
        if isinstance(msg, KeyInstall):
            self.handle_key_install(msg.key)
        elif isinstance(msg, ScConfig):
            self.handle_sc_config(msg)
        else:
            raise TypeError(f"unexpected control message {type(msg).__name__}")

    def handle_packet_in(self, pi: PacketIn) -> None:
        if pi.reason == REASON_LLDP_PUNT:
            self._handle_lldp(pi)
        elif pi.reason == REASON_MAC_MISS:
            self._handle_mac_miss(pi)

    # -- MAC learning -----------------------------------------------------------

    def _handle_mac_miss(self, pi: PacketIn) -> None:
        data, port, sw = pi.frame_bytes, pi.ingress_port, self.switch
        if classify(data) != "ethernet":
            return
        src = data[6:12]
        if not src[0] & 0x01 and sw.tables.mac.get(src) != port:  # never learn a group (I/G bit) source
            sw.write_mac(src, port)
            self.counters.incr("learning.learned")
        sw.flood(port, data)

    # -- link discovery --------------------------------------------------------

    def handle_key_install(self, key: LldpKey) -> None:
        """The first key starts discovery; a later one rotates in."""
        old = self.lldp_key
        if old is not None:
            # Rotation grace: the old key stays valid for opening (not
            # sealing) for one discovery interval.
            self.prev_key = old
            self.prev_key_expiry_us = self._now() + self.discovery_interval_us
            self.switch.on_retire(old.key, self.switch.mac)
        self.lldp_key = key
        if old is None:
            # Bound once, here rather than at construction, so that every round re-arms
            # with this one object and a switch that never gets a key holds none.
            self.discovery_round = self.discovery_round
            self.discovery_round()

    def discovery_round(self) -> None:
        """Probe every up port, expire stale links, re-arm the timer."""
        self._expire_stale_links()
        self._probe([port for port, up in self.switch.ports_up.items() if up])
        self._schedule(self.discovery_interval_us, self.discovery_round, housekeeping=True)

    def _probe(self, ports: list[int]) -> None:
        """Send a probe sealed under the current key out of each port."""
        key, sw = self.lldp_key, self.switch
        for port in ports:
            self.tx_seq = (self.tx_seq + 1) & 0xFFFFFFFF
            pdu = self._lldpdus.get(port)
            if pdu is None:
                pdu = self._lldpdus[port] = Lldpdu(chassis_id=self.chassis_id.encode(), port_id=port).encode()
            self.seal_count += 1
            sw.on_protect(key.key, sw.mac, self.seal_count)
            nonce = lldp_nonce(sw.mac, self.seal_count)
            data = lldp_seal(key, nonce, self.tx_seq, pdu, src=sw.mac, dst=LLDP_MULTICAST)
            self.counters.incr("discovery.sent")
            sw.packet_out(port, data)

    def _open_with_keys(self, data: bytes):
        try:
            return lldp_open(self.lldp_key, data)
        except IntegrityFailure:
            if self.prev_key is not None and self._now() < self.prev_key_expiry_us:
                return lldp_open(self.prev_key, data)
            raise

    def _handle_lldp(self, pi: PacketIn) -> None:
        if len(pi.frame_bytes) < MIN_LLDP_LEN:
            # An LLDP-typed frame too short to be sealed, e.g. one nested in
            # a validated MACsec frame.
            self.counters.incr("discovery.decode_failure")
            return
        if self.lldp_key is None:
            self.counters.incr("discovery.no_key")
            return
        try:
            seq, plaintext = self._open_with_keys(pi.frame_bytes)
            chassis, remote_port = read_lldpdu(plaintext)
            remote_chassis = chassis.decode("utf-8")
        except IntegrityFailure:
            self.counters.incr("discovery.integrity_failure")
            return
        except (DecodeFailure, UnicodeDecodeError):
            self.counters.incr("discovery.decode_failure")
            return
        if remote_chassis == self.chassis_id:
            # Our own probe bounced back on some path; never a link.
            self.counters.incr("discovery.reflected")
            return
        port = pi.ingress_port
        floors = self.rx_seq.get(port)
        if floors is None:
            floors = self.rx_seq[port] = {}
        last = floors.get(remote_chassis)
        if last is not None and seq <= last:
            self.counters.incr("discovery.replayed_seq")
            return
        floors[remote_chassis] = seq
        self.last_seen_us[port] = self._now()
        self.counters.incr("discovery.accepted")
        remote = (remote_chassis, remote_port)
        if self.local_view.get(port) != remote:
            self.local_view[port] = remote
            log.debug("%s: link detected %s -> %s:%s", self.chassis_id, port, *remote)
            self._send(LinkDelta(self.chassis_id, port, remote))

    def handle_port_event(self, port: int, up: bool) -> None:
        if up:
            if self.lldp_key is not None:
                self._probe([port])
        else:
            self.rx_seq.pop(port, None)
            if port in self.local_view:
                log.debug("%s: link lost on port %s", self.chassis_id, port)
                self._forget_link(port)

    def _expire_stale_links(self) -> None:
        horizon = LINK_EXPIRY_INTERVALS * self.discovery_interval_us
        now = self._now()
        for port in list(self.local_view):
            if now - self.last_seen_us[port] > horizon:
                self.counters.incr("discovery.expired")
                self._forget_link(port)

    def _forget_link(self, port: int) -> None:
        """Drop the link discovered on `port` and report its removal.  Only a
        port with a link has a `last_seen_us` entry."""
        del self.local_view[port]
        self.last_seen_us.pop(port, None)
        self._send(LinkDelta(self.chassis_id, port, None))

    # -- MACsec table agent ------------------------------------------------------

    def handle_sc_config(self, cfg: ScConfig) -> None:
        undo: list = []
        try:
            for op in cfg.ops:
                handler = self._OP_HANDLERS.get(type(op))
                if handler is None:
                    raise InvalidEntry(f"unknown op {type(op).__name__}")
                undo.append(handler(self.switch, op))
        except InvalidEntry as exc:
            self.switch.restore(undo)
            self.counters.incr("sc_config.nack")
            if cfg.batch_id is not None:
                self._send(ScAck(self.chassis_id, cfg.batch_id, ok=False, detail=str(exc)))
            return
        self.counters.incr("sc_config.applied")
        if cfg.batch_id is not None:
            self._send(ScAck(self.chassis_id, cfg.batch_id, ok=True))

    # Each op is one switch write, which returns its undo entry.
    _OP_HANDLERS = {
        WriteSa: lambda sw, op: sw.write_sa(SaEntry(op.sai, op.sak, op.an, op.sci, op.confidentiality)),
        WriteIgSc: lambda sw, op: sw.write_ig_sc(op.sai),
        WriteEgSc: lambda sw, op: sw.write_eg_sc(op.port, op.sai),
        DeleteIgSc: lambda sw, op: sw.delete_ig_sc(op.sai),
        DeleteEgSc: lambda sw, op: sw.delete_eg_sc(op.port),
        DeleteSa: lambda sw, op: sw.delete_sa(op.sai),
    }

    def handle_rekey_needed(self, sai: int, sci: bytes) -> None:
        self.counters.incr("sc_config.pn_exhausted")
        self._send(PnExhausted(chassis_id=self.chassis_id, sci=sci))
