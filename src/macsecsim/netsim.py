"""Deterministic discrete-event fabric tying switches, controllers, links
and hosts together.

The event loop is single-threaded and authoritative; components interact
only through scheduled events, so a (spec, seed) pair fully determines
every trace byte and counter value.  The virtual clock counts integer
microseconds and never moves backward.

Periodic timers (discovery rounds, rekey deadlines, key rotation) are
flagged as housekeeping; `quiesce` runs the queue in time order until only
housekeeping remains, which is the artifact's notion of "no in-flight
events".
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

from .central_controller import CentralController, LinkKey, link_key
from .dataplane import DROP, Switch
from .errors import LivelockError, TruncatedFrame, UnknownLink, UnknownSwitch
from .local_controller import LocalController
from .randomness import IvUniquenessRegistry, RandomSource
from .topology import TopologySpec
from .trace import Trace, write_pcapng
from .wire import EthernetFrame, parse_frame

log = logging.getLogger(__name__)


@dataclass
class LinkEnd:
    kind: str  # "switch" | "host"
    name: str
    port: int = 0


@dataclass
class Link:
    name: str
    a: LinkEnd
    b: LinkEnd
    latency_us: int
    up: bool = True

    def end(self, direction: str) -> LinkEnd:
        """Receiving end for a direction."""
        return self.b if direction == "a2b" else self.a


@dataclass
class Host:
    name: str
    mac: bytes
    link: Optional[Link] = None
    side: str = "a"  # which end of its link the host occupies
    received: list[tuple[int, EthernetFrame]] = field(default_factory=list)
    delivered: int = 0  # every frame that reached the NIC, any class


class Simulation:
    def __init__(self, spec: TopologySpec, seed: int | None = None):
        spec.validate()
        self.spec = spec
        self.params = spec.params
        self.seed = self.params.seed if seed is None else seed
        self.rng = RandomSource(self.seed)
        self.iv_registry = IvUniquenessRegistry()
        self.trace = Trace()

        self._clock_us = 0
        self._seq = 0
        self._queue: list[tuple[int, int, bool, Callable[[], None]]] = []
        self._actionable = 0
        self.events_processed = 0

        self.switches: dict[str, Switch] = {}
        self.controllers: dict[str, LocalController] = {}
        self.hosts: dict[str, Host] = {}
        self.links: dict[str, Link] = {}
        self._port_map: dict[tuple[str, int], tuple[Link, str]] = {}
        self.control_up: dict[str, bool] = {}

        self.central = CentralController(
            now=self.now_us,
            schedule=self.schedule,
            send_to_local=self._send_to_local,
            rng=self.rng,
            discovery_interval_s=self.params.discovery_interval,
            rekey_interval_s=self.params.rekey_interval,
            lldp_rotation_s=self.params.lldp_key_rotation,
            grace_s=self.params.grace,
            macsec_encrypt=self.params.macsec_encrypt,
        )
        self._build()

    # -- construction ------------------------------------------------------------

    def _build(self) -> None:
        latency_us = int(self.params.link_latency * 1_000_000)
        for sw_spec in self.spec.switches:
            switch = Switch(
                sw_spec.chassis_id,
                sw_spec.mac,
                sw_spec.num_ports,
                pn_ceiling=self.params.pn_ceiling,
            )
            switch.on_transmit = (
                lambda port, data, chassis=sw_spec.chassis_id: self._switch_transmit(
                    chassis, port, data
                )
            )
            switch.on_protect = self.iv_registry.observe
            controller = LocalController(
                switch,
                now=self.now_us,
                schedule=self.schedule,
                send_to_central=lambda msg, chassis=sw_spec.chassis_id: self._send_to_central(
                    chassis, msg
                ),
                rng=self.rng,
                discovery_interval_s=self.params.discovery_interval,
            )
            self.switches[sw_spec.chassis_id] = switch
            self.controllers[sw_spec.chassis_id] = controller
            self.control_up[sw_spec.chassis_id] = True

        for link_spec in self.spec.links:
            link = Link(
                name=link_spec.name,
                a=LinkEnd("switch", link_spec.a[0], link_spec.a[1]),
                b=LinkEnd("switch", link_spec.b[0], link_spec.b[1]),
                latency_us=latency_us,
            )
            self.links[link.name] = link
            self._port_map[link_spec.a] = (link, "a")
            self._port_map[link_spec.b] = (link, "b")

        for host_spec in self.spec.hosts:
            host = Host(name=host_spec.name, mac=host_spec.mac)
            link = Link(
                name=f"{host_spec.switch}-{host_spec.name}",
                a=LinkEnd("switch", host_spec.switch, host_spec.port),
                b=LinkEnd("host", host_spec.name),
                latency_us=latency_us,
            )
            host.link, host.side = link, "b"
            self.hosts[host.name] = host
            self.links[link.name] = link
            self._port_map[(host_spec.switch, host_spec.port)] = (link, "a")

        # Ports with no cable attached have no carrier.
        for chassis, switch in self.switches.items():
            for port in switch.ports_up:
                if (chassis, port) not in self._port_map:
                    switch.ports_up[port] = False

        for sw_spec in self.spec.switches:
            self.schedule(0, lambda s=sw_spec: self.central.handle_register(s.chassis_id, s.mac))
        self.central.start()

    # -- clock and event queue ------------------------------------------------------

    def now_us(self) -> int:
        return self._clock_us

    def now_s(self) -> float:
        return self._clock_us / 1_000_000

    def schedule(self, delay_s: float, fn: Callable[[], None], *, housekeeping: bool = False) -> None:
        at_us = self._clock_us + max(0, round(delay_s * 1_000_000))
        self._seq += 1
        if not housekeeping:
            self._actionable += 1
        heapq.heappush(self._queue, (at_us, self._seq, housekeeping, fn))

    def _pop_and_run(self) -> None:
        at_us, _, housekeeping, fn = heapq.heappop(self._queue)
        if at_us < self._clock_us:
            raise AssertionError("virtual clock moved backward")
        self._clock_us = at_us
        if not housekeeping:
            self._actionable -= 1
        self.events_processed += 1
        fn()

    def run_until(self, t_s: float) -> None:
        """Execute every event with time <= t_s, then advance the clock to t_s."""
        target_us = round(t_s * 1_000_000)
        if target_us < self._clock_us:
            raise ValueError("run_until target precedes current time")
        budget = self.params.max_events
        while self._queue and self._queue[0][0] <= target_us:
            self._pop_and_run()
            budget -= 1
            if budget <= 0:
                raise LivelockError(f"exceeded {self.params.max_events} events in run_until")
        self._clock_us = target_us

    def quiesce(self) -> None:
        """Run, in time order, until only housekeeping timers remain queued."""
        budget = self.params.max_events
        while self._actionable > 0:
            self._pop_and_run()
            budget -= 1
            if budget <= 0:
                raise LivelockError(f"exceeded {self.params.max_events} events in quiesce")

    # -- control channel ---------------------------------------------------------------

    def _send_to_local(self, chassis: str, msg) -> bool:
        if not self.control_up.get(chassis, False):
            return False
        controller = self.controllers[chassis]
        self.schedule(self.params.control_latency, lambda: controller.deliver(msg))
        return True

    def _send_to_central(self, chassis: str, msg) -> bool:
        if not self.control_up.get(chassis, False):
            return False
        self.schedule(self.params.control_latency, lambda: self.central.deliver(msg))
        return True

    def set_control_state(self, chassis: str, up: bool) -> None:
        """Partition (or heal) a switch's control channel."""
        if chassis not in self.controllers:
            raise UnknownSwitch(chassis)
        self.control_up[chassis] = up

    # -- wire ---------------------------------------------------------------------------

    def _switch_transmit(self, chassis: str, port: int, data: bytes) -> None:
        attachment = self._port_map.get((chassis, port))
        if attachment is None:
            return
        link, side = attachment
        self._transmit_on_link(link, "a2b" if side == "a" else "b2a", data)

    def _transmit_on_link(self, link: Link, direction: str, data: bytes) -> None:
        record = self.trace.record(self._clock_us, link.name, direction, data)
        if not link.up:
            record.dropped = "link_down"
            return
        if self.params.loss_probability > 0 and self.rng.uniform() < self.params.loss_probability:
            record.dropped = "random_loss"
            return
        delay_s = link.latency_us / 1_000_000
        if self.params.latency_jitter > 0:
            delay_s += self.rng.uniform() * self.params.latency_jitter
        self.schedule(delay_s, lambda: self._deliver(link, direction, data, record))

    def _deliver(self, link: Link, direction: str, data: bytes, record) -> None:
        if not link.up:
            record.dropped = "link_down"
            return
        end = link.end(direction)
        if end.kind == "switch":
            switch = self.switches[end.name]
            if not switch.ports_up.get(end.port, False):
                record.dropped = "port_down"
                return
            result = switch.handle_frame(end.port, data)
            if result.kind == DROP:
                record.dropped = result.drop_reason
        else:
            host = self.hosts[end.name]
            host.delivered += 1
            try:
                frame = parse_frame(data)
            except TruncatedFrame:
                record.dropped = "unparseable"
                return
            if isinstance(frame, EthernetFrame):
                host.received.append((self._clock_us, frame))
            # Hosts have no MACsec/LLDP stack; other classes die quietly at the NIC.

    # -- faults and attacks ----------------------------------------------------------------

    def set_link_state(self, name: str, up: bool) -> None:
        link = self.links.get(name)
        if link is None:
            raise UnknownLink(name)
        if link.up == up:
            return
        link.up = up
        log.debug("t=%dus link %s %s", self._clock_us, name, "up" if up else "down")
        for end in (link.a, link.b):
            if end.kind == "switch":
                self.switches[end.name].set_port_state(end.port, up)

    def inject_frame(self, name: str, direction: str, data: bytes) -> None:
        """Deliver arbitrary bytes on a link as an adversary-in-the-middle."""
        link = self.links.get(name)
        if link is None:
            raise UnknownLink(name)
        if direction not in ("a2b", "b2a"):
            raise ValueError(f"direction must be a2b or b2a, not {direction!r}")
        self.schedule(0, lambda: self._transmit_on_link(link, direction, data))

    # -- hosts --------------------------------------------------------------------------------

    def host_send(self, host_name: str, dst_mac: bytes, ether_type: int, payload: bytes) -> None:
        host = self.hosts.get(host_name)
        if host is None:
            raise UnknownSwitch(f"unknown host {host_name!r}")
        frame = EthernetFrame(dst=dst_mac, src=host.mac, ether_type=ether_type, payload=payload)
        direction = "a2b" if host.side == "a" else "b2a"
        self.schedule(0, lambda: self._transmit_on_link(host.link, direction, frame.to_bytes()))

    def host_recv(self, host_name: str) -> list[EthernetFrame]:
        host = self.hosts.get(host_name)
        if host is None:
            raise UnknownSwitch(f"unknown host {host_name!r}")
        return [frame for _, frame in host.received]

    # -- observation -----------------------------------------------------------------------------

    def ground_truth_links(self) -> set[LinkKey]:
        """Up inter-switch links, in global-link-map key form."""
        truth = set()
        for link in self.links.values():
            if link.up and link.a.kind == "switch" and link.b.kind == "switch":
                truth.add(link_key((link.a.name, link.a.port), (link.b.name, link.b.port)))
        return truth

    def interswitch_link_names(self) -> list[str]:
        return [
            link.name
            for link in self.links.values()
            if link.a.kind == "switch" and link.b.kind == "switch"
        ]

    def trace_query(self, **kwargs):
        return self.trace.query(**kwargs)

    def trace_export(self, path) -> None:
        interfaces = []
        for name in self.links:
            interfaces.extend((f"{name}:a2b", f"{name}:b2a"))
        write_pcapng(path, interfaces, self.trace.records)

    def counters_dump(self) -> dict[str, dict[str, int]]:
        return {chassis: sw.counters.as_dict() for chassis, sw in sorted(self.switches.items())}


def build(spec: TopologySpec, seed: int | None = None) -> Simulation:
    """Wire a spec into a running simulation; discovery starts at t=0."""
    return Simulation(spec, seed=seed)
