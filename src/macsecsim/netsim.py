"""Deterministic discrete-event fabric tying switches, controllers, links
and hosts together.

The event loop is single-threaded and authoritative; components interact
only through scheduled events, so a (spec, seed) pair fully determines
every trace byte and counter value.  The virtual clock counts integer
microseconds and never moves backward.

A queue entry is the tuple ``(at_us, seq, housekeeping, fn, args)``; the
loop runs ``fn(*args)``, so queueing a frame, a control message or a timer
builds no closure.  `seq` breaks ties, so events due at the same
microsecond run in the order they were queued.  `Simulation.schedule`,
which takes an integer delay in microseconds, queues every event.  The
spec's durations are in seconds; `to_us` rounds each to the microsecond
once, when the simulation is built.  The loop moves the clock only when
time moves, so every inbox row and lane entry stamped at one microsecond
holds one int object; the trace stores its times as int64 values.

The queue is a heap plus a FIFO lane for zero-delay events.  An event
queued at delay 0 is due at the current clock and has the highest `seq`
yet, so the lane is always in ``(at_us, seq)`` order; the loop runs the
lane's head unless the heap's head is smaller.  `Simulation.pending`
lists both in run order.

Periodic timers (discovery rounds, rekey sweeps, key rotation) are
flagged as housekeeping; `quiesce` runs the queue in time order until only
housekeeping remains, which is the artifact's notion of "no in-flight
events".  `run_until` and `quiesce` share one loop, which raises
`LivelockError` once a call has run `max_events` events.

Control messages between a switch and the central controller are queued
at zero delay.  While a switch's control channel is cut they are held, in
both directions, and queued in the order sent when it heals; no control
message is ever lost.

The callbacks queued with every event are bound once: `_deliver` and the
central controller's `deliver` per `Simulation`, the central controller's
rekey sweep and retire timer per `CentralController`, and a local
controller's `discovery_round` per controller, at its first round.  The
central controller files each rekey under its due microsecond and queues
one sweep per instant, at the place of the instant's first entry; the sweep
starts that instant's rekeys in the order they were filed.  A local
controller's `deliver` is bound per message, and every local controller
shares one `_send_to_central`, which reads the switch from the message.

A link is a pair of the spec's ``(node, port)`` endpoints; a host end is
``(host, 0)``, and a node is a switch when its name is in `switches`.  The
inter-switch links are listed once, in spec order, at build time.  Cabling
a link registers it with the trace once: its ``a2b`` wire id is twice the
link's trace id, and its ``b2a`` one more.  Each end's attachment holds the
link and the wire id of the direction a frame sent from it takes, so a row
costs the trace two ints and the frame's bytes.

Every frame reaches a wire through one body, `_transmit`: it records the
frame under its wire id, drops it on a down link or a loss draw, draws the
jitter and queues the delivery.  A switch's `on_transmit` is a `partial` of
it; `host_send` and `inject_frame` queue it at zero delay.  A delivery
checks carrier once, on the link: `set_link_state` is the one writer of a
cabled switch port's state and keeps it equal to the link's, and a port
with no cable is down from build, so a switch never sends from it.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from typing import Callable, Iterator, Optional

from .central_controller import CentralController, LinkKey, link_key
from .dataplane import DROP, Switch
from .errors import LivelockError, UnknownHost, UnknownLink, UnknownSwitch
from .local_controller import LocalController
from .randomness import IvUniquenessRegistry, RandomSource
from .topology import Endpoint, TopologySpec, to_us
from .trace import DIRECTIONS, Trace, write_pcapng
from .wire import ETH_HEADER_LEN, MIN_FRAME_LEN, EthernetFrame

log = logging.getLogger(__name__)

QueueEntry = tuple[int, int, bool, Callable[..., None], tuple]  # (at_us, seq, housekeeping, fn, args)


@dataclass
class Link:
    name: str
    a: Endpoint  # a host end is (host, 0)
    b: Endpoint
    latency_us: int
    up: bool = True
    key: LinkKey = field(init=False)  # its central link-map key
    wire: int = field(init=False)  # its a2b wire id in the trace; b2a is one more

    def __post_init__(self):
        self.key = link_key(self.a, self.b)


class Inbox:
    """A host's delivered frames, in arrival order, read as `(arrival µs,
    frame)` pairs.  It keeps each delivery as its arrival time and its wire
    bytes, and builds the frame, a view over the very bytes of its trace row,
    when the pair is read.  It indexes, slices and iterates like a list and
    compares equal to a list of the pairs it holds."""

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: list[tuple[int, bytes]] = []

    def append(self, at_us: int, data: bytes) -> None:
        self._rows.append((at_us, data))

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [(at_us, EthernetFrame._view(data)) for at_us, data in self._rows[index]]
        at_us, data = self._rows[index]
        return at_us, EthernetFrame._view(data)

    def __iter__(self) -> Iterator[tuple[int, EthernetFrame]]:
        for at_us, data in self._rows:
            yield at_us, EthernetFrame._view(data)

    def __eq__(self, other) -> bool:
        if isinstance(other, (Inbox, list)):
            return self[:] == other[:]
        return NotImplemented

    def __repr__(self) -> str:
        return f"Inbox({self[:]!r})"


@dataclass
class Host:
    name: str
    mac: bytes
    link: Optional[Link] = None  # the host is its link's b end
    received: Inbox = field(default_factory=Inbox)


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
        self._queue: list[QueueEntry] = []  # a heap
        self._lane: deque[QueueEntry] = deque()  # zero-delay entries, in run order
        self._actionable = 0
        self.events_processed = 0

        self.switches: dict[str, Switch] = {}
        self.controllers: dict[str, LocalController] = {}
        self.hosts: dict[str, Host] = {}
        self.links: dict[str, Link] = {}
        self.interswitch_links: list[Link] = []  # in spec order
        # switch or host -> port -> (link, wire id of the direction a frame sent
        # from that port takes); a host sends from port 0
        self._attachments: dict[str, dict[int, tuple[Link, int]]] = {}
        # chassis -> (deliver, msg) held while its control channel is cut
        self._held: dict[str, list[tuple[Callable[[object], None], object]]] = {}

        self._jitter_us = to_us(self.params.latency_jitter)
        self.central = CentralController(
            now=self.now_us,
            schedule=self.schedule,
            send_to_local=self._send_to_local,
            rng=self.rng,
            rekey_interval_us=to_us(self.params.rekey_interval),
            lldp_rotation_us=to_us(self.params.lldp_key_rotation),
            grace_us=to_us(self.params.effective_grace),
            macsec_encrypt=self.params.macsec_encrypt,
        )
        # Bound once: every frame delivery and every message to the central
        # controller queues one of these two objects, not a bound method of its own.
        self._deliver = self._deliver
        self._deliver_to_central = self.central.deliver
        self._build()

    # -- construction ------------------------------------------------------------

    def _build(self) -> None:
        latency_us = to_us(self.params.link_latency)
        discovery_interval_us = to_us(self.params.discovery_interval)
        # One bound method each, shared by every switch and controller.
        now_us, schedule = self.now_us, self.schedule
        observe, forget = self.iv_registry.observe, self.iv_registry.forget
        send_to_central = self._send_to_central
        for sw_spec in self.spec.switches:
            switch = Switch(
                sw_spec.chassis_id,
                sw_spec.mac,
                sw_spec.num_ports,
                pn_ceiling=self.params.pn_ceiling,
            )
            attachments = self._attachments[sw_spec.chassis_id] = {}
            switch.on_transmit = partial(self._transmit, attachments)
            switch.on_protect, switch.on_retire = observe, forget
            controller = LocalController(
                switch,
                now=now_us,
                schedule=schedule,
                send_to_central=send_to_central,
                rng=self.rng,
                discovery_interval_us=discovery_interval_us,
            )
            self.switches[sw_spec.chassis_id] = switch
            self.controllers[sw_spec.chassis_id] = controller

        for link_spec in self.spec.links:
            link = self._cable(Link(link_spec.name, link_spec.a, link_spec.b, latency_us))
            self.interswitch_links.append(link)

        for host_spec in self.spec.hosts:
            host = self.hosts[host_spec.name] = Host(name=host_spec.name, mac=host_spec.mac)
            host.link = self._cable(
                Link(
                    name=f"{host_spec.switch}-{host.name}",
                    a=(host_spec.switch, host_spec.port),
                    b=(host.name, 0),
                    latency_us=latency_us,
                )
            )

        # Ports with no cable attached have no carrier.
        for chassis, switch in self.switches.items():
            for port in switch.ports_up:
                if port not in self._attachments[chassis]:
                    switch.ports_up[port] = False

        for sw_spec in self.spec.switches:
            self.schedule(0, self.central.handle_register, sw_spec.chassis_id, sw_spec.mac)
        self.central.start()

    def _cable(self, link: Link) -> Link:
        """Register a link with the trace and attach its ends: a frame sent
        from `a` goes a2b, one from `b` b2a."""
        self.links[link.name] = link
        wire = link.wire = self.trace.add_link(link.name)
        self._attachments.setdefault(link.a[0], {})[link.a[1]] = (link, wire)
        self._attachments.setdefault(link.b[0], {})[link.b[1]] = (link, wire + 1)
        return link

    # -- clock and event queue ------------------------------------------------------

    def now_us(self) -> int:
        return self._clock_us

    def now_s(self) -> float:
        return self._clock_us / 1_000_000

    def schedule(
        self, delay_us: int, fn: Callable[..., None], *args, housekeeping: bool = False
    ) -> None:
        """Run `fn(*args)` `delay_us` microseconds of virtual time from now."""
        self._seq += 1
        if not housekeeping:
            self._actionable += 1
        if delay_us:
            heappush(self._queue, (self._clock_us + delay_us, self._seq, housekeeping, fn, args))
        else:
            self._lane.append((self._clock_us, self._seq, housekeeping, fn, args))

    def pending(self) -> list[QueueEntry]:
        """Every queued entry, heap and lane, in run order."""
        return sorted([*self._queue, *self._lane])

    def run_until(self, t_s: float) -> None:
        """Execute every event with time <= t_s, then advance the clock to t_s."""
        target_us = to_us(t_s)
        if target_us < self._clock_us:
            raise ValueError("run_until target precedes current time")
        self._run(target_us, "run_until")
        self._clock_us = target_us

    def quiesce(self) -> None:
        """Run, in time order, until only housekeeping timers remain queued."""
        self._run(None, "quiesce")

    def _run(self, target_us: int | None, caller: str) -> None:
        """Pop and run events in (time, seq) order: those due by `target_us`,
        or, without a target, until no actionable event is left.  A lane
        entry is always due: its time is at most the clock."""
        queue, lane = self._queue, self._lane
        popleft = lane.popleft
        limit = self.params.max_events
        stop = self.events_processed + limit
        while ((queue and queue[0][0] <= target_us) or lane) if target_us is not None else self._actionable > 0:
            if lane and not (queue and queue[0] < lane[0]):
                at_us, _, housekeeping, fn, args = popleft()
            else:
                at_us, _, housekeeping, fn, args = heappop(queue)
            if at_us != self._clock_us:  # so every row stamped at one instant shares one int
                if at_us < self._clock_us:
                    raise AssertionError("virtual clock moved backward")
                self._clock_us = at_us
            if not housekeeping:
                self._actionable -= 1
            self.events_processed += 1
            fn(*args)
            if self.events_processed >= stop:
                raise LivelockError(f"exceeded {limit} events in {caller}")

    # -- control channel ---------------------------------------------------------------

    def _send_to_local(self, chassis: str, msg) -> None:
        self._send(chassis, self.controllers[chassis].deliver, msg)

    def _send_to_central(self, msg) -> None:
        """Every message a local controller sends names its switch."""
        self._send(msg.chassis_id, self._deliver_to_central, msg)

    def _send(self, chassis: str, deliver: Callable[[object], None], msg) -> None:
        held = self._held.get(chassis)
        if held is None:
            self.schedule(0, deliver, msg)
        else:
            held.append((deliver, msg))

    def set_control_state(self, chassis: str, up: bool) -> None:
        """Cut or heal a switch's control channel.  A cut channel holds the
        messages sent either way; healing queues them in the order sent."""
        if chassis not in self.controllers:
            raise UnknownSwitch(chassis)
        if not up:
            self._held.setdefault(chassis, [])
            return
        for deliver, msg in self._held.pop(chassis, ()):
            self.schedule(0, deliver, msg)

    # -- wire ---------------------------------------------------------------------------

    def _transmit(self, attachments: dict[int, tuple[Link, int]], port: int, data: bytes) -> None:
        """Put a frame on the wire at `port`: record it, then drop it (link
        down, or lost to the loss draw) or queue its delivery one latency,
        plus the jitter draw, later.  Every frame, whether a switch, a host
        or `inject_frame` sends it, goes through here; a switch sends only
        from an up port, and a port with no cable is down from build."""
        link, wire = attachments[port]
        index = self.trace.record(self._clock_us, wire, data)
        if not link.up:
            self.trace.drop(index, "link_down")
            return
        loss = self.params.loss_probability
        if loss > 0 and self.rng.uniform() < loss:
            self.trace.drop(index, "random_loss")
            return
        delay_us = link.latency_us
        if self._jitter_us:
            delay_us += int(self.rng.uniform() * (self._jitter_us + 1))
        self.schedule(delay_us, self._deliver, link, wire, data, index)

    def _deliver(self, link: Link, wire: int, data: bytes, index: int) -> None:
        """Hand a frame to its receiving end, unless its link went down in flight."""
        if not link.up:
            self.trace.drop(index, "link_down")
            return
        node, port = link.a if wire & 1 else link.b  # a b2a frame arrives at a
        switch = self.switches.get(node)
        if switch is not None:
            result = switch.handle_frame(port, data)
            if result.kind == DROP:
                self.trace.drop(index, result.drop_reason)
        else:
            # The NIC refuses a frame below its class's minimum length, as
            # `parse_frame` would.  Hosts have no MACsec/LLDP stack: those
            # classes die quietly at the NIC, and the rest are Ethernet.
            if len(data) < ETH_HEADER_LEN:
                self.trace.drop(index, "unparseable")
                return
            minimum = MIN_FRAME_LEN.get(data[12] << 8 | data[13])  # big-endian EtherType
            if minimum is None:
                self.hosts[node].received.append(self._clock_us, data)
            elif len(data) < minimum:
                self.trace.drop(index, "unparseable")

    # -- faults and attacks ----------------------------------------------------------------

    def set_link_state(self, name: str, up: bool) -> None:
        """Cut or restore a link; its switch ports follow."""
        link = self.links.get(name)
        if link is None:
            raise UnknownLink(name)
        if link.up == up:
            return
        link.up = up
        log.debug("t=%dus link %s %s", self._clock_us, name, "up" if up else "down")
        for node, port in (link.a, link.b):
            if node in self.switches:
                self.switches[node].set_port_state(port, up)

    def inject_frame(self, name: str, direction: str, data: bytes) -> None:
        """Deliver arbitrary bytes on a link as an adversary-in-the-middle."""
        link = self.links.get(name)
        if link is None:
            raise UnknownLink(name)
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be a2b or b2a, not {direction!r}")
        self.schedule(0, self._transmit, {0: (link, link.wire + DIRECTIONS.index(direction))}, 0, data)

    # -- hosts --------------------------------------------------------------------------------

    def host_send(self, host_name: str, dst_mac: bytes, ether_type: int, payload: bytes) -> None:
        host = self.hosts.get(host_name)
        if host is None:
            raise UnknownHost(f"unknown host {host_name!r}")
        frame = EthernetFrame(dst=dst_mac, src=host.mac, ether_type=ether_type, payload=payload)
        self.schedule(0, self._transmit, self._attachments[host_name], 0, frame.to_bytes())

    def host_recv(self, host_name: str) -> list[EthernetFrame]:
        host = self.hosts.get(host_name)
        if host is None:
            raise UnknownHost(f"unknown host {host_name!r}")
        return [frame for _, frame in host.received]

    # -- observation -----------------------------------------------------------------------------

    def ground_truth_links(self) -> set[LinkKey]:
        """Up inter-switch links, in global-link-map key form."""
        return {link.key for link in self.interswitch_links if link.up}

    def trace_export(self, path) -> None:
        write_pcapng(path, self.trace)

    def counters_dump(self) -> dict[str, dict[str, int]]:
        return {chassis: sw.counters.as_dict() for chassis, sw in sorted(self.switches.items())}
