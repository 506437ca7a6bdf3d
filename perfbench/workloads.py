"""The three benchmark workloads, each a seeded batch job over the public API.

Every workload is open loop in virtual time: each host send is due at a
fixed virtual instant drawn from the seed, whatever the host speed, so a
pass always does the same simulated work and its wall time measures how
fast the simulator gets through it.

A pass builds a fresh spec and `Simulation` (set-up), then runs two timed
phases, then checks the outputs.  The same seed gives the same inputs, and
every pass of one run must end with the same simulated statistics.
"""

from __future__ import annotations

import gc
import hashlib
import random
import struct
import time
import tracemalloc
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass

from macsecsim.netsim import Simulation
from macsecsim.topology import HostSpec, LinkSpec, SimParams, SwitchSpec, TopologySpec, chain_spec
from macsecsim.wire import ETHERTYPE_IPV4

BROADCAST = b"\xff" * 6
HEADER_LEN = 14  # dst, src, EtherType; frame sizes below include it
ID_LEN = 8
BLOCK = 100  # traffic phases are clocked in blocks of this many sends
# Median time of the reference kernel on the machine the bounds were set on
# (2-vCPU Intel Xeon virtual machine, Python 3.11): set-up cost in reference
# durations times this reads as seconds on that machine.
REFERENCE_S = 0.0017

# Counters that must stay absent on these fault-free workloads.
UNEXPECTED_SWITCH_COUNTERS = (
    "drop.",
    "macsec.validate_failed",
    "discovery.integrity_failure",
    "discovery.replayed_seq",
    "discovery.decode_failure",
    "discovery.expired",
    "sc_config.nack",
    "ctl.send_failed",
)
UNEXPECTED_CENTRAL_COUNTERS = ("channels.quarantined", "control.unreachable", "linkmap.unknown_switch")


class CheckFailed(Exception):
    """A workload output was wrong; the run must not report numbers."""


@dataclass
class Send:
    at_us: int  # virtual offset from the start of the phase
    src: str
    dst_mac: bytes
    payload: bytes
    receivers: tuple[str, ...]  # hosts that must get exactly one intact copy


def _reference_kernel() -> int:
    """Fixed pure-Python work in the simulator's style: tuples, dicts, small bytes."""
    table = {}
    rows = []
    for i in range(3000):
        key = (i & 255, i >> 8)
        table[key] = struct.pack(">HI", i & 0xFFFF, i) + b"y" * (i & 63)
        rows.append([key, table[key][:4]])
    return len(rows)


def reference_s() -> float:
    """Wall time of the reference kernel, kept clear of collections of the simulator's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class BlockClock:
    """Wall time of consecutive blocks of one timed phase, or of a set-up.

    On a shared virtual machine the host's speed can drift by a factor of
    two over seconds.  Each block is therefore bracketed by the fixed
    reference kernel, and its time is kept beside the reference time
    measured around it.
    """

    def __init__(self):
        self.blocks: list[tuple[float, float]] = []  # (wall s, reference kernel s)
        self._ref = reference_s()
        self._start = time.perf_counter()

    def lap(self) -> None:
        wall = time.perf_counter() - self._start
        ref = reference_s()
        self.blocks.append((wall, (self._ref + ref) / 2))
        self._ref = ref
        self._start = time.perf_counter()


@dataclass
class PassResult:
    setups: list[tuple[float, float]]  # (wall s, reference kernel s) of each set-up
    blocks: tuple[list[tuple[float, float]], ...]  # BlockClock.blocks of each timed phase
    phase_items: tuple[float, float]
    attempted: int
    failed: int
    digest: str


class NullProbe:
    """Observation hooks around a pass; `layers.LayerTracer` implements them."""

    def attach(self, sim: Simulation) -> None:
        pass

    def timed(self):
        return nullcontext()

    def pass_done(self) -> None:
        pass


def _payload(rng: random.Random, frame_id: int, size: int) -> bytes:
    return frame_id.to_bytes(ID_LEN, "big") + rng.randbytes(size - HEADER_LEN - ID_LEN)


def _inboxes(sim: Simulation) -> dict[str, int]:
    return {name: len(host.received) for name, host in sim.hosts.items()}


def _drive(sim: Simulation, sends: list[Send]) -> list[tuple[float, float]]:
    """Issue each send at its virtual instant, then let every frame land.

    Clocks blocks of BLOCK sends; the last block also covers the drain.
    """
    t0_us = sim.now_us()
    clock = BlockClock()
    for i, s in enumerate(sends, 1):
        sim.run_until((t0_us + s.at_us) / 1_000_000)
        sim.host_send(s.src, s.dst_mac, ETHERTYPE_IPV4, s.payload)
        if i % BLOCK == 0 and i < len(sends):
            clock.lap()
    sim.quiesce()
    clock.lap()
    return clock.blocks


def _count_failed_deliveries(sim: Simulation, marks: dict[str, int], sends: list[Send]) -> int:
    """Frames that did not reach every intended host intact and exactly once."""
    got: dict[str, Counter] = {}
    for name, host in sim.hosts.items():
        got[name] = Counter(
            (f.src, f.dst, f.ether_type, f.payload) for _, f in host.received[marks[name]:]
        )
    failed = 0
    for s in sends:
        sent = (sim.hosts[s.src].mac, s.dst_mac, ETHERTYPE_IPV4, s.payload)
        if any(got[r][sent] != 1 for r in s.receivers):
            failed += 1
    return failed


def _check_counters(sim: Simulation, workload: str) -> None:
    bad = []
    for chassis, counters in sim.counters_dump().items():
        bad += [f"{chassis}:{k}={v}" for k, v in counters.items() if k.startswith(UNEXPECTED_SWITCH_COUNTERS)]
    central = sim.central.counters.as_dict()
    bad += [f"central:{k}={v}" for k, v in central.items() if k.startswith(UNEXPECTED_CENTRAL_COUNTERS)]
    if bad:
        raise CheckFailed(f"{workload}: unexpected counters {bad[:5]}")


def _check_rekeys(sim: Simulation, workload: str, minimum: int) -> None:
    """Every channel direction's SAK must have been replaced `minimum` times."""
    short = [
        key for key, record in sim.central.sc_records.items()
        if any(d.rekey_count < minimum for d in record.directions.values())
    ]
    if short:
        raise CheckFailed(f"{workload}: {len(short)} channels rekeyed fewer than {minimum} times")


def _unprotected_links(sim: Simulation, wiring: set) -> int:
    """Wired links that are not confirmed with an active channel both ways."""
    confirmed = sim.central.confirmed_links()
    if confirmed != wiring:
        raise CheckFailed(f"link map differs from wiring: {len(confirmed ^ wiring)} links")
    bad = 0
    for key in wiring:
        record = sim.central.sc_records.get(key)
        if record is None or record.state != "active" or any(
            d.phase != "active" for d in record.directions.values()
        ):
            bad += 1
    return bad


def _digest(sim: Simulation) -> str:
    h = hashlib.sha256(str(sim.events_processed).encode())
    h.update(repr(sim.counters_dump()).encode())
    h.update(repr(sim.central.counters.as_dict()).encode())
    return h.hexdigest()[:16]


def _retained_bytes(step) -> int:
    """Bytes still allocated after `step()` that were allocated during it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def tree_spec(levels: int, hosts_per_leaf: int, params: SimParams) -> TopologySpec:
    """4-ary tree: port 1 faces the parent, ports 2-5 the children.

    Leaves carry their hosts on ports 2 and up.
    """
    switches, links, hosts = [], [], []
    level_ids = [[0]]
    for _ in range(levels - 1):
        start = level_ids[-1][-1] + 1
        level_ids.append(list(range(start, start + 4 * len(level_ids[-1]))))
    for level in level_ids:
        for n in level:
            switches.append(SwitchSpec(f"t{n}", bytes([0x02, 0, 0, 0, n >> 8, n & 0xFF]), 5))
    for parent_level, child_level in zip(level_ids, level_ids[1:]):
        for i, parent in enumerate(parent_level):
            for k in range(4):
                child = child_level[4 * i + k]
                links.append(LinkSpec(f"t{parent}-t{child}", (f"t{parent}", 2 + k), (f"t{child}", 1)))
    for leaf in level_ids[-1] if levels > 1 else []:
        for k in range(hosts_per_leaf):
            n = len(hosts) + 1
            hosts.append(HostSpec(f"h{n}", bytes([0x02, 0x10, 0, 0, n >> 8, n & 0xFF]), f"t{leaf}", 2 + k))
    spec = TopologySpec(switches=switches, hosts=hosts, links=links, params=params)
    spec.validate()
    return spec


class _TrafficWorkload:
    """Shared pass for workloads that push host frames: set up, two phases, check."""

    name = ""
    min_rekeys = 0  # every channel direction must rekey at least this often per pass
    phases: list[list[Send]]

    def spec(self) -> TopologySpec:
        raise NotImplementedError

    def setup(self) -> tuple[Simulation, tuple[float, float]]:
        raise NotImplementedError

    def run_pass(self, probe=NullProbe()) -> PassResult:
        sim, setup = self.setup()
        probe.attach(sim)
        wiring = sim.ground_truth_links()
        failed, attempted = _unprotected_links(sim, wiring), len(wiring)
        blocks = []
        for sends in self.phases:
            marks = _inboxes(sim)
            with probe.timed():
                blocks.append(_drive(sim, sends))
            failed += _count_failed_deliveries(sim, marks, sends)
            attempted += len(sends)
        failed += _unprotected_links(sim, wiring)
        attempted += len(wiring)
        _check_rekeys(sim, self.name, self.min_rekeys)
        _check_counters(sim, self.name)
        items = tuple(len(p) for p in self.phases)
        return PassResult([setup], tuple(blocks), items, attempted, failed, _digest(sim))

    def _retained_sends(self) -> tuple[list[list[Send]], list[list[Send]]]:
        """(sends run untraced first, sends whose retained growth is measured)."""
        raise NotImplementedError

    def retained_per_item(self) -> float:
        sim, _ = self.setup()
        before, measured = self._retained_sends()
        for sends in before:
            _drive(sim, sends)
        grown = _retained_bytes(lambda: [_drive(sim, sends) for sends in measured])
        return grown / sum(len(sends) for sends in measured)


class ChainFwd(_TrafficWorkload):
    """chain_spec(8): 7 protected hops, known unicast both ways, 64 B then 1500 B."""

    name = "chain_fwd"
    sizes = (64, 1500)
    gap_us = 50  # virtual time between sends

    def __init__(self, seed: int, *, switches: int = 8, frames_per_phase: int = 2000):
        rng = random.Random(seed)
        self.switches = switches
        self.sim_seed = rng.randrange(2**31)
        macs = {h.name: h.mac for h in chain_spec(switches).hosts}
        self.phases = []
        frame_id = 0
        for size in self.sizes:
            sends = []
            for k in range(frames_per_phase):
                src, dst = ("h1", "h2") if rng.random() < 0.5 else ("h2", "h1")
                frame_id += 1
                sends.append(Send(k * self.gap_us, src, macs[dst], _payload(rng, frame_id, size), (dst,)))
            self.phases.append(sends)

    def spec(self) -> TopologySpec:
        return chain_spec(self.switches)

    def setup(self) -> tuple[Simulation, tuple[float, float]]:
        clock = BlockClock()
        sim = Simulation(self.spec(), seed=self.sim_seed)
        sim.quiesce()
        for src, dst in (("h1", "h2"), ("h2", "h1")):  # MAC warm-up: both hosts get learned
            sim.host_send(src, sim.hosts[dst].mac, ETHERTYPE_IPV4, b"warm-up")
            sim.quiesce()
        clock.lap()
        return sim, clock.blocks[0]

    def _retained_sends(self):
        # A quarter of each phase: retained bytes per frame do not depend on
        # how many frames went before.
        return [], [sends[: len(sends) // 4] for sends in self.phases]

    @staticmethod
    def named_metrics(s1, s2, items1, items2, retained) -> dict:
        """The end-to-end metrics in this workload's own terms, in wall-clock units."""
        return {
            "fwd_frames_per_s_64B": (items1 / s1, "frames/s"),
            "fwd_frames_per_s_1500B": (items2 / s2, "frames/s"),
            "fwd_retained_B_per_frame": (retained, "B"),
        }


class FabricMixed(_TrafficWorkload):
    """85-switch tree, 128 hosts: unicast flows, broadcasts and rekeys under load.

    Phase 1 is the learning phase: every host speaks for the first time at
    a staggered instant, so its first frame goes through packet-in and a
    controller flood at every switch.  Phase 2 runs the same mix once every
    host is known.  One frame in twenty is a broadcast, which floods through
    the pipeline and is protected on every inter-switch port.
    """

    name = "fabric_mixed"
    sizes = (64, 576, 1500)
    broadcast_every = 20
    min_rekeys = 3

    def __init__(self, seed: int, *, levels: int = 4, frames_per_phase: int = 1500, gap_us: int = 2000):
        rng = random.Random(seed)
        self.sim_seed = rng.randrange(2**31)
        self.levels = levels
        # rekey_interval is short enough for several rekeys per channel under
        # traffic.  grace is set explicitly below rekey_interval: when grace
        # (by default one discovery interval) is not below rekey_interval,
        # quiesce() never returns (see NOTES.md).
        self.params = SimParams(rekey_interval=1.0, grace=0.25)
        macs = {h.name: h.mac for h in tree_spec(levels, 2, self.params).hosts}
        names = list(macs)
        flows = [(src, dst) for src in names for dst in rng.sample([n for n in names if n != src], 2)]
        order = rng.sample(names, len(names))
        first_at = {n: i * frames_per_phase // len(names) for i, n in enumerate(order)}
        first_by_slot = {slot: n for n, slot in first_at.items()}
        self.phases = []
        for phase in range(2):
            slots = []  # (slot, src, dst); dst None marks a broadcast
            for k in range(frames_per_phase):
                if phase == 0 and k in first_by_slot:
                    src = first_by_slot[k]
                    slots.append((k, src, rng.choice([d for s, d in flows if s == src])))
                    continue
                # In phase 1 a flow starts once both of its ends have spoken,
                # so its frames are known unicast.
                live = [f for f in flows if phase or max(first_at[f[0]], first_at[f[1]]) < k]
                if live:
                    slots.append((k, *rng.choice(live)))
            # One broadcast in every run of `broadcast_every` frames, and each
            # size once in every three broadcasts and every three unicasts, so
            # that seeds differ only in who talks to whom and when, and any
            # prefix of a phase has the same mix.
            for w in range(0, len(slots) - self.broadcast_every + 1, self.broadcast_every):
                spare = [i for i in range(w, w + self.broadcast_every) if phase or slots[i][0] not in first_by_slot]
                if spare:
                    i = rng.choice(spare)
                    slots[i] = (slots[i][0], slots[i][1], None)
            size_cycles = {True: [], False: []}
            sizes = []
            for _, _, dst in slots:
                cycle = size_cycles[dst is None]
                if not cycle:
                    cycle.extend(rng.sample(self.sizes, len(self.sizes)))
                sizes.append(cycle.pop())
            sends = []
            for (k, src, dst), size in zip(slots, sizes):
                payload = _payload(rng, phase * frames_per_phase + k + 1, size)
                if dst is None:
                    receivers = tuple(n for n in names if n != src)
                    sends.append(Send(k * gap_us, src, BROADCAST, payload, receivers))
                else:
                    sends.append(Send(k * gap_us, src, macs[dst], payload, (dst,)))
            self.phases.append(sends)

    def spec(self) -> TopologySpec:
        return tree_spec(self.levels, 2, self.params)

    def setup(self) -> tuple[Simulation, tuple[float, float]]:
        clock = BlockClock()
        sim = Simulation(self.spec(), seed=self.sim_seed)
        sim.quiesce()
        clock.lap()
        return sim, clock.blocks[0]

    def _retained_sends(self):
        # Learning runs untraced; growth is measured on a fifth of phase 2.
        return [self.phases[0]], [self.phases[1][: len(self.phases[1]) // 5]]

    @staticmethod
    def named_metrics(s1, s2, items1, items2, retained) -> dict:
        """The end-to-end metrics in this workload's own terms, in wall-clock units."""
        return {
            "mixed_frames_per_s": ((items1 + items2) / (s1 + s2), "frames/s"),
            "mixed_retained_B_per_frame": (retained, "B"),
        }


class TreeControl:
    """4-ary tree without hosts: bring-up to full protection, then housekeeping."""

    name = "tree_control"
    min_rekeys = 2
    window_s = 5.0  # housekeeping is clocked in windows of this much virtual time
    # Virtual time of housekeeping, before the drain of in-flight rekeys.
    housekeeping_s = 125.0
    # Bring-up is one burst of under a second that cannot be clocked in
    # smaller blocks, so each pass brings up this many fresh fabrics in turn
    # and runs housekeeping on each, to take several samples of both phases.
    fabrics = 3

    def __init__(self, seed: int, *, levels: int = 6):
        rng = random.Random(seed)
        self.sim_seed = rng.randrange(2**31)
        self.levels = levels
        # Two rekey intervals and one discovery-key rotation fit inside the
        # housekeeping window; grace keeps its default of one discovery interval.
        self.params = SimParams(rekey_interval=60.0, lldp_key_rotation=100.0, max_events=10_000_000)

    def spec(self) -> TopologySpec:
        return tree_spec(self.levels, 0, self.params)

    def setup(self) -> tuple[Simulation, tuple[float, float]]:
        clock = BlockClock()
        sim = Simulation(self.spec(), seed=self.sim_seed)
        clock.lap()
        return sim, clock.blocks[0]

    @staticmethod
    def _bringup(sim: Simulation) -> list[tuple[float, float]]:
        clock = BlockClock()
        sim.run_until(0.0)  # registration, key install, first probes
        clock.lap()
        sim.quiesce()  # link reports, channel installs and acks
        clock.lap()
        return clock.blocks

    def _housekeeping(self, sim: Simulation) -> list[tuple[float, float]]:
        t0_us = sim.now_us()
        clock = BlockClock()
        for w in range(1, int(self.housekeeping_s / self.window_s) + 1):
            sim.run_until((t0_us + round(w * self.window_s * 1_000_000)) / 1_000_000)
            clock.lap()
        sim.quiesce()  # finish rekeys and retires still in flight
        clock.lap()
        return clock.blocks

    def run_pass(self, probe=NullProbe()) -> PassResult:
        bringup, housekeeping, setups, failed, vmin = [], [], [], 0, 0.0
        for _ in range(self.fabrics):
            sim = None
            gc.collect()  # free the previous fabric outside the timed phases
            sim, setup = self.setup()
            setups.append(setup)
            probe.attach(sim)
            wiring = sim.ground_truth_links()
            with probe.timed():
                bringup += self._bringup(sim)
            failed += _unprotected_links(sim, wiring)
            v0_us = sim.now_us()
            with probe.timed():
                housekeeping += self._housekeeping(sim)
            vmin += (sim.now_us() - v0_us) / 60e6
            failed += _unprotected_links(sim, wiring)
            _check_rekeys(sim, self.name, self.min_rekeys)
            if sim.central.counters.get("discovery_key.rotated") < 1:
                raise CheckFailed(f"{self.name}: discovery key never rotated")
            _check_counters(sim, self.name)
        return PassResult(
            setups, (bringup, housekeeping), (self.fabrics * len(wiring), vmin),
            2 * self.fabrics * len(wiring), failed, _digest(sim),
        )

    def retained_per_item(self) -> float:
        sim, _ = self.setup()
        sim.quiesce()
        v0_us = sim.now_us()
        grown = _retained_bytes(lambda: self._housekeeping(sim))
        return grown / ((sim.now_us() - v0_us) / 60e6)

    def named_metrics(self, s1, s2, items1, items2, retained) -> dict:
        """The end-to-end metrics in this workload's own terms, in wall-clock units."""
        return {
            "bringup_s": (s1 / self.fabrics, "s"),
            "housekeeping_s_per_vmin": (s2 / items2, "s/vmin"),
            "housekeeping_retained_B_per_vmin": (retained, "B/vmin"),
        }


WORKLOADS = {cls.name: cls for cls in (ChainFwd, TreeControl, FabricMixed)}
