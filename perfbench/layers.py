"""Per-layer tracing of macsecsim from outside the program.

`LayerTracer.installed()` wraps the public functions of each module with
timing spans.  A function is wrapped at every name a caller looks it up by:
modules import functions by name (`from .crypto import macsec_protect`), so
each module's binding is patched, and methods are patched on their class.
Simulator objects keep bound methods from the moment they are built (timers,
switch hooks), so the wrappers go in before any `Simulation` is constructed
and come out, restoring every original, when the context exits.

Spans are recorded only inside the workload's timed phases.  Each span has
an id, its parent's id, a name and its start and end; they stay in memory
and `write_spans` saves them at the end.  A layer's self time is its spans'
duration minus the time covered by their child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from statistics import median

from macsecsim import central_controller, crypto, dataplane, local_controller, messages, netsim, randomness, trace, wire

SPAN_CAP = 200_000  # spans kept for the span file; self times use every span
BUILD_REPEATS = 5  # spec builds timed for topology.spec_build_s

DROP_REASONS = (
    "truncated", "unknown_sci", "integrity_failure", "replay_pn", "pn_exhausted", "no_egress_sc", "port_down",
)
MESSAGE_TYPES = (
    "Register", "KeyInstall", "StartDiscovery", "LinkDelta", "PnExhausted", "WriteSa", "WriteIgSc",
    "WriteEgSc", "SetPortFlag", "DeleteIgSc", "DeleteEgSc", "DeleteSa", "ScConfig", "ScAck",
)
LOCAL_MESSAGES = ("KeyInstall", "StartDiscovery", "ScConfig")
CENTRAL_MESSAGES = ("LinkDelta", "ScAck", "PnExhausted")
PACKET_IN_REASONS = ("mac_miss", "lldp_punt")


def _span_names() -> list[str]:
    """Spans whose call count and self time are reported."""
    names = ["wire.parse_frame", "wire.to_bytes"]
    names += [f"crypto.{f}" for f in ("macsec_protect", "macsec_validate", "lldp_seal", "lldp_open")]
    names += [f"dataplane.{f}" for f in ("handle_frame", "run_pipeline", "expand_flood", "packet_out")]
    names += [f"local_controller.packet_in.{r}" for r in PACKET_IN_REASONS]
    names += ["local_controller.discovery_round"]
    names += [f"local_controller.deliver.{m}" for m in LOCAL_MESSAGES]
    names += [f"central_controller.deliver.{m}" for m in CENTRAL_MESSAGES]
    names += ["netsim.schedule", "trace.record"]
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in _span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "wire.parses_per_hop": "ratio",
        "crypto.aesgcm_per_op": "ratio",
        "crypto.lldp_open.accept_ratio": "ratio",
        "dataplane.us_per_hop": "us",
        **{f"dataplane.drop.{r}": "count" for r in DROP_REASONS},
        "central_controller.handle_register.self_s": "s",
        "central_controller.rotate_lldp_key.self_s": "s",
        "central_controller.link_map.size": "count",
        "central_controller.sak_log.len": "count",
        "central_controller.rekeys": "count",
        **{f"messages.{m}.count": "count" for m in MESSAGE_TYPES},
        "netsim.events": "count",
        "netsim.events_per_s": "1/s",
        "netsim.loop.self_s": "s",
        "netsim.queue_peak": "count",
        "trace.retained_B": "B",
        "trace.write_pcapng_s": "s",
        "randomness.iv_registry.entries": "count",
        "randomness.observe.self_s": "s",
        "randomness.nonces.entries": "count",
        "topology.spec_build_s": "s",
        "tracing.untraced_s": "s",
        "tracing.traced_s": "s",
        "tracing.overhead_ratio": "ratio",
    })
    return units


def _by_type(prefix: str):
    return lambda args: f"{prefix}.{type(args[1]).__name__}"


# (module, function name, span name): wrapped wherever a module binds it.
FUNCTIONS = [
    (wire, "parse_frame", "wire.parse_frame"),
    (crypto, "macsec_protect", "crypto.macsec_protect"),
    (crypto, "macsec_validate", "crypto.macsec_validate"),
    (crypto, "lldp_seal", "crypto.lldp_seal"),
    (crypto, "lldp_open", "crypto.lldp_open"),
    (dataplane, "run_pipeline", "dataplane.run_pipeline"),
]
# (class, method name, span name or a function of the call's arguments).
METHODS = [
    (wire.EthernetFrame, "to_bytes", "wire.to_bytes"),
    (wire.MacsecFrame, "to_bytes", "wire.to_bytes"),
    (wire.SecureLldpFrame, "to_bytes", "wire.to_bytes"),
    (dataplane.Switch, "handle_frame", "dataplane.handle_frame"),
    (dataplane.Switch, "expand_flood", "dataplane.expand_flood"),
    (dataplane.Switch, "packet_out", "dataplane.packet_out"),
    (local_controller.LocalController, "handle_packet_in",
     lambda args: f"local_controller.packet_in.{args[1].reason}"),
    (local_controller.LocalController, "discovery_round", "local_controller.discovery_round"),
    (local_controller.LocalController, "deliver", _by_type("local_controller.deliver")),
    (central_controller.CentralController, "deliver", _by_type("central_controller.deliver")),
    (central_controller.CentralController, "handle_register", "central_controller.handle_register"),
    (central_controller.CentralController, "rotate_lldp_key", "central_controller.rotate_lldp_key"),
    (netsim.Simulation, "schedule", "netsim.schedule"),
    (netsim.Simulation, "run_until", "netsim.loop"),
    (netsim.Simulation, "quiesce", "netsim.loop"),
    (trace.Trace, "record", "trace.record"),
    (randomness.IvUniquenessRegistry, "observe", "randomness.observe"),
]
# Call counts that must equal the simulator's own counters, summed over switches.
SELF_CHECKS = {
    "crypto.macsec_protect": ("macsec.protected",),
    "crypto.macsec_validate": ("macsec.validated", "macsec.validate_failed"),
    "crypto.lldp_seal": ("discovery.sent",),
}


class SelfCheckFailed(Exception):
    pass


def _switch_sums(sim, names) -> int:
    return sum(sw.counters.get(n) for sw in sim.switches.values() for n in names)


class LayerTracer:
    """Probe for `run_pass`: records spans while a timed phase runs."""

    def __init__(self, capture: Path):
        self.capture = capture  # the first traced pass's capture is written here, timed
        self.pcapng_s = 0.0
        self.recording = False
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self_ns, total_ns, raised]
        self.counts: Counter = Counter()
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.queue_peak = 0
        self.passes = 0
        self.state: dict[str, float] = {}
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._sim = None
        self._check_deltas: Counter = Counter()

    # -- wrappers --------------------------------------------------------------

    def _spanned(self, fn, name, on_call=None):
        tracer, stack, stats, spans, clock = self, self._stack, self.stats, self.spans, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args)
            if on_call is not None:
                on_call(args)
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            raised = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                st = stats.get(label)
                if st is None:
                    st = stats[label] = [0, 0, 0, 0]
                st[0] += 1
                st[1] += duration - frame[1]
                st[2] += duration
                st[3] += raised
                if stack:
                    stack[-1][1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, label, start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.recording:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _peak(self, args) -> None:
        depth = len(args[0]._queue)
        if depth > self.queue_peak:
            self.queue_peak = depth

    def install(self) -> None:
        """Wrap every entry of FUNCTIONS, METHODS and MESSAGE_TYPES and every
        binding of `AESGCM`; a name that no longer exists fails the run."""
        modules = [m for n, m in sys.modules.items() if n == "macsecsim" or n.startswith("macsecsim.")]
        gone = [f"{module.__name__}.{attr}" for module, attr, _ in FUNCTIONS if not hasattr(module, attr)]
        gone += [f"{cls.__name__}.{attr}" for cls, attr, _ in METHODS if attr not in vars(cls)]
        gone += [f"messages.{t}" for t in MESSAGE_TYPES if not inspect.isclass(getattr(messages, t, None))]
        if not any(getattr(m, "AESGCM", None) is not None for m in modules):
            gone.append("AESGCM (bound in no module)")
        if gone:
            raise SelfCheckFailed(f"cannot trace, no longer defined: {gone}")
        for module, attr, name in FUNCTIONS:
            original = getattr(module, attr)
            wrapped = self._spanned(original, name)
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, binding, wrapped)
        for cls, attr, name in METHODS:
            original = vars(cls)[attr]
            on_call = self._peak if name == "netsim.schedule" else None
            self._patch(cls, attr, self._spanned(original, name, on_call))
        for module in modules:
            if getattr(module, "AESGCM", None) is not None:
                self._patch(module, "AESGCM", self._counted(module.AESGCM, "crypto.aesgcm"))
        for type_name in MESSAGE_TYPES:
            cls = getattr(messages, type_name)
            self._patch(cls, "__init__", self._counted(cls.__init__, f"messages.{type_name}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- probe hooks called by a pass -------------------------------------------

    def attach(self, sim) -> None:
        self._sim = sim

    @contextmanager
    def timed(self):
        sim = self._sim
        before_counts = {name: self.stats.get(name, [0])[0] for name in SELF_CHECKS}
        before_sums = {name: _switch_sums(sim, keys) for name, keys in SELF_CHECKS.items()}
        events0 = sim.events_processed
        self.recording = True
        try:
            yield
        finally:
            self.recording = False
        self.counts["netsim.events"] += sim.events_processed - events0
        for name, keys in SELF_CHECKS.items():
            wrapped_calls = self.stats.get(name, [0])[0] - before_counts[name]
            counted = _switch_sums(sim, keys) - before_sums[name]
            self._check_deltas[name] += wrapped_calls - counted

    def pass_done(self) -> None:
        """Sample the state the layers hold at the end of a pass."""
        sim = self._sim
        self.passes += 1
        drops = Counter()
        for sw in sim.switches.values():
            for reason in DROP_REASONS:
                drops[reason] += sw.counters.get(f"drop.{reason}")
        records = sim.trace.records
        self.state = {
            **{f"dataplane.drop.{r}": drops[r] for r in DROP_REASONS},
            "central_controller.link_map.size": len(sim.central.link_map),
            "central_controller.sak_log.len": len(sim.central.sak_log),
            "central_controller.rekeys": sim.central.counters.get("channels.rekey"),
            "trace.retained_B": sum(
                sys.getsizeof(r) + sys.getsizeof(r.data) + sys.getsizeof(vars(r)) for r in records
            ) + sys.getsizeof(records),
            "randomness.iv_registry.entries": len(sim.iv_registry._seen),
            "randomness.nonces.entries": len(sim.rng._nonces_issued),
        }
        if self.passes == 1:
            start = time.perf_counter()
            sim.trace_export(self.capture)
            self.pcapng_s = time.perf_counter() - start
        self._sim = None

    def self_check(self) -> None:
        """Wrapped call counts must equal the simulator's counters exactly."""
        bad = {name: delta for name, delta in self._check_deltas.items() if delta}
        if bad:
            raise SelfCheckFailed(f"wrapped call counts minus switch counters: {bad}")

    # -- results ----------------------------------------------------------------

    def metrics(self, *, untraced_s: float, traced_s: float, spec_build_s: float) -> dict:
        p = max(self.passes, 1)
        out = {}
        for name in _span_names():
            calls, self_ns, _, _ = self.stats.get(name, (0, 0, 0, 0))
            out[f"{name}.calls"] = calls / p
            out[f"{name}.self_s"] = self_ns / 1e9 / p

        def calls(name):
            return self.stats.get(name, (0,))[0]

        hops = calls("dataplane.handle_frame")
        crypto_ops = sum(calls(f"crypto.{f}") for f in ("macsec_protect", "macsec_validate", "lldp_seal", "lldp_open"))
        opens = self.stats.get("crypto.lldp_open", (0, 0, 0, 0))
        out["wire.parses_per_hop"] = calls("wire.parse_frame") / hops if hops else 0.0
        out["crypto.aesgcm_per_op"] = self.counts["crypto.aesgcm"] / crypto_ops if crypto_ops else 0.0
        out["crypto.lldp_open.accept_ratio"] = (opens[0] - opens[3]) / opens[0] if opens[0] else 0.0
        out["dataplane.us_per_hop"] = (
            self.stats["dataplane.handle_frame"][2] / 1e3 / hops if hops else 0.0
        )
        for name in ("central_controller.handle_register", "central_controller.rotate_lldp_key",
                     "netsim.loop", "randomness.observe"):
            out[f"{name}.self_s"] = self.stats.get(name, (0, 0))[1] / 1e9 / p
        for type_name in MESSAGE_TYPES:
            out[f"messages.{type_name}.count"] = self.counts[f"messages.{type_name}"] / p
        events = self.counts["netsim.events"] / p
        out["netsim.events"] = events
        out["netsim.events_per_s"] = events / untraced_s
        out["netsim.queue_peak"] = self.queue_peak
        out.update(self.state)
        out["trace.write_pcapng_s"] = self.pcapng_s
        out["topology.spec_build_s"] = spec_build_s
        out["tracing.untraced_s"] = untraced_s
        out["tracing.traced_s"] = traced_s
        out["tracing.overhead_ratio"] = traced_s / untraced_s
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def median_build_s(build) -> float:
    times = []
    for _ in range(BUILD_REPEATS):
        start = time.perf_counter()
        build()
        times.append(time.perf_counter() - start)
    return median(times)
