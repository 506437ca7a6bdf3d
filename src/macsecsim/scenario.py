"""Scenario scripts: ordered directives plus a closed assertion vocabulary.

Scripts are line-oriented text, `#` starts a comment:

    run_until 35            # absolute virtual seconds ("+5" = relative)
    quiesce
    link down agg1-core
    send h1 h2 0x0800 text:hello
    inject agg1-core a2b replay 17
    inject agg1-core a2b hex deadbeef
    expect link_map_matches_spec

The confirmed link map is snapshotted at script start and before every
inject; `expect link_map_unchanged` compares against the latest snapshot.
A failed assertion is reported, never thrown.  A malformed directive stops
the script with a `ScriptError` naming its line: `parse_script` checks its
words, and `ScenarioRunner.execute` relabels what its handler raises, a
bare `ScriptError` or the simulator's `UnknownLink`, `UnknownSwitch` or
`UnknownHost`.  Any other error, a `LivelockError` or a fault inside an
event handler say, keeps its type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .audit import audit
from .central_controller import LinkKey, link_name
from .errors import ScriptError, UnknownHost, UnknownLink, UnknownSwitch
from .netsim import Link, Simulation
from .topology import TopologySpec, to_us
from .wire import mac_from_str

ASSERTIONS = {
    "link_map_matches_spec": 0,
    "link_map_unchanged": 0,
    "no_sc_for": 1,
    "sc_exists_for": 1,
    "all_interswitch_frames_protected": 2,
    "counters_zero": 2,
    "payload_delivered": 2,
    "sak_rotated": 1,
}

_DIRECTIVES = {
    "run_until": (1, 1),
    "quiesce": (0, 0),
    "link": (2, 2),
    "inject": (4, 4),
    "send": (4, 4),
    "expect": (1, 3),
}

# The arguments that must be one of a few fixed words: directive -> index -> (what, words).
_WORDS = {
    "link": {0: ("state", ("up", "down"))},
    "inject": {1: ("direction", ("a2b", "b2a")), 2: ("payload", ("hex", "replay"))},
}


@dataclass
class Directive:
    line_no: int
    op: str
    args: list[str]


@dataclass
class AssertionResult:
    name: str
    args: list[str]
    ok: bool
    detail: str

    def to_line(self) -> str:
        label = " ".join([self.name] + self.args)
        return f"ASSERT {label} {'PASS' if self.ok else 'FAIL'} {self.detail}".rstrip()


@dataclass
class Report:
    results: list[AssertionResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.ok for r in self.results)

    def to_text(self) -> str:
        lines = [r.to_line() for r in self.results]
        passed = sum(r.ok for r in self.results)
        lines.append(f"RESULT {'PASS' if self.all_passed else 'FAIL'} {passed}/{len(self.results)}")
        return "\n".join(lines) + "\n"


def parse_script(text: str) -> list[Directive]:
    directives = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op, args = parts[0], parts[1:]
        if op not in _DIRECTIVES:
            raise ScriptError(f"line {line_no}: unknown directive {op!r}")
        lo, hi = _DIRECTIVES[op]
        if not lo <= len(args) <= hi:
            raise ScriptError(f"line {line_no}: {op} takes {lo}..{hi} arguments, got {len(args)}")
        if op == "expect":
            name = args[0]
            if name not in ASSERTIONS:
                raise ScriptError(f"line {line_no}: unknown assertion {name!r}")
            if len(args) - 1 != ASSERTIONS[name]:
                raise ScriptError(f"line {line_no}: assertion {name} takes {ASSERTIONS[name]} arguments")
        for i, (what, words) in _WORDS.get(op, {}).items():
            if args[i] not in words:
                raise ScriptError(f"line {line_no}: {op} {what} must be {'|'.join(words)}, got {args[i]!r}")
        directives.append(Directive(line_no=line_no, op=op, args=args))
    return directives


def _parse_payload(text: str) -> bytes:
    if text.startswith("text:"):
        return text[5:].encode("utf-8")
    try:
        return bytes.fromhex(text.removeprefix("hex:"))
    except ValueError as exc:
        raise ScriptError(f"bad payload {text!r}") from exc


class ScenarioRunner:
    def __init__(self, spec: TopologySpec, directives: list[Directive], seed: int | None = None):
        self.directives = directives
        self.sim = Simulation(spec, seed=seed, keep_frames=True)  # replay and trace.pcapng need whole frames
        self.report = Report()
        self._map_snapshot: set[LinkKey] = self.sim.central.confirmed_links()

    def execute(self) -> Report:
        for d in self.directives:
            try:
                getattr(self, f"_op_{d.op}")(*d.args)
            except UnknownLink as exc:
                raise ScriptError(f"line {d.line_no}: unknown link {exc.args[0]!r}") from exc
            except (ScriptError, UnknownSwitch, UnknownHost) as exc:
                raise ScriptError(f"line {d.line_no}: {exc}") from exc
        return self.report

    # -- directives ---------------------------------------------------------

    def _op_run_until(self, raw: str) -> None:
        try:
            t = self.sim.now_s() + float(raw[1:]) if raw.startswith("+") else float(raw)
            target_us = to_us(t)
        except ValueError as exc:
            raise ScriptError(f"bad time {raw!r}") from exc
        if target_us < self.sim.now_us():
            raise ScriptError("run_until target precedes current time")
        self.sim.run_until(t)

    def _op_quiesce(self) -> None:
        self.sim.quiesce()

    def _op_link(self, state: str, name: str) -> None:
        self.sim.set_link_state(name, state == "up")

    def _op_inject(self, name: str, direction: str, kind: str, value: str) -> None:
        if kind == "hex":
            data = _parse_payload("hex:" + value)
        else:
            try:
                index = int(value)
            except ValueError:
                index = -1
            if not 0 <= index < len(self.sim.trace):  # a negative index would count from the end
                raise ScriptError(f"bad capture index {value!r}")
            data = self.sim.trace[index].data
        self._map_snapshot = self.sim.central.confirmed_links()
        self.sim.inject_frame(name, direction, data)

    def _op_send(self, host: str, dst: str, ether_type: str, payload: str) -> None:
        try:
            dst_mac = self.sim.hosts[dst].mac if dst in self.sim.hosts else mac_from_str(dst)
        except ValueError as exc:
            raise ScriptError(f"bad destination {dst!r}") from exc
        try:
            etype = int(ether_type, 0)
            if not 0 <= etype <= 0xFFFF:
                raise ValueError("ether_type out of range")
        except ValueError as exc:
            raise ScriptError(f"bad ether_type {ether_type!r}") from exc
        self.sim.host_send(host, dst_mac, etype, _parse_payload(payload))

    def _op_expect(self, name: str, *args: str) -> None:
        ok, detail = getattr(self, f"_assert_{name}")(*args)
        self.report.results.append(AssertionResult(name=name, args=list(args), ok=ok, detail=detail))

    # -- assertion vocabulary ---------------------------------------------------

    def _interswitch_link(self, name: str) -> Link:
        link = self.sim.links.get(name)
        if link not in self.sim.interswitch_links:
            raise ScriptError(f"{name!r} is not an inter-switch link")
        return link

    def _assert_link_map_matches_spec(self):
        found = audit(self.sim)
        missing = sorted(link_name(v.link) for v in found if v.kind == "missing_link")
        excess = sorted(link_name(v.link) for v in found if v.kind == "excess_link")
        if not missing and not excess:
            return True, f"{len(self.sim.central.confirmed_links())} links"
        return False, f"missing={missing} excess={excess}"

    def _assert_link_map_unchanged(self):
        confirmed = self.sim.central.confirmed_links()
        if confirmed == self._map_snapshot:
            return True, f"{len(confirmed)} links"
        return False, "confirmed set changed since snapshot"

    def _assert_no_sc_for(self, link):
        key = self._interswitch_link(link).key
        found = audit(self.sim)
        record = key in self.sim.central.sc_records
        # A record's rows are expected, so the audit names those it lacks;
        # without a record, every row of the link is stray.
        rows = ("stray_row", key) in found or (record and ("missing_row", key) not in found)
        if not record and not rows:
            return True, "no channel state"
        return False, f"record={record} table_rows={rows}"

    def _assert_sc_exists_for(self, link):
        key = self._interswitch_link(link).key
        record = self.sim.central.sc_records.get(key)
        if record is None:
            return False, "record=False state=absent table_rows=False"
        rows = ("missing_row", key) not in audit(self.sim)
        if rows and record.state == "active":
            return True, "both directions installed"
        return False, f"record=True state={record.state} table_rows={rows}"

    def _assert_all_interswitch_frames_protected(self, target, from_t):
        try:
            t_min_us = to_us(float(from_t))
        except ValueError as exc:
            raise ScriptError(f"bad time {from_t!r}") from exc
        if target == "*":
            names = [link.name for link in self.sim.interswitch_links]
        elif target not in self.sim.links:
            raise UnknownLink(target)
        else:
            names = [self._interswitch_link(target).name]
        frames = self.sim.trace.query(classification="ethernet", t_min_us=t_min_us)
        offending = sum(record.link in names for record in frames)
        if offending == 0:
            return True, f"0 cleartext frames on {len(names)} links"
        return False, f"{offending} cleartext non-LLDP frames"

    def _assert_counters_zero(self, chassis, counter):
        switch = self.sim.switches.get(chassis)
        if switch is None:
            raise ScriptError(f"unknown switch {chassis!r}")
        value = switch.counters.total(counter)
        return value == 0, f"{counter}={value}"

    def _assert_payload_delivered(self, host, payload):
        seen = [f.payload for f in self.sim.host_recv(host)]
        if _parse_payload(payload) in seen:
            return True, f"delivered in {len(seen)} frames"
        return False, f"not among {len(seen)} delivered frames"

    def _assert_sak_rotated(self, link):
        record = self.sim.central.sc_records.get(self._interswitch_link(link).key)
        if record is None:
            return False, "no channel record"
        counts = {name: d.rekey_count for name, d in record.directions.items()}
        return all(c >= 1 for c in counts.values()), f"rekeys={counts}"


def format_counters(sim: Simulation) -> str:
    lines = []
    for chassis, counters in sim.counters_dump().items():
        lines.append(f"switch {chassis}")
        lines.extend(f"  {name} {value}" for name, value in counters.items())
    return "\n".join(lines) + "\n"


def run_scenario(
    spec_path,
    script_path,
    seed: int | None = None,
    out_dir=None,
) -> tuple[Report, Simulation]:
    """Load spec + script, execute, optionally write report/counters/trace."""
    spec = TopologySpec.from_yaml(spec_path)
    directives = parse_script(Path(script_path).read_text(encoding="utf-8"))
    runner = ScenarioRunner(spec, directives, seed=seed)
    report = runner.execute()
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
        (out / "counters.txt").write_text(format_counters(runner.sim), encoding="utf-8")
        runner.sim.trace_export(out / "trace.pcapng")
    return report, runner.sim
