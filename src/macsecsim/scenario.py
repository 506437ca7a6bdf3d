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
Assertion failures are reported, never thrown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .audit import audit
from .central_controller import LinkKey, link_name
from .errors import ScriptError, UnknownLink
from .netsim import Simulation
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
                raise ScriptError(
                    f"line {line_no}: assertion {name} takes {ASSERTIONS[name]} arguments"
                )
        if op == "link" and args[0] not in ("up", "down"):
            raise ScriptError(f"line {line_no}: link takes up|down, got {args[0]!r}")
        if op == "inject" and args[1] not in ("a2b", "b2a"):
            raise ScriptError(f"line {line_no}: inject direction must be a2b|b2a")
        if op == "inject" and args[2] not in ("hex", "replay"):
            raise ScriptError(f"line {line_no}: inject payload must be hex|replay")
        directives.append(Directive(line_no=line_no, op=op, args=args))
    return directives


def _parse_payload(text: str, line_no: int) -> bytes:
    if text.startswith("text:"):
        return text[5:].encode("utf-8")
    if text.startswith("hex:"):
        body = text[4:]
    else:
        body = text
    try:
        return bytes.fromhex(body)
    except ValueError as exc:
        raise ScriptError(f"line {line_no}: bad payload {text!r}") from exc


class ScenarioRunner:
    def __init__(self, spec: TopologySpec, directives: list[Directive], seed: int | None = None):
        self.spec = spec
        self.directives = directives
        self.sim = Simulation(spec, seed=seed)
        self.report = Report()
        self._map_snapshot: set[LinkKey] = self.sim.central.confirmed_links()

    def execute(self) -> Report:
        for directive in self.directives:
            self._execute_one(directive)
        return self.report

    # -- directives ---------------------------------------------------------

    def _execute_one(self, d: Directive) -> None:
        handler = getattr(self, f"_op_{d.op}")
        handler(d)

    def _op_run_until(self, d: Directive) -> None:
        try:
            raw = d.args[0]
            t = self.sim.now_s() + float(raw[1:]) if raw.startswith("+") else float(raw)
        except ValueError as exc:
            raise ScriptError(f"line {d.line_no}: bad time {d.args[0]!r}") from exc
        try:
            self.sim.run_until(t)
        except ValueError as exc:
            raise ScriptError(f"line {d.line_no}: {exc}") from exc

    def _op_quiesce(self, d: Directive) -> None:
        self.sim.quiesce()

    def _op_link(self, d: Directive) -> None:
        state, name = d.args
        try:
            self.sim.set_link_state(name, state == "up")
        except UnknownLink as exc:
            raise ScriptError(f"line {d.line_no}: unknown link {exc}") from exc

    def _op_inject(self, d: Directive) -> None:
        name, direction, kind, value = d.args
        if name not in self.sim.links:
            raise ScriptError(f"line {d.line_no}: unknown link {name!r}")
        if kind == "hex":
            data = _parse_payload("hex:" + value, d.line_no)
        else:
            try:
                record = self.sim.trace[int(value)]
            except (ValueError, IndexError) as exc:
                raise ScriptError(f"line {d.line_no}: bad capture index {value!r}") from exc
            data = record.data
        self._map_snapshot = self.sim.central.confirmed_links()
        self.sim.inject_frame(name, direction, data)

    def _op_send(self, d: Directive) -> None:
        host, dst, ether_type, payload = d.args
        if host not in self.sim.hosts:
            raise ScriptError(f"line {d.line_no}: unknown host {host!r}")
        if dst in self.sim.hosts:
            dst_mac = self.sim.hosts[dst].mac
        else:
            try:
                dst_mac = mac_from_str(dst)
            except ValueError as exc:
                raise ScriptError(f"line {d.line_no}: bad destination {dst!r}") from exc
        try:
            etype = int(ether_type, 0)
            if not 0 <= etype <= 0xFFFF:
                raise ValueError("ether_type out of range")
        except ValueError as exc:
            raise ScriptError(f"line {d.line_no}: bad ether_type {ether_type!r}") from exc
        self.sim.host_send(host, dst_mac, etype, _parse_payload(payload, d.line_no))

    def _op_expect(self, d: Directive) -> None:
        name, args = d.args[0], d.args[1:]
        ok, detail = getattr(self, f"_assert_{name}")(args, d.line_no)
        self.report.results.append(AssertionResult(name=name, args=args, ok=ok, detail=detail))

    # -- assertion vocabulary ---------------------------------------------------

    def _link_key_for(self, name: str, line_no: int) -> LinkKey:
        link = self.sim.links.get(name)
        if link is None or link.a.kind != "switch" or link.b.kind != "switch":
            raise ScriptError(f"line {line_no}: {name!r} is not an inter-switch link")
        return link.key

    def _assert_link_map_matches_spec(self, args, line_no):
        found = audit(self.sim)
        missing = sorted(link_name(v.link) for v in found if v.kind == "missing_link")
        excess = sorted(link_name(v.link) for v in found if v.kind == "excess_link")
        if not missing and not excess:
            return True, f"{len(self.sim.central.confirmed_links())} links"
        return False, f"missing={missing} excess={excess}"

    def _assert_link_map_unchanged(self, args, line_no):
        confirmed = self.sim.central.confirmed_links()
        if confirmed == self._map_snapshot:
            return True, f"{len(confirmed)} links"
        return False, "confirmed set changed since snapshot"

    def _assert_no_sc_for(self, args, line_no):
        key = self._link_key_for(args[0], line_no)
        found = audit(self.sim)
        record = key in self.sim.central.sc_records
        # A record's rows are expected, so the audit names those it lacks;
        # without a record, every row of the link is stray.
        rows = ("stray_row", key) in found or (record and ("missing_row", key) not in found)
        if not record and not rows:
            return True, "no channel state"
        return False, f"record={record} table_rows={rows}"

    def _assert_sc_exists_for(self, args, line_no):
        key = self._link_key_for(args[0], line_no)
        record = self.sim.central.sc_records.get(key)
        if record is None:
            return False, "record=False state=absent table_rows=False"
        rows = ("missing_row", key) not in audit(self.sim)
        if rows and record.state == "active":
            return True, "both directions installed"
        return False, f"record=True state={record.state} table_rows={rows}"

    def _assert_all_interswitch_frames_protected(self, args, line_no):
        target, from_t = args
        try:
            t_min_us = to_us(float(from_t))
        except ValueError as exc:
            raise ScriptError(f"line {line_no}: bad time {from_t!r}") from exc
        names = self.sim.interswitch_link_names() if target == "*" else [target]
        offending = 0
        for name in names:
            if name not in self.sim.links:
                raise ScriptError(f"line {line_no}: unknown link {name!r}")
            offending += len(
                self.sim.trace_query(link=name, classification="ethernet", t_min_us=t_min_us)
            )
        if offending == 0:
            return True, f"0 cleartext frames on {len(names)} links"
        return False, f"{offending} cleartext non-LLDP frames"

    def _assert_counters_zero(self, args, line_no):
        chassis, counter = args
        switch = self.sim.switches.get(chassis)
        if switch is None:
            raise ScriptError(f"line {line_no}: unknown switch {chassis!r}")
        value = switch.counters.total(counter)
        if value == 0:
            return True, f"{counter}=0"
        return False, f"{counter}={value}"

    def _assert_payload_delivered(self, args, line_no):
        host, payload = args
        if host not in self.sim.hosts:
            raise ScriptError(f"line {line_no}: unknown host {host!r}")
        wanted = _parse_payload(payload, line_no)
        seen = [f.payload for f in self.sim.host_recv(host)]
        if wanted in seen:
            return True, f"delivered in {len(seen)} frames"
        return False, f"not among {len(seen)} delivered frames"

    def _assert_sak_rotated(self, args, line_no):
        key = self._link_key_for(args[0], line_no)
        record = self.sim.central.sc_records.get(key)
        if record is None:
            return False, "no channel record"
        counts = {name: d.rekey_count for name, d in record.directions.items()}
        if all(c >= 1 for c in counts.values()):
            return True, f"rekeys={counts}"
        return False, f"rekeys={counts}"


def format_counters(sim: Simulation) -> str:
    lines = []
    for chassis, counters in sim.counters_dump().items():
        lines.append(f"switch {chassis}")
        for name, value in counters.items():
            lines.append(f"  {name} {value}")
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
