"""The scenario runner's error contract.

A malformed directive stops the script with a `ScriptError` that names its
line; an error raised inside the event loop (a `LivelockError`, or any fault
of an event handler) keeps its own type.  Each assertion reports FAIL when
its condition does not hold.  The README's assertion table lists the
vocabulary `parse_script` accepts.
"""

import re

import pytest
import yaml

from macsecsim.errors import LivelockError, ScriptError, SpecError
from macsecsim.scenario import ASSERTIONS, Directive, ScenarioRunner, parse_script
from macsecsim.topology import TopologySpec
from conftest import REPO_ROOT, SCENARIOS

SPEC = SCENARIOS / "hierarchical.yaml"

# (directive, a keyword of its error), each run as line 2, after `run_until 5`.
BAD_DIRECTIVES = [
    ("link down wormhole", "unknown link"),
    ("inject wormhole a2b hex 00", "unknown link"),
    ("inject agg1-core a2b hex zz", "bad payload"),
    ("inject agg1-core a2b replay 99999", "capture index"),
    ("inject agg1-core a2b replay -1", "capture index"),
    ("inject agg1-core a2b replay x", "capture index"),
    ("send hx h2 0x0800 text:hi", "unknown host"),
    ("send h1 nowhere 0x0800 text:hi", "bad destination"),
    ("send h1 h2 0x10000 text:hi", "bad ether_type"),
    ("send h1 h2 0x0800 hex:zz", "bad payload"),
    ("run_until 1", "precedes current time"),
    ("run_until nan", "bad time"),
    *[
        (f"expect {assertion} {link}", "not an inter-switch link")
        for assertion in ("no_sc_for", "sc_exists_for", "sak_rotated")
        for link in ("wormhole", "access1-h1")
    ],
    ("expect all_interswitch_frames_protected wormhole 0", "unknown link"),
    ("expect all_interswitch_frames_protected * nan", "bad time"),
    ("expect counters_zero nosuch drop", "unknown switch"),
    ("expect payload_delivered hx text:hi", "unknown host"),
    ("expect payload_delivered h1 hex:zz", "bad payload"),
]


def _runner(script: str, **params) -> ScenarioRunner:
    spec = TopologySpec.from_yaml(SPEC)
    if params:
        spec = spec.with_params(**params)
    return ScenarioRunner(spec, parse_script(script), seed=7)


@pytest.mark.parametrize("line, keyword", BAD_DIRECTIVES)
def test_a_bad_directive_is_a_script_error_naming_its_line(line, keyword):
    runner = _runner(f"run_until 5\n{line}\n")
    with pytest.raises(ScriptError, match=f"^line 2: .*{keyword}"):
        runner.execute()


# A cleartext Ethernet frame between two MACs no host has: EtherType IPv4, payload "hello".
CLEARTEXT = "020000000099" + "020000000098" + "0800" + b"hello".hex()
LINK_GONE = "quiesce\nlink down agg1-core\nquiesce\n"

# (script, the report line of its one assertion): the FAIL side of each assertion.
FAILING_ASSERTIONS = [
    (
        f"quiesce\ninject agg1-core a2b hex {CLEARTEXT}\nquiesce\nexpect all_interswitch_frames_protected * 0",
        "ASSERT all_interswitch_frames_protected * 0 FAIL 1 cleartext non-LLDP frames",
    ),
    (  # before discovery has confirmed any link
        "expect link_map_matches_spec",
        "ASSERT link_map_matches_spec FAIL missing=['access1:4-agg1:1', 'access2:4-agg1:2', 'access3:4-agg2:1',"
        " 'access4:4-agg2:2', 'agg1:3-core:1', 'agg2:3-core:2'] excess=[]",
    ),
    (  # against the empty map snapshotted at script start
        "quiesce\nexpect link_map_unchanged",
        "ASSERT link_map_unchanged FAIL confirmed set changed since snapshot",
    ),
    (
        LINK_GONE + "expect sc_exists_for agg1-core",
        "ASSERT sc_exists_for agg1-core FAIL record=False state=absent table_rows=False",
    ),
    (LINK_GONE + "expect sak_rotated agg1-core", "ASSERT sak_rotated agg1-core FAIL no channel record"),
    (
        "quiesce\nsend h2 h1 0x0800 text:hello\nquiesce\nexpect payload_delivered h1 text:nobody-sent-this",
        "ASSERT payload_delivered h1 text:nobody-sent-this FAIL not among 1 delivered frames",
    ),
]


@pytest.mark.parametrize(
    "script, line", FAILING_ASSERTIONS, ids=[line.split()[1] for _, line in FAILING_ASSERTIONS]
)
def test_each_assertion_can_fail(script, line):
    report = _runner(script + "\n").execute()
    assert [r.to_line() for r in report.results] == [line]
    assert report.to_text().endswith("RESULT FAIL 0/1\n")


@pytest.mark.parametrize("line", ["quiesce", "run_until 100"])
def test_a_livelock_inside_a_script_stays_a_livelock(line):
    runner = _runner(f"{line}\n", max_events=50)
    with pytest.raises(LivelockError):
        runner.execute()


@pytest.mark.parametrize("line", ["quiesce", "run_until 5"])
def test_a_fault_inside_the_event_loop_keeps_its_type(line):
    runner = _runner(f"{line}\n")

    def fault():
        raise ValueError("fault in an event handler")

    runner.sim.schedule(1_000, fault)
    with pytest.raises(ValueError, match="^fault in an event handler$"):
        runner.execute()


# Texts that `int(octet, 16)` reads as a MAC but that are not six octets of
# one or two ASCII hex digits: a 0x prefix, a sign, a space, an underscore
# and Arabic-Indic digits.
NOT_MACS = ["0x2:0:0:0:0:1", "+2:0:0:0:0:1", " 2:0:0:0:0:1", "2_0:0:0:0:0:1", "\u0660\u0662:0:0:0:0:1"]


@pytest.mark.parametrize("text", NOT_MACS)
def test_the_spec_loader_and_a_send_refuse_the_same_mac_texts(text):
    raw = yaml.safe_load(SPEC.read_text(encoding="utf-8"))
    raw["switches"][0]["mac"] = text
    with pytest.raises(SpecError, match=f"^bad MAC address {re.escape(repr(text))}$"):
        TopologySpec.from_dict(raw)
    # Built directly: a script line splits on whitespace, so only a Directive can hold a leading space.
    send = Directive(line_no=3, op="send", args=["h1", text, "0x0800", "text:hi"])
    runner = ScenarioRunner(TopologySpec.from_yaml(SPEC), [send])
    with pytest.raises(ScriptError, match=f"^line 3: bad destination {re.escape(repr(text))}$"):
        runner.execute()


def test_the_readme_lists_every_assertion_with_its_arguments():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("Assertion vocabulary:", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", table, re.MULTILINE)
    listed = {name: 0 if args.strip() == "—" else len(args.split(",")) for name, args in rows}
    assert listed == ASSERTIONS
    assert len(rows) == len(listed)  # no assertion listed twice
