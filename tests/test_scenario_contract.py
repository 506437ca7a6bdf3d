"""The scenario runner's error contract.

A malformed directive stops the script with a `ScriptError` that names its
line; an error raised inside the event loop (a `LivelockError`, or any fault
of an event handler) keeps its own type.  The README's assertion table lists
the vocabulary `parse_script` accepts.
"""

import re

import pytest

from macsecsim.errors import LivelockError, ScriptError
from macsecsim.scenario import ASSERTIONS, ScenarioRunner, parse_script
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


def test_the_readme_lists_every_assertion_with_its_arguments():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("Assertion vocabulary:", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", table, re.MULTILINE)
    listed = {name: 0 if args.strip() == "—" else len(args.split(",")) for name, args in rows}
    assert listed == ASSERTIONS
    assert len(rows) == len(listed)  # no assertion listed twice
