"""Fast checks of the benchmark itself, on tiny sizes of each workload.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "chain_fwd": dict(switches=3, frames_per_phase=200),
    "tree_control": dict(levels=3),
    "fabric_mixed": dict(levels=2, frames_per_phase=120, gap_us=20_000),
}


# Each workload's end-to-end metrics under the names the workload descriptions use.
NAMED = {
    "chain_fwd": {
        "setup_s": "s", "fwd_frames_per_s_64B": "frames/s", "fwd_frames_per_s_1500B": "frames/s",
        "fwd_retained_B_per_frame": "B",
    },
    "tree_control": {
        "setup_s": "s", "bringup_s": "s", "housekeeping_s_per_vmin": "s/vmin",
        "housekeeping_retained_B_per_vmin": "B/vmin",
    },
    "fabric_mixed": {"setup_s": "s", "mixed_frames_per_s": "frames/s", "mixed_retained_B_per_frame": "B"},
}


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _tracer_leftovers():
    """Callables in the simulator that are still tracer wrappers."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "macsecsim" and not name.startswith("macsecsim."):
            continue
        for attr, value in vars(module).items():
            targets = [(attr, value)]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                targets += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            for label, target in targets:
                if "LayerTracer" in getattr(target, "__qualname__", ""):
                    found.append(f"{name}.{label}")
    return found


def test_workload_names_match_benchmark():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_present_with_units(name):
    workload = workloads.WORKLOADS[name](7, **TINY[name])
    metrics, info, problems = run.end_to_end(workload, 0)
    assert problems == []
    assert {m: u for m, (_, u) in metrics.items()} == _units("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())
    assert {m: u for m, (_, u) in info["named"].items()} == NAMED[name]
    assert sum(p.failed for p in info["passes"]) == 0


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_layers_and_removes_wrappers(name):
    workload = workloads.WORKLOADS[name](7, **TINY[name])
    metrics, info, problems = run.per_layer(workload, 0)
    assert problems == []
    assert {m: u for m, (_, u) in metrics.items()} == _units("per_layer")
    assert metrics["netsim.events"][0] > 0
    assert _tracer_leftovers() == []


def test_tracing_refuses_a_name_that_is_gone(monkeypatch, tmp_path):
    from macsecsim import dataplane

    monkeypatch.delattr(dataplane.Switch, "expand_flood")
    with pytest.raises(layers.SelfCheckFailed, match="Switch.expand_flood"):
        with layers.LayerTracer(capture=tmp_path / "capture.pcapng").installed():
            pass
    assert _tracer_leftovers() == []


def test_wrong_delivery_is_counted_as_failed():
    workload = workloads.WORKLOADS["chain_fwd"](7, **TINY["chain_fwd"])
    send = workload.phases[0][0]
    send.receivers = tuple({"h1", "h2"} - set(send.receivers))  # expect it at the sender's side
    _, info, problems = run.end_to_end(workload, 0)
    assert sum(p.failed for p in info["passes"]) == len(info["passes"])
    assert any("operations failed" in p for p in problems)


def test_self_check_catches_a_miscount(tmp_path):
    from macsecsim import dataplane
    from macsecsim.crypto import Sak
    from macsecsim.wire import EthernetFrame

    workload = workloads.WORKLOADS["chain_fwd"](7, **TINY["chain_fwd"])
    tracer = layers.LayerTracer(capture=tmp_path / "capture.pcapng")
    with tracer.installed():
        workload.run_pass(tracer)
        tracer.self_check()
        with tracer.timed():  # a protect that no switch accounts for
            frame = EthernetFrame(dst=b"\x02" * 6, src=b"\x04" * 6, ether_type=0x0800, payload=b"x")
            dataplane.macsec_protect(Sak(b"k" * 16), b"s" * 8, 1, frame)
        tracer.pass_done()
    with pytest.raises(layers.SelfCheckFailed):
        tracer.self_check()


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "chain_fwd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
