"""macsecsim benchmark: one workload per call, end-to-end or per-layer numbers.

    python3 perfbench/run.py --workload chain_fwd --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the simulator is imported from
`src/` there.  Each call repeats passes of one workload (see workloads.py)
for `--seconds`, checks every pass's outputs, and prints one line per
metric followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1`
reports its per-layer metrics from a run split into an untraced half and a
traced half.  The exit status is 0 only when every check passed; 2 means
the simulator could not be imported.  `--workload all` runs each workload
in turn.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 3

def _import_simulator() -> None:
    """Put this checkout's `src/` first on the path; refuse any other copy."""
    if not (SRC / "macsecsim" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import macsecsim

    if Path(macsecsim.__file__).resolve().parent != SRC / "macsecsim":
        print(f"perfbench: imported macsecsim from {macsecsim.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def run_passes(workload, seconds: float, probe=None) -> list:
    from workloads import NullProbe

    probe = probe or NullProbe()
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        gc.collect()
        passes.append(workload.run_pass(probe))
        probe.pass_done()
    return passes


def phase_seconds(passes: list, phase: int) -> float:
    """Wall time of a phase: sum over its blocks of each block's median over passes."""
    blocks = len(passes[0].blocks[phase])
    return sum(median(p.blocks[phase][b][0] for p in passes) for b in range(blocks))


def phase_krefs(passes: list, phase: int) -> float:
    """Cost of a phase in krefs: each block's wall time over the reference time
    around it, its median over passes, summed over blocks, divided by 1000."""
    blocks = len(passes[0].blocks[phase])
    return sum(median(wall / ref for wall, ref in (p.blocks[phase][b] for p in passes)) for b in range(blocks)) / 1000


def setup_seconds(passes: list) -> float:
    """Set-up time at the reference speed: the median over every set-up of
    the run of its wall time over the reference time around it, times
    `REFERENCE_S`."""
    from workloads import REFERENCE_S

    return median(wall / ref for p in passes for wall, ref in p.setups) * REFERENCE_S


def check_passes(name: str, passes: list) -> list[str]:
    problems = []
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        problems.append(f"{name}: simulated statistics differ between passes of one seed: {sorted(digests)}")
    failed = sum(p.failed for p in passes)
    if failed:
        problems.append(f"{name}: {failed} operations failed")
    return problems


def end_to_end(workload, seconds: float) -> tuple[dict, dict, list]:
    passes = run_passes(workload, seconds)
    problems = check_passes(workload.name, passes)
    retained = workload.retained_per_item()
    s1, s2 = phase_seconds(passes, 0), phase_seconds(passes, 1)
    items1, items2 = passes[0].phase_items
    metrics = {
        "setup_s": (setup_seconds(passes), "s"),
        "phase1_per_kref": (items1 / phase_krefs(passes, 0), "1/kref"),
        "phase2_per_kref": (items2 / phase_krefs(passes, 1), "1/kref"),
        "retained_B_per_item": (retained, "B"),
    }
    named = {"setup_s": metrics["setup_s"], **workload.named_metrics(s1, s2, items1, items2, retained)}
    return metrics, {"passes": passes, "named": named}, problems


def per_layer(workload, seconds: float) -> tuple[dict, dict, list]:
    from layers import LayerTracer, median_build_s, metric_units

    untraced = run_passes(workload, seconds / 2)
    OUT.mkdir(exist_ok=True)
    tracer = LayerTracer(capture=OUT / f"capture-{workload.name}.pcapng")
    with tracer.installed():
        traced = run_passes(workload, seconds / 2, tracer)
    tracer.self_check()
    problems = check_passes(workload.name, untraced + traced)

    def timed_s(passes):
        return phase_seconds(passes, 0) + phase_seconds(passes, 1)

    values = tracer.metrics(
        untraced_s=timed_s(untraced),
        traced_s=timed_s(traced),
        spec_build_s=median_build_s(workload.spec),
    )
    tracer.write_spans(OUT / f"spans-{workload.name}.tsv")
    metrics = {name: (values[name], unit) for name, unit in metric_units().items()}
    info = {"passes": untraced + traced, "named": {}}
    return metrics, info, problems


def run_one(name: str, seed: int, seconds: float, trace: bool) -> bool:
    from layers import SelfCheckFailed
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS[name](seed)
    start = time.perf_counter()
    try:
        if trace:
            metrics, info, problems = per_layer(workload, seconds)
        else:
            metrics, info, problems = end_to_end(workload, seconds)
    except (CheckFailed, SelfCheckFailed) as exc:
        print(f"CHECK FAILED {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return False
    passes = info["passes"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"# {name} seed={seed} trace={int(trace)}: {len(passes)} passes in {time.perf_counter() - start:.1f} s")
    for metric, (value, unit) in {**info["named"], **metrics}.items():
        print(f"{metric:48s} {value:14.6g} {unit}")
    print(f"{'failed_ratio':48s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["chain_fwd", "tree_control", "fabric_mixed", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_simulator()
    names = ["chain_fwd", "tree_control", "fabric_mixed"] if args.workload == "all" else [args.workload]
    ok = all([run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
