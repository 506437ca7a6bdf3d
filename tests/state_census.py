"""Bounded-state census: which containers reachable from a `Simulation` grow
with the length of a run.

`census` walks every container reachable from a simulation through the
attributes of `macsecsim` objects, to depth `DEPTH`, and records the length
of each mutable one (dict, list, set, deque, array) under its path, such as
``switches[s2].counters._values``.  A tuple is walked through but not
counted, as it cannot grow in place.  A time-keyed table (`TIME_KEYED`) is
counted by its own length and not walked into: its keys are instants, so
one container per key would show every future instant as a new path.

`growth` runs a workload for T and for 2T, each time until the fabric is
quiet, and returns every path present at both whose length rose.  Two
workloads keep a fabric busy: `chain_run`, a `chain_spec(3)` chain, and
`tree_run`, a small random tree.  Each has traffic both ways, rekeys, key
rotation, a link flap every 30 s and one control partition and heal.  No
container may grow unless `ALLOWED` names it, or a path it lies under,
with the item of ROADMAP.md that owns it.

Run as a script, it prints every container that grows, with its lengths at
T and 2T::

    python tests/state_census.py --minutes 1

T is a whole number of 30-s flap periods, so both censuses are taken at the
same phase of the flaps.  It exits 1 when a container that `ALLOWED` does
not name grows.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from array import array
from collections import deque
from pathlib import Path
from typing import NamedTuple

if __name__ == "__main__":  # run as a script: find the package and the tests
    sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"), str(Path(__file__).resolve().parent)]

from macsecsim.netsim import Simulation
from macsecsim.topology import chain_spec

DEPTH = 6
COUNTED = (dict, list, set, deque, array)
TIME_KEYED = {"_queue", "_instants", "_rekeys", "_retires"}  # keyed by due instant

# Containers that may grow with run length, each with the item that owns it.
ALLOWED = {
    "trace._chunks": "ROADMAP item 5: a capture mode that keeps no rows",
    "trace._drops": "ROADMAP item 5: a capture mode that keeps no rows",
    "hosts[*].received": "ROADMAP item 5: a bounded host inbox",
}

PARAMS = dict(discovery_interval=1.0, rekey_interval=2.0, grace=0.5, lldp_key_rotation=7.0)
FRAMES_PER_S = 20  # each way
FLAP_EVERY_S, FLAP_DOWN_S = 30.0, 0.2
TREE_SEED = 0


def _key(key) -> str:
    if isinstance(key, (str, int)):
        return str(key)
    if isinstance(key, bytes):
        return key.hex()
    if isinstance(key, tuple):
        return ",".join(map(_key, key))
    return type(key).__name__


def _attributes(obj):
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        yield from attrs.items()
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                yield name, getattr(obj, name)


def census(sim: Simulation) -> dict[str, int]:
    """The length of every mutable container reachable from `sim`, by path."""
    lengths: dict[str, int] = {}
    seen: set[int] = set()

    def visit(obj, path: str, depth: int, name: str) -> None:
        if id(obj) in seen:
            return
        if isinstance(obj, COUNTED):
            lengths[path] = len(obj)
            if name in TIME_KEYED:
                return
        elif not isinstance(obj, tuple) and not type(obj).__module__.startswith("macsecsim"):
            return
        seen.add(id(obj))
        if depth == DEPTH:
            return
        if isinstance(obj, dict):
            children = ((f"{path}[{_key(k)}]", v) for k, v in obj.items())
        elif isinstance(obj, (list, tuple, deque)):
            children = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
        elif isinstance(obj, (set, array)):
            return  # hashable or primitive members: nothing to walk into
        else:
            for attr, value in _attributes(obj):
                visit(value, f"{path}.{attr}" if path else attr, depth + 1, attr)
            return
        for child_path, value in children:
            visit(value, child_path, depth + 1, name)

    visit(sim, "", 0, "")
    return lengths


def allowed(path: str) -> str | None:
    """The owner that `ALLOWED` gives `path`, or a path it lies under."""
    pattern = re.sub(r"\[[^\]]*\]", "[*]", path)
    for prefix, owner in ALLOWED.items():
        if pattern == prefix or pattern.startswith((prefix + ".", prefix + "[")):
            return owner
    return None


class Workload(NamedTuple):
    sim: Simulation
    pair: tuple[str, str]  # the hosts that exchange frames
    flap_link: str
    control: str  # the switch whose control channel is cut once


def chain_run() -> Workload:
    sim = Simulation(chain_spec(3).with_params(**PARAMS), seed=1)
    return Workload(sim, ("h1", "h2"), "s2-s3", "s2")


def tree_run() -> Workload:
    """A 5-switch tree (`test_netsim._random_tree_spec`), traffic between its
    first and last host, its last link flapping and its root cut once."""
    from test_netsim import _random_tree_spec

    spec = _random_tree_spec(random.Random(TREE_SEED)).with_params(**PARAMS)
    sim = Simulation(spec, seed=1)
    hosts = sorted(sim.hosts)
    return Workload(sim, (hosts[0], hosts[-1]), spec.links[-1].name, spec.switches[0].chassis_id)


def drive(run: Workload, until_s: float) -> None:
    """Send `FRAMES_PER_S` frames each way between the pair per virtual
    second up to `until_s`, then quiesce.  The link goes down for
    `FLAP_DOWN_S` in the middle of every `FLAP_EVERY_S`, so each half of a
    run sees as many flaps, and the control channel is cut from 10 s to 11 s."""
    sim, steps = run.sim, round(FLAP_EVERY_S * FRAMES_PER_S)
    flap_at, heal_at = steps // 2, steps // 2 + round(FLAP_DOWN_S * FRAMES_PER_S)
    k = round(sim.now_s() * FRAMES_PER_S)
    while (k + 1) / FRAMES_PER_S <= until_s:
        k += 1
        sim.run_until(k / FRAMES_PER_S)
        # Both writes are idempotent, so a quiesce that ran past an edge skips nothing.
        sim.set_link_state(run.flap_link, not flap_at <= k % steps < heal_at)
        sim.set_control_state(run.control, not 10 * FRAMES_PER_S <= k < 11 * FRAMES_PER_S)
        a, b = run.pair
        sim.host_send(a, sim.hosts[b].mac, 0x0800, b"census %d" % k)
        sim.host_send(b, sim.hosts[a].mac, 0x0800, b"census %d" % k)
    sim.run_until(until_s)
    sim.quiesce()


def growth(make, period_s: float) -> dict[str, tuple[int, int]]:
    """Run the workload `make` builds to `period_s` and to twice that,
    quiescing after each; every path whose length rose, with both lengths.
    Both ends of a period are at the same phase of the flaps only when it
    is a whole number of flap periods."""
    if period_s <= 0 or period_s % FLAP_EVERY_S:
        raise ValueError(f"T must be a positive multiple of {FLAP_EVERY_S:g} s, not {period_s:g} s")
    run = make()
    drive(run, period_s)
    first = census(run.sim)
    drive(run, 2 * period_s)
    second = census(run.sim)
    return {path: (first[path], n) for path, n in second.items() if path in first and n > first[path]}


WORKLOADS = {"chain": chain_run, "tree": tree_run}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--minutes", type=float, default=1.0, help="T, in virtual minutes, a multiple of 0.5 (default 1)"
    )
    args = parser.parse_args(argv)
    unowned = 0
    for name, make in WORKLOADS.items():
        try:
            grown = growth(make, 60 * args.minutes)
        except ValueError as exc:
            parser.error(str(exc))
        print(f"{name}: {len(grown)} containers grow from T to 2T")
        for path, (first, second) in grown.items():
            owner = allowed(path)
            unowned += owner is None
            print(f"  {path} {first} -> {second}  ({owner or 'not allowed'})")
    return 1 if unowned else 0


if __name__ == "__main__":
    sys.exit(main())
