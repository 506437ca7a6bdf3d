"""Golden digests: fixed-seed runs must reproduce their artifacts byte for byte.

Criterion 9 compares two runs of the same code, so on its own it cannot
catch a refactor that changes output.  This test compares SHA-256 digests
of each run's artifacts with the digests committed in
`tests/golden/digests.json`:

* the five shipped scenarios on `hierarchical.yaml` at seed 7:
  `report.txt`, `counters.txt` and `trace.pcapng` as `run --out` writes them;
* run A, a 4-switch chain with PN exhaustion under unicast and broadcast
  load (rekeys, flood protect and learning packet-out);
* run B, the hierarchical fabric rekeying every second under random traffic.

Every run also digests the central controller's state (link map, channel
records with full keys, counters, alerts), which `counters.txt` leaves out.

A change that means to alter behaviour updates the digests file and says
so in CHANGES.md; on a mismatch the assertion prints the actual digests.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from macsecsim.netsim import Simulation
from macsecsim.scenario import format_counters, run_scenario
from macsecsim.topology import TopologySpec, chain_spec

from conftest import SCENARIOS, TESTS_DIR

GOLDEN = json.loads((TESTS_DIR / "golden" / "digests.json").read_text(encoding="utf-8"))

SCENARIO_NAMES = ["link_churn", "protection_check", "rekey_check", "replay_defense", "topology_check"]
BROADCAST = b"\xff" * 6
FRAME_SIZES = (64, 576, 1500)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _central_state(sim: Simulation) -> str:
    central = sim.central
    lines = ["links:", *central.dump_link_map(), "scs:", *central.dump_sc_records(unsafe_keys=True)]
    lines += ["counters:", *(f"{k} {v}" for k, v in central.counters.as_dict().items())]
    lines += ["alerts:", *central.alerts]
    return "\n".join(lines) + "\n"


def _sim_digests(sim: Simulation, tmp_path) -> dict[str, str]:
    pcapng = tmp_path / "trace.pcapng"
    sim.trace_export(pcapng)
    return {
        "counters.txt": _sha(format_counters(sim).encode()),
        "trace.pcapng": _sha(pcapng.read_bytes()),
        "central": _sha(_central_state(sim).encode()),
    }


def _scenario_digests(name: str, tmp_path) -> dict[str, str]:
    out = tmp_path / name
    _report, sim = run_scenario(
        SCENARIOS / "hierarchical.yaml", SCENARIOS / f"{name}.txt", seed=7, out_dir=out
    )
    return {
        **{f: _sha((out / f).read_bytes()) for f in ("report.txt", "counters.txt", "trace.pcapng")},
        "central": _sha(_central_state(sim).encode()),
    }


def _run_a(tmp_path) -> dict[str, str]:
    """PN exhaustion on a chain: every SA renews after 9 frames."""
    spec = chain_spec(4).with_params(rekey_interval=2.0, grace=1.0, pn_ceiling=9)
    sim = Simulation(spec, seed=3, keep_frames=True)
    sim.quiesce()
    h2_mac = sim.hosts["h2"].mac
    for i in range(60):
        sim.host_send("h1", h2_mac, 0x0800, f"unicast-{i}".encode())
        sim.host_send("h2", BROADCAST, 0x0800, f"broadcast-{i}".encode())
        sim.run_until(sim.now_s() + 0.1)
    sim.run_until(sim.now_s() + 3)
    return _sim_digests(sim, tmp_path)


def _run_b(tmp_path) -> dict[str, str]:
    """Rekeys under load: random host frames on the hierarchical fabric."""
    spec = TopologySpec.from_yaml(SCENARIOS / "hierarchical.yaml")
    sim = Simulation(spec.with_params(rekey_interval=1.0, grace=0.25), seed=5, keep_frames=True)
    sim.quiesce()
    rng = random.Random(5)
    names = sorted(sim.hosts)
    for _ in range(300):
        src = rng.choice(names)
        if rng.randrange(20) == 0:
            dst_mac = BROADCAST
        else:
            dst_mac = sim.hosts[rng.choice([n for n in names if n != src])].mac
        sim.host_send(src, dst_mac, 0x0800, rng.randbytes(rng.choice(FRAME_SIZES) - 14))
        sim.run_until(sim.now_s() + 0.01)
    sim.run_until(sim.now_s() + 3)
    return _sim_digests(sim, tmp_path)


RUNS = {
    **{f"scenario/{name}": (lambda tmp, n=name: _scenario_digests(n, tmp)) for name in SCENARIO_NAMES},
    "run_a": _run_a,
    "run_b": _run_b,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_digests(name, tmp_path):
    actual = RUNS[name](tmp_path)
    assert actual == GOLDEN.get(name), f"{name} digests changed; actual:\n{json.dumps(actual, indent=2)}"
