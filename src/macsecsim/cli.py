"""Command-line surface: scenario runner and state inspection.

    macsecsim run --spec topo.yaml --script checks.txt [--seed N] [--out DIR]
    macsecsim inspect --spec topo.yaml [--seed N] links|scs|tables SW|counters SW

`run` exits 0 exactly when every expect in the script passed.  The default
seed comes from --seed, then $MACSECSIM_SEED, then the spec's params.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .errors import MacsecSimError, SpecError, UnknownQuery, UnknownSwitch
from .netsim import Simulation
from .scenario import run_scenario
from .topology import TopologySpec
from .wire import mac_to_str

SEED_ENV_VAR = "MACSECSIM_SEED"


def _resolve_seed(args) -> int | None:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise SpecError(f"${SEED_ENV_VAR} must be an integer, not {env!r}") from None


def format_tables(sim: Simulation, chassis: str, *, unsafe_keys: bool = False) -> str:
    switch = sim.switches.get(chassis)
    if switch is None:
        raise UnknownSwitch(chassis)
    t = switch.tables
    lines = [f"switch {chassis}", "mac:"]
    for mac in sorted(t.mac):
        port = t.mac[mac]
        lines.append(f"  {mac_to_str(mac)} port={port} macsec={'on' if port in t.eg_sc else 'off'}")
    lines.append("eg_sc:")
    for port in sorted(t.eg_sc):
        lines.append(f"  port={port} sai={t.eg_sc[port]}")
    lines.append("ig_sc:")
    for sci, an in sorted(t.ig_sc):
        lines.append(f"  sci={sci.hex()} an={an} sai={t.ig_sc[(sci, an)]}")
    lines.append("sa:")
    for sai in sorted(t.sa):
        sa = t.sa[sai]
        shown = sa.sak.key.hex() if unsafe_keys else sa.sak.fingerprint
        lines.append(
            f"  sai={sai} an={sa.an} sci={sa.sci.hex()} sak={shown}"
            f" next_pn={sa.next_pn} lowest_pn={sa.lowest_acceptable_pn}"
            f" conf={'on' if sa.confidentiality else 'off'}"
        )
    return "\n".join(lines) + "\n"


def _inspect(args) -> int:
    spec = TopologySpec.from_yaml(args.spec)
    sim = Simulation(spec, seed=_resolve_seed(args))
    sim.quiesce()
    query = args.query
    if query == "links":
        print("\n".join(sim.central.dump_link_map()))
    elif query == "scs":
        print("\n".join(sim.central.dump_sc_records(unsafe_keys=args.unsafe_dump_keys)))
    elif query == "tables":
        if not args.arg:
            raise UnknownQuery("tables needs a switch argument")
        print(format_tables(sim, args.arg, unsafe_keys=args.unsafe_dump_keys), end="")
    else:  # "counters"; the parser's `choices` refuse any other query
        if not args.arg:
            raise UnknownQuery("counters needs a switch argument")
        if args.arg not in sim.switches:
            raise UnknownSwitch(args.arg)
        for name, value in sim.switches[args.arg].counters.as_dict().items():
            print(f"{name} {value}")
    return 0


def _run(args) -> int:
    report, _sim = run_scenario(
        args.spec, args.script, seed=_resolve_seed(args), out_dir=args.out
    )
    print(report.to_text(), end="")
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="macsecsim", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario script against a topology spec")
    run_p.add_argument("--spec", required=True, help="topology spec (YAML)")
    run_p.add_argument("--script", required=True, help="scenario script")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default="macsecsim-out", help="report/counters/trace directory")

    insp = sub.add_parser("inspect", help="quiesce a spec and dump state")
    insp.add_argument("--spec", required=True)
    insp.add_argument("--seed", type=int, default=None)
    insp.add_argument("--unsafe-dump-keys", action="store_true", help="print full key material")
    insp.add_argument("query", choices=["links", "scs", "tables", "counters"])
    insp.add_argument("arg", nargs="?", default=None, help="switch id for tables/counters")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "run":
            return _run(args)
        return _inspect(args)
    except MacsecSimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
