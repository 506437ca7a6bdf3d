"""The bounded-state census (`state_census.py`): no container reachable
from a busy simulation grows from T to 2T unless `ALLOWED` names it."""

import pytest

from state_census import ALLOWED, WORKLOADS, allowed, census, chain_run, drive, growth, main


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_unnamed_container_grows_with_run_length(name):
    grown = growth(WORKLOADS[name], 60.0)
    assert {path: lengths for path, lengths in grown.items() if allowed(path) is None} == {}
    # The trace grows with traffic, so a census that saw no growth saw nothing.
    assert "trace._chunks" in grown


def test_the_census_reaches_every_store_and_counts_a_time_keyed_table_once():
    run = chain_run()
    drive(run, 3.0)
    paths = set(census(run.sim))
    for path in (
        "iv_registry._seen",
        "central.sc_records",
        "central.counters._values",
        "controllers[s2].rx_seq",
        "switches[s2].counters._values",
        "switches[s2].tables.sa",
        "hosts[h1].received._rows",
        "trace._chunks[0][3]",
    ):
        assert path in paths
    for table in ("_queue", "_instants", "central._rekeys", "central._retires"):
        assert table in paths and not any(p.startswith(table + "[") for p in paths)


def test_the_allowlist_covers_the_paths_under_its_entries_only():
    assert all(owner.startswith("ROADMAP item 5") for owner in ALLOWED.values())
    assert allowed("hosts[h1].received._rows") and allowed("trace._chunks[3][0]")
    assert allowed("switches[s2].counters._values") is None and allowed("trace._chunksmith") is None


def test_the_script_prints_what_grows(capsys):
    assert main(["--minutes", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "chain: 4 containers grow" in out and "tree: 4 containers grow" in out
    assert "  trace._chunks 5 -> 10  (ROADMAP item 5" in out
    with pytest.raises(SystemExit):
        main(["--minutes", "0.25"])  # T ends mid-flap
