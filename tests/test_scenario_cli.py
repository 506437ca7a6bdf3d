import filecmp

import pytest

from macsecsim.cli import format_tables, main
from macsecsim.errors import ScriptError
from macsecsim.crypto import Sak
from macsecsim.dataplane import SaEntry
from macsecsim.netsim import build
from macsecsim.scenario import ScenarioRunner, parse_script, run_scenario
from macsecsim.topology import TopologySpec, chain_spec
from macsecsim.wire import mac_to_str, make_sci
from conftest import SCENARIOS

SPEC = str(SCENARIOS / "hierarchical.yaml")


# -- script parsing -----------------------------------------------------------


def test_parse_script_happy_path():
    directives = parse_script(
        """
        # comment line
        quiesce
        run_until +2.5   # trailing comment
        link down agg1-core
        inject agg1-core a2b replay 0
        send h1 h2 0x0800 text:hi
        expect link_map_matches_spec
        expect counters_zero core drop
        """
    )
    assert [d.op for d in directives] == [
        "quiesce",
        "run_until",
        "link",
        "inject",
        "send",
        "expect",
        "expect",
    ]
    assert directives[1].line_no == 4


@pytest.mark.parametrize(
    "line,match",
    [
        ("teleport h1", "unknown directive"),
        ("run_until", "arguments"),
        ("link sideways agg1-core", "up|down"),
        ("inject agg1-core upward hex 00", "a2b|b2a"),
        ("inject agg1-core a2b carrier 00", "hex|replay"),
        ("expect frobnicate", "unknown assertion"),
        ("expect no_sc_for", "takes 1 arguments"),
    ],
)
def test_parse_script_errors_carry_line_numbers(line, match):
    with pytest.raises(ScriptError, match=match) as err:
        parse_script("quiesce\n" + line)
    assert "line 2" in str(err.value)


def test_runtime_errors_carry_line_numbers(tmp_path):
    script = tmp_path / "bad.txt"
    script.write_text("quiesce\nlink down wormhole\n")
    with pytest.raises(ScriptError, match="line 2"):
        run_scenario(SPEC, script, seed=1)


# -- shipped scenarios ----------------------------------------------------------


@pytest.mark.parametrize(
    "script",
    ["topology_check", "protection_check", "link_churn", "replay_defense", "rekey_check"],
)
def test_shipped_scenarios_pass(script, tmp_path):
    report, _sim = run_scenario(
        SPEC, SCENARIOS / f"{script}.txt", seed=7, out_dir=tmp_path / script
    )
    assert report.all_passed, report.to_text()
    out = tmp_path / script
    assert (out / "report.txt").exists()
    assert (out / "counters.txt").exists()
    assert (out / "trace.pcapng").exists()


def test_report_line_format(tmp_path):
    report, _ = run_scenario(SPEC, SCENARIOS / "topology_check.txt", seed=7)
    line = report.results[0].to_line()
    assert line.startswith("ASSERT link_map_matches_spec PASS")
    assert report.to_text().strip().splitlines()[-1] == "RESULT PASS 1/1"


def test_failing_assertion_reported_not_thrown(tmp_path):
    script = tmp_path / "fail.txt"
    script.write_text("quiesce\nexpect no_sc_for agg1-core\n")
    report, _ = run_scenario(SPEC, script, seed=7)
    assert not report.all_passed
    assert "FAIL" in report.results[0].to_line()


def _quiesced_runner(script: str = "") -> ScenarioRunner:
    runner = ScenarioRunner(TopologySpec.from_yaml(SPEC), parse_script("quiesce\n" + script), seed=7)
    runner.execute()
    return runner


def _expect(runner: ScenarioRunner, assertion: str):
    runner.directives = parse_script(f"expect {assertion}\n")
    return runner.execute().results[-1]


def test_no_sc_for_fails_on_an_orphan_sa_row():
    runner = _quiesced_runner("link down agg1-core\nquiesce\n")
    assert _expect(runner, "no_sc_for agg1-core").ok
    link = runner.sim.links["agg1-core"]
    sender = runner.sim.switches[link.a.name]
    sender.write_sa(SaEntry(sai=999, sak=Sak(b"\x01" * 16), an=0, sci=make_sci(sender.mac, link.a.port)))
    result = _expect(runner, "no_sc_for agg1-core")
    assert not result.ok and result.detail == "record=False table_rows=True"


def test_sc_exists_for_requires_the_records_own_rows():
    runner = _quiesced_runner()
    assert _expect(runner, "sc_exists_for agg1-core").ok
    link = runner.sim.links["agg1-core"]
    d = runner.sim.central.sc_records[link.key].directions["a2b"]
    receiver = runner.sim.switches[d.receiver]
    receiver.delete_ig_sc(d.sai)
    receiver.tables.ig_sc[(d.sci, (d.an + 1) % 4)] = d.sai  # the SA's row under another AN
    result = _expect(runner, "sc_exists_for agg1-core")
    assert not result.ok and result.detail == "record=True state=active table_rows=False"


def test_snapshot_semantics_for_link_map_unchanged(tmp_path):
    script = tmp_path / "snap.txt"
    # Injecting garbage must not change the map; the snapshot is taken at
    # the moment of the inject.
    script.write_text(
        "quiesce\ninject agg1-core a2b hex 0102030405060708090a0b0c\nrun_until +1\n"
        "expect link_map_unchanged\n"
    )
    report, _ = run_scenario(SPEC, script, seed=7)
    assert report.all_passed, report.to_text()


# -- CLI ------------------------------------------------------------------------


def test_cli_run_exit_zero_and_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(
        [
            "run",
            "--spec",
            SPEC,
            "--script",
            str(SCENARIOS / "topology_check.txt"),
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "ASSERT link_map_matches_spec PASS" in stdout
    assert (out / "report.txt").read_text().startswith("ASSERT")


def test_cli_run_exit_one_on_failed_assert(tmp_path):
    script = tmp_path / "fail.txt"
    script.write_text("quiesce\nexpect no_sc_for agg1-core\n")
    code = main(
        ["run", "--spec", SPEC, "--script", str(script), "--seed", "7", "--out", str(tmp_path / "o")]
    )
    assert code == 1


def test_cli_error_exit_two(tmp_path, capsys):
    script = tmp_path / "bad.txt"
    script.write_text("warp 9\n")
    code = main(
        ["run", "--spec", SPEC, "--script", str(script), "--seed", "7", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "ScriptError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    ["run_until inf", "run_until +inf", "run_until nan", "expect all_interswitch_frames_protected * inf"],
)
def test_cli_non_finite_time_is_a_script_error(line, tmp_path, capsys):
    script = tmp_path / "bad.txt"
    script.write_text(f"quiesce\n{line}\n")
    code = main(
        ["run", "--spec", SPEC, "--script", str(script), "--seed", "7", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "ScriptError" in err and "line 2" in err


@pytest.mark.parametrize("ether_type", ["0x10000", "-1"])
def test_cli_out_of_range_ether_type_is_a_script_error(ether_type, tmp_path, capsys):
    script = tmp_path / "bad.txt"
    script.write_text(f"quiesce\nsend h1 h12 {ether_type} text:hi\n")
    code = main(
        ["run", "--spec", SPEC, "--script", str(script), "--seed", "7", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "ScriptError" in err and "line 2" in err


def test_cli_identical_runs_are_byte_identical(tmp_path):
    for out in ("a", "b"):
        assert (
            main(
                [
                    "run",
                    "--spec",
                    SPEC,
                    "--script",
                    str(SCENARIOS / "protection_check.txt"),
                    "--seed",
                    "99",
                    "--out",
                    str(tmp_path / out),
                ]
            )
            == 0
        )
    for name in ("report.txt", "counters.txt", "trace.pcapng"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name


def test_cli_inspect_links(capsys):
    assert main(["inspect", "--spec", SPEC, "--seed", "7", "links"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6
    assert all(line.startswith("CONFIRMED ") for line in out)
    assert out == sorted(out)


def test_cli_inspect_tables_redacts_keys(capsys):
    assert main(["inspect", "--spec", SPEC, "--seed", "7", "tables", "access1"]) == 0
    out = capsys.readouterr().out
    saks = [part.split()[0] for part in out.split("sak=")[1:]]
    assert saks and all(len(s) == 8 for s in saks)
    assert main(
        ["inspect", "--spec", SPEC, "--seed", "7", "--unsafe-dump-keys", "tables", "access1"]
    ) == 0
    out = capsys.readouterr().out
    saks = [part.split()[0] for part in out.split("sak=")[1:]]
    assert saks and all(len(s) == 32 for s in saks)


def test_tables_macsec_column_reads_the_egress_channel():
    """`macsec=on` marks a MAC learned on a port that holds an EG-SC row."""
    sim = build(chain_spec(3), seed=1)
    sim.quiesce()
    h1, h2 = sim.hosts["h1"].mac, sim.hosts["h2"].mac
    sim.host_send("h1", h2, 0x0800, b"ping")
    sim.host_send("h2", h1, 0x0800, b"pong")
    sim.quiesce()

    def column(chassis):
        rows = [line.split() for line in format_tables(sim, chassis).splitlines() if "macsec=" in line]
        return {mac: flag for mac, _port, flag in rows}

    assert column("s2") == {mac_to_str(h1): "macsec=on", mac_to_str(h2): "macsec=on"}
    assert column("s1") == {mac_to_str(h1): "macsec=off", mac_to_str(h2): "macsec=on"}


def test_cli_inspect_counters_and_unknown_switch(capsys):
    assert main(["inspect", "--spec", SPEC, "--seed", "7", "counters", "core"]) == 0
    out = capsys.readouterr().out
    assert "discovery.sent" in out
    assert main(["inspect", "--spec", SPEC, "--seed", "7", "counters", "nope"]) == 2
    assert "UnknownSwitch" in capsys.readouterr().err


def test_cli_inspect_tables_requires_argument(capsys):
    assert main(["inspect", "--spec", SPEC, "tables"]) == 2
    assert "UnknownQuery" in capsys.readouterr().err


def test_cli_seed_env_var(monkeypatch, capsys):
    monkeypatch.setenv("MACSECSIM_SEED", "7")
    assert main(["inspect", "--spec", SPEC, "scs"]) == 0
    first = capsys.readouterr().out
    assert main(["inspect", "--spec", SPEC, "--seed", "7", "scs"]) == 0
    assert capsys.readouterr().out == first


def test_cli_non_integer_seed_env_var_is_an_error(monkeypatch, capsys):
    monkeypatch.setenv("MACSECSIM_SEED", "seven")
    assert main(["inspect", "--spec", SPEC, "scs"]) == 2
    assert capsys.readouterr().err == "error: SpecError: $MACSECSIM_SEED must be an integer, not 'seven'\n"


def test_send_accepts_literal_mac(tmp_path):
    script = tmp_path / "literal.txt"
    script.write_text(
        "quiesce\nsend h1 02:0f:0f:0f:0f:0f 0x0800 text:anyone-there\nquiesce\n"
        "expect payload_delivered h2 text:anyone-there\n"  # flood reaches every host
    )
    report, _ = run_scenario(SPEC, script, seed=7)
    assert report.all_passed, report.to_text()


def test_empty_script_passes_vacuously(tmp_path):
    script = tmp_path / "empty.txt"
    script.write_text("# nothing but comments\n")
    report, _ = run_scenario(SPEC, script, seed=7)
    assert report.all_passed
    assert report.to_text() == "RESULT PASS 0/0\n"


def test_replay_index_out_of_range(tmp_path):
    script = tmp_path / "replay.txt"
    script.write_text("quiesce\ninject agg1-core a2b replay 999999\n")
    with pytest.raises(ScriptError, match="line 2.*capture index"):
        run_scenario(SPEC, script, seed=7)
