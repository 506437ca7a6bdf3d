import pytest

from macsecsim.errors import SpecError
from macsecsim.topology import SimParams, TopologySpec, chain_spec


def minimal(**overrides):
    raw = {
        "switches": [
            {"id": "s1", "mac": "02:00:00:00:00:01", "ports": 2},
            {"id": "s2", "mac": "02:00:00:00:00:02", "ports": 2},
        ],
        "links": [{"a": "s1:1", "b": "s2:1"}],
        "hosts": [{"name": "h1", "mac": "02:00:00:00:10:01", "switch": "s1", "port": 2}],
    }
    raw.update(overrides)
    return raw


def test_shipped_hierarchical_spec(hierarchical_spec):
    assert len(hierarchical_spec.switches) == 7
    assert len(hierarchical_spec.hosts) == 12
    assert len(hierarchical_spec.links) == 6
    assert len(hierarchical_spec.adjacency()) == 6
    assert hierarchical_spec.params.discovery_interval == 30.0


def test_from_dict_round_trip():
    spec = TopologySpec.from_dict(minimal())
    assert spec.links[0].name == "s1-s2"
    assert [(sw.chassis_id, sw.num_ports) for sw in spec.switches] == [("s1", 2), ("s2", 2)]


def test_duplicate_port_rejected():
    raw = minimal(links=[{"a": "s1:1", "b": "s2:1"}, {"a": "s1:1", "b": "s2:2"}])
    with pytest.raises(SpecError, match="used twice"):
        TopologySpec.from_dict(raw)


def test_unknown_switch_rejected():
    raw = minimal(links=[{"a": "s1:1", "b": "s9:1"}])
    with pytest.raises(SpecError, match="unknown switch"):
        TopologySpec.from_dict(raw)


def test_invalid_port_rejected():
    raw = minimal(links=[{"a": "s1:9", "b": "s2:1"}])
    with pytest.raises(SpecError, match="invalid port"):
        TopologySpec.from_dict(raw)


def test_bad_endpoint_syntax_rejected():
    raw = minimal(links=[{"a": "s1", "b": "s2:1"}])
    with pytest.raises(SpecError):
        TopologySpec.from_dict(raw)


def test_duplicate_mac_rejected():
    raw = minimal()
    raw["hosts"][0]["mac"] = "02:00:00:00:00:01"
    with pytest.raises(SpecError, match="duplicate MAC"):
        TopologySpec.from_dict(raw)


def test_self_link_rejected():
    raw = minimal(links=[{"a": "s1:1", "b": "s1:2"}])
    with pytest.raises(SpecError, match="both ends"):
        TopologySpec.from_dict(raw)


def test_no_switches_rejected():
    with pytest.raises(SpecError, match="at least one switch"):
        TopologySpec.from_dict({"switches": []})


def test_unknown_sections_and_params_rejected():
    with pytest.raises(SpecError, match="unknown spec sections"):
        TopologySpec.from_dict(minimal(extra={}))
    with pytest.raises(SpecError, match="unknown params"):
        TopologySpec.from_dict(minimal(params={"typo_interval": 3}))
    with pytest.raises(SpecError, match="unknown params"):
        TopologySpec.from_dict(minimal(params={"control_latency": 0.0}))


BAD_INPUT = [
    ("switches-not-a-list", {"switches": 5}, "switches must be a list"),
    ("hosts-not-a-list", {"hosts": "h1"}, "hosts must be a list"),
    ("links-not-a-list", {"links": 5}, "links must be a list"),
    ("params-not-a-mapping", {"params": 5}, "params must be a mapping"),
    ("int-mac", {"switches": [{"id": "s1", "mac": 5, "ports": 2}]}, "bad MAC"),
    ("str-duration", {"params": {"discovery_interval": "abc"}}, "discovery_interval must be float"),
    ("bool-duration", {"params": {"grace": True}}, "grace must be float | None"),
    ("float-seed", {"params": {"seed": 1.5}}, "seed must be int"),
    ("str-flag", {"params": {"macsec_encrypt": "yes"}}, "macsec_encrypt must be bool"),
    ("zero-max-events", {"params": {"max_events": 0}}, "max_events must be >= 1"),
    ("zero-pn-ceiling", {"params": {"pn_ceiling": 0}}, "pn_ceiling must be in"),
    ("wide-pn-ceiling", {"params": {"pn_ceiling": 2**32}}, "pn_ceiling must be in"),
    ("inf-duration", {"params": {"link_latency": float("inf")}}, "link_latency must be >= 0 and finite"),
    ("nan-duration", {"params": {"grace": float("nan")}}, "grace must be >= 0 and finite"),
    # A period that rounds to 0 us re-arms its timer at +0 forever.
    *[
        (f"zero-{name}", {"params": {name: 0.0}}, f"{name} must round to at least 1 us")
        for name in ("discovery_interval", "rekey_interval", "lldp_key_rotation")
    ],
    ("sub-us-rekey_interval", {"params": {"rekey_interval": 4e-7}}, "rekey_interval must round to at least 1 us"),
    # A grace shorter than the wire time retires an SA while frames sealed under it are in flight.
    ("short-grace", {"params": {"grace": 0.0005}}, "grace .* must be >= link_latency"),
    ("short-default-grace", {"params": {"discovery_interval": 0.0005}}, "grace .* must be >= link_latency"),
    ("grace-under-jitter", {"params": {"grace": 0.002, "latency_jitter": 0.0015}}, "grace .* must be >= link_latency"),
]


@pytest.mark.parametrize(
    "overrides, match",
    [
        pytest.param({"params": {name: -3e-7}}, f"{name} must be >= 0", id=name)
        for name in ["discovery_interval", "rekey_interval", "lldp_key_rotation", "grace", "link_latency"]
    ]
    + [pytest.param(overrides, match, id=case) for case, overrides, match in BAD_INPUT],
)
def test_negative_durations_rejected(overrides, match):
    """Bad spec input raises SpecError, never a raw TypeError or a spec that fails later."""
    with pytest.raises(SpecError, match=match):
        TopologySpec.from_dict(minimal(**overrides))
    if isinstance(overrides.get("params"), dict):
        with pytest.raises(SpecError, match=match):
            chain_spec(2).with_params(**overrides["params"])


def test_parallel_links_get_distinct_names():
    raw = {
        "switches": [
            {"id": "s1", "mac": "02:00:00:00:00:01", "ports": 2},
            {"id": "s2", "mac": "02:00:00:00:00:02", "ports": 2},
        ],
        "links": [{"a": "s1:1", "b": "s2:1"}, {"a": "s1:2", "b": "s2:2"}],
    }
    spec = TopologySpec.from_dict(raw)
    assert spec.links[0].name == "s1-s2"
    assert spec.links[1].name == "s1.2-s2.2"


def test_chain_spec_shape():
    spec = chain_spec(5)
    assert [s.chassis_id for s in spec.switches] == ["s1", "s2", "s3", "s4", "s5"]
    assert len(spec.links) == 4
    assert {h.name for h in spec.hosts} == {"h1", "h2"}
    with pytest.raises(SpecError):
        chain_spec(1)


def test_with_params_override():
    spec = chain_spec(2).with_params(rekey_interval=5.0, seed=11)
    assert spec.params.rekey_interval == 5.0
    assert spec.params.seed == 11
    assert chain_spec(2).params.rekey_interval == SimParams().rekey_interval


def test_one_us_periods_and_zero_delays_are_valid():
    periods = {name: 6e-7 for name in ("discovery_interval", "rekey_interval", "lldp_key_rotation")}
    spec = chain_spec(2).with_params(**periods, grace=0.0, link_latency=0.0, latency_jitter=0.0)
    assert spec.params.discovery_interval == 6e-7  # rounds to 1 us
