from dataclasses import fields

import pytest
import yaml

from macsecsim.audit import audit
from macsecsim.central_controller import link_key
from macsecsim.errors import SpecError
from macsecsim.netsim import Simulation
from macsecsim.topology import SimParams, TopologySpec, chain_spec
from conftest import REPO_ROOT


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
    assert len({link_key(link.a, link.b) for link in hierarchical_spec.links}) == 6
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


def first_entry(section, **fields):
    """`minimal()`'s `section` with fields of its first entry overridden."""
    first, *rest = minimal()[section]
    return {section: [{**first, **fields}, *rest]}


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
    # A port number is refused unless it is an int, never truncated to one.
    ("float-ports", first_entry("switches", ports=2.7), "ports must be int, not float"),
    ("bool-ports", first_entry("switches", ports=True), "ports must be int, not bool"),
    ("str-ports", first_entry("switches", ports="2"), "ports must be int, not str"),
    ("float-host-port", first_entry("hosts", port=1.9), "port must be int, not float"),
    ("bool-host-port", first_entry("hosts", port=True), "port must be int, not bool"),
    # A name is a string: a YAML number is refused, not renamed (YAML 1.1 reads 010 as octal 8).
    ("octal-switch-id", first_entry("switches", id=yaml.safe_load("010")), "id must be str, not int"),
    ("int-host-name", first_entry("hosts", name=7), "name must be str, not int"),
    ("int-host-switch", first_entry("hosts", switch=10), "switch must be str, not int"),
    ("int-link-name", first_entry("links", name=8), "name must be str, not int"),
    ("list-link-name", first_entry("links", name=["x"]), "name must be str, not list"),
    ("empty-link-name", first_entry("links", name=""), "link name must be a non-empty string"),
    # A key no entry knows is refused, not ignored.
    ("unknown-switch-key", first_entry("switches", vlan=3), "unknown switch keys"),
    ("unknown-host-key", first_entry("hosts", vlan=3), "unknown host keys"),
    ("unknown-link-key", first_entry("links", latency=0.5), "unknown link keys"),
    # An entry is a mapping holding every key it needs, and a MAC is hex octets, not what int(x, 16) reads.
    ("switch-not-a-mapping", {"switches": ["s1"]}, "switch entry must be a mapping, not str"),
    ("switch-without-mac", {"switches": [{"id": "s1", "ports": 2}]}, r"switch entry lacks \['mac'\]"),
    ("link-without-b", {"links": [{"a": "s1:1"}]}, r"link entry lacks \['b'\]"),
    ("signed-mac-octet", first_entry("switches", mac="02:00:00:00:00:+1"), "bad MAC"),
    # An endpoint's port is ASCII decimal digits, not whatever int() accepts.
    *[
        (f"endpoint-{case}", first_entry("links", a=f"s1:{port}"), "must look like 'switch:port'")
        for case, port in (("sign", "+1"), ("underscore", "1_0"), ("arabic-indic", "\u0661"))
    ],
    # int() refuses a string of more than 4300 digits with a raw ValueError; a port has at most 5.
    ("endpoint-5000-digits", first_entry("links", a="s1:" + "1" * 5000), "must look like 'switch:port'"),
    # A port is two bytes of an SCI and of an LLDP Port ID TLV.
    ("65536-ports", first_entry("switches", ports=65536), r"ports must be 1\.\.65535"),
    (
        "link-to-port-65537",
        {**first_entry("switches", ports=70000), **first_entry("links", a="s1:65537")},
        r"ports must be 1\.\.65535",
    ),
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
    ("certain-loss", {"params": {"loss_probability": 1.0}}, r"loss_probability must be in \[0, 1\)"),
    # Names and MACs are unique across the spec, and a switch id fits an LLDP Chassis ID TLV.
    (
        "duplicate-switch-id",
        {"switches": [minimal()["switches"][0], {"id": "s1", "mac": "02:00:00:00:00:02", "ports": 2}]},
        "duplicate switch id 's1'",
    ),
    ("65-byte-switch-id", first_entry("switches", id="s" * 65), r"switch id 's{65}' must be 1\.\.64 bytes"),
    (
        "duplicate-switch-mac",
        {"switches": [minimal()["switches"][0], {"id": "s2", "mac": "02:00:00:00:00:01", "ports": 2}]},
        "duplicate MAC on switch s2",
    ),
    (
        "duplicate-link-name",
        {"hosts": [], "links": [{"a": "s1:1", "b": "s2:1", "name": "x"}, {"a": "s1:2", "b": "s2:2", "name": "x"}]},
        "duplicate link name 'x'",
    ),
    ("host-named-like-a-switch", first_entry("hosts", name="s2"), "duplicate name 's2'"),
    ("host-link-name-taken", first_entry("links", name="s1-h1"), "host link name s1-h1 collides"),
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


def test_a_yaml_integer_too_long_to_read_is_a_spec_error(tmp_path):
    """PyYAML raises a raw ValueError for an integer of more than 4300 digits."""
    text = yaml.safe_dump(minimal())
    assert "ports: 2" in text
    path = tmp_path / "spec.yaml"
    path.write_text(text.replace("ports: 2", "ports: " + "1" * 5000, 1), encoding="utf-8")
    with pytest.raises(SpecError):
        TopologySpec.from_yaml(path)


def test_a_switch_may_have_65535_ports():
    """The largest port two bytes carry is discovered and protected like any other."""
    spec = TopologySpec.from_dict(minimal(**first_entry("switches", ports=65535), **first_entry("links", a="s1:65535")))
    sim = Simulation(spec, seed=1)
    sim.quiesce()
    assert sim.central.confirmed_links() == {link_key(("s1", 65535), ("s2", 1))}
    assert audit(sim) == []


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


def test_the_readme_lists_every_spec_parameter():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Topology specs", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    params = yaml.safe_load(example)["params"]
    assert list(params) == [f.name for f in fields(SimParams)]
    SimParams(**params)  # each listed value is a valid one
