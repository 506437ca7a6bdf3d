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
