"""Topology specs: switches, hosts, links and run parameters.

Specs live in human-editable YAML files; `TopologySpec.from_yaml` loads and
validates one, reading each mapping by one rule (`_read`): known keys, exact
types, nothing coerced.  `chain_spec` builds the linear N-switch topologies
used for end-to-end transparency checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import yaml

from .errors import SpecError
from .wire import MAX_PN, MAX_PORT, mac_from_str

Endpoint = tuple[str, int]


@dataclass
class SwitchSpec:
    chassis_id: str
    mac: bytes
    num_ports: int


@dataclass
class HostSpec:
    name: str
    mac: bytes
    switch: str
    port: int


@dataclass
class LinkSpec:
    name: str
    a: Endpoint
    b: Endpoint


# Spec durations, in seconds of virtual time; each is finite and none negative.
_DURATIONS = ("discovery_interval", "rekey_interval", "lldp_key_rotation", "grace", "link_latency", "latency_jitter")
# The durations that re-arm a timer; each must be at least 1 µs once rounded.
_PERIODS = ("discovery_interval", "rekey_interval", "lldp_key_rotation")
# The exact value types each kind admits: a bool is not a number, an int is a float,
# and a spec section may be null, as an empty YAML section reads.
_TYPES = {"float": (int, float), "float | None": (int, float, type(None)), "int": (int,), "bool": (bool,),
          "str": (str,), "a list": (list, type(None)), "a mapping": (dict, type(None))}


def to_us(seconds: float) -> int:
    """Seconds of virtual time as whole microseconds, rounded to nearest.
    A time that is not finite is a ValueError."""
    if not math.isfinite(seconds):
        raise ValueError(f"time {seconds} s is not finite")
    return round(seconds * 1_000_000)


@dataclass
class SimParams:
    discovery_interval: float = 30.0
    rekey_interval: float = 60.0
    lldp_key_rotation: float = 300.0
    grace: float | None = None  # defaults to one discovery interval
    link_latency: float = 0.001
    loss_probability: float = 0.0  # per-frame wire loss; links are lossless by default
    latency_jitter: float = 0.0  # extra uniform delay; > 0 permits reordering
    pn_ceiling: int = MAX_PN
    macsec_encrypt: bool = True
    seed: int = 0
    max_events: int = 1_000_000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) not in _TYPES[f.type]:
                raise SpecError(f"{f.name} must be {f.type}, not {type(value).__name__}")
        if self.max_events < 1:
            raise SpecError("max_events must be >= 1")
        if not 1 <= self.pn_ceiling <= MAX_PN:
            raise SpecError(f"pn_ceiling must be in 1..{MAX_PN}")
        if not 0.0 <= self.loss_probability < 1.0:
            raise SpecError("loss_probability must be in [0, 1)")
        for name in _DURATIONS:
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:
                raise SpecError(f"{name} must be >= 0 and finite")
        for name in _PERIODS:
            if to_us(getattr(self, name)) == 0:
                raise SpecError(f"{name} must round to at least 1 us, or its timer never advances")
        if to_us(self.effective_grace) < to_us(self.link_latency) + to_us(self.latency_jitter):
            # The retire one grace after an egress write would delete the old
            # SA while frames sealed under it are still on the wire.
            raise SpecError("grace (default discovery_interval) must be >= link_latency + latency_jitter")

    @property
    def effective_grace(self) -> float:
        return self.discovery_interval if self.grace is None else self.grace


# The keys of each mapping in a spec, each with its value's kind in `_TYPES`; a kind of
# None leaves the type to its reader: `_mac` checks a MAC's, `SimParams` each param's.
_ROOT = {"switches": "a list", "hosts": "a list", "links": "a list", "params": "a mapping"}
_PARAMS = dict.fromkeys(f.name for f in fields(SimParams))
_SWITCH = {"id": "str", "mac": None, "ports": "int"}
_HOST = {"name": "str", "mac": None, "switch": "str", "port": "int"}
_LINK = {"a": "str", "b": "str", "name": "str"}


@dataclass
class TopologySpec:
    switches: list[SwitchSpec]
    hosts: list[HostSpec] = field(default_factory=list)
    links: list[LinkSpec] = field(default_factory=list)
    params: SimParams = field(default_factory=SimParams)

    def validate(self) -> None:
        if not self.switches:
            raise SpecError("spec needs at least one switch")
        by_id = {}
        macs = set()
        for sw in self.switches:
            if sw.chassis_id in by_id:
                raise SpecError(f"duplicate switch id {sw.chassis_id!r}")
            if not 0 < len(sw.chassis_id.encode()) <= 64:
                raise SpecError(f"switch id {sw.chassis_id!r} must be 1..64 bytes")
            if not 1 <= sw.num_ports <= MAX_PORT:
                raise SpecError(f"switch {sw.chassis_id}: ports must be 1..{MAX_PORT}")
            if sw.mac in macs:
                raise SpecError(f"duplicate MAC on switch {sw.chassis_id}")
            macs.add(sw.mac)
            by_id[sw.chassis_id] = sw

        used_ports: set[Endpoint] = set()

        def claim(endpoint: Endpoint, what: str) -> None:
            chassis, port = endpoint
            sw = by_id.get(chassis)
            if sw is None:
                raise SpecError(f"{what} references unknown switch {chassis!r}")
            if not 1 <= port <= sw.num_ports:
                raise SpecError(f"{what} references invalid port {chassis}:{port}")
            if endpoint in used_ports:
                raise SpecError(f"port {chassis}:{port} used twice")
            used_ports.add(endpoint)

        names = set()
        for link in self.links:
            if link.name in names:
                raise SpecError(f"duplicate link name {link.name!r}")
            names.add(link.name)
            if link.a[0] == link.b[0]:
                raise SpecError(f"link {link.name}: both ends on switch {link.a[0]}")
            claim(link.a, f"link {link.name}")
            claim(link.b, f"link {link.name}")

        host_names = set()
        for host in self.hosts:
            if host.name in host_names or host.name in by_id:
                raise SpecError(f"duplicate name {host.name!r}")
            host_names.add(host.name)
            if host.mac in macs:
                raise SpecError(f"duplicate MAC on host {host.name}")
            macs.add(host.mac)
            claim((host.switch, host.port), f"host {host.name}")
            if f"{host.switch}-{host.name}" in names:
                raise SpecError(f"host link name {host.switch}-{host.name} collides")

    def with_params(self, **overrides) -> "TopologySpec":
        return replace(self, params=replace(self.params, **overrides))

    @classmethod
    def from_dict(cls, raw: dict) -> "TopologySpec":
        """A spec from plain data, as `yaml.safe_load` reads it; `_read` reads each of its mappings."""
        _read(raw, "spec root", "spec sections", _ROOT)
        switches = []
        for s in raw.get("switches") or []:
            _read(s, "switch entry", "switch keys", _SWITCH, required=_SWITCH)
            switches.append(SwitchSpec(chassis_id=s["id"], mac=_mac(s["mac"]), num_ports=s["ports"]))
        hosts = []
        for h in raw.get("hosts") or []:
            _read(h, "host entry", "host keys", _HOST, required=_HOST)
            hosts.append(HostSpec(name=h["name"], mac=_mac(h["mac"]), switch=h["switch"], port=h["port"]))
        links, taken = [], set()
        for entry in raw.get("links") or []:
            _read(entry, "link entry", "link keys", _LINK, required=("a", "b"))
            a, b = _parse_endpoint(entry["a"]), _parse_endpoint(entry["b"])
            name = entry.get("name", _default_link_name(a, b, taken))
            if not name:
                raise SpecError("link name must be a non-empty string")
            taken.add(name)
            links.append(LinkSpec(name=name, a=a, b=b))
        params_raw = raw.get("params") or {}
        _read(params_raw, "params", "params", _PARAMS)
        spec = cls(switches=switches, hosts=hosts, links=links, params=SimParams(**params_raw))
        spec.validate()
        return spec

    @classmethod
    def from_yaml(cls, path) -> "TopologySpec":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = yaml.safe_load(fh)
            except (yaml.YAMLError, ValueError) as exc:  # ValueError: an integer too long to read
                raise SpecError(f"{path}: {exc}") from exc
        return cls.from_dict(raw)


def _read(raw, what: str, keys: str, schema: dict[str, str | None], required=()) -> None:
    """Check one mapping of a spec: `raw` is a dict, its keys are `schema`'s
    and include `required`, and each value's exact type is one its kind in
    `_TYPES` admits.  Nothing is coerced."""
    if type(raw) is not dict:
        raise SpecError(f"{what} must be a mapping, not {type(raw).__name__}")
    unknown = raw.keys() - schema
    if unknown:
        raise SpecError(f"unknown {keys}: {sorted(unknown, key=repr)}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise SpecError(f"{what} lacks {missing}")
    for key, value in raw.items():
        kind = schema[key]
        if kind is not None and type(value) not in _TYPES[kind]:
            raise SpecError(f"{key} must be {kind}, not {type(value).__name__}")


def _mac(value) -> bytes:
    try:
        return mac_from_str(value)
    except (ValueError, TypeError):
        raise SpecError(f"bad MAC address {value!r}") from None


def _parse_endpoint(text: str) -> Endpoint:
    chassis, _, port = text.partition(":")
    if not (port.isascii() and port.isdigit() and len(port) <= 5):  # MAX_PORT has 5 digits
        raise SpecError(f"endpoint {text!r} must look like 'switch:port', the port in 1 to 5 decimal digits")
    return chassis, int(port)


def _default_link_name(a: Endpoint, b: Endpoint, taken: set[str]) -> str:
    first, second = sorted((a, b))
    short = f"{first[0]}-{second[0]}"
    if short not in taken:
        return short
    return f"{first[0]}.{first[1]}-{second[0]}.{second[1]}"


def _nth_mac(prefix: int, n: int) -> bytes:
    return bytes([0x02, prefix, 0x00, 0x00, (n >> 8) & 0xFF, n & 0xFF])


def chain_spec(num_switches: int, *, params: SimParams | None = None) -> TopologySpec:
    """Linear chain of switches with one host hanging off each end."""
    if num_switches < 2:
        raise SpecError("a chain needs at least two switches")
    switches = [
        SwitchSpec(chassis_id=f"s{i}", mac=_nth_mac(0x00, i), num_ports=3)
        for i in range(1, num_switches + 1)
    ]
    links = [
        LinkSpec(name=f"s{i}-s{i + 1}", a=(f"s{i}", 2), b=(f"s{i + 1}", 1))
        for i in range(1, num_switches)
    ]
    hosts = [
        HostSpec(name="h1", mac=_nth_mac(0x10, 1), switch="s1", port=1),
        HostSpec(name="h2", mac=_nth_mac(0x10, 2), switch=f"s{num_switches}", port=2),
    ]
    return TopologySpec(switches=switches, hosts=hosts, links=links, params=params or SimParams())
