"""Per-switch match-action pipeline.

A hop works on the frame's bytes from wire to wire; no frame object is
built.  Ingress reads the EtherType (and a MACsec frame's AN, PN and SCI)
at fixed offsets: sealed LLDP punts straight to the CPU port, MACsec frames
are validated against the IG-SC/SA tables and re-enter as the inner frame's
bytes, and everything else goes through MAC-table forwarding.  The MAC
table maps a MAC to its port.  A port is secured when it holds an EG-SC
row, and every frame that leaves a secured port, forwarded or flooded, goes
through the switch's one egress path, `Switch.protect`.  A flood, whether
the pipeline floods a group frame or the local controller floods a MAC
miss, goes through `Switch.flood`; a controller packet-out is sent verbatim.

The tables are plain data.  The pipeline core, `run_pipeline`, is one pass
over a switch: it reads the tables, counts each validation on the SA that
checked it and protects through `Switch.protect`.  The `Switch` adds ports,
counters and the CPU/notification hooks; the pipeline oracle diffs
`Switch.process_ingress` against an independent interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .crypto import Sak, macsec_protect, macsec_validate
from .errors import IntegrityFailure, InvalidEntry
from .wire import (
    ETH_HEADER_LEN,
    ETHERTYPE_LLDP,
    ETHERTYPE_MACSEC,
    MAX_PN,
    MIN_FRAME_LEN,
    PN_OFFSET,
    SCI_OFFSET,
    SECURE_DATA_OFFSET,
    classify,
    is_group_mac,
)

# Pipeline outcomes
FORWARD = "forward"
FLOOD = "flood"
PACKET_IN = "packet_in"
DROP = "drop"

# Packet-in reasons
REASON_MAC_MISS = "mac_miss"
REASON_LLDP_PUNT = "lldp_punt"

# Drop reasons (each backs a per-switch counter "drop.<reason>")
DROP_TRUNCATED = "truncated"
DROP_UNKNOWN_SCI = "unknown_sci"
DROP_INTEGRITY = "integrity_failure"
DROP_REPLAY_PN = "replay_pn"
DROP_PN_EXHAUSTED = "pn_exhausted"
DROP_NO_EGRESS_SC = "no_egress_sc"
DROP_PORT_DOWN = "port_down"


class Counters:
    """Named monotonic counters; first-class observable switch state."""

    def __init__(self):
        self._values: dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self._values[name] = self._values.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._values.get(name, 0)

    def total(self, prefix: str) -> int:
        """Sum of the counter `prefix` itself plus every `prefix.*` counter."""
        dotted = prefix + "."
        return sum(v for k, v in self._values.items() if k == prefix or k.startswith(dotted))

    def as_dict(self) -> dict[str, int]:
        return dict(sorted(self._values.items()))


# Per-port and per-SA counter names, as templates for `CounterNames`.
PORT_RX = "port.{}.rx"
PORT_TX = "port.{}.tx"
SA_VALIDATED = "sa.{}.validated"
SA_FAILED = "sa.{}.failed"
SA_PROTECTED = "sa.{}.protected"


class CounterNames(dict):
    """Counter names keyed by (template, port or SAI), each built on first use."""

    def __missing__(self, key: tuple[str, int]) -> str:
        template, number = key
        name = self[key] = template.format(number)
        return name


@dataclass
class SaEntry:
    """One secure association; PN counters are its only mutable fields."""

    sai: int
    sak: Sak
    an: int
    sci: bytes
    confidentiality: bool = True
    next_pn: int = 1
    lowest_acceptable_pn: int = 1

    def __post_init__(self):
        if not 0 <= self.an <= 3:
            raise InvalidEntry("AN must be 0..3")
        if len(self.sci) != 8:
            raise InvalidEntry("SCI must be 8 bytes")


@dataclass
class SwitchTables:
    """The four match-action tables that define data-plane behavior."""

    mac: dict[bytes, int] = field(default_factory=dict)  # MAC -> port
    eg_sc: dict[int, int] = field(default_factory=dict)  # egress port -> SAI
    ig_sc: dict[tuple[bytes, int], int] = field(default_factory=dict)  # (SCI, AN) -> SAI
    sa: dict[int, SaEntry] = field(default_factory=dict)


@dataclass
class PacketIn:
    ingress_port: int
    frame_bytes: bytes
    reason: str


@dataclass
class PipelineResult:
    kind: str
    egress_port: Optional[int] = None
    bytes_out: Optional[bytes] = None
    packet_in: Optional[PacketIn] = None
    drop_reason: Optional[str] = None


ProtectHook = Callable[[bytes, bytes], None]  # (sak key, 12-byte IV)


def run_pipeline(sw: Switch, ingress_port: int, data: bytes) -> PipelineResult:
    """One ingress pass over the switch's tables, reading the received bytes in place.

    A MACsec frame's validation, passed or failed, is counted on its SA
    here.  A known unicast frame whose destination's port holds an EG-SC
    row (a secured port) leaves through `sw.protect`; the tables are
    otherwise read-only apart from the ingress PN floor.
    """
    if len(data) < ETH_HEADER_LEN:
        return PipelineResult(kind=DROP, drop_reason=DROP_TRUNCATED)
    ether_type = data[12] << 8 | data[13]  # big-endian, at offset 12
    if len(data) < MIN_FRAME_LEN.get(ether_type, ETH_HEADER_LEN):
        return PipelineResult(kind=DROP, drop_reason=DROP_TRUNCATED)

    tables = sw.tables
    if ether_type == ETHERTYPE_MACSEC:
        sai = tables.ig_sc.get((data[SCI_OFFSET:SECURE_DATA_OFFSET], data[ETH_HEADER_LEN] & 0x03))
        sa = tables.sa.get(sai) if sai is not None else None
        if sa is None:
            return PipelineResult(kind=DROP, drop_reason=DROP_UNKNOWN_SCI)
        pn = int.from_bytes(data[PN_OFFSET:SCI_OFFSET], "big")
        if pn < sa.lowest_acceptable_pn:
            return PipelineResult(kind=DROP, drop_reason=DROP_REPLAY_PN)
        try:
            data = macsec_validate(sa.sak, data, confidentiality=sa.confidentiality)
        except IntegrityFailure:
            sw.counters.incr("macsec.validate_failed")
            sw.counters.incr(sw._names[SA_FAILED, sai])
            return PipelineResult(kind=DROP, drop_reason=DROP_INTEGRITY)
        sa.lowest_acceptable_pn = pn + 1
        sw.counters.incr("macsec.validated")
        sw.counters.incr(sw._names[SA_VALIDATED, sai])
        ether_type = data[12] << 8 | data[13]

    # Discovery frames, sealed or nested in a validated frame, punt; they
    # are never forwarded or learned from.
    if ether_type == ETHERTYPE_LLDP:
        return PipelineResult(kind=PACKET_IN, packet_in=PacketIn(ingress_port, data, REASON_LLDP_PUNT))

    dst = data[:6]
    if is_group_mac(dst):
        return PipelineResult(kind=FLOOD, bytes_out=data)

    port = tables.mac.get(dst)
    if data[6:12] not in tables.mac or port is None:
        return PipelineResult(kind=PACKET_IN, packet_in=PacketIn(ingress_port, data, REASON_MAC_MISS))

    out = data
    if port in tables.eg_sc:
        out, reason = sw.protect(port, data)
        if out is None:
            return PipelineResult(kind=DROP, drop_reason=reason)
    return PipelineResult(kind=FORWARD, egress_port=port, bytes_out=out)


class Switch:
    """Data plane of one software switch: tables, ports, counters, CPU port.

    Every frame the switch protects goes through `protect`, whether the
    pipeline forwards it or `flood` fans it out.

    The embedding (simulator or test) wires the hooks:

    * ``on_transmit(port, bytes)``   frame leaves a port
    * ``on_packet_in(PacketIn)``     CPU-port message to the local controller
    * ``on_port_event(port, up)``    edge-triggered port status change
    * ``on_rekey_needed(sai, sci)``  egress SA ran out of packet numbers
    * ``on_protect(sak_key, iv)``    observation point for IV uniqueness
    """

    def __init__(self, chassis_id: str, mac: bytes, num_ports: int, *, pn_ceiling: int = MAX_PN):
        self.chassis_id = chassis_id
        self.mac = mac
        self.ports_up: dict[int, bool] = {p: True for p in range(1, num_ports + 1)}
        self.tables = SwitchTables()
        self.counters = Counters()
        self.pn_ceiling = pn_ceiling
        self.on_transmit: Callable[[int, bytes], None] | None = None
        self.on_packet_in: Callable[[PacketIn], None] | None = None
        self.on_port_event: Callable[[int, bool], None] | None = None
        self.on_rekey_needed: Callable[[int, bytes], None] | None = None
        self.on_protect: ProtectHook | None = None
        self._names = CounterNames()

    # -- frame path ---------------------------------------------------------

    def process_ingress(self, port: int, data: bytes) -> PipelineResult:
        """Run the pipeline and count its drop; emission is the caller's job."""
        result = run_pipeline(self, port, data)
        if result.kind == DROP:
            self.counters.incr(f"drop.{result.drop_reason}")
        return result

    def protect(self, port: int, data: bytes) -> tuple[Optional[bytes], Optional[str]]:
        """Protect the frame bytes `data` with the SA behind the port's EG-SC entry.

        Returns (bytes_out, None), or (None, drop_reason) when the channel
        is missing or its PN space is spent; the caller counts the drop.
        The call that consumes the SA's last allowed PN signals a rekey; an
        SA starts at PN 1 and the ceiling is at least 1, so that is once.
        """
        sai = self.tables.eg_sc.get(port)
        sa = self.tables.sa.get(sai) if sai is not None else None
        if sa is None:
            return None, DROP_NO_EGRESS_SC
        if sa.next_pn > self.pn_ceiling:
            return None, DROP_PN_EXHAUSTED
        pn = sa.next_pn
        sa.next_pn = pn + 1
        if self.on_protect is not None:
            self.on_protect(sa.sak.key, sa.sci + pn.to_bytes(4, "big"))
        protected = macsec_protect(sa.sak, sa.sci, pn, data, an=sa.an, confidentiality=sa.confidentiality)
        self.counters.incr("macsec.protected")
        self.counters.incr(self._names[SA_PROTECTED, sai])
        if sa.next_pn > self.pn_ceiling and self.on_rekey_needed is not None:
            self.on_rekey_needed(sai, sa.sci)
        return protected, None

    def handle_frame(self, port: int, data: bytes) -> PipelineResult:
        """Full ingress treatment of one frame delivered by the wire."""
        self.counters.incr(self._names[PORT_RX, port])
        result = self.process_ingress(port, data)
        if result.kind == FORWARD:
            self._transmit(result.egress_port, result.bytes_out)
        elif result.kind == FLOOD:
            self.flood(port, result.bytes_out)
        elif result.kind == PACKET_IN and self.on_packet_in is not None:
            self.on_packet_in(result.packet_in)
        return result

    def expand_flood(self, ingress_port: int, data: bytes) -> list[tuple[int, bytes]]:
        """Per-port egress processing for a flood: protect where an EG-SC exists."""
        protectable = classify(data) == "ethernet"
        emissions = []
        for port in sorted(self.ports_up):
            if port == ingress_port or not self.ports_up[port]:
                continue
            out = data
            if protectable and port in self.tables.eg_sc:
                out, reason = self.protect(port, data)
                if out is None:
                    self.counters.incr(f"drop.{reason}")
                    continue
            emissions.append((port, out))
        return emissions

    def flood(self, ingress_port: int, data: bytes) -> None:
        """Send a frame out of every other up port, protected where an EG-SC exists."""
        for egress, out in self.expand_flood(ingress_port, data):
            self._transmit(egress, out)

    def packet_out(self, port: int, data: bytes) -> None:
        """Controller-injected frame, sent verbatim: no table is consulted."""
        self._transmit(port, data)

    def _transmit(self, port: int, data: bytes) -> None:
        if not self.ports_up.get(port, False):
            self.counters.incr(f"drop.{DROP_PORT_DOWN}")
            return
        self.counters.incr(self._names[PORT_TX, port])
        if self.on_transmit is not None:
            self.on_transmit(port, data)

    # -- table writes (each call is atomic wrt frame processing) -------------

    def write_mac(self, mac: bytes, port: int) -> None:
        if port not in self.ports_up:
            raise InvalidEntry(f"port {port} not on switch {self.chassis_id}")
        if len(mac) != 6:
            raise InvalidEntry("MAC must be 6 bytes")
        self.tables.mac[mac] = port

    def delete_mac(self, mac: bytes) -> None:
        self.tables.mac.pop(mac, None)

    def write_sa(self, entry: SaEntry) -> None:
        self.tables.sa[entry.sai] = entry

    def delete_sa(self, sai: int) -> None:
        # SAIs are never reused, so a deleted SA's cached counter names are
        # dropped with it.
        self.tables.sa.pop(sai, None)
        for template in (SA_VALIDATED, SA_FAILED, SA_PROTECTED):
            self._names.pop((template, sai), None)

    def write_eg_sc(self, port: int, sai: int) -> None:
        if port not in self.ports_up:
            raise InvalidEntry(f"port {port} not on switch {self.chassis_id}")
        if sai not in self.tables.sa:
            raise InvalidEntry(f"EG-SC references missing SAI {sai}")
        self.tables.eg_sc[port] = sai

    def delete_eg_sc(self, port: int) -> None:
        self.tables.eg_sc.pop(port, None)

    def write_ig_sc(self, sci: bytes, an: int, sai: int) -> None:
        if sai not in self.tables.sa:
            raise InvalidEntry(f"IG-SC references missing SAI {sai}")
        if len(sci) != 8:
            raise InvalidEntry("SCI must be 8 bytes")
        if not 0 <= an <= 3:
            raise InvalidEntry("AN must be 0..3")
        self.tables.ig_sc[(sci, an)] = sai

    def delete_ig_sc(self, sci: bytes, an: int) -> None:
        if not 0 <= an <= 3:
            raise InvalidEntry("AN must be 0..3")
        self.tables.ig_sc.pop((sci, an), None)

    # -- port state -----------------------------------------------------------

    def set_port_state(self, port: int, up: bool) -> None:
        """Edge-triggered: repeated writes of the same state emit no event."""
        if port not in self.ports_up or self.ports_up[port] == up:
            return
        self.ports_up[port] = up
        if self.on_port_event is not None:
            self.on_port_event(port, up)

    def up_ports(self) -> list[int]:
        return sorted(p for p, up in self.ports_up.items() if up)
