"""Per-switch match-action pipeline.

A hop works on the frame's bytes from wire to wire; no frame object is
built.  Ingress reads the EtherType (and a MACsec frame's AN, PN and SCI)
at fixed offsets: sealed LLDP punts straight to the CPU port, MACsec frames
are validated against the IG-SC/SA tables and re-enter as the inner frame's
bytes, and everything else goes through MAC-table forwarding.  The MAC
table maps a MAC to its port.  A port is secured when it holds an EG-SC
row; it takes in MACsec and LLDP-typed frames only (a controlled port),
and every frame that leaves it, forwarded or flooded, goes through the
switch's one egress path, `Switch.protect`.  A flood, whether
the pipeline floods a group frame or the local controller floods a MAC
miss, goes through `Switch.flood`; a controller packet-out is sent verbatim.

The tables are plain data.  The pipeline core, `run_pipeline`, is one pass
over a switch: it reads the tables, counts each validation on the SA that
checked it and protects through `Switch.protect`.  It returns a
`PipelineResult`, a NamedTuple of (kind, egress port, bytes out, packet-in,
drop reason) built from one tuple by `tuple.__new__`, in C.  The `Switch`
adds ports, counters, the CPU/notification hooks (an unwired hook does
nothing) and the table writes, each checked and each returning its undo
entry; the pipeline oracle diffs `Switch.process_ingress` against an
independent interpreter.

A forwarded hop counts in plain integers on the objects it touches: the
switch's per-port `rx`/`tx` lists and its `validated`/`protected` totals,
and each `SaEntry`'s `validated`/`failed`/`protected`.  Counter names
(`port.N.rx`, `sa.N.protected`, ...) are built only when `Counters` is
read.  An SA's counts leave with its entry; the switch totals
(`macsec.validated`, `macsec.protected`, `macsec.validate_failed`) keep
every frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

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
DROP_UNTAGGED = "untagged"


class Counters:
    """Named monotonic counters; first-class observable switch state.

    `incr` keeps a named count.  The hot counts of a switch live as plain
    integers on its ports and SAs, and every read adds them in: `live` is
    the switch, whose `live_counts()` yields the non-zero ones as (name,
    count) pairs and whose `live_count(name)` reads one.  `get` of a total
    or of a name kept here reads no port or SA; a `port.`/`sa.` name is read
    through the same enumeration as `as_dict`.  A name appears once its
    count is non-zero, whichever of the two holds it.  An `sa.<sai>.*` name
    names a live SA and leaves with its entry; the `macsec.*` totals keep
    the counts of every SA the switch ever held.
    """

    def __init__(self, live: Switch | None = None):
        self._values: dict[str, int] = {}
        self._live = live

    def incr(self, name: str, amount: int = 1) -> None:
        self._values[name] = self._values.get(name, 0) + amount

    def get(self, name: str) -> int:
        count = self._values.get(name, 0)
        return count if self._live is None else count + self._live.live_count(name)

    def total(self, prefix: str) -> int:
        """Sum of the counter `prefix` itself plus every `prefix.*` counter."""
        dotted = prefix + "."
        return sum(v for k, v in self._merged().items() if k == prefix or k.startswith(dotted))

    def as_dict(self) -> dict[str, int]:
        return dict(sorted(self._merged().items()))

    def _merged(self) -> dict[str, int]:
        if self._live is None:
            return self._values
        values = dict(self._values)
        for name, count in self._live.live_counts():
            values[name] = values.get(name, 0) + count
        return values


@dataclass(slots=True)
class SaEntry:
    """One secure association; its PNs and its counts are its only mutable fields."""

    sai: int
    sak: Sak
    an: int
    sci: bytes
    confidentiality: bool = True
    next_pn: int = 1
    lowest_acceptable_pn: int = 1
    validated: int = 0
    failed: int = 0
    protected: int = 0

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


class PipelineResult(NamedTuple):
    """What one pass did with a frame.  `run_pipeline` builds each result
    from one 5-tuple with `tuple.__new__`, in C: the NamedTuple's own
    `__new__` is Python and would cost a call frame per hop."""

    kind: str
    egress_port: Optional[int]
    bytes_out: Optional[bytes]
    packet_in: Optional[PacketIn]
    drop_reason: Optional[str]


_result = tuple.__new__  # _result(PipelineResult, (kind, egress_port, bytes_out, packet_in, drop_reason))


def _drop(reason: str) -> PipelineResult:
    return _result(PipelineResult, (DROP, None, None, None, reason))


ProtectHook = Callable[[bytes, bytes, int], None]  # (key, SCI or MAC, PN or seal counter)
RetireHook = Callable[[bytes, bytes], None]  # (key, SCI or MAC)
# (table, key, old value); no table holds None, so None means the row was absent
UndoEntry = tuple[dict, object, object]


def _unwired(*args) -> None:
    """Every `Switch` hook until the embedding wires it: it does nothing."""


def _put(table: dict, key, value) -> UndoEntry:
    entry = (table, key, table.get(key))
    table[key] = value
    return entry


def _pop(table: dict, key) -> UndoEntry:
    return table, key, table.pop(key, None)


def run_pipeline(sw: Switch, ingress_port: int, data: bytes) -> PipelineResult:
    """One ingress pass over the switch's tables, reading the received bytes in place.

    A MACsec frame's validation, passed or failed, is counted on its SA
    here.  A known unicast frame whose destination's port holds an EG-SC
    row (a secured port) leaves through `sw.protect`; the tables are
    otherwise read-only apart from the ingress PN floor.
    """
    size = len(data)
    if size < ETH_HEADER_LEN:
        return _drop(DROP_TRUNCATED)
    ether_type = data[12] << 8 | data[13]  # big-endian, at offset 12
    if size < MIN_FRAME_LEN.get(ether_type, ETH_HEADER_LEN):
        return _drop(DROP_TRUNCATED)

    tables = sw.tables
    if ether_type == ETHERTYPE_MACSEC:
        sai = tables.ig_sc.get((data[SCI_OFFSET:SECURE_DATA_OFFSET], data[ETH_HEADER_LEN] & 0x03))
        sa = tables.sa.get(sai)
        if sa is None:
            return _drop(DROP_UNKNOWN_SCI)
        pn = int.from_bytes(data[PN_OFFSET:SCI_OFFSET], "big")
        if pn < sa.lowest_acceptable_pn:
            return _drop(DROP_REPLAY_PN)
        try:
            data = macsec_validate(sa.sak, data, confidentiality=sa.confidentiality)
        except IntegrityFailure:
            sw.counters.incr("macsec.validate_failed")
            sa.failed += 1
            return _drop(DROP_INTEGRITY)
        sa.lowest_acceptable_pn = pn + 1
        sw.validated += 1
        sa.validated += 1
        ether_type = data[12] << 8 | data[13]
    elif ingress_port in tables.eg_sc and ether_type != ETHERTYPE_LLDP:
        # A secured port is a controlled port: MACsec and (sealed) LLDP only.
        return _drop(DROP_UNTAGGED)

    # Discovery frames, sealed or nested in a validated frame, punt; they
    # are never forwarded or learned from.
    if ether_type == ETHERTYPE_LLDP:
        punt = PacketIn(ingress_port, data, REASON_LLDP_PUNT)
        return _result(PipelineResult, (PACKET_IN, None, None, punt, None))

    if data[0] & 0x01:  # the I/G bit: a group (broadcast or multicast) destination
        return _result(PipelineResult, (FLOOD, None, data, None, None))

    port = tables.mac.get(data[:6])
    if data[6:12] not in tables.mac or port is None:
        miss = PacketIn(ingress_port, data, REASON_MAC_MISS)
        return _result(PipelineResult, (PACKET_IN, None, None, miss, None))

    out = data
    if port in tables.eg_sc:
        out, reason = sw.protect(port, data)
        if out is None:
            return _drop(reason)
    return _result(PipelineResult, (FORWARD, port, out, None, None))


class Switch:
    """Data plane of one software switch: tables, ports, counters, CPU port.

    Every frame the switch protects goes through `protect`, whether the
    pipeline forwards it or `flood` fans it out.  Each table write returns
    its undo entry, and `restore` rolls a batch of them back.

    `rx[port]`, `tx[port]`, `validated` and `protected` are the switch's
    hot counts; `counters` reads them, and its SAs' counts, by name.

    The embedding (simulator or test) wires the hooks; an unwired hook does nothing:

    * ``on_transmit(port, bytes)``   frame leaves a port
    * ``on_packet_in(PacketIn)``     CPU-port message to the local controller
    * ``on_port_event(port, up)``    edge-triggered port status change
    * ``on_rekey_needed(sai, sci)``  egress SA ran out of packet numbers
    * ``on_protect(sak_key, sci, pn)``  observation point for IV uniqueness
    * ``on_retire(sak_key, sci)``    an SA this switch sends on left its table,
      so its (SAK, SCI) never protects again

    The local controller reports its discovery seals and key changes through
    the same two hooks, with the switch MAC in place of an SCI.
    """

    def __init__(self, chassis_id: str, mac: bytes, num_ports: int, *, pn_ceiling: int = MAX_PN):
        self.chassis_id = chassis_id
        self.mac = mac
        self.ports_up: dict[int, bool] = {p: True for p in range(1, num_ports + 1)}
        self.tables = SwitchTables()
        self.rx = [0] * (num_ports + 1)  # indexed by port
        self.tx = [0] * (num_ports + 1)
        self.validated = 0
        self.protected = 0
        self.counters = Counters(self)
        self.pn_ceiling = pn_ceiling
        self.on_transmit: Callable[[int, bytes], None] = _unwired
        self.on_packet_in: Callable[[PacketIn], None] = _unwired
        self.on_port_event: Callable[[int, bool], None] = _unwired
        self.on_rekey_needed: Callable[[int, bytes], None] = _unwired
        self.on_protect: ProtectHook = _unwired
        self.on_retire: RetireHook = _unwired

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
        tables = self.tables
        sai = tables.eg_sc.get(port)
        sa = tables.sa.get(sai)
        if sa is None:
            return None, DROP_NO_EGRESS_SC
        pn = sa.next_pn
        if pn > self.pn_ceiling:
            return None, DROP_PN_EXHAUSTED
        sa.next_pn = pn + 1
        sak, sci = sa.sak, sa.sci
        self.on_protect(sak.key, sci, pn)
        protected = macsec_protect(sak, sci, pn, data, an=sa.an, confidentiality=sa.confidentiality)
        self.protected += 1
        sa.protected += 1
        if pn == self.pn_ceiling:
            self.on_rekey_needed(sai, sci)
        return protected, None

    def handle_frame(self, port: int, data: bytes) -> PipelineResult:
        """Full ingress treatment of one frame delivered by the wire."""
        self.rx[port] += 1
        result = self.process_ingress(port, data)
        kind = result.kind
        if kind == FORWARD:
            self._transmit(result.egress_port, result.bytes_out)
        elif kind == FLOOD:
            self.flood(port, result.bytes_out)
        elif kind == PACKET_IN:
            self.on_packet_in(result.packet_in)
        return result

    def expand_flood(self, ingress_port: int, data: bytes) -> list[tuple[int, bytes]]:
        """Per-port egress processing for a flood: protect where an EG-SC exists."""
        protectable = classify(data) == "ethernet"
        emissions = []
        for port, up in self.ports_up.items():  # built in port order; no port is ever added
            if port == ingress_port or not up:
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
        self.tx[port] += 1
        self.on_transmit(port, data)

    # -- table writes ---------------------------------------------------------
    # Each write checks its entry before it touches a table, so one that
    # raises has changed nothing; one that succeeds returns its undo entry.
    # An IG-SC row is keyed by its SA's own (SCI, AN), so its writes name only the SAI.

    def write_mac(self, mac: bytes, port: int) -> UndoEntry:
        if port not in self.ports_up:
            raise InvalidEntry(f"port {port} not on switch {self.chassis_id}")
        if len(mac) != 6:
            raise InvalidEntry("MAC must be 6 bytes")
        return _put(self.tables.mac, mac, port)

    def delete_mac(self, mac: bytes) -> UndoEntry:
        return _pop(self.tables.mac, mac)

    def write_sa(self, entry: SaEntry) -> UndoEntry:
        # A write never replaces a live SA: its PN would start again at 1 under the same SAK.
        if entry.sai in self.tables.sa:
            raise InvalidEntry(f"SAI {entry.sai} already held")
        return _put(self.tables.sa, entry.sai, entry)

    def delete_sa(self, sai: int) -> UndoEntry:
        undo = _pop(self.tables.sa, sai)
        sa = undo[2]
        if sa is not None and sa.sci[:6] == self.mac:  # an SCI starts with its sender's MAC
            self.on_retire(sa.sak.key, sa.sci)
        return undo

    def write_eg_sc(self, port: int, sai: int) -> UndoEntry:
        if port not in self.ports_up:
            raise InvalidEntry(f"port {port} not on switch {self.chassis_id}")
        if sai not in self.tables.sa:
            raise InvalidEntry(f"EG-SC references missing SAI {sai}")
        return _put(self.tables.eg_sc, port, sai)

    def delete_eg_sc(self, port: int) -> UndoEntry:
        return _pop(self.tables.eg_sc, port)

    def write_ig_sc(self, sai: int) -> UndoEntry:
        sa = self.tables.sa.get(sai)
        if sa is None:
            raise InvalidEntry(f"IG-SC references missing SAI {sai}")
        return _put(self.tables.ig_sc, (sa.sci, sa.an), sai)

    def delete_ig_sc(self, sai: int) -> UndoEntry:
        # Only while the SA's (SCI, AN) row names it: a newer generation under
        # that AN keeps its row, and without the SA nothing is deleted.
        sa = self.tables.sa.get(sai)
        key = (sa.sci, sa.an) if sa is not None else None
        if self.tables.ig_sc.get(key) == sai:
            return _pop(self.tables.ig_sc, key)
        return self.tables.ig_sc, key, self.tables.ig_sc.get(key)

    def restore(self, undo: list[UndoEntry]) -> None:
        """Undo the writes that returned `undo`, newest first."""
        for table, key, old in reversed(undo):
            if old is None:
                table.pop(key, None)
            else:
                table[key] = old

    # -- counts -----------------------------------------------------------------

    def live_counts(self) -> Iterator[tuple[str, int]]:
        """The non-zero integer counts, under their counter names."""
        if self.validated:
            yield "macsec.validated", self.validated
        if self.protected:
            yield "macsec.protected", self.protected
        for port, (rx, tx) in enumerate(zip(self.rx, self.tx)):
            if rx:
                yield f"port.{port}.rx", rx
            if tx:
                yield f"port.{port}.tx", tx
        for sai, sa in self.tables.sa.items():
            for kind in ("validated", "failed", "protected"):  # the SaEntry fields counted as `sa.<sai>.<kind>`
                count = getattr(sa, kind)
                if count:
                    yield f"sa.{sai}.{kind}", count

    def live_count(self, name: str) -> int:
        """The integer count that `live_counts` names `name`, or 0.

        The totals are read directly, and a `port.`/`sa.` name is looked
        up in the same enumeration as the dump."""
        if name == "macsec.validated":
            return self.validated
        if name == "macsec.protected":
            return self.protected
        if name.startswith(("port.", "sa.")):
            return dict(self.live_counts()).get(name, 0)
        return 0

    # -- port state -----------------------------------------------------------

    def set_port_state(self, port: int, up: bool) -> None:
        """Edge-triggered: repeated writes of the same state emit no event."""
        if port not in self.ports_up or self.ports_up[port] == up:
            return
        self.ports_up[port] = up
        self.on_port_event(port, up)
