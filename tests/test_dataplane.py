import copy
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macsecsim.crypto import Sak, macsec_protect, macsec_validate
from macsecsim.dataplane import (
    DROP,
    DROP_INTEGRITY,
    DROP_REPLAY_PN,
    DROP_TRUNCATED,
    DROP_UNKNOWN_SCI,
    FLOOD,
    FORWARD,
    PACKET_IN,
    REASON_LLDP_PUNT,
    REASON_MAC_MISS,
    SaEntry,
    Switch,
)
from macsecsim.errors import InvalidEntry
from macsecsim.local_controller import LocalController
from macsecsim.messages import DeleteSa, ScConfig, WriteEgSc
from macsecsim.randomness import RandomSource
from macsecsim.wire import (
    EthernetFrame,
    make_sci,
    parse_frame,
)

from pipeline_fuzz import random_frame, random_state, run_equivalence_case

SW_MAC = b"\x02\x00\x00\x00\x00\x01"
PEER_MAC = b"\x02\x00\x00\x00\x00\x02"
H1 = b"\x02\x00\x00\x00\x10\x01"
H2 = b"\x02\x00\x00\x00\x10\x02"
H3 = b"\x02\x00\x00\x00\x10\x03"


def make_switch(num_ports=4, **kwargs) -> Switch:
    return Switch("s1", SW_MAC, num_ports, **kwargs)


def ether(dst=H2, src=H1, payload=b"ping"):
    return EthernetFrame(dst=dst, src=src, ether_type=0x0800, payload=payload)


def install_egress_sa(switch, port, sai=7, an=0):
    sak = Sak(bytes([sai]) * 16)
    switch.write_sa(SaEntry(sai=sai, sak=sak, an=an, sci=make_sci(switch.mac, port)))
    switch.write_eg_sc(port, sai)
    return sak


def install_ingress_sa(switch, peer_mac, peer_port, sai=8, an=0):
    sak = Sak(bytes([sai]) * 16)
    sci = make_sci(peer_mac, peer_port)
    switch.write_sa(SaEntry(sai=sai, sak=sak, an=an, sci=sci))
    switch.write_ig_sc(sai)
    return sak, sci


def test_known_pair_forwards_unchanged():
    switch = make_switch()
    switch.write_mac(H1, 1)
    switch.write_mac(H2, 2)
    result = switch.process_ingress(1, ether().to_bytes())
    assert result.kind == FORWARD
    assert result.egress_port == 2
    assert result.bytes_out == ether().to_bytes()


def test_sc_flagged_entry_protects_on_forward():
    switch = make_switch()
    sak = install_egress_sa(switch, port=2)
    switch.write_mac(H1, 1)
    switch.write_mac(H2, 2)
    result = switch.process_ingress(1, ether().to_bytes())
    assert result.kind == FORWARD and result.egress_port == 2
    protected = parse_frame(result.bytes_out)
    assert protected.ether_type == 0x88E5
    assert macsec_validate(sak, result.bytes_out) == ether().to_bytes()


def test_unknown_sci_dropped_and_counted():
    switch = make_switch()
    inner = ether()
    protected = macsec_protect(Sak(b"\x01" * 16), make_sci(PEER_MAC, 9), 1, inner.to_bytes())
    result = switch.process_ingress(1, protected)
    assert result.kind == DROP and result.drop_reason == DROP_UNKNOWN_SCI
    assert switch.counters.get("drop.unknown_sci") == 1


def test_validated_frame_with_unknown_dst_punts_cleartext():
    switch = make_switch()
    sak, sci = install_ingress_sa(switch, PEER_MAC, 1)
    protected = macsec_protect(sak, sci, 1, ether().to_bytes())
    result = switch.process_ingress(3, protected)
    assert result.kind == PACKET_IN
    assert result.packet_in.reason == REASON_MAC_MISS
    assert result.packet_in.frame_bytes == ether().to_bytes()
    assert switch.counters.get("macsec.validated") == 1


def test_lldp_punts_before_tables():
    switch = make_switch()
    raw = (
        b"\x01\x80\xc2\x00\x00\x0e" + PEER_MAC + b"\x88\xcc" + bytes(12) + bytes(4) + b"x" * 8 + bytes(16)
    )
    result = switch.process_ingress(2, raw)
    assert result.kind == PACKET_IN and result.packet_in.reason == REASON_LLDP_PUNT
    assert switch.tables.mac == {}


def test_replay_pn_dropped():
    switch = make_switch()
    sak, sci = install_ingress_sa(switch, PEER_MAC, 1)
    protected = macsec_protect(sak, sci, 5, ether().to_bytes())
    first = switch.process_ingress(3, protected)
    assert first.kind == PACKET_IN  # validated, then MAC miss
    replayed = switch.process_ingress(3, protected)
    assert replayed.kind == DROP and replayed.drop_reason == DROP_REPLAY_PN
    assert switch.counters.get("drop.replay_pn") == 1


def test_corrupted_frame_counts_integrity_failure():
    switch = make_switch()
    sak, sci = install_ingress_sa(switch, PEER_MAC, 1, sai=4)
    raw = bytearray(macsec_protect(sak, sci, 1, ether().to_bytes()))
    raw[30] ^= 0x01
    result = switch.process_ingress(3, bytes(raw))
    assert result.kind == DROP and result.drop_reason == DROP_INTEGRITY
    assert switch.counters.get("sa.4.failed") == 1
    assert switch.counters.get("macsec.validate_failed") == 1


def test_truncated_frame_dropped():
    switch = make_switch()
    result = switch.process_ingress(1, b"\x00" * 9)
    assert result.kind == DROP and result.drop_reason == DROP_TRUNCATED


def test_broadcast_floods_with_per_port_protection():
    switch = make_switch(num_ports=3)
    sak = install_egress_sa(switch, port=3)
    frame = ether(dst=b"\xff" * 6)
    result = switch.process_ingress(1, frame.to_bytes())
    assert result.kind == FLOOD
    emissions = switch.expand_flood(1, result.bytes_out)
    assert [port for port, _ in emissions] == [2, 3]
    assert parse_frame(emissions[0][1]) == frame
    protected = parse_frame(emissions[1][1])
    assert protected.ether_type == 0x88E5
    assert macsec_validate(sak, emissions[1][1]) == frame.to_bytes()


def test_packet_out_raw_is_verbatim():
    switch = make_switch()
    install_egress_sa(switch, port=2)
    sent = []
    switch.on_transmit = lambda port, data: sent.append((port, data))
    switch.packet_out(2, b"\x00" * 20)
    assert sent == [(2, b"\x00" * 20)]
    switch.packet_out(2, ether().to_bytes())  # an Ethernet frame is not protected either
    assert sent[1] == (2, ether().to_bytes())
    assert switch.counters.get("macsec.protected") == 0


def attach_controller(switch):
    """Run a local controller next to `switch`; its timers and messages are discarded."""
    return LocalController(
        switch,
        now=lambda: 0,
        schedule=lambda *args, **kwargs: None,
        send_to_central=lambda msg: True,
        rng=RandomSource(1),
    )


def test_mac_miss_flood_protects_where_sc_present():
    switch = make_switch(num_ports=3)
    sak = install_egress_sa(switch, port=2)
    sent = []
    switch.on_transmit = lambda port, data: sent.append((port, data))
    attach_controller(switch)
    switch.handle_frame(1, ether().to_bytes())  # both MACs unknown: punted and flooded
    assert len(sent) == 2
    assert sent[0][0] == 2 and macsec_validate(sak, sent[0][1]) == ether().to_bytes()
    # no EG-SC on port 3: goes out in clear
    assert sent[1] == (3, ether().to_bytes())


def test_packet_out_to_down_port_counts_drop():
    switch = make_switch()
    switch.set_port_state(2, False)
    sent = []
    switch.on_transmit = lambda port, data: sent.append((port, data))
    switch.packet_out(2, ether().to_bytes())
    assert sent == []
    assert switch.counters.get("drop.port_down") == 1


def test_table_write_direct_effect():
    switch = make_switch()
    switch.write_mac(H1, 1)
    switch.write_mac(H2, 1)
    assert switch.process_ingress(2, ether(dst=H1, src=H2).to_bytes()).egress_port == 1


def test_write_eg_sc_missing_sai_rejected():
    switch = make_switch()
    with pytest.raises(InvalidEntry):
        switch.write_eg_sc(2, 99)
    with pytest.raises(InvalidEntry):
        switch.write_ig_sc(99)
    with pytest.raises(InvalidEntry):
        switch.write_mac(H1, 77)
    with pytest.raises(InvalidEntry):
        switch.write_mac(H1[:5], 1)
    assert switch.tables.mac == {}


def test_deletes_are_idempotent():
    switch = make_switch()
    switch.delete_mac(H1)
    switch.delete_eg_sc(2)
    switch.delete_ig_sc(8)
    switch.delete_sa(5)


# Small key spaces, so a sequence often rewrites or deletes the same row;
# the 7-byte SCI, 5-byte MAC, AN -1 and 4, ports 0 and 5 and SAIs with no SA
# make writes that must be refused.
SCIS = [make_sci(PEER_MAC, 1), make_sci(PEER_MAC, 2), b"\x00" * 7]
MACS = [H1, H2, H1[:5]]
SAIS, ANS, PORTS = st.integers(1, 5), st.integers(-1, 4), st.integers(0, 5)
TABLE_OPS = st.one_of(
    st.tuples(st.just("write_sa"), SAIS, ANS, st.sampled_from(SCIS)),
    st.tuples(st.just("delete_sa"), SAIS),
    st.tuples(st.just("write_eg_sc"), PORTS, SAIS),
    st.tuples(st.just("delete_eg_sc"), PORTS),
    st.tuples(st.just("write_ig_sc"), SAIS),
    st.tuples(st.just("delete_ig_sc"), SAIS),
    st.tuples(st.just("write_mac"), st.sampled_from(MACS), PORTS),
    st.tuples(st.just("delete_mac"), st.sampled_from(MACS)),
)


def apply_table_op(switch, op):
    name, *args = op
    if name == "write_sa":
        sai, an, sci = args
        return switch.write_sa(SaEntry(sai=sai, sak=Sak(bytes([sai]) * 16), an=an, sci=sci))
    return getattr(switch, name)(*args)


def table_op_is_valid(switch, op) -> bool:
    name, *args = op
    if name == "write_sa":
        sai, an, sci = args
        return 0 <= an <= 3 and len(sci) == 8 and sai not in switch.tables.sa
    if name == "write_eg_sc":
        port, sai = args
        return port in switch.ports_up and sai in switch.tables.sa
    if name == "write_ig_sc":
        return args[0] in switch.tables.sa
    if name == "write_mac":
        mac, port = args
        return port in switch.ports_up and len(mac) == 6
    return True


def table_rows(switch) -> dict:
    t = switch.tables
    return {"mac": dict(t.mac), "eg_sc": dict(t.eg_sc), "ig_sc": dict(t.ig_sc), "sa": dict(t.sa)}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(TABLE_OPS, max_size=12), st.lists(TABLE_OPS, max_size=12))
# SA 1's delete finds its (SCI, AN) row naming SA 2, and keeps it.
@example([("write_sa", 1, 0, SCIS[0]), ("write_sa", 2, 0, SCIS[0]), ("write_ig_sc", 2)], [("delete_ig_sc", 1)])
def test_restore_undoes_any_sequence_of_table_writes(setup_ops, ops):
    switch = make_switch()
    for op in setup_ops:
        if table_op_is_valid(switch, op):
            apply_table_op(switch, op)
    start = table_rows(switch)
    undo = []
    for op in ops:
        if table_op_is_valid(switch, op):
            undo.append(apply_table_op(switch, op))
        else:
            before = table_rows(switch)
            with pytest.raises(InvalidEntry):
                apply_table_op(switch, op)
            assert table_rows(switch) == before
    switch.restore(undo)
    assert table_rows(switch) == start


def test_delete_ig_sc_keeps_a_row_that_names_another_sai():
    """An older generation's delete leaves the row a newer one wrote under the same (SCI, AN)."""
    switch = make_switch()
    _, sci = install_ingress_sa(switch, PEER_MAC, 3, sai=8, an=1)
    install_ingress_sa(switch, PEER_MAC, 3, sai=12, an=1)
    undo = switch.delete_ig_sc(8)
    assert switch.tables.ig_sc == {(sci, 1): 12}
    switch.restore([undo])
    assert switch.tables.ig_sc == {(sci, 1): 12}
    switch.delete_ig_sc(12)
    assert switch.tables.ig_sc == {}


@pytest.mark.parametrize("an", [-1, 4, 5])
def test_delete_ig_sc_rejects_an_outside_0_to_3_before_touching_the_table(an):
    """delete_ig_sc reads its AN from the SA, and an SA with an AN outside 0..3 is never built."""
    switch = make_switch()
    _, sci = install_ingress_sa(switch, PEER_MAC, 3, sai=8, an=an & 3)
    with pytest.raises(InvalidEntry):
        switch.write_sa(SaEntry(sai=9, sak=Sak(b"\x09" * 16), an=an, sci=sci))
    switch.delete_ig_sc(9)  # AN 5 once masked to 1 and deleted that row
    assert switch.tables.ig_sc == {(sci, an & 3): 8}


def test_delete_ig_sc_of_a_missing_sa_deletes_nothing():
    switch = make_switch()
    _, sci = install_ingress_sa(switch, PEER_MAC, 3, sai=8, an=1)
    switch.delete_sa(8)  # the row now names an absent SA
    undo = switch.delete_ig_sc(8)
    assert switch.tables.ig_sc == {(sci, 1): 8}
    switch.restore([undo])
    assert switch.tables.ig_sc == {(sci, 1): 8} and switch.tables.sa == {}


def test_sa_keyed_protection_uses_selected_sak():
    switch = make_switch()
    sak = install_egress_sa(switch, port=2, sai=7)
    switch.write_mac(H1, 1)
    switch.write_mac(H2, 2)
    out = switch.process_ingress(1, ether().to_bytes())
    assert macsec_validate(sak, out.bytes_out) == ether().to_bytes()
    assert switch.counters.get("sa.7.protected") == 1


def test_port_events_are_edge_triggered():
    switch = make_switch()
    events = []
    switch.on_port_event = lambda port, up: events.append((port, up))
    switch.set_port_state(1, False)
    switch.set_port_state(1, False)
    switch.set_port_state(1, True)
    assert events == [(1, False), (1, True)]


def test_a_switch_with_no_hook_wired_does_every_step():
    """An unwired hook does nothing: a bare switch forwards, floods, punts
    LLDP, protects at its PN ceiling and flaps a port without one."""
    switch = make_switch(num_ports=3, pn_ceiling=1)
    install_egress_sa(switch, port=2, sai=3)
    switch.write_mac(H1, 1)
    switch.write_mac(H2, 2)
    assert switch.handle_frame(1, ether().to_bytes()).kind == FORWARD  # spends PN 1, the ceiling
    assert switch.handle_frame(1, ether(dst=b"\xff" * 6).to_bytes()).kind == FLOOD
    lldp = b"\x01\x80\xc2\x00\x00\x0e" + PEER_MAC + b"\x88\xcc" + bytes(12) + bytes(4) + b"x" * 8 + bytes(16)
    assert switch.handle_frame(3, lldp).kind == PACKET_IN
    switch.set_port_state(3, False)
    switch.set_port_state(3, True)
    assert switch.ports_up[3]
    assert switch.counters.get("sa.3.protected") == 1
    assert switch.counters.get("drop.pn_exhausted") == 1  # the flood's copy to port 2
    assert switch.tx == [0, 0, 1, 1]


def test_egress_pn_strictly_monotonic():
    switch = make_switch()
    install_egress_sa(switch, port=2, sai=3)
    switch.write_mac(H1, 1)
    switch.write_mac(H2, 2)
    pns = []
    for _ in range(5):
        out = switch.process_ingress(1, ether().to_bytes())
        pns.append(parse_frame(out.bytes_out).sec_tag.packet_number)
    assert pns == [1, 2, 3, 4, 5]
    assert switch.tables.sa[3].next_pn == 6


def _forward(switch):
    result = switch.process_ingress(1, ether().to_bytes())
    return [(result.egress_port, result.bytes_out)] if result.kind == FORWARD else []


def _flood(switch):
    return switch.expand_flood(1, ether(dst=b"\xff" * 6).to_bytes())


def _mac_miss_flood(switch):
    # H3 is unknown: the miss punts to the controller, which floods it.
    sent = []
    switch.on_transmit = lambda port, data: sent.append((port, data))
    switch.handle_frame(1, ether(dst=H3).to_bytes())
    return sent


# The three routes out of a switch; each returns the (port, bytes) emitted.
EGRESS_ROUTES = {"forward": _forward, "flood": _flood, "mac_miss_flood": _mac_miss_flood}


def egress_switch(**kwargs):
    """Two ports, host H1 on port 1, H2 behind a protected port 2 (SAI 3),
    and a local controller."""
    switch = make_switch(num_ports=2, **kwargs)
    attach_controller(switch)
    install_egress_sa(switch, port=2, sai=3)
    switch.write_mac(H1, 1)
    switch.write_mac(H2, 2)
    return switch


@pytest.mark.parametrize("route", sorted(EGRESS_ROUTES))
def test_pn_exhaustion_fails_closed_and_signals_rekey(route):
    send = EGRESS_ROUTES[route]
    switch = egress_switch(pn_ceiling=2)
    rekeys = []
    switch.on_rekey_needed = lambda sai, sci: rekeys.append(sai)
    for pn in (1, 2):
        [(port, out)] = send(switch)
        assert port == 2 and parse_frame(out).sec_tag.packet_number == pn
    assert switch.counters.get("macsec.protected") == 2
    assert switch.counters.get("sa.3.protected") == 2
    assert rekeys == [3]  # signalled once, on consuming the last PN
    assert send(switch) == []
    assert switch.counters.get("drop.pn_exhausted") == 1
    assert rekeys == [3]
    assert switch.counters.get("macsec.protected") == 2


@pytest.mark.parametrize("route", sorted(EGRESS_ROUTES))
def test_eg_sc_row_without_sa_fails_closed(route):
    switch = egress_switch()
    switch.delete_sa(3)
    assert EGRESS_ROUTES[route](switch) == []
    assert switch.counters.get("drop.no_egress_sc") == 1
    assert switch.counters.get("macsec.protected") == 0


def test_set_port_macsec_flag_rewrites_entries():
    """A port's MACsec flag is its EG-SC row: writing or deleting the row
    switches every MAC entry on that port, and only that port, without
    touching the MAC table."""
    switch = make_switch()
    switch.write_mac(H1, 2)
    switch.write_mac(H2, 3)
    switch.write_mac(H3, 1)

    def forwarded(dst):
        result = switch.process_ingress(1, ether(dst=dst, src=H3).to_bytes())
        assert result.kind == FORWARD
        return result.bytes_out

    sak = install_egress_sa(switch, port=2)
    assert macsec_validate(sak, forwarded(H1)) == ether(dst=H1, src=H3).to_bytes()
    assert forwarded(H2) == ether(dst=H2, src=H3).to_bytes()
    switch.delete_eg_sc(2)
    assert forwarded(H1) == ether(dst=H1, src=H3).to_bytes()
    assert switch.tables.mac == {H1: 2, H2: 3, H3: 1}


def test_pipeline_equivalence_sample():
    rng = random.Random(0xDA7A)
    for _ in range(500):
        run_equivalence_case(rng)


def _fuzz_switch(tables, ports_up, pn_ceiling):
    """A switch over copies of the fuzz state that records what its hooks see."""
    switch = Switch("fuzz", b"\x02\x00\x00\x00\x00\xff", len(ports_up), pn_ceiling=pn_ceiling)
    switch.tables = copy.deepcopy(tables)
    switch.ports_up = dict(ports_up)
    switch.seen = []
    switch.on_transmit = lambda port, data: switch.seen.append(("transmit", port, data))
    switch.on_packet_in = lambda packet_in: switch.seen.append(("packet_in", packet_in))
    switch.on_protect = lambda key, sci, pn: switch.seen.append(("protect", key, sci, pn))
    switch.on_rekey_needed = lambda sai, sci: switch.seen.append(("rekey", sai, sci))
    return switch


def test_handle_frame_does_what_process_ingress_and_expand_flood_say():
    """`handle_frame` on one switch against `process_ingress` on a twin, over
    the fuzz corpus: the same result, PN state and counters, plus the ingress
    port's rx, and as emissions the forwarded frame or the flood's fan-out,
    each counted as tx on an up port and as `drop.port_down` on a down one."""
    rng = random.Random(0xF0E1)
    kinds = Counter()
    for _ in range(600):
        tables, ports_up, known_macs, pn_ceiling = random_state(rng)
        data = random_frame(rng, tables, known_macs)
        ingress = rng.randrange(1, len(ports_up) + 1)
        switch = _fuzz_switch(tables, ports_up, pn_ceiling)
        twin = _fuzz_switch(tables, ports_up, pn_ceiling)

        result = switch.handle_frame(ingress, data)
        expected = twin.process_ingress(ingress, data)
        assert result == expected, data.hex()
        kinds[result.kind] += 1

        counts = Counter({f"port.{ingress}.rx": 1})
        emissions = []
        if expected.kind == FORWARD:
            emissions = [(expected.egress_port, expected.bytes_out)]
        elif expected.kind == FLOOD:
            emissions = twin.expand_flood(ingress, expected.bytes_out)
        elif expected.kind == PACKET_IN:
            twin.seen.append(("packet_in", expected.packet_in))
        for port, out in emissions:
            if ports_up[port]:
                twin.seen.append(("transmit", port, out))
                counts[f"port.{port}.tx"] += 1
            else:
                counts["drop.port_down"] += 1
        counts.update(twin.counters.as_dict())
        assert switch.counters.as_dict() == dict(counts), data.hex()
        assert switch.seen == twin.seen, data.hex()
        assert {k: (v.next_pn, v.lowest_acceptable_pn) for k, v in switch.tables.sa.items()} == {
            k: (v.next_pn, v.lowest_acceptable_pn) for k, v in twin.tables.sa.items()
        }
    assert set(kinds) == {FORWARD, FLOOD, PACKET_IN, DROP}


def _minimal_frame(kind, switch):
    """The shortest valid MACsec or sealed-LLDP frame (46 B) that `switch` accepts."""
    if kind == "macsec":
        sak, sci = install_ingress_sa(switch, PEER_MAC, 1)
        return macsec_protect(sak, sci, 1, ether(payload=b"").to_bytes())
    return b"\x01\x80\xc2\x00\x00\x0e" + PEER_MAC + b"\x88\xcc" + bytes(12) + bytes(4) + bytes(16)


@pytest.mark.parametrize("kind", ["macsec", "lldp"])
def test_minimum_length_boundary(kind):
    switch = make_switch()
    raw = _minimal_frame(kind, switch)
    assert len(raw) == 46
    result = switch.process_ingress(3, raw)
    assert result.kind == PACKET_IN
    assert switch.counters.get("drop.truncated") == 0
    result = switch.process_ingress(3, raw[:45])
    assert result.kind == DROP and result.drop_reason == DROP_TRUNCATED
    assert switch.counters.get("drop.truncated") == 1


def test_validated_frame_with_inner_lldp_punts():
    switch = make_switch()
    sak, sci = install_ingress_sa(switch, PEER_MAC, 1)
    switch.write_mac(H1, 1)
    switch.write_mac(H2, 2)
    inner = EthernetFrame(dst=H2, src=H1, ether_type=0x88CC, payload=b"short")
    result = switch.process_ingress(3, macsec_protect(sak, sci, 1, inner.to_bytes()))
    assert result.kind == PACKET_IN and result.packet_in.reason == REASON_LLDP_PUNT
    assert result.packet_in.frame_bytes == inner.to_bytes()
    assert switch.counters.get("macsec.validated") == 1


@pytest.mark.parametrize("ether_type", [b"\x88\xe5", b"\x88\xcc"])
@pytest.mark.parametrize("route", ["flood", "switch_flood"])
def test_macsec_and_lldp_typed_frames_leave_unprotected(route, ether_type):
    # The controller floods only Ethernet-typed frames, so `Switch.flood`,
    # the path its MAC-miss flood takes, stands for it here.
    switch = make_switch(num_ports=2)
    install_egress_sa(switch, port=2)
    raw = b"\xff" * 6 + H1 + ether_type + bytes(40)
    if route == "flood":
        assert switch.expand_flood(1, raw) == [(2, raw)]
    else:
        sent = []
        switch.on_transmit = lambda port, data: sent.append((port, data))
        switch.flood(1, raw)
        assert sent == [(2, raw)]
    assert switch.counters.get("macsec.protected") == 0


def test_an_exhausted_sa_signals_rekey_only_once():
    switch = egress_switch(pn_ceiling=1)
    rekeys = []
    switch.on_rekey_needed = lambda sai, sci: rekeys.append(sai)
    assert _forward(switch)
    for _ in range(3):
        assert _forward(switch) == []
    assert switch.counters.get("drop.pn_exhausted") == 3
    assert rekeys == [3]


def sa_counts(switch, sai):
    counts = switch.counters.as_dict()
    return {kind: counts.get(f"sa.{sai}.{kind}", 0) for kind in ("validated", "failed", "protected")}


def _receive(switch, sak, sci, pn, corrupt=False):
    raw = bytearray(macsec_protect(sak, sci, pn, ether().to_bytes()))
    if corrupt:
        raw[30] ^= 0x01
    return switch.process_ingress(3, bytes(raw))


def test_a_deleted_sas_counts_leave_with_its_entry():
    switch = egress_switch()  # egress SA 3 on port 2
    sak, sci = install_ingress_sa(switch, PEER_MAC, 1, sai=8)
    for pn in (1, 2):
        assert _forward(switch)
        assert _receive(switch, sak, sci, pn).kind == FORWARD  # validated, then protected to H2
    _receive(switch, sak, sci, 3, corrupt=True)
    assert sa_counts(switch, 3)["protected"] == 4
    assert sa_counts(switch, 8) == {"validated": 2, "failed": 1, "protected": 0}
    switch.delete_sa(3)
    switch.delete_sa(8)
    counts = switch.counters.as_dict()
    # No `sa.*` name outlives its SA; the switch totals keep every frame.
    assert {k: v for k, v in counts.items() if k.startswith(("sa.", "macsec."))} == {
        "macsec.protected": 4,
        "macsec.validate_failed": 1,
        "macsec.validated": 2,
    }
    switch.delete_sa(3)  # deleting again changes nothing
    assert switch.counters.as_dict() == counts


def test_a_rolled_back_sa_delete_neither_loses_nor_double_counts():
    switch = egress_switch()
    controller = attach_controller(switch)
    for _ in range(2):
        assert _forward(switch)
    # The batch deletes SA 3, then fails on its EG-SC write; the switch rolls it back.
    controller.handle_sc_config(ScConfig(batch_id=None, ops=[DeleteSa(sai=3), WriteEgSc(port=2, sai=99)]))
    assert switch.counters.get("sc_config.nack") == 1 and 3 in switch.tables.sa
    assert sa_counts(switch, 3)["protected"] == 2
    assert _forward(switch)
    assert sa_counts(switch, 3)["protected"] == 3
    assert switch.counters.get("macsec.protected") == 3
    assert parse_frame(_forward(switch)[0][1]).sec_tag.packet_number == 4


def test_write_sa_over_an_existing_sai_keeps_the_old_entrys_counts():
    """A write never replaces a live SA: it is refused, and the held entry
    keeps its counts and its next PN."""
    switch = egress_switch()
    for _ in range(2):
        assert _forward(switch)
    old = switch.tables.sa[3]
    with pytest.raises(InvalidEntry, match="^SAI 3 already held$"):
        switch.write_sa(SaEntry(sai=3, sak=Sak(b"\x33" * 16), an=1, sci=old.sci))
    assert switch.tables.sa[3] is old
    assert sa_counts(switch, 3)["protected"] == 2
    assert parse_frame(_forward(switch)[0][1]).sec_tag.packet_number == 3
    assert sa_counts(switch, 3)["protected"] == 3
    assert switch.counters.get("macsec.protected") == 3


def test_undoing_an_sa_write_keeps_the_counts_made_meanwhile():
    switch = egress_switch()
    sci = switch.tables.sa[3].sci
    undo = [switch.write_sa(SaEntry(sai=4, sak=Sak(b"\x44" * 16), an=1, sci=sci)), switch.write_eg_sc(2, 4)]
    assert _forward(switch)
    switch.restore(undo)
    assert 4 not in switch.tables.sa and switch.tables.eg_sc[2] == 3
    assert sa_counts(switch, 4)["protected"] == 0  # the undone SA's count left with it
    assert _forward(switch)
    assert sa_counts(switch, 3)["protected"] == 1
    assert switch.counters.get("macsec.protected") == 2
