import random
import typing

import pytest

from macsecsim.crypto import LldpKey, Sak, lldp_seal, macsec_protect, macsec_validate
from macsecsim.dataplane import (
    REASON_MAC_MISS,
    PacketIn,
    SaEntry,
    Switch,
)
from macsecsim.local_controller import LocalController
from macsecsim.messages import (
    DeleteEgSc,
    DeleteIgSc,
    DeleteSa,
    KeyInstall,
    LinkDelta,
    ScAck,
    ScConfig,
    ScOp,
    StartDiscovery,
    WriteEgSc,
    WriteIgSc,
    WriteSa,
)
from macsecsim.randomness import RandomSource
from macsecsim.netsim import build
from macsecsim.topology import chain_spec
from macsecsim.wire import (
    ETHERTYPE_MACSEC,
    LLDP_MULTICAST,
    LLDP_NONCE_OFFSET,
    LLDP_SEALED_OFFSET,
    LLDP_SEQ_OFFSET,
    EthernetFrame,
    Lldpdu,
    mac_from_str,
)

SW_MAC = mac_from_str("02:00:00:00:00:01")
PEER_MAC = mac_from_str("02:00:00:00:00:02")
H1 = mac_from_str("02:00:00:00:10:01")
H2 = mac_from_str("02:00:00:00:10:02")
H3 = mac_from_str("02:00:00:00:10:03")

KEY = LldpKey(key=bytes(range(16)), key_id=1)


class Harness:
    def __init__(self, chassis="s1", num_ports=4, interval_us=30_000_000):
        self.time_us = 0
        self.scheduled = []
        self.sent = []
        self.transmitted = []
        self.switch = Switch(chassis, SW_MAC, num_ports)
        self.switch.on_transmit = lambda port, data: self.transmitted.append((port, data))
        self.ctl = LocalController(
            self.switch,
            now=lambda: self.time_us,
            schedule=lambda delay_us, fn, *args, housekeeping=False: self.scheduled.append(
                (delay_us, fn, args, housekeeping)
            ),
            send_to_central=self._send,
            rng=RandomSource(42),
            discovery_interval_us=interval_us,
        )

    def _send(self, msg):
        self.sent.append(msg)

    def start(self, key=KEY):
        self.ctl.deliver(KeyInstall(key=key))
        self.ctl.deliver(StartDiscovery())

    def probe_from_peer(self, port=2, *, seq, chassis=b"s2", remote_port=7, key=KEY, nonce=None):
        nonce = nonce if nonce is not None else random.Random(seq).randbytes(12)
        data = lldp_seal(
            key, nonce, seq, Lldpdu(chassis_id=chassis, port_id=remote_port).encode(),
            src=PEER_MAC, dst=LLDP_MULTICAST,
        )
        self.ctl.handle_packet_in(PacketIn(port, data, "lldp_punt"))

    def deltas(self):
        return [m for m in self.sent if isinstance(m, LinkDelta)]


def mac_miss(src=H1, dst=H2, port=1, payload=b"x"):
    frame = EthernetFrame(dst=dst, src=src, ether_type=0x0800, payload=payload)
    return PacketIn(port, frame.to_bytes(), REASON_MAC_MISS)


# -- MAC learning -------------------------------------------------------------


def test_first_miss_learns_and_floods():
    h = Harness()
    h.ctl.handle_packet_in(mac_miss(src=H1, port=1))
    assert h.switch.tables.mac[H1] == 1
    assert [port for port, _ in h.transmitted] == [2, 3, 4]


def test_duplicate_miss_does_not_rewrite(monkeypatch):
    h = Harness()
    writes = []
    write_mac = h.switch.write_mac

    def counting_write_mac(mac, port):
        writes.append((mac, port))
        write_mac(mac, port)

    monkeypatch.setattr(h.switch, "write_mac", counting_write_mac)
    h.ctl.handle_packet_in(mac_miss(src=H1, port=1))
    h.ctl.handle_packet_in(mac_miss(src=H1, port=1))
    assert writes == [(H1, 1)]
    assert h.switch.tables.mac == {H1: 1}
    assert h.switch.counters.get("learning.learned") == 1


def test_station_move_updates_entry():
    h = Harness()
    h.ctl.handle_packet_in(mac_miss(src=H1, port=1))
    h.ctl.handle_packet_in(mac_miss(src=H1, port=2))
    assert h.switch.tables.mac[H1] == 2


def test_learned_flag_follows_egress_channel():
    """A host learned on a port with an EG-SC row is sent protected; one
    learned on a port without is sent in the clear.  The secured port itself
    takes no cleartext in."""
    h = Harness()
    sak = Sak(b"\x01" * 16)
    h.switch.write_sa(SaEntry(sai=1, sak=sak, an=0, sci=b"\x00" * 8))
    h.switch.write_eg_sc(1, 1)
    for src, port in ((H1, 1), (H2, 2), (H3, 3)):
        h.ctl.handle_packet_in(mac_miss(src=src, port=port))
    assert h.switch.tables.mac == {H1: 1, H2: 2, H3: 3}
    for src, dst, port in ((H2, H1, 2), (H3, H2, 3), (H1, H2, 1)):
        plain = EthernetFrame(dst=dst, src=src, ether_type=0x0800, payload=b"data").to_bytes()
        h.transmitted.clear()
        h.switch.handle_frame(port, plain)
        if port == 1:
            assert h.transmitted == [] and h.switch.counters.get("drop.untagged") == 1
        elif dst == H1:
            [(_, data)] = h.transmitted
            assert macsec_validate(sak, data) == plain
        else:
            assert h.transmitted == [(2, plain)]


def test_forwarding_follows_the_egress_channel():
    """A port is secured exactly while it holds an EG-SC row, so a host
    learned before the install or after it needs no rewrite of its entry."""
    h = Harness()
    h.ctl.handle_packet_in(mac_miss(src=H1, dst=H2, port=1))
    h.ctl.handle_packet_in(mac_miss(src=H2, dst=H1, port=2))

    def send(dst):
        plain = EthernetFrame(dst=dst, src=H1, ether_type=0x0800, payload=b"data").to_bytes()
        h.transmitted.clear()
        h.switch.handle_frame(1, plain)
        [(port, data)] = h.transmitted
        assert port == 2
        return plain, data

    plain, data = send(H2)
    assert data == plain
    h.ctl.deliver(_install_batch(port=2, sai=11))
    h.ctl.handle_packet_in(mac_miss(src=H3, dst=H1, port=2))  # learned on a secured port
    for dst in (H2, H3):
        plain, data = send(dst)
        assert data[12:14] == b"\x88\xe5" and macsec_validate(Sak(b"\x09" * 16), data) == plain
    h.ctl.deliver(ScConfig(batch_id=None, ops=[DeleteEgSc(port=2), DeleteSa(sai=11)]))
    for dst in (H2, H3):
        plain, data = send(dst)
        assert data == plain
    assert h.switch.tables.mac == {H1: 1, H2: 2, H3: 2}


def test_mlf_matches_reference_learning_switch():
    rng = random.Random(99)
    h = Harness(num_ports=5)
    reference: dict[bytes, int] = {}
    macs = [bytes([0x02, 0, 0, 0, 0, i]) for i in range(1, 9)]
    for _ in range(300):
        src, dst = rng.choice(macs), rng.choice(macs)
        port = rng.randrange(1, 6)
        h.ctl.handle_packet_in(mac_miss(src=src, dst=dst, port=port))
        reference[src] = port
        assert h.switch.tables.mac == reference


def test_mac_miss_of_a_macsec_typed_inner_frame_learns_and_floods_nothing():
    h = Harness()
    sak, sci = Sak(b"\x05" * 16), PEER_MAC + b"\x00\x07"
    h.switch.write_sa(SaEntry(sai=1, sak=sak, an=0, sci=sci))
    h.switch.write_ig_sc(1)
    inner = EthernetFrame(dst=H2, src=H1, ether_type=ETHERTYPE_MACSEC, payload=bytes(40))
    result = h.switch.handle_frame(2, macsec_protect(sak, sci, 1, inner))
    assert result.packet_in.reason == REASON_MAC_MISS  # validated, then an unknown unicast destination
    assert h.switch.tables.mac == {}
    assert h.transmitted == []
    assert h.switch.counters.get("learning.learned") == 0


def test_deleted_mac_entry_is_learned_again():
    sim = build(chain_spec(2), seed=1)
    sim.quiesce()
    h1, h2 = sim.hosts["h1"].mac, sim.hosts["h2"].mac
    s1 = sim.switches["s1"]
    sim.host_send("h1", h2, 0x0800, b"ping")
    sim.host_send("h2", h1, 0x0800, b"pong")
    sim.quiesce()
    assert s1.counters.get("learning.learned") == 2
    port = s1.tables.mac[h1]
    s1.delete_mac(h1)
    for _ in range(3):
        sim.host_send("h1", h2, 0x0800, b"again")
        sim.quiesce()
    assert s1.tables.mac[h1] == port
    assert s1.counters.get("learning.learned") == 3
    assert len(sim.host_recv("h2")) == 4


# -- link discovery ------------------------------------------------------------


def test_emit_round_probes_every_up_port():
    h = Harness(num_ports=3)
    h.start()
    assert len(h.transmitted) == 3
    frames = [data for _, data in h.transmitted]
    assert all(data[:6] == LLDP_MULTICAST for data in frames)
    assert len({data[LLDP_NONCE_OFFSET:LLDP_SEQ_OFFSET] for data in frames}) == 3
    seqs = [int.from_bytes(data[LLDP_SEQ_OFFSET:LLDP_SEALED_OFFSET], "big") for data in frames]
    assert seqs == [seqs[0], seqs[0] + 1, seqs[0] + 2]
    # round re-arms itself on the discovery interval as a housekeeping timer
    assert h.scheduled[-1][0] == 30_000_000 and h.scheduled[-1][3] is True


def test_emit_round_all_ports_down():
    h = Harness()
    for port in list(h.switch.ports_up):
        h.switch.ports_up[port] = False
    h.start()
    assert h.transmitted == []


def test_round_without_key_counts_and_reschedules():
    h = Harness()
    h.ctl.deliver(StartDiscovery())
    assert h.transmitted == []
    assert h.switch.counters.get("discovery.no_key") == 1
    assert len(h.scheduled) == 1


def test_second_start_discovery_arms_no_second_timer():
    h = Harness()
    h.start()
    probes = len(h.transmitted)
    h.ctl.deliver(StartDiscovery())
    assert len(h.scheduled) == 1
    assert len(h.transmitted) == probes


def test_accept_updates_view_and_reports_once():
    h = Harness()
    h.start()
    h.probe_from_peer(port=2, seq=50)
    assert h.ctl.local_view[2] == ("s2", 7)
    deltas = h.deltas()
    assert deltas == [LinkDelta("s1", 2, ("s2", 7))]
    # refresh with a higher seq: view unchanged, no second delta
    h.probe_from_peer(port=2, seq=51)
    assert len(h.deltas()) == 1


def test_replayed_seq_rejected():
    h = Harness()
    h.start()
    h.probe_from_peer(port=2, seq=50)
    h.probe_from_peer(port=2, seq=50)
    h.probe_from_peer(port=2, seq=49)
    assert h.switch.counters.get("discovery.replayed_seq") == 2
    assert len(h.deltas()) == 1


def test_the_replay_floor_is_per_sender():
    """Each switch numbers its probes from its own boot_seq, so an accepted
    probe from another switch must not lock out the neighbour's lower seqs."""
    h = Harness()
    h.start()
    h.probe_from_peer(port=2, seq=500, chassis=b"s3", remote_port=1)  # e.g. replayed from another link
    h.probe_from_peer(port=2, seq=60)
    assert h.ctl.local_view[2] == ("s2", 7)
    assert h.switch.counters.get("discovery.replayed_seq") == 0
    h.probe_from_peer(port=2, seq=500, chassis=b"s3", remote_port=1)
    assert h.switch.counters.get("discovery.replayed_seq") == 1
    assert h.ctl.local_view[2] == ("s2", 7)
    assert h.deltas() == [LinkDelta("s1", 2, ("s3", 1)), LinkDelta("s1", 2, ("s2", 7))]


def test_attacker_key_rejected():
    h = Harness()
    h.start()
    h.probe_from_peer(port=2, seq=50, key=LldpKey(key=b"\x66" * 16, key_id=9))
    assert h.switch.counters.get("discovery.integrity_failure") == 1
    assert h.ctl.local_view == {}
    assert h.deltas() == []


def test_sealed_probe_that_is_not_an_lldpdu_is_a_decode_failure():
    h = Harness()
    h.start()
    data = lldp_seal(KEY, b"\x01" * 12, 50, b"\x00\x00 not an LLDPDU", src=PEER_MAC, dst=LLDP_MULTICAST)
    h.ctl.handle_packet_in(PacketIn(2, data, "lldp_punt"))
    assert h.switch.counters.get("discovery.decode_failure") == 1
    assert h.ctl.local_view == {}
    assert h.deltas() == []


def test_probe_with_a_non_utf8_chassis_id_is_a_decode_failure():
    h = Harness()
    h.start()
    h.probe_from_peer(port=2, seq=50, chassis=b"\xff\xfe")
    assert h.switch.counters.get("discovery.decode_failure") == 1
    assert h.ctl.local_view == {}
    assert h.deltas() == []


def test_own_chassis_reflection_ignored():
    h = Harness()
    h.start()
    h.probe_from_peer(port=2, seq=50, chassis=b"s1")
    assert h.ctl.local_view == {}
    assert h.switch.counters.get("discovery.reflected") == 1


def test_rotation_grace_accepts_previous_key():
    h = Harness()
    h.start()
    new_key = LldpKey(key=b"\x44" * 16, key_id=2)
    h.ctl.deliver(KeyInstall(key=new_key))
    h.probe_from_peer(port=2, seq=50, key=KEY)  # sealed under the old key
    assert h.ctl.local_view[2] == ("s2", 7)
    # after one discovery interval the old key is gone
    h.time_us += 30_000_000
    h.probe_from_peer(port=3, seq=51, key=KEY)
    assert h.switch.counters.get("discovery.integrity_failure") == 1
    h.probe_from_peer(port=3, seq=52, key=new_key)
    assert h.ctl.local_view[3] == ("s2", 7)


def test_port_down_invalidates_and_reports():
    h = Harness()
    h.start()
    h.probe_from_peer(port=2, seq=50)
    h.switch.set_port_state(2, False)
    assert 2 not in h.ctl.local_view
    assert 2 not in h.ctl.rx_seq
    assert h.deltas()[-1] == LinkDelta("s1", 2, None)


def test_port_down_on_undiscovered_port_is_silent():
    h = Harness()
    h.start()
    before = len(h.deltas())
    h.switch.set_port_state(3, False)
    assert len(h.deltas()) == before


def test_port_up_sends_targeted_probe():
    h = Harness()
    h.start()
    h.switch.set_port_state(2, False)
    sent_before = len(h.transmitted)
    h.switch.set_port_state(2, True)
    assert len(h.transmitted) == sent_before + 1
    assert h.transmitted[-1][1][12:14] == b"\x88\xcc"


def test_stale_view_entries_expire_after_three_intervals():
    h = Harness()
    h.start()
    h.probe_from_peer(port=2, seq=50)
    h.time_us = 91_000_000  # just past 3 * 30 s
    h.ctl.discovery_round()
    assert 2 not in h.ctl.local_view
    assert h.deltas()[-1] == LinkDelta("s1", 2, None)
    assert h.switch.counters.get("discovery.expired") == 1


# -- MACsec table agent -----------------------------------------------------------


def test_every_op_has_a_handler_and_every_handler_an_op():
    assert set(typing.get_args(ScOp)) == set(LocalController._OP_HANDLERS)


def _install_batch(port=2, sai=11, an=0):
    sci = b"\x02\x00\x00\x00\x00\x02\x00\x07"
    return ScConfig(
        batch_id=5,
        ops=[
            WriteSa(sai=sai, an=an, sak=Sak(b"\x09" * 16), sci=sci),
            WriteEgSc(port=port, sai=sai),
        ],
    )


def test_sc_config_applies_and_acks():
    h = Harness()
    h.ctl.deliver(_install_batch(port=2, sai=11))
    assert h.switch.tables.eg_sc[2] == 11
    acks = [m for m in h.sent if isinstance(m, ScAck)]
    assert acks == [ScAck("s1", 5, True)]


def test_sc_config_bad_batch_nacked_and_unapplied():
    h = Harness()
    cfg = ScConfig(batch_id=6, ops=[WriteEgSc(port=2, sai=123)])
    h.ctl.deliver(cfg)
    acks = [m for m in h.sent if isinstance(m, ScAck)]
    assert len(acks) == 1 and acks[0].ok is False
    assert h.switch.tables.eg_sc == {}


@pytest.mark.parametrize(
    "bad_op",
    [
        WriteEgSc(port=99, sai=1),
        WriteSa(sai=2, an=7, sak=Sak(b"\x02" * 16), sci=b"\x00" * 8),
        WriteSa(sai=2, an=0, sak=Sak(b"\x02" * 16), sci=b"\x00" * 7),
        WriteIgSc(sai=99),
        WriteIgSc(sai=9),  # its SA was deleted earlier in the batch
        object(),
    ],
    ids=["eg_sc_port", "sa_an", "sa_sci", "ig_sc_missing_sa", "ig_sc_deleted_sa", "not_an_op"],
)
def test_sc_config_batch_is_all_or_nothing(bad_op):
    h = _run_failing_batch(bad_op, batch_id=7)
    acks = [m for m in h.sent if isinstance(m, ScAck)]
    assert len(acks) == 1 and acks[0].ok is False


def test_untracked_failing_batch_is_undone_and_sends_nothing():
    h = _run_failing_batch(WriteEgSc(port=99, sai=1), batch_id=None)
    assert h.sent == []


def _run_failing_batch(bad_op, *, batch_id):
    """Writes, overwrites and deletes of existing rows, then `bad_op`: the
    four tables must come back exactly as they were."""
    h = Harness()
    old_sci = b"\x11" * 8
    h.switch.write_mac(H1, 2)
    h.switch.write_mac(H2, 3)
    h.switch.write_sa(SaEntry(sai=9, sak=Sak(b"\x09" * 16), an=1, sci=old_sci))
    h.switch.write_ig_sc(9)
    h.switch.write_eg_sc(3, 9)
    tables = h.switch.tables
    before = (dict(tables.mac), dict(tables.eg_sc), dict(tables.ig_sc), dict(tables.sa))
    cfg = ScConfig(
        batch_id=batch_id,
        ops=[
            WriteSa(sai=1, an=1, sak=Sak(b"\x01" * 16), sci=old_sci),
            WriteIgSc(sai=1),  # overwrites SA 9's row, deleted below
            WriteEgSc(port=2, sai=1),
            DeleteIgSc(sai=9),  # keeps the row, which now names SA 1
            DeleteIgSc(sai=1),
            DeleteEgSc(port=3),
            DeleteSa(sai=9),
            bad_op,  # sinks the whole batch
        ],
    )
    h.ctl.deliver(cfg)
    assert (tables.mac, tables.eg_sc, tables.ig_sc, tables.sa) == before
    assert h.switch.counters.get("sc_config.nack") == 1
    assert h.switch.counters.get("sc_config.applied") == 0
    return h


def test_untracked_sc_config_applies_and_sends_nothing():
    h = Harness()
    h.ctl.deliver(_install_batch(port=2, sai=11))
    h.sent.clear()
    h.ctl.deliver(ScConfig(batch_id=None, ops=[DeleteEgSc(port=2), DeleteSa(sai=11)]))
    assert h.switch.tables.eg_sc == {} and h.switch.tables.sa == {}
    assert h.sent == []
    assert h.switch.counters.get("sc_config.applied") == 2


def test_sc_config_delete_after_write():
    h = Harness()
    h.ctl.deliver(_install_batch(port=2, sai=11))
    h.ctl.deliver(ScConfig(batch_id=8, ops=[DeleteSa(sai=11)]))
    assert h.switch.tables.sa == {}


def test_ig_write_referencing_batch_local_sa():
    h = Harness()
    cfg = ScConfig(
        batch_id=9,
        ops=[
            WriteSa(sai=2, an=1, sak=Sak(b"\x02" * 16), sci=b"\x11" * 8),
            WriteIgSc(sai=2),
        ],
    )
    h.ctl.deliver(cfg)
    assert h.switch.tables.ig_sc[(b"\x11" * 8, 1)] == 2
