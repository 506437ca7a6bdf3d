import random

import pytest

from macsecsim.crypto import LldpKey, Sak, lldp_seal
from macsecsim.dataplane import (
    REASON_MAC_MISS,
    MacTableEntry,
    PacketIn,
    SaEntry,
    Switch,
)
from macsecsim.local_controller import LocalController
from macsecsim.messages import (
    DeleteSa,
    KeyInstall,
    LinkDelta,
    ScAck,
    ScConfig,
    SetPortFlag,
    StartDiscovery,
    WriteEgSc,
    WriteIgSc,
    WriteSa,
)
from macsecsim.randomness import RandomSource
from macsecsim.netsim import build
from macsecsim.topology import chain_spec
from macsecsim.wire import (
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

KEY = LldpKey(key=bytes(range(16)), key_id=1)


class Harness:
    def __init__(self, chassis="s1", num_ports=4, interval=30.0):
        self.time_us = 0
        self.scheduled = []
        self.sent = []
        self.send_ok = True
        self.transmitted = []
        self.switch = Switch(chassis, SW_MAC, num_ports)
        self.switch.on_transmit = lambda port, data: self.transmitted.append((port, data))
        self.ctl = LocalController(
            self.switch,
            now=lambda: self.time_us,
            schedule=lambda delay, fn, housekeeping=False: self.scheduled.append(
                (delay, fn, housekeeping)
            ),
            send_to_central=self._send,
            rng=RandomSource(42),
            discovery_interval_s=interval,
        )

    def _send(self, msg):
        self.sent.append(msg)
        return self.send_ok

    def start(self, key=KEY):
        self.ctl.deliver(KeyInstall(key=key))
        self.ctl.deliver(StartDiscovery())

    def probe_from_peer(self, port=2, *, seq, chassis=b"s2", remote_port=7, key=KEY, nonce=None):
        nonce = nonce if nonce is not None else random.Random(seq).randbytes(12)
        data = lldp_seal(
            key, nonce, seq, Lldpdu(chassis_id=chassis, port_id=remote_port),
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
    assert h.switch.tables.mac[H1].port == 1
    assert [port for port, _ in h.transmitted] == [2, 3, 4]


def test_duplicate_miss_does_not_rewrite():
    h = Harness()
    h.ctl.handle_packet_in(mac_miss(src=H1, port=1))
    entry = h.switch.tables.mac[H1]
    h.ctl.handle_packet_in(mac_miss(src=H1, port=1))
    assert h.switch.tables.mac[H1] is entry
    assert h.switch.counters.get("learning.learned") == 1


def test_station_move_updates_entry():
    h = Harness()
    h.ctl.handle_packet_in(mac_miss(src=H1, port=1))
    h.ctl.handle_packet_in(mac_miss(src=H1, port=2))
    assert h.switch.tables.mac[H1].port == 2


def test_learned_flag_follows_egress_channel():
    h = Harness()
    h.switch.write_sa(SaEntry(sai=1, sak=Sak(b"\x01" * 16), an=0, sci=b"\x00" * 8))
    h.switch.write_eg_sc(1, 1)
    h.ctl.handle_packet_in(mac_miss(src=H1, port=1))
    h.ctl.handle_packet_in(mac_miss(src=H2, port=2))
    assert h.switch.tables.mac[H1].macsec_flag is True
    assert h.switch.tables.mac[H2].macsec_flag is False


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
        assert {m: e.port for m, e in h.switch.tables.mac.items()} == reference


def test_deleted_mac_entry_is_learned_again():
    sim = build(chain_spec(2), seed=1)
    sim.quiesce()
    h1, h2 = sim.hosts["h1"].mac, sim.hosts["h2"].mac
    s1 = sim.switches["s1"]
    sim.host_send("h1", h2, 0x0800, b"ping")
    sim.host_send("h2", h1, 0x0800, b"pong")
    sim.quiesce()
    assert s1.counters.get("learning.learned") == 2
    port = s1.tables.mac[h1].port
    s1.delete_mac(h1)
    for _ in range(3):
        sim.host_send("h1", h2, 0x0800, b"again")
        sim.quiesce()
    assert s1.tables.mac[h1].port == port
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
    assert h.scheduled[-1][0] == 30.0 and h.scheduled[-1][2] is True


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


def test_accept_updates_view_and_reports_once():
    h = Harness()
    h.start()
    h.probe_from_peer(port=2, seq=50)
    assert h.ctl.local_view[2] == ("s2", 7)
    deltas = h.deltas()
    assert len(deltas) == 1 and deltas[0].adds == {2: ("s2", 7)}
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


def test_attacker_key_rejected():
    h = Harness()
    h.start()
    h.probe_from_peer(port=2, seq=50, key=LldpKey(key=b"\x66" * 16, key_id=9))
    assert h.switch.counters.get("discovery.integrity_failure") == 1
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
    assert h.deltas()[-1].removes == [2]


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
    assert h.deltas()[-1].removes == [2]
    assert h.switch.counters.get("discovery.expired") == 1


def test_delta_send_failure_counted():
    h = Harness()
    h.start()
    h.send_ok = False
    h.probe_from_peer(port=2, seq=50)
    assert h.switch.counters.get("ctl.send_failed") == 1


# -- MACsec table agent -----------------------------------------------------------


def _install_batch(port=2, sai=11, an=0):
    sci = b"\x02\x00\x00\x00\x00\x02\x00\x07"
    return ScConfig(
        batch_id=5,
        ops=[
            WriteSa(sai=sai, an=an, sak=Sak(b"\x09" * 16), sci=sci),
            WriteEgSc(port=port, sai=sai),
            SetPortFlag(port=port, flag=True),
        ],
    )


def test_sc_config_applies_and_acks():
    h = Harness()
    h.switch.write_mac(MacTableEntry(mac=H1, port=2))
    h.ctl.deliver(_install_batch(port=2, sai=11))
    assert h.switch.tables.eg_sc[2] == 11
    assert h.switch.tables.mac[H1].macsec_flag is True
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
        WriteIgSc(sci=b"\x00" * 7, an=0, sai=1),
        SetPortFlag(port=99, flag=True),
        object(),
    ],
    ids=["eg_sc_port", "sa_an", "sa_sci", "ig_sc_sci", "port_flag_port", "not_an_op"],
)
def test_sc_config_batch_is_all_or_nothing(bad_op):
    h = Harness()
    h.switch.write_mac(MacTableEntry(mac=H1, port=2))
    tables = h.switch.tables
    before = (dict(tables.mac), dict(tables.eg_sc), dict(tables.ig_sc), dict(tables.sa))
    cfg = ScConfig(
        batch_id=7,
        ops=[
            WriteSa(sai=1, an=0, sak=Sak(b"\x01" * 16), sci=b"\x00" * 8),
            WriteEgSc(port=2, sai=1),
            SetPortFlag(port=2, flag=True),
            bad_op,  # sinks the whole batch
        ],
    )
    h.ctl.deliver(cfg)
    acks = [m for m in h.sent if isinstance(m, ScAck)]
    assert len(acks) == 1 and acks[0].ok is False
    assert (tables.mac, tables.eg_sc, tables.ig_sc, tables.sa) == before
    assert h.switch.counters.get("sc_config.nack") == 1


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
            WriteIgSc(sci=b"\x11" * 8, an=1, sai=2),
        ],
    )
    h.ctl.deliver(cfg)
    assert h.switch.tables.ig_sc[(b"\x11" * 8, 1)] == 2
