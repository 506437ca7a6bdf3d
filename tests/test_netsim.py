import hashlib
import random
import tracemalloc
from collections import Counter

import pytest

from macsecsim.audit import Violation, audit
from macsecsim.central_controller import CentralController, link_key
from macsecsim.crypto import LldpKey, lldp_seal, macsec_protect
from macsecsim.dataplane import Counters, Switch
from macsecsim.errors import InvalidEntry, LivelockError, SpecError, UnknownHost, UnknownLink, UnknownSwitch
from macsecsim.local_controller import LocalController
from macsecsim.messages import (
    DeleteEgSc, DeleteIgSc, DeleteSa, LinkDelta, ScAck, ScConfig, StartDiscovery, WriteEgSc,
)
from macsecsim.netsim import Simulation
from macsecsim.topology import SwitchSpec, TopologySpec, chain_spec
from macsecsim.trace import read_pcapng
from macsecsim.wire import (
    LLDP_MULTICAST, PN_OFFSET, SCI_OFFSET, SECURE_DATA_OFFSET, EthernetFrame, Lldpdu, mac_from_str,
    sci_port,
)

WIRE_DROPS = ("link_down", "random_loss")


def host_arrivals(sim) -> int:
    """Frames sent toward a host (its link's b end) that the wire did not drop."""
    return sum(
        rec.dropped not in WIRE_DROPS
        for host in sim.hosts.values()
        for rec in sim.trace.query(link=host.link.name, direction="a2b")
    )


def test_hierarchical_discovery_matches_wiring(hierarchical_spec):
    sim = Simulation(hierarchical_spec, seed=1)
    sim.quiesce()
    assert sim.central.confirmed_links() == sim.ground_truth_links()
    assert len(sim.central.confirmed_links()) == 6
    assert len(sim.central.sc_records) == 6


def test_single_switch_degenerate():
    spec = TopologySpec(switches=[SwitchSpec("solo", mac_from_str("02:00:00:00:00:01"), 2)])
    sim = Simulation(spec)
    sim.quiesce()
    assert sim.central.confirmed_links() == set()
    assert sim.central.sc_records == {}


def test_determinism_same_seed_identical_run(hierarchical_spec):
    def run():
        sim = Simulation(hierarchical_spec, seed=42, keep_frames=True)
        sim.quiesce()
        sim.host_send("h1", sim.hosts["h7"].mac, 0x0800, b"probe")
        sim.quiesce()
        trace_bytes = b"".join(
            rec.data + rec.link.encode() + str(rec.time_us).encode() for rec in sim.trace.records
        )
        return trace_bytes, sim.counters_dump()

    assert run() == run()


def test_different_seed_different_key_material(hierarchical_spec):
    sim_a = Simulation(hierarchical_spec, seed=1)
    sim_b = Simulation(hierarchical_spec, seed=2)
    sim_a.quiesce()
    sim_b.quiesce()
    assert set(sim_a.central.sak_log).isdisjoint(sim_b.central.sak_log)


def test_second_discovery_round_after_interval():
    sim = Simulation(chain_spec(2), seed=0)
    sim.quiesce()
    first = len(sim.trace.query(classification="secure_lldp"))
    sim.run_until(30.5)
    assert len(sim.trace.query(classification="secure_lldp")) == 2 * first


def test_conservation_every_frame_received_or_annotated():
    sim = Simulation(chain_spec(3), seed=4)
    sim.quiesce()
    sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"payload")
    sim.host_send("h1", b"\xff" * 6, 0x0800, b"broadcast")
    sim.set_link_state("s1-s2", False)
    sim.set_link_state("s1-s2", True)
    sim.quiesce()
    switch_rx = sum(
        sw.counters.total(f"port.{p}.rx") for sw in sim.switches.values() for p in sw.ports_up
    )
    # rx counters count every frame the pipeline saw, pipeline drops too;
    # a frame dropped on the wire never reached it.
    wire_level = sum(1 for rec in sim.trace.records if rec.dropped in WIRE_DROPS)
    assert switch_rx + host_arrivals(sim) + wire_level == len(sim.trace.records)


def test_clock_is_monotonic_across_records():
    sim = Simulation(chain_spec(4), seed=9)
    sim.quiesce()
    times = [rec.time_us for rec in sim.trace.records]
    assert times == sorted(times)


def test_link_cut_revokes_both_channels(hierarchical_spec):
    sim = Simulation(hierarchical_spec, seed=3)
    sim.quiesce()
    sim.set_link_state("agg1-core", False)
    sim.quiesce()
    assert len(sim.central.sc_records) == 5
    assert audit(sim) == []  # no record, SA, EG-SC or IG-SC row of the cut link is left


def test_restored_link_gets_fresh_generation(hierarchical_spec):
    sim = Simulation(hierarchical_spec, seed=3)
    sim.quiesce()
    before = set(sim.central.sak_log)
    sim.set_link_state("agg1-core", False)
    sim.quiesce()
    sim.set_link_state("agg1-core", True)
    sim.quiesce()
    assert len(sim.central.confirmed_links()) == 6
    assert len(set(sim.central.sak_log)) == len(sim.central.sak_log)
    assert set(sim.central.sak_log) > before


def test_forged_lldp_rejected_no_fake_link():
    sim = Simulation(chain_spec(2), seed=5)
    sim.quiesce()
    confirmed = sim.central.confirmed_links()
    fake = lldp_seal(
        LldpKey(key=b"\x13" * 16, key_id=1),
        b"\x37" * 12,
        1,
        Lldpdu(chassis_id=b"evil", port_id=1).encode(),
        src=b"\x02\x66\x66\x66\x66\x66",
        dst=LLDP_MULTICAST,
    )
    before = sim.switches["s2"].counters.get("discovery.integrity_failure")
    sim.inject_frame("s1-s2", "a2b", fake)
    sim.quiesce()
    assert sim.switches["s2"].counters.get("discovery.integrity_failure") == before + 1
    assert sim.central.confirmed_links() == confirmed


def test_replayed_capture_rejected():
    sim = Simulation(chain_spec(2), seed=6, keep_frames=True)
    sim.quiesce()
    rec = sim.trace.query(classification="secure_lldp", link="s1-s2")[0]
    receiver = "s2" if rec.direction == "a2b" else "s1"
    before = sim.switches[receiver].counters.get("discovery.replayed_seq")
    view_before = dict(sim.controllers[receiver].local_view)
    sim.inject_frame("s1-s2", rec.direction, rec.data)
    sim.quiesce()
    assert sim.switches[receiver].counters.get("discovery.replayed_seq") == before + 1
    assert sim.controllers[receiver].local_view == view_before


def _cleartext(src, dst):
    return EthernetFrame(dst=dst, src=src, ether_type=0x0800, payload=b"forged").to_bytes()


def test_cleartext_injected_on_a_secured_port_reaches_no_host():
    sim = Simulation(chain_spec(3), seed=1)
    sim.quiesce()
    sim.inject_frame("s1-s2", "a2b", _cleartext(sim.hosts["h1"].mac, sim.hosts["h2"].mac))
    sim.quiesce()
    assert sim.host_recv("h2") == []
    assert sim.switches["s2"].counters.get("drop.untagged") == 1


def test_cleartext_from_a_hosts_mac_on_a_secured_port_does_not_move_the_host():
    sim = Simulation(chain_spec(3), seed=1)
    sim.quiesce()
    h1, h2 = sim.hosts["h1"].mac, sim.hosts["h2"].mac
    sim.host_send("h2", h1, 0x0800, b"pong")
    sim.quiesce()
    s2 = sim.switches["s2"]
    assert s2.tables.mac[h2] == 2  # toward s3, where h2 sits
    sim.inject_frame("s1-s2", "a2b", _cleartext(h2, b"\x02\x99\x99\x99\x99\x99"))
    sim.quiesce()
    assert s2.tables.mac[h2] == 2
    assert s2.counters.get("drop.untagged") == 1


def test_unknown_link_raises():
    sim = Simulation(chain_spec(2))
    with pytest.raises(UnknownLink):
        sim.set_link_state("nope", False)
    with pytest.raises(UnknownLink):
        sim.inject_frame("nope", "a2b", b"\x00" * 20)


def test_unknown_host_raises_its_own_error():
    sim = Simulation(chain_spec(2))
    with pytest.raises(UnknownHost, match="^unknown host 'hx'$") as send:
        sim.host_send("hx", b"\x02" * 6, 0x0800, b"hi")
    with pytest.raises(UnknownHost, match="^unknown host 'hx'$") as recv:
        sim.host_recv("hx")
    assert not isinstance(send.value, UnknownSwitch) and not isinstance(recv.value, UnknownSwitch)


def test_bad_simulation_calls_are_refused_and_change_nothing():
    sim = Simulation(chain_spec(2), seed=1)
    sim.run_until(1.0)
    now_us, queued = sim.now_us(), sim.pending()
    with pytest.raises(ValueError, match="^direction must be a2b or b2a, not 'up'$"):
        sim.inject_frame("s1-s2", "up", b"\x00" * 20)
    with pytest.raises(UnknownSwitch):
        sim.set_control_state("nosuch", False)
    with pytest.raises(ValueError, match="^run_until target precedes current time$"):
        sim.run_until(0.5)
    assert sim.now_us() == now_us and sim.pending() == queued
    assert "nosuch" not in sim._held


def _replay_last_macsec_frame(wrap):
    """Replay s1-s2's latest MACsec frame wrapped by `wrap`: (the row it
    makes, every switch's counters)."""
    sim = Simulation(chain_spec(2), seed=1, keep_frames=True)
    sim.quiesce()
    sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"replayed")
    sim.quiesce()
    rec = sim.trace.query(link="s1-s2", classification="macsec")[-1]
    sim.inject_frame(rec.link, rec.direction, wrap(rec.data))
    sim.quiesce()
    return sim.trace[-1], sim.counters_dump()


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_an_injected_bytes_like_frame_replays_as_its_bytes(wrap):
    row, counters = _replay_last_macsec_frame(wrap)
    assert type(row.data) is bytes and row.dropped == "replay_pn"
    assert (row, counters) == _replay_last_macsec_frame(bytes)


@pytest.mark.parametrize("data", ["a frame", 64, None, [0] * 20])
def test_an_injected_frame_that_is_not_bytes_like_is_refused_before_it_is_queued(data):
    sim = Simulation(chain_spec(2), seed=1)
    sim.run_until(1.0)
    queued = sim.pending()
    with pytest.raises(TypeError, match="^a frame must be bytes-like, not "):
        sim.inject_frame("s1-s2", "a2b", data)
    assert sim.pending() == queued


def test_trace_index_counts_back_from_the_end_and_query_starts_at_t_min():
    sim = Simulation(chain_spec(2).with_params(discovery_interval=1.0), seed=1)
    sim.run_until(3.0)
    sim.inject_frame("s1-s2", "a2b", b"\x00" * 10)  # refused as truncated: the last row has a drop
    sim.run_until(3.5)
    trace, last = sim.trace, len(sim.trace) - 1
    assert trace[-1] == trace[last] and trace[-1].index == last
    assert trace[-1].dropped == "truncated"
    t_min_us = trace[len(trace) // 2].time_us
    later = trace.query(t_min_us=t_min_us)
    assert later == [r for r in trace.records if r.time_us >= t_min_us]
    assert 0 < len(later) < len(trace)


def test_a_received_frame_is_a_view_over_its_trace_row():
    sim = Simulation(chain_spec(3), seed=1, keep_frames=True)
    sim.quiesce()
    sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"zero-copy" * 20)
    sim.quiesce()
    frame = sim.hosts["h2"].received[-1][1]
    assert frame.payload == b"zero-copy" * 20
    link = sim.hosts["h2"].link.name
    (rec,) = [rec for rec in sim.trace.query(link=link, direction="a2b") if rec.data == frame.to_bytes()]
    assert frame.to_bytes() is sim.trace[rec.index].data


def test_a_host_inbox_reads_as_a_list_of_arrival_and_frame():
    """The inbox keeps each delivery's time and wire bytes, and reads as a
    list of (arrival us, frame) pairs, each frame built when read."""
    sim = Simulation(chain_spec(2), seed=1)
    sim.quiesce()
    for i in range(3):
        sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"frame %d" % i)
    sim.quiesce()
    inbox = sim.hosts["h2"].received
    pairs = list(inbox)
    assert len(inbox) == 3 and [f.payload for _, f in pairs] == [b"frame 0", b"frame 1", b"frame 2"]
    assert all(type(at_us) is int and type(f) is EthernetFrame for at_us, f in pairs)
    assert inbox == pairs and inbox != pairs[:2] and inbox[1:] == pairs[1:] and inbox[-1] == pairs[2]
    assert sim.host_recv("h2") == [f for _, f in pairs]
    assert all(type(data) is bytes for _, data in inbox._rows)


def test_an_inbox_compares_unequal_to_a_non_list_and_reprs_its_pairs():
    sim = Simulation(chain_spec(2), seed=1)
    sim.quiesce()
    sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"shown")
    sim.quiesce()
    inbox = sim.hosts["h2"].received
    assert (inbox == 5) is False and inbox != 5
    [(at_us, frame)] = inbox
    assert repr(inbox) == f"Inbox([({at_us}, {frame!r})])"
    assert frame.payload == b"shown" and "payload=b'shown'" in repr(inbox)


@pytest.mark.parametrize(
    "ether_type, size",
    [(0x0800, 13), (0x88E5, 13), (0x88CC, 13), (0x88E5, 45), (0x88E5, 46), (0x88CC, 45), (0x88CC, 46), (0x0800, 14)],
)
def test_a_host_nic_refuses_short_frames_and_keeps_only_ethernet(ether_type, size):
    """Below 14 bytes, or below its class's minimum (46 bytes for MACsec and
    sealed LLDP), a frame is dropped as unparseable; a long enough MACsec or
    LLDP frame dies quietly; the rest reach the inbox."""
    sim = Simulation(chain_spec(2), seed=1, keep_frames=True)
    host = sim.hosts["h1"]
    data = (host.mac + bytes(range(1, 7)) + ether_type.to_bytes(2, "big") + bytes(64))[:size]
    sim.inject_frame(host.link.name, "a2b", data)
    sim.run_until(0.01)
    (rec,) = [rec for rec in sim.trace.query(link=host.link.name, direction="a2b") if rec.data == data]
    short = size < 14 or (ether_type != 0x0800 and size < 46)
    assert rec.dropped == ("unparseable" if short else None)
    assert [f.to_bytes() for f in sim.host_recv("h1")] == ([data] if ether_type == 0x0800 and not short else [])


def test_flood_reaches_all_hosts_and_learns_source(hierarchical_spec):
    sim = Simulation(hierarchical_spec, seed=8)
    sim.quiesce()
    h1 = sim.hosts["h1"]
    sim.host_send("h1", b"\x02\x0f\x0f\x0f\x0f\x0f", 0x0800, b"who-has")
    sim.quiesce()
    for name, host in sim.hosts.items():
        if name != "h1":
            assert any(f.payload == b"who-has" for f in sim.host_recv(name)), name
    for chassis in ("access1", "agg1", "core", "access4"):
        assert sim.switches[chassis].tables.mac[h1.mac]
    # learning traffic crossed only protected inter-switch links
    for link in sim.interswitch_links:
        assert sim.trace.query(link=link.name, classification="ethernet") == []


def test_chain_bidirectional_transparency():
    sim = Simulation(chain_spec(8), seed=2)
    sim.quiesce()
    payload = bytes(random.Random(0).randbytes(1024))
    sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, payload)
    sim.quiesce()
    sim.host_send("h2", sim.hosts["h1"].mac, 0x0800, payload[::-1])
    sim.quiesce()
    assert payload in [f.payload for f in sim.host_recv("h2")]
    assert payload[::-1] in [f.payload for f in sim.host_recv("h1")]


def test_trace_filters_confirm_protection(hierarchical_spec):
    sim = Simulation(hierarchical_spec, seed=11)
    sim.quiesce()
    t0 = sim.now_us()
    sim.host_send("h1", sim.hosts["h12"].mac, 0x0800, b"secret")
    sim.quiesce()
    for link in sim.interswitch_links:
        assert sim.trace.query(link=link.name, classification="ethernet", t_min_us=t0) == []
        assert sim.trace.query(link=link.name, classification="macsec", t_min_us=t0)
    # host access links carry no MACsec frames at all
    assert sim.trace.query(link="access1-h1", classification="macsec") == []
    assert sim.trace.query(link="access1-h1", classification="ethernet")


def test_pcapng_export_round_trip(tmp_path, hierarchical_spec):
    sim = Simulation(hierarchical_spec, seed=12)
    sim.quiesce()
    sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"x")
    sim.quiesce()
    path = tmp_path / "capture.pcapng"
    sim.trace_export(path)
    packets = read_pcapng(path)
    records = sim.trace.records
    assert len(packets) == len(records)
    # host links are registered after the inter-switch links, so an interface
    # id that is not the row's wire id names another link here
    for packet, rec in zip(packets, records):
        assert packet.interface == f"{rec.link}:{rec.direction}"
        assert (packet.time_us, packet.data, packet.length) == (rec.time_us, rec.data, rec.length)
    dropped_comments = [p.comment for p in packets if p.comment]
    assert all(c.startswith("dropped: ") for c in dropped_comments)


def test_livelock_guard():
    spec = chain_spec(2).with_params(max_events=10)
    with pytest.raises(LivelockError):
        sim = Simulation(spec, seed=0)
        sim.quiesce()


def test_inflight_frame_on_cut_link_annotated():
    sim = Simulation(chain_spec(2), seed=13)
    sim.quiesce()
    sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"vanishing")
    # cut before delivery: host link latency has the frame in flight
    sim.set_link_state("s1-h1", False)
    sim.quiesce()
    drops = [rec for rec in sim.trace.records if rec.dropped == "link_down"]
    assert drops


def test_control_partition_expires_links_until_heal():
    spec = chain_spec(2).with_params(
        discovery_interval=1.0, lldp_key_rotation=5.0, rekey_interval=1000.0
    )
    sim = Simulation(spec, seed=14)
    sim.quiesce()
    assert len(sim.central.confirmed_links()) == 1
    sim.set_control_state("s2", False)
    sim.run_until(12.0)
    # s2 kept sealing with the rotated-out key; s1 stopped accepting, the
    # stale view entry aged out, and the link fell out of Confirmed.
    assert sim.central.confirmed_links() == set()
    assert sim.switches["s1"].counters.get("discovery.integrity_failure") > 0
    # The heal delivers s2 its held key installs, and discovery confirms the link again.
    sim.set_control_state("s2", True)
    sim.run_until(15.0)
    sim.quiesce()
    assert audit(sim) == []
    t0 = sim.now_us()
    sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"after-heal")
    sim.quiesce()
    assert [f.payload for f in sim.host_recv("h2")] == [b"after-heal"]
    assert sim.trace.query(link="s1-s2", classification="ethernet", t_min_us=t0) == []
    assert sim.trace.query(link="s1-s2", classification="macsec", t_min_us=t0)


def test_partition_at_registration_converges_after_heal():
    sim = Simulation(chain_spec(2), seed=3)
    sim.set_control_state("s2", False)  # before the first event: registration is held
    sim.run_until(0.5)
    s2 = sim.controllers["s2"]
    # Without its key s2 seals and sends nothing; s1's probe reaches it and counts `no_key`.
    assert s2.seal_count == 0 and s2.counters.get("discovery.sent") == 0
    assert sim.trace.query(link="s1-s2", direction="b2a") == []
    assert s2.counters.get("discovery.no_key") == 1
    heal_us = sim.now_us()
    sim.set_control_state("s2", True)
    sim.run_until(0.5)  # the held key install runs at the heal's instant and starts discovery
    assert s2.seal_count == s2.counters.get("discovery.sent") == 2
    assert [r.time_us for r in sim.trace.query(link="s1-s2", direction="b2a")] == [heal_us]
    sim.run_until(200)
    assert s2.counters.get("discovery.no_key") == 1
    sim.quiesce()
    assert audit(sim) == []


def test_ack_sent_during_a_partition_arrives_on_heal(monkeypatch):
    sim = Simulation(chain_spec(2), seed=3)
    handle_sc_config = LocalController.handle_sc_config
    cut = []

    def cut_while_applying_first_batch(self, cfg):
        first = self.chassis_id == "s2" and not cut
        if first:
            cut.append(cfg.batch_id)
            sim.set_control_state("s2", False)
        handle_sc_config(self, cfg)
        if first:
            sim.set_control_state("s2", True)

    monkeypatch.setattr(LocalController, "handle_sc_config", cut_while_applying_first_batch)
    sim.run_until(600)
    assert cut
    sim.quiesce()
    assert audit(sim) == []


def _run_two_rekeys(monkeypatch, swallow_retire=False):
    """chain_spec(3) rekeying every 2 s with a 1 s grace, through two rekeys
    of every direction.  Returns the sim, the batches `_send_stage` sent, every
    ScConfig and ScAck sent, and the batch the receiver swallowed, if any."""
    stage_ids, configs, acks, swallowed = [], [], [], []
    send_stage, to_local, to_central = (
        CentralController._send_stage, Simulation._send_to_local, Simulation._send_to_central
    )
    deliver = LocalController.deliver

    def counting_send_stage(self, *args, **kwargs):
        send_stage(self, *args, **kwargs)
        stage_ids.append(self._batch_seq)

    def recording_to_local(self, chassis, msg):
        if isinstance(msg, ScConfig):
            configs.append(msg)
        to_local(self, chassis, msg)

    def recording_to_central(self, msg):
        if isinstance(msg, ScAck):
            acks.append(msg)
        to_central(self, msg)

    def swallowing_deliver(self, msg):
        retire = isinstance(msg, ScConfig) and msg.batch_id is None and isinstance(msg.ops[0], DeleteIgSc)
        if swallow_retire and retire and not swallowed:
            swallowed.append((self.chassis_id, msg))
            return
        deliver(self, msg)

    monkeypatch.setattr(CentralController, "_send_stage", counting_send_stage)
    monkeypatch.setattr(Simulation, "_send_to_local", recording_to_local)
    monkeypatch.setattr(Simulation, "_send_to_central", recording_to_central)
    monkeypatch.setattr(LocalController, "deliver", swallowing_deliver)
    sim = Simulation(chain_spec(3).with_params(rekey_interval=2, grace=1), seed=1)
    sim.quiesce()
    sim.run_until(sim.now_s() + 5)
    sim.quiesce()
    directions = [d for r in sim.central.sc_records.values() for d in r.directions.values()]
    assert len(directions) == 4 and all(d.rekey_count >= 2 for d in directions)
    return sim, stage_ids, configs, acks, swallowed


def test_only_stage_batches_are_acked(monkeypatch):
    sim, stage_ids, configs, acks, _ = _run_two_rekeys(monkeypatch)
    untracked = [cfg for cfg in configs if cfg.batch_id is None]
    assert len(untracked) >= 6  # two retire sweeps, each one batch to each of the 3 switches
    assert sorted(ack.batch_id for ack in acks) == sorted(stage_ids)
    assert all(ack.ok for ack in acks)
    assert audit(sim) == []


def test_a_lost_retire_shows_as_a_stray_row(monkeypatch):
    """A retire sweep sends one batch per switch, so the swallowed batch can
    name generations of more than one link: each of them shows as a stray row."""
    sim, _, _, _, swallowed = _run_two_rekeys(monkeypatch, swallow_retire=True)
    [(chassis, cfg)] = swallowed
    links = set()
    for op in cfg.ops:
        sci = sim.switches[chassis].tables.sa[op.sai].sci
        sender = next(name for name, sw in sim.switches.items() if sw.mac == sci[:6])
        end = (sender, sci_port(sci))
        links.add(link_key(end, sim.central.reports[end]))
    assert all(chassis in (link[0][0], link[1][0]) for link in links)
    found = audit(sim)
    assert found and set(found) == {Violation("stray_row", link) for link in links}


def test_a_probe_replayed_onto_another_link_costs_only_that_link():
    """s3's latest probe on s3-s4, replayed onto s1-s2 toward s1, changes s1's
    report of its port alone: s1-s2 comes back on s2's next probe, and s3-s4,
    of which s1 is no end, keeps its channel."""
    sim = Simulation(chain_spec(5).with_params(discovery_interval=1), seed=1, keep_frames=True)
    sim.quiesce()
    record = sim.central.sc_records[sim.links["s3-s4"].key]
    probe = sim.trace.query(link="s3-s4", direction="a2b", classification="secure_lldp")[-1]
    sim.inject_frame("s1-s2", "b2a", probe.data)
    sim.run_until(sim.now_s() + 2)
    sim.quiesce()
    assert audit(sim) == []
    assert sim.central.sc_records[sim.links["s3-s4"].key] is record


def test_partition_flap_and_heal_converges():
    sim = Simulation(chain_spec(3).with_params(discovery_interval=1), seed=3)
    sim.quiesce()
    sim.set_control_state("s2", False)
    sim.set_link_state("s2-s3", False)
    sim.run_until(sim.now_s() + 5)
    sim.set_link_state("s2-s3", True)
    sim.run_until(sim.now_s() + 5)
    sim.set_control_state("s2", True)
    sim.run_until(sim.now_s() + 400)
    sim.quiesce()
    assert audit(sim) == []


def test_partition_across_a_discovery_key_rotation_converges():
    spec = chain_spec(2).with_params(discovery_interval=1, lldp_key_rotation=10, rekey_interval=1000)
    sim = Simulation(spec, seed=3)
    sim.quiesce()
    sim.set_control_state("s2", False)  # misses the rotations at 10, 20 and 30 s
    sim.run_until(30)
    sim.set_control_state("s2", True)
    sim.run_until(35)
    sim.quiesce()
    assert audit(sim) == []


@pytest.mark.xfail(
    strict=True,
    raises=LivelockError,
    reason="ROADMAP item 3: the directions' grace windows tile the rekey period",
)
def test_partition_with_staggered_activations_quiesces():
    spec = chain_spec(4).with_params(
        discovery_interval=1, rekey_interval=4, grace=1, lldp_key_rotation=6,
        pn_ceiling=3, max_events=20_000,
    )
    sim = Simulation(spec, seed=3)
    sim.set_link_state("s2-s3", False)
    for t in (2, 5):
        sim.run_until(t)
        for src, dst in (("h1", "h2"), ("h2", "h1")) * 5:
            sim.host_send(src, sim.hosts[dst].mac, 0x0800, b"burst")
    sim.run_until(13)
    sim.set_control_state("s1", False)
    sim.run_until(22)
    sim.set_control_state("s1", True)
    sim.set_link_state("s2-s3", True)
    sim.run_until(32)
    sim.quiesce()
    assert audit(sim) == []


def test_duplicate_link_state_writes_are_silent(hierarchical_spec):
    sim = Simulation(hierarchical_spec, seed=15)
    sim.quiesce()
    deltas_before = sim.switches["core"].counters.get("discovery.expired")
    sim.set_link_state("agg1-core", True)  # already up
    sim.quiesce()
    assert sim.switches["core"].counters.get("discovery.expired") == deltas_before


def test_rekey_grace_removes_old_generation_rows():
    spec = chain_spec(2).with_params(rekey_interval=2.0, grace=1.0)
    sim = Simulation(spec, seed=21)
    sim.quiesce()
    record = next(iter(sim.central.sc_records.values()))
    sim.run_until(2.5)  # first rekey done, grace still pending
    assert all(d.rekey_count == 1 for d in record.directions.values())
    assert {v.kind for v in audit(sim)} == {"stray_row"}  # the old generation's rows
    sim.run_until(4.0)  # past activation + 1 s grace
    assert audit(sim) == []


def test_per_sa_counters_sum_to_the_switch_totals_across_rekeys(monkeypatch):
    # An SA's counts leave with its entry, so each entry is kept here as it
    # leaves; a rolled-back delete puts the same entry back in the table.
    departed = {}
    delete_sa = Switch.delete_sa

    def recording_delete_sa(self, sai):
        sa = self.tables.sa.get(sai)
        if sa is not None:
            departed.setdefault(self.chassis_id, []).append(sa)
        return delete_sa(self, sai)

    monkeypatch.setattr(Switch, "delete_sa", recording_delete_sa)
    spec = chain_spec(3).with_params(rekey_interval=2.0, grace=1.0)
    sim = Simulation(spec, seed=4, keep_frames=True)
    sim.quiesce()
    h1, h2 = sim.hosts["h1"].mac, sim.hosts["h2"].mac
    for i in range(24):  # 6 s of traffic both ways: past two rekeys of every channel
        sim.run_until(sim.now_s() + 0.25)
        sim.host_send("h1", h2, 0x0800, b"a%d" % i)
        sim.host_send("h2", h1, 0x0800, b"b%d" % i)
    sim.quiesce()
    assert all(d.rekey_count >= 2 for r in sim.central.sc_records.values() for d in r.directions.values())
    # A fresh PN passes the replay floor, so the altered frame reaches the ICV check.
    rec = sim.trace.query(classification="macsec")[-1]
    forged = bytearray(rec.data)
    forged[PN_OFFSET] ^= 0x80
    sim.inject_frame(rec.link, rec.direction, bytes(forged))
    sim.quiesce()
    link = sim.links[rec.link]
    chassis, _ = link.b if rec.direction == "a2b" else link.a
    receiver = sim.switches[chassis]
    forged_sai = receiver.tables.ig_sc[(rec.data[SCI_OFFSET:SECURE_DATA_OFFSET], rec.data[14] & 0x03)]

    failed = {}
    for switch in sim.switches.values():
        live = list(switch.tables.sa.values())
        gone = [sa for sa in departed.get(switch.chassis_id, []) if all(sa is not held for held in live)]
        assert gone, switch.chassis_id  # every channel rekeyed, so every switch retired SAs
        counts = switch.counters.as_dict()
        assert not any(k.startswith("sa.") and int(k.split(".")[1]) not in switch.tables.sa for k in counts)
        entries = live + gone
        assert sum(sa.validated for sa in entries) == counts["macsec.validated"], switch.chassis_id
        assert sum(sa.protected for sa in entries) == counts["macsec.protected"], switch.chassis_id
        assert sum(sa.failed for sa in entries) == counts.get("macsec.validate_failed", 0), switch.chassis_id
        # Each SA carries one direction: a switch validates on its peers' SAs and protects on its own.
        validated = {sa.sai for sa in entries if sa.validated}
        protected = {sa.sai for sa in entries if sa.protected}
        assert validated.isdisjoint(protected) and len(validated) + len(protected) > 2, switch.chassis_id
        failed.update({(switch.chassis_id, sa.sai): sa.failed for sa in entries if sa.failed})
    assert failed == {(receiver.chassis_id, forged_sai): 1}


def test_teardown_in_the_grace_window_still_retires_the_old_sa():
    spec = chain_spec(2).with_params(rekey_interval=2.0, grace=1.0)
    sim = Simulation(spec, seed=1)
    sim.quiesce()
    sim.run_until(2.5)  # first rekey done, grace still pending
    sim.set_link_state("s1-s2", False)
    sim.run_until(10)
    assert audit(sim) == []  # no record, SA, EG-SC or IG-SC row is left


WIRE_SPEC = chain_spec(3).with_params(discovery_interval=1, rekey_interval=3, link_latency=0.001)


def test_a_grace_shorter_than_the_wire_time_is_a_spec_error():
    """A retire one grace after the egress write would delete the old SA
    while frames sealed under it are still on the wire."""
    with pytest.raises(SpecError, match="must be >= link_latency"):
        WIRE_SPEC.with_params(grace=0.0005)


def test_a_grace_equal_to_the_wire_time_loses_no_frame_across_a_rekey():
    sim = Simulation(WIRE_SPEC.with_params(grace=0.001), seed=1)
    sim.quiesce()
    [rekey_us] = {at_us for at_us, _seq, _hk, fn, _args in sim.pending() if fn.__name__ == "_rekey_sweep"}
    sent = {"h1": [], "h2": []}
    for t_us in range(rekey_us - 10_000, rekey_us + 10_000, 100):  # every 100 us around the rekey and its retire
        sim.run_until(t_us / 1_000_000)
        for src, dst in (("h1", "h2"), ("h2", "h1")):
            payload = f"{src} {t_us}".encode()
            sim.host_send(src, sim.hosts[dst].mac, 0x0800, payload)
            sent[dst].append(payload)
    sim.quiesce()
    directions = [d for r in sim.central.sc_records.values() for d in r.directions.values()]
    assert len(directions) == 4 and all(d.rekey_count == 1 for d in directions)
    for host in ("h1", "h2"):
        assert [f.payload for f in sim.host_recv(host)] == sent[host]


def test_the_queue_holds_one_rekey_sweep_per_due_instant():
    """Each direction that goes active is filed under its rekey's due
    microsecond; an instant queues one housekeeping sweep however many
    directions it holds, and no rekey is queued on its own."""
    spec = chain_spec(4).with_params(discovery_interval=1.0, rekey_interval=3.0, grace=1.0)
    sim = Simulation(spec, seed=1)
    sim.quiesce()  # all six directions go active at 0.001 s
    sim.run_until(1.5)
    sim.set_link_state("s2-s3", False)
    sim.run_until(1.7)
    sim.set_link_state("s2-s3", True)
    sim.quiesce()  # s2-s3 redeployed at 1.701 s; its old record's two entries stay filed
    table = sim.central._rekeys
    assert {due_us: len(entries) for due_us, entries in table.items()} == {3_001_000: 6, 4_701_000: 2}
    sweeps = [(at_us, hk, args) for at_us, _seq, hk, fn, args in sim.pending() if fn.__name__ == "_rekey_sweep"]
    assert sweeps == [(3_001_000, True, (3_001_000,)), (4_701_000, True, (4_701_000,))]
    assert "_rekey_due" not in {fn.__name__ for _at, _seq, _hk, fn, _args in sim.pending()}


def test_the_rekey_table_empties_as_its_sweeps_fire():
    """Across many rekey rounds the table holds at most one entry per live
    direction, and none whose instant has passed."""
    spec = chain_spec(3).with_params(discovery_interval=0.5, rekey_interval=1.0, grace=0.25)
    sim = Simulation(spec, seed=1)
    while sim.now_us() < 10_000_000:
        sim.run_until(sim.now_s() + 0.05)
        table = sim.central._rekeys
        live = sum(len(record.directions) for record in sim.central.sc_records.values())
        assert sum(map(len, table.values())) <= live, sim.now_s()
        assert all(due_us > sim.now_us() for due_us in table), sim.now_s()
    assert sim.central.counters.get("channels.rekey") >= 4 * 9


def test_the_queue_holds_one_actionable_retire_sweep_per_due_instant():
    """Each finished rekey files its replaced generation under the microsecond
    one grace later; an instant queues one actionable sweep however many
    generations it holds, and no delete is queued on its own."""
    spec = chain_spec(4).with_params(discovery_interval=1.0, rekey_interval=3.0, grace=2.0)
    sim = Simulation(spec, seed=1)
    sim.quiesce()
    sim.run_until(1.5)
    sim.set_link_state("s2-s3", False)
    sim.run_until(1.7)
    sim.set_link_state("s2-s3", True)
    sim.quiesce()  # s2-s3 redeployed at 1.701 s, so it rekeys at 4.701 s and the others at 3.001 s
    sim.run_until(5.0)
    table = sim.central._retires
    assert {due_us: len(entries) for due_us, entries in table.items()} == {5_001_000: 4, 6_701_000: 2}
    sweeps = [(at_us, hk, args) for at_us, _seq, hk, fn, args in sim.pending() if fn.__name__ == "_retire_sweep"]
    assert sweeps == [(5_001_000, False, (5_001_000,)), (6_701_000, False, (6_701_000,))]
    assert "_send_deletes" not in {fn.__name__ for _at, _seq, _hk, fn, _args in sim.pending()}
    # Not quiesce: these grace windows tile the rekey period, so an actionable sweep is always queued.
    sim.run_until(6.8)  # both sweeps fired; the four directions rekeyed again at 6.001 s
    assert {due_us: len(entries) for due_us, entries in table.items()} == {8_001_000: 4}


def test_the_retire_table_empties_as_its_sweeps_fire():
    """Across many rekey rounds the table holds at most one generation per
    live direction, and none whose instant has passed."""
    spec = chain_spec(3).with_params(discovery_interval=0.5, rekey_interval=1.0, grace=0.25)
    sim = Simulation(spec, seed=1)
    while sim.now_us() < 10_000_000:
        sim.run_until(sim.now_s() + 0.05)
        table = sim.central._retires
        live = sum(len(record.directions) for record in sim.central.sc_records.values())
        assert sum(map(len, table.values())) <= live, sim.now_s()
        assert all(due_us > sim.now_us() for due_us in table), sim.now_s()
    sim.quiesce()
    assert sim.central._retires == {}
    assert sim.central.counters.get("channels.rekey") >= 4 * 9
    assert audit(sim) == []


def test_a_retire_sweep_sends_each_switch_one_batch_deleting_ig_sc_before_sa(monkeypatch):
    sweeps = []
    retire_sweep, to_local = CentralController._retire_sweep, Simulation._send_to_local

    def recording_sweep(self, due_us):
        sweeps.append([])
        retire_sweep(self, due_us)

    def recording_to_local(self, chassis, msg):
        if sweeps and isinstance(msg, ScConfig) and msg.batch_id is None:
            sweeps[-1].append((chassis, msg))
        to_local(self, chassis, msg)

    monkeypatch.setattr(CentralController, "_retire_sweep", recording_sweep)
    monkeypatch.setattr(Simulation, "_send_to_local", recording_to_local)
    sim = Simulation(chain_spec(4).with_params(rekey_interval=2.0, grace=1.0), seed=1)
    sim.quiesce()
    sim.run_until(7.5)
    sim.quiesce()
    assert len(sweeps) >= 3
    for batches in sweeps:
        chassis = [name for name, _ in batches]
        assert sorted(chassis) == sorted(set(chassis)) == ["s1", "s2", "s3", "s4"]
        for name, cfg in batches:
            for i, op in enumerate(cfg.ops):
                if isinstance(op, DeleteIgSc):
                    assert DeleteSa(sai=op.sai) in cfg.ops[i + 1:], (name, op)
    assert audit(sim) == []


def test_rows_stamped_at_one_instant_share_one_clock_int():
    """The loop moves the clock only when time moves, so the inbox rows and
    zero-delay entries of every event due at one microsecond hold the same
    int.  (The trace keeps its times as int64 values in an array, not as
    objects.)"""
    sim = Simulation(chain_spec(3).with_params(discovery_interval=1.0), seed=1)
    sim.quiesce()
    h1, h2 = sim.hosts["h1"], sim.hosts["h2"]
    zero_delay: list[int] = []

    def look(seq):
        """The entries due now and queued after this look was: the sends' transmits."""
        zero_delay.extend(at_us for at_us, s, *_ in sim.pending() if at_us == sim.now_us() and s > seq)

    for i in range(3):
        # Three events due at one instant, each queued with a due int of its own:
        # two sends, each queueing its transmit at delay 0, then a look at the queue.
        sim.schedule(1000, sim.host_send, "h1", h2.mac, 0x0800, b"a%d" % i)
        sim.schedule(1000, sim.host_send, "h2", h1.mac, 0x0800, b"b%d" % i)
        sim.schedule(1000, look, sim._seq + 1)
        sim.run_until(sim.now_s() + 1.0)  # the switches' discovery rounds share each instant
    sim.quiesce()
    inbox = [at_us for host in (h1, h2) for at_us, _data in host.received._rows]
    stamps: dict[int, set[int]] = {}
    for at_us in zero_delay + inbox:
        stamps.setdefault(at_us, set()).add(id(at_us))
    assert all(len(ids) == 1 for ids in stamps.values())
    assert set(Counter(zero_delay).values()) == set(Counter(inbox).values()) == {2} and len(stamps) == 6


def test_a_redeployed_channel_ignores_the_old_records_rekey_timer():
    spec = chain_spec(2).with_params(discovery_interval=1.0, rekey_interval=60.0, grace=1.0)
    sim = Simulation(spec, seed=1)
    sim.quiesce()  # activated at 0.001 s: its rekey timer is due at 60.001 s
    sim.run_until(30)
    sim.set_link_state("s1-s2", False)
    sim.quiesce()
    sim.run_until(31)
    sim.set_link_state("s1-s2", True)
    sim.quiesce()  # redeployed at 31.001 s, rekey_count back at 0
    record = next(iter(sim.central.sc_records.values()))

    def rekeys():
        return [d.rekey_count for d in record.directions.values()]

    sim.run_until(61)
    assert rekeys() == [0, 0] and sim.central.counters.get("channels.rekey") == 0
    sim.run_until(92)
    assert rekeys() == [1, 1]
    sim.quiesce()
    assert audit(sim) == []


def test_a_retire_after_a_redeploy_keeps_the_new_generations_row():
    spec = chain_spec(2).with_params(discovery_interval=1, rekey_interval=6, grace=5)
    sim = Simulation(spec, seed=1)
    sim.quiesce()
    sim.run_until(6.5)  # rekeyed from AN 0 to AN 1; the AN 0 generation retires at 11.001 s
    sim.set_link_state("s1-s2", False)
    sim.run_until(7)
    sim.set_link_state("s1-s2", True)
    sim.run_until(8)  # redeployed under AN 0
    sim.quiesce()
    assert audit(sim) == []


def test_teardown_of_a_channel_quarantined_at_ingress_applies_cleanly(monkeypatch):
    """The receiver of a nacked ingress holds no SA, so the teardown's IG-SC
    delete finds none and deletes nothing."""
    sim = Simulation(chain_spec(2), seed=1)
    s1, s2 = sim.switches["s1"], sim.switches["s2"]

    def refuse(sai):
        raise InvalidEntry("refused")

    monkeypatch.setattr(s2, "write_ig_sc", refuse)
    sim.quiesce()
    [record] = sim.central.sc_records.values()
    assert record.state == "quarantined" and s2.counters.get("sc_config.nack") == 1
    monkeypatch.undo()
    sim.set_link_state("s1-s2", False)
    sim.quiesce()
    assert (s1.counters.get("sc_config.nack"), s2.counters.get("sc_config.nack")) == (0, 1)
    assert sim.central.sc_records == {}
    for sw in (s1, s2):
        assert (sw.tables.sa, sw.tables.eg_sc, sw.tables.ig_sc) == ({}, {}, {})


def test_pn_exhaustion_triggers_automatic_rekey():
    spec = chain_spec(2).with_params(pn_ceiling=6, rekey_interval=1000.0)
    sim = Simulation(spec, seed=22)
    sim.quiesce()
    record = next(iter(sim.central.sc_records.values()))
    h2m = sim.hosts["h2"].mac
    t = sim.now_s()
    for i in range(20):
        t += 0.05
        sim.run_until(t)
        sim.host_send("h1", h2m, 0x0800, b"n%d" % i)
    sim.quiesce()
    assert record.directions["a2b"].rekey_count >= 1
    assert len(sim.host_recv("h2")) == 20  # renewed before frames were lost
    assert sim.switches["s1"].counters.get("sc_config.pn_exhausted") >= 1


def test_integrity_only_mode_authenticates_without_encrypting():
    spec = chain_spec(2).with_params(macsec_encrypt=False)
    sim = Simulation(spec, seed=23, keep_frames=True)
    sim.quiesce()
    sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"readable-but-signed")
    sim.quiesce()
    assert [f.payload for f in sim.host_recv("h2")] == [b"readable-but-signed"]
    protected = sim.trace.query(link="s1-s2", classification="macsec")
    assert protected
    assert any(b"readable-but-signed" in rec.data for rec in protected)
    # tampering still fails: raise the PN past the replay window so the
    # forgery reaches (and flunks) the ICV check
    raw = bytearray(protected[0].data)
    raw[16] ^= 0x80  # high bit of the 32-bit packet number
    before = sim.switches["s2"].counters.get("macsec.validate_failed")
    sim.inject_frame("s1-s2", protected[0].direction, bytes(raw))
    sim.quiesce()
    assert sim.switches["s2"].counters.get("macsec.validate_failed") == before + 1


def test_lldp_frames_always_use_multicast_destination():
    sim = Simulation(chain_spec(3), seed=24)
    sim.run_until(31.0)
    probes = sim.trace.query(classification="secure_lldp")
    assert probes
    assert all(rec.data[0:6] == LLDP_MULTICAST for rec in probes)


def test_key_rotation_causes_no_discovery_flaps():
    spec = chain_spec(3).with_params(discovery_interval=1.0, lldp_key_rotation=3.0)
    sim = Simulation(spec, seed=25)
    sim.quiesce()
    truth = sim.ground_truth_links()
    t = sim.now_s()
    while t < 10.0:
        t += 0.5
        sim.run_until(t)
        assert sim.central.confirmed_links() == truth, f"flap at t={t}"
    assert sim.central.counters.get("discovery_key.rotated") >= 3
    assert all(sw.counters.get("discovery.expired") == 0 for sw in sim.switches.values())


def test_local_views_match_ground_truth_after_one_round(hierarchical_spec):
    sim = Simulation(hierarchical_spec, seed=26)
    sim.quiesce()
    expected = {chassis: {} for chassis in sim.switches}
    for link in sim.interswitch_links:
        expected[link.a[0]][link.a[1]] = link.b
        expected[link.b[0]][link.b[1]] = link.a
    for chassis, controller in sim.controllers.items():
        assert controller.local_view == expected[chassis], chassis


def test_lossy_links_conserve_frames_and_stay_deterministic():
    spec = chain_spec(2).with_params(loss_probability=0.3, discovery_interval=1.0)
    def run():
        sim = Simulation(spec, seed=27)
        sim.run_until(10.0)
        sim.quiesce()  # drain in-flight deliveries
        return sim
    sim = run()
    lost = [rec for rec in sim.trace.records if rec.dropped == "random_loss"]
    assert lost  # the knob really drops frames
    delivered = host_arrivals(sim) + sum(
        sw.counters.total(f"port.{p}.rx") for sw in sim.switches.values() for p in sw.ports_up
    )
    annotated = sum(1 for rec in sim.trace.records if rec.dropped in WIRE_DROPS)
    assert delivered + annotated == len(sim.trace.records)
    again = run()
    assert [r.dropped for r in again.trace.records] == [r.dropped for r in sim.trace.records]


def test_latency_jitter_can_reorder_but_loses_nothing():
    spec = chain_spec(2).with_params(latency_jitter=0.01)
    sim = Simulation(spec, seed=28)
    sim.quiesce()
    sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"a")
    sim.quiesce()
    assert [f.payload for f in sim.host_recv("h2")] == [b"a"]


# Pinned once nonces and SAKs stopped drawing from the run's generator, which
# moved every key and draw value but not the order of the wire's draws.  A
# different value means the wire draws its loss and jitter in another order,
# or more or fewer times, or something else now draws from the generator.
LOSSY_JITTERED_DIGEST = "9f1144973801944beea1143a2e78967c33665d02187e7bff785bb8c2dc7bd58b"


def test_a_lossy_jittered_wire_draws_in_a_pinned_order():
    """The wire's `rng.uniform()` draws (loss, then jitter, per transmit)
    decide which frames are lost and when the rest arrive; a run at a fixed
    seed must reproduce every trace row, drop annotation and host inbox."""
    spec = chain_spec(3).with_params(
        loss_probability=0.2, latency_jitter=0.0003, grace=0.002, discovery_interval=0.5, rekey_interval=1.0,
    )
    sim = Simulation(spec, seed=5, keep_frames=True)
    sim.run_until(1.0)
    h1, h2 = sim.hosts["h1"], sim.hosts["h2"]
    for i in range(100):
        sim.host_send("h1", h2.mac, 0x0800, b"a%d" % i)
        sim.host_send("h2", h1.mac, 0x0800, b"b%d" % i)
        sim.run_until(sim.now_s() + 0.01)
    sim.quiesce()
    digest = hashlib.sha256()
    for rec in sim.trace.records:
        digest.update(repr((rec.time_us, rec.link, rec.direction, rec.data.hex(), rec.dropped)).encode())
    for name, host in sorted(sim.hosts.items()):
        for at_us, frame in host.received:
            digest.update(repr((name, at_us, frame.to_bytes().hex())).encode())
    assert {rec.dropped for rec in sim.trace.records} >= {None, "random_loss"}
    assert 0 < len(h1.received) < 100 and 0 < len(h2.received) < 100
    assert digest.hexdigest() == LOSSY_JITTERED_DIGEST


def test_quiesce_event_count_regression(hierarchical_spec):
    # Frozen measurement: initial discovery + channel deployment on the
    # shipped 7-switch fabric. Re-measure deliberately when control-plane
    # behavior changes; drift here means extra (or lost) protocol traffic.
    sim = Simulation(hierarchical_spec, seed=1)
    sim.quiesce()
    assert sim.events_processed == 98


def test_rekey_round_event_count_regression(hierarchical_spec):
    # Frozen measurement, as above, through one rekey round of every
    # direction and its retires; drift here means extra (or lost)
    # housekeeping traffic.
    sim = Simulation(hierarchical_spec.with_params(rekey_interval=2, grace=1), seed=1)
    sim.quiesce()
    sim.run_until(3.5)
    sim.quiesce()
    assert sim.central.counters.get("channels.rekey") == 12
    assert sim.events_processed == 155


def _random_tree_spec(rng):
    from macsecsim.topology import HostSpec, LinkSpec, SwitchSpec, TopologySpec

    n = rng.randrange(2, 8)
    switches = []
    next_port = {}
    for i in range(1, n + 1):
        switches.append(
            SwitchSpec(chassis_id=f"t{i}", mac=bytes([2, 0x20, 0, 0, 0, i]), num_ports=8)
        )
        next_port[f"t{i}"] = 1

    def claim(chassis):
        port = next_port[chassis]
        next_port[chassis] += 1
        return port

    links = []
    for i in range(2, n + 1):
        parent = f"t{rng.randrange(1, i)}"
        child = f"t{i}"
        links.append(
            LinkSpec(name=f"L{i}", a=(parent, claim(parent)), b=(child, claim(child)))
        )
    hosts = [
        HostSpec(name=f"th{i}", mac=bytes([2, 0x21, 0, 0, 0, i]), switch=f"t{i}", port=claim(f"t{i}"))
        for i in range(1, n + 1)
    ]
    spec = TopologySpec(switches=switches, hosts=hosts, links=links)
    spec.validate()
    return spec


def test_discovery_converges_on_random_trees():
    rng = random.Random(0xBEEF)
    for _ in range(12):
        spec = _random_tree_spec(rng)
        sim = Simulation(spec, seed=rng.randrange(1 << 30))
        sim.quiesce()
        assert sim.central.confirmed_links() == sim.ground_truth_links()
        assert set(sim.central.sc_records) == sim.central.confirmed_links()
        # every pair of hosts can exchange a frame
        names = sorted(sim.hosts)
        a, b = rng.sample(names, 2) if len(names) > 1 else (names[0], names[0])
        sim.host_send(a, sim.hosts[b].mac, 0x0800, b"tree-check")
        sim.quiesce()
        assert b"tree-check" in [f.payload for f in sim.host_recv(b)]


def test_random_churn_soak_keeps_map_sound(hierarchical_spec):
    rng = random.Random(0xC0FFEE)
    sim = Simulation(hierarchical_spec, seed=77)
    sim.quiesce()
    names = [link.name for link in sim.interswitch_links]
    hosts = sorted(sim.hosts)
    for _ in range(40):
        action = rng.randrange(3)
        if action == 0:
            name = rng.choice(names)
            sim.set_link_state(name, not sim.links[name].up)
        elif action == 1:
            a, b = rng.sample(hosts, 2)
            sim.host_send(a, sim.hosts[b].mac, 0x0800, rng.randbytes(20))
        else:
            sim.run_until(sim.now_s() + rng.random())
    for name in names:
        sim.set_link_state(name, True)
    sim.quiesce()
    assert sim.central.confirmed_links() == sim.ground_truth_links()
    assert set(sim.central.sc_records) == sim.central.confirmed_links()
    log = sim.central.sak_log
    assert len(log) == len(set(log))


def test_pcapng_file_is_structurally_valid(tmp_path):
    import struct as _struct

    sim = Simulation(chain_spec(2), seed=30)
    sim.quiesce()
    path = tmp_path / "t.pcapng"
    sim.trace_export(path)
    blob = path.read_bytes()
    assert _struct.unpack_from("<I", blob, 0)[0] == 0x0A0D0D0A  # SHB
    assert _struct.unpack_from("<I", blob, 8)[0] == 0x1A2B3C4D  # byte-order magic
    offset = 0
    while offset < len(blob):
        _btype, total = _struct.unpack_from("<II", blob, offset)
        assert total % 4 == 0
        trailer = _struct.unpack_from("<I", blob, offset + total - 4)[0]
        assert trailer == total  # trailing length mirrors the leading one
        offset += total
    assert offset == len(blob)


def test_unparseable_frame_toward_a_host_is_dropped_at_the_nic():
    sim = Simulation(chain_spec(2), seed=1)
    sim.quiesce()
    host = sim.hosts["h1"]
    before = list(host.received)
    sim.inject_frame(host.link.name, "a2b", b"\x00" * 10)  # hosts sit on their link's b end
    sim.quiesce()
    [record] = [rec for rec in sim.trace.records if rec.data == b"\x00" * 10]
    assert record.dropped == "unparseable"
    assert host.received == before


@pytest.mark.parametrize("entry", ["run_until", "quiesce"])
def test_livelock_is_raised_after_exactly_max_events(entry):
    sim = Simulation(chain_spec(2).with_params(max_events=10), seed=1)
    with pytest.raises(LivelockError, match=entry):
        sim.run_until(60.0) if entry == "run_until" else sim.quiesce()
    assert sim.events_processed == 10


def test_events_due_at_the_same_microsecond_run_in_queue_order():
    sim = Simulation(chain_spec(2), seed=1)
    sim.quiesce()
    latency_us = sim.links["s1-s2"].latency_us
    order = []
    s2 = sim.switches["s2"]
    handle_frame = s2.handle_frame
    s2.handle_frame = lambda port, data: (order.append("frame"), handle_frame(port, data))[1]
    # All three are due one link latency from now: a timer queued before the
    # frame's delivery, the delivery, and a timer queued after it.
    sim.schedule(latency_us, lambda: order.append("timer before"))
    sim.inject_frame("s1-s2", "a2b", b"\x00" * 10)
    sim.schedule(0, lambda: sim.schedule(latency_us, lambda: order.append("timer after")))
    sim.run_until((sim.now_us() + 2 * latency_us) / 1_000_000)
    assert order == ["timer before", "frame", "timer after"]


LATENCY_CASES = [
    (0.0, 0), (4e-7, 0), (5e-7, 0), (1.5e-6, 2), (2.5e-6, 2),
    (0.1 + 0.2, 300_000), (1.2345678e-3, 1235), (0.000251, 251),
]


@pytest.mark.parametrize(
    "seconds,expected_us", LATENCY_CASES, ids=[str(seconds) for seconds, _ in LATENCY_CASES]
)
def test_link_latency_rounds_to_the_nearest_microsecond(seconds, expected_us):
    sim = Simulation(chain_spec(3).with_params(link_latency=seconds), seed=1)
    assert {link.latency_us for link in sim.links.values()} == {expected_us}


def test_discovery_rounds_come_one_rounded_interval_apart():
    sim = Simulation(chain_spec(2).with_params(discovery_interval=1.001), seed=1)
    sim.run_until(3.5)
    times = [rec.time_us for rec in sim.trace.query(link="s1-s2", direction="a2b", classification="secure_lldp")]
    assert [b - a for a, b in zip(times, times[1:])] == [1_001_000] * 3


def test_default_grace_is_the_rounded_discovery_interval():
    sim = Simulation(chain_spec(2).with_params(discovery_interval=1.001), seed=1)
    assert sim.central.grace_us == sim.controllers["s1"].discovery_interval_us == 1_001_000


@pytest.mark.parametrize("jitter_s", [0.0, 0.0005])
def test_every_queue_push_goes_through_schedule(monkeypatch, jitter_s):
    pushes = []
    schedule = Simulation.schedule

    def counting(self, delay_us, fn, *args, housekeeping=False):
        pushes.append((delay_us, fn.__name__))
        schedule(self, delay_us, fn, *args, housekeeping=housekeeping)

    monkeypatch.setattr(Simulation, "schedule", counting)
    spec = chain_spec(3).with_params(latency_jitter=jitter_s, rekey_interval=2.0, grace=1.0)
    sim = Simulation(spec, seed=1)
    sim.quiesce()
    sim.run_until(3.5)  # a rekey round and its retires
    sim.set_control_state("s2", False)  # the next rekey's messages to and from s2 are held
    sim.run_until(5.0)
    held = [msg for _deliver, msg in sim._held["s2"]]
    assert held
    seq = sim._seq
    sim.set_control_state("s2", True)
    assert pushes[-len(held):] == [(0, "deliver")] * len(held)
    assert [args[0] for _at, s, _hk, _fn, args in sim.pending() if s > seq] == held
    sim.run_until(8.0)
    assert {"_deliver", "_retire_sweep"} <= {name for _, name in pushes}
    assert len(pushes) == sim.events_processed + len(sim.pending())
    assert all(type(delay_us) is int for delay_us, _ in pushes)
    assert all(type(at_us) is int for at_us, *_ in sim.pending())
    assert "<lambda>" not in {name for _, name in pushes}


def test_the_callbacks_queued_per_event_are_bound_once(monkeypatch):
    """Frame deliveries, messages to the central controller, the rekey sweeps
    and the retire sweeps each queue one callable object for the whole run."""
    queued = []  # keeps every queued callable alive, so distinct objects stay distinct
    schedule = Simulation.schedule

    def recording(self, delay_us, fn, *args, housekeeping=False):
        queued.append(fn)
        schedule(self, delay_us, fn, *args, housekeeping=housekeeping)

    monkeypatch.setattr(Simulation, "schedule", recording)
    sim = Simulation(chain_spec(3).with_params(rekey_interval=2.0, grace=1.0), seed=1)
    sim.quiesce()
    for i in range(3):  # traffic both ways across the rekey rounds
        sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"a%d" % i)
        sim.host_send("h2", sim.hosts["h1"].mac, 0x0800, b"b%d" % i)
        sim.run_until(sim.now_s() + 2.5)
    sim.quiesce()

    for name, owner in [
        ("_deliver", sim), ("deliver", sim.central), ("_rekey_sweep", sim.central), ("_retire_sweep", sim.central),
    ]:
        fns = [fn for fn in queued if fn.__name__ == name and fn.__self__ is owner]
        assert len(fns) > 1, name
        assert len({id(fn) for fn in fns}) == 1, name


def test_each_local_controller_rearms_discovery_with_one_bound_method(monkeypatch):
    """A controller binds `discovery_round` once, at its first round, and
    every later round queues that same object."""
    queued = []
    schedule = Simulation.schedule

    def recording(self, delay_us, fn, *args, housekeeping=False):
        queued.append(fn)
        schedule(self, delay_us, fn, *args, housekeeping=housekeeping)

    monkeypatch.setattr(Simulation, "schedule", recording)
    sim = Simulation(chain_spec(3).with_params(discovery_interval=1.0), seed=1)
    sim.run_until(5.5)
    for ctl in sim.controllers.values():
        fns = [fn for fn in queued if fn.__name__ == "discovery_round" and fn.__self__ is ctl]
        assert len(fns) == 6 and len({id(fn) for fn in fns}) == 1


def test_a_counter_read_by_name_agrees_with_the_dump():
    """`get` reads one name, live or named, and returns 0 for a name that
    no count goes by, exactly as a lookup in `as_dict` would."""
    sim = Simulation(chain_spec(3).with_params(discovery_interval=1, rekey_interval=2, grace=1), seed=1)
    sim.quiesce()
    for i in range(3):  # traffic across two rekeys: retired SAs' counts move to named counters
        sim.run_until(sim.now_s() + 1.5)
        sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"a%d" % i)
        sim.host_send("h2", sim.hosts["h1"].mac, 0x0800, b"b%d" % i)
    sim.inject_frame("s1-s2", "a2b", b"\x00" * 10)  # a truncated frame: a drop count
    sim.quiesce()
    absent = [
        "", "drop.none", "macsec.validated.x", "port.1", "port.1.rx.x", "port.01.rx", "port.+1.rx",
        "port. 1.rx", "port.-1.rx", "port.-2.rx", "port.4.tx", "port.1.bytes", "sa.x.validated", "sa.999.failed",
    ]
    for switch in sim.switches.values():
        counts = switch.counters.as_dict()
        assert {"port", "sa", "macsec"} <= {name.split(".")[0] for name in counts}, switch.chassis_id
        names = [*counts, *absent] + [
            f"sa.{sai}.{kind}" for sai in switch.tables.sa for kind in ("validated", "failed", "protected")
        ]
        assert {n: switch.counters.get(n) for n in names} == {n: counts.get(n, 0) for n in names}
    assert sim.switches["s2"].counters.get("drop.truncated") == 1


def test_validated_frame_with_a_short_lldp_typed_inner_frame_fails_closed():
    sim = Simulation(chain_spec(2), seed=1)
    sim.quiesce()
    s1, s2 = sim.switches["s1"], sim.switches["s2"]
    [sai] = s2.tables.ig_sc.values()
    sa = s2.tables.sa[sai]
    inner = LLDP_MULTICAST + s1.mac + b"\x88\xcc" + b"\x00" * 5
    assert len(inner) == 19
    data = macsec_protect(
        sa.sak, sa.sci, sa.lowest_acceptable_pn, inner, an=sa.an, confidentiality=sa.confidentiality
    )
    validated = s2.counters.get("macsec.validated")
    sim.inject_frame("s1-s2", "a2b", data)
    sim.quiesce()
    assert s2.counters.get("macsec.validated") == validated + 1
    assert s2.counters.get("discovery.decode_failure") == 1


def test_forwarded_hops_count_without_named_counters(monkeypatch):
    """Known unicast through a chain counts on ports and SAs only, and the
    counts still match the trace: a switch port's tx and rx are the rows it
    sent and received, and a switch's protected counts its MACsec rows."""
    sim = Simulation(chain_spec(3), seed=1)
    sim.quiesce()
    h1, h2 = sim.hosts["h1"].mac, sim.hosts["h2"].mac
    for _ in range(2):  # every switch learns both hosts
        sim.host_send("h1", h2, 0x0800, b"learn")
        sim.host_send("h2", h1, 0x0800, b"learn")
        sim.quiesce()
    incr, named = Counters.incr, []

    def counting_incr(self, name, amount=1):
        named.append(name)
        incr(self, name, amount)

    monkeypatch.setattr(Counters, "incr", counting_incr)
    for i in range(10):
        sim.host_send("h1", h2, 0x0800, b"a%d" % i)
        sim.host_send("h2", h1, 0x0800, b"b%d" % i)
    sim.quiesce()
    assert named == []
    assert len(sim.host_recv("h1")) == len(sim.host_recv("h2")) == 12

    rows = Counter()
    for rec in sim.trace.records:
        link = sim.links[rec.link]
        (sender, s_port), (receiver, r_port) = (link.a, link.b) if rec.direction == "a2b" else (link.b, link.a)
        if sender in sim.switches:
            rows[f"{sender}:port.{s_port}.tx"] += 1
            rows[f"{sender}:protected"] += rec.classification == "macsec"
        if receiver in sim.switches and rec.dropped not in WIRE_DROPS:
            rows[f"{receiver}:port.{r_port}.rx"] += 1
    counts = Counter()
    for chassis, dump in sim.counters_dump().items():
        for name, n in dump.items():
            if name.startswith("port."):
                counts[f"{chassis}:{name}"] = n
            elif name.startswith("sa.") and name.endswith(".protected"):
                counts[f"{chassis}:protected"] += n
    assert +counts == +rows


def test_an_egress_sa_whose_pn_goes_back_fails_the_iv_check():
    """Every protected frame reaches the simulation's IV registry: an egress
    SA whose next PN is wound back to 1 seals its next frame under an IV
    already used, a (SAK, IV) reuse."""
    sim = Simulation(chain_spec(2), seed=1)
    sim.quiesce()
    sim.host_send("h1", b"\xff" * 6, 0x0800, b"first")
    sim.quiesce()
    s1 = sim.switches["s1"]
    [sai] = s1.tables.eg_sc.values()
    sa = s1.tables.sa[sai]
    assert sa.next_pn > 1
    sa.next_pn = 1
    sim.host_send("h1", b"\xff" * 6, 0x0800, b"again")
    with pytest.raises(AssertionError, match="reuse"):
        sim.quiesce()


def test_a_duplicated_live_egress_batch_is_nacked_and_changes_nothing(monkeypatch):
    """A repeated control batch cannot restart a live SA at PN 1: its `WriteSa`
    names an SAI the switch holds, so the batch rolls back and is nacked, and
    the central controller ignores the nack of a batch no longer pending."""
    configs = []
    to_local = Simulation._send_to_local

    def recording_to_local(self, chassis, msg):
        if chassis == "s1" and isinstance(msg, ScConfig):
            configs.append(msg)
        to_local(self, chassis, msg)

    monkeypatch.setattr(Simulation, "_send_to_local", recording_to_local)
    sim = Simulation(chain_spec(2).with_params(discovery_interval=1), seed=1)
    sim.quiesce()
    h2 = sim.hosts["h2"].mac
    for i in range(3):
        sim.host_send("h1", h2, 0x0800, b"f%d" % i)
    sim.quiesce()
    *_, egress = [c for c in configs if any(isinstance(op, WriteEgSc) for op in c.ops)]
    s1 = sim.switches["s1"]
    tables, central = repr(s1.tables), sim.central.dump_sc_records(unsafe_keys=True)
    sim._send_to_local("s1", egress)
    sim.quiesce()
    assert s1.counters.get("sc_config.nack") == 1
    assert repr(s1.tables) == tables
    assert sim.central.dump_sc_records(unsafe_keys=True) == central
    sim.host_send("h1", h2, 0x0800, b"f3")
    sim.quiesce()  # the IV registry would raise on a PN that went back
    assert [f.payload for f in sim.host_recv("h2")] == [b"f0", b"f1", b"f2", b"f3"]
    assert audit(sim) == []


def _live_sending_sas(sim) -> int:
    """SAs a switch protects with: an SCI starts with its sender's MAC."""
    return sum(sa.sci[:6] == sw.mac for sw in sim.switches.values() for sa in sw.tables.sa.values())


def test_the_iv_registry_stays_bounded_by_the_live_sending_sas_and_one_entry_per_switch():
    """Under fast rekeys and discovery-key rotations, the registry forgets each
    retired SA and each replaced discovery key, and no nonce is kept."""
    spec = chain_spec(3).with_params(
        discovery_interval=0.5, rekey_interval=1.0, grace=0.25, lldp_key_rotation=2.0,
    )
    sim = Simulation(spec, seed=1)
    h1, h2 = sim.hosts["h1"], sim.hosts["h2"]
    step = 0
    while sim.now_us() < 30_000_000:
        if step % 2 == 0:
            sim.host_send("h1", h2.mac, 0x0800, b"a%d" % step)
            sim.host_send("h2", h1.mac, 0x0800, b"b%d" % step)
        sim.run_until(sim.now_s() + 0.05)
        step += 1
        assert len(sim.iv_registry._seen) <= _live_sending_sas(sim) + len(sim.switches), sim.now_s()
    assert sim.central.counters.get("channels.rekey") >= 100
    assert sim.central.counters.get("discovery_key.rotated") == 15
    assert len(h1.received) > 250 and len(h2.received) > 250
    assert sim.rng._nonces_issued == set()


def _retained_over_rekey_cycles(cycles: int) -> tuple[int, int]:
    """Bytes retained over `cycles` one-second cycles of a rekeying 2-switch
    chain after a warm-up, and the rekeys started in them."""
    spec = chain_spec(2).with_params(
        discovery_interval=1000.0, rekey_interval=1.0, grace=0.5, lldp_key_rotation=10_000.0,
    )
    sim = Simulation(spec, seed=1)
    sim.quiesce()

    def cycle():
        sim.run_until(sim.now_s() + 1.0)
        sim.quiesce()

    for _ in range(5):
        cycle()
    rekeys = sim.central.counters.get("channels.rekey")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(cycles):
            cycle()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown, sim.central.counters.get("channels.rekey") - rekeys


def test_an_issued_sak_is_not_kept():
    """A SAK is derived from its key number, so no store grows with each
    rekey: the retained bytes of 160 cycles less those of 80, per rekey,
    stay under 8 B."""
    short_grown, short_rekeys = _retained_over_rekey_cycles(80)
    long_grown, long_rekeys = _retained_over_rekey_cycles(160)
    assert long_rekeys > short_rekeys > 0
    per_sak = (long_grown - short_grown) / (long_rekeys - short_rekeys)
    assert per_sak < 8, per_sak
    sim = Simulation(chain_spec(2), seed=1)
    sim.quiesce()
    assert sim.central.sak_log and "sak_log" not in vars(sim.central)


def test_a_receiver_deleting_an_sa_leaves_the_senders_registry_entry():
    sim = Simulation(chain_spec(2), seed=1)
    sim.quiesce()
    sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"protected by s1")
    sim.quiesce()
    [record] = sim.central.sc_records.values()
    [d] = [d for d in record.directions.values() if d.sender == "s1"]
    entry = (d.sak.key, d.sci)
    assert entry in sim.iv_registry._seen
    sim.controllers[d.receiver].deliver(ScConfig(batch_id=None, ops=[DeleteIgSc(sai=d.sai), DeleteSa(sai=d.sai)]))
    assert entry in sim.iv_registry._seen
    sim.controllers[d.sender].deliver(
        ScConfig(batch_id=None, ops=[DeleteEgSc(port=d.sender_port), DeleteSa(sai=d.sai)])
    )
    assert entry not in sim.iv_registry._seen


def test_an_unexpected_control_message_raises_and_changes_nothing():
    """Each controller refuses a message meant for the other tier."""
    sim = Simulation(chain_spec(2), seed=1)
    sim.quiesce()

    def state():
        central = sim.central
        return (
            sim.pending(), sim.counters_dump(), central.counters.as_dict(), central.dump_link_map(),
            central.dump_sc_records(unsafe_keys=True), [repr(sw.tables) for sw in sim.switches.values()],
            [(c.local_view, c.rx_seq, c.seal_count, c.tx_seq) for c in sim.controllers.values()],
        )

    before = state()
    with pytest.raises(TypeError, match="^unexpected control message StartDiscovery$"):
        sim.central.deliver(StartDiscovery())
    with pytest.raises(TypeError, match="^unexpected control message LinkDelta$"):
        sim.controllers["s1"].deliver(LinkDelta("s1", 2, ("s2", 1)))
    with pytest.raises(TypeError, match="^unexpected control message StartDiscovery$"):
        sim.controllers["s1"].deliver(StartDiscovery())
    assert state() == before


def test_a_negative_delay_fails_at_the_call():
    """No entry can fall due before the clock: `schedule` refuses it and
    queues nothing, so the counts and the run after it are untouched."""
    sim = Simulation(chain_spec(2), seed=1)
    sim.run_until(1.0)
    before = sim.pending(), sim._seq, sim._actionable
    with pytest.raises(ValueError, match="^delay -5 us is negative$"):
        sim.schedule(-5, sim.now_us)
    assert (sim.pending(), sim._seq, sim._actionable) == before
    sim.run_until(2.0)
    sim.quiesce()
    assert sim.now_us() >= 2_000_000 and audit(sim) == []


def test_reading_a_total_or_a_named_count_walks_no_live_count(monkeypatch):
    """The benchmark's per-pass counter reads stay O(1) per switch: `get`
    answers totals and names kept by `incr` without enumerating ports or SAs."""
    sim = Simulation(chain_spec(2), seed=1)
    sim.quiesce()
    sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"payload")
    sim.inject_frame("s1-s2", "a2b", b"\x00" * 10)
    sim.quiesce()
    names = ("drop.truncated", "discovery.sent", "macsec.validated", "macsec.protected", "macsec.validate_failed")
    expected = {(chassis, n): dump.get(n, 0) for chassis, dump in sim.counters_dump().items() for n in names}

    def walk(self):
        raise AssertionError("live_counts walked")

    monkeypatch.setattr(Switch, "live_counts", walk)
    assert {(c, n): sw.counters.get(n) for c, sw in sim.switches.items() for n in names} == expected
    assert expected["s2", "drop.truncated"] == 1 and expected["s1", "macsec.protected"] > 0


def test_a2b_names_the_spec_order_on_the_wire_and_the_key_order_in_a_record():
    """Link s9-s10 is spec'd s9:2 -> s10:1, so its trace's a2b runs s9 -> s10;
    its channel record is keyed by the sorted ends, and "s10" < "s9", so the
    record's a2b runs s10 -> s9 and the wire's a2b is the record's b2a."""
    sim = Simulation(chain_spec(10), seed=31)
    sim.quiesce()
    h1, h2 = sim.hosts["h1"].mac, sim.hosts["h2"].mac
    for i in range(3):
        sim.host_send("h1", h2, 0x0800, b"east %d" % i)
        sim.host_send("h2", h1, 0x0800, b"west %d" % i)
        sim.quiesce()
    record = sim.central.sc_records[sim.links["s9-s10"].key]
    lines = sim.central.dump_sc_records()  # what `inspect scs` prints
    at = lines.index("sc s10:1-s9:2 state=active")
    assert lines[at + 1].startswith("  a2b s10:1->s9:2 sci=" + record.directions["a2b"].sci.hex())
    for direction, record_direction in (("a2b", "b2a"), ("b2a", "a2b")):
        rows = sim.trace.query(link="s9-s10", direction=direction, classification="macsec")
        assert len(rows) == 3
        assert {rec.data[SCI_OFFSET:SECURE_DATA_OFFSET] for rec in rows} == {record.directions[record_direction].sci}
    assert record.directions["b2a"].sender == "s9"
