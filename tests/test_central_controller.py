from macsecsim.central_controller import CentralController, link_key
from macsecsim.messages import (
    DeleteEgSc,
    DeleteIgSc,
    DeleteSa,
    KeyInstall,
    LinkDelta,
    PnExhausted,
    ScAck,
    ScConfig,
    SetPortFlag,
    StartDiscovery,
    WriteEgSc,
    WriteIgSc,
    WriteSa,
)
from macsecsim.randomness import RandomSource
from macsecsim.wire import mac_from_str, make_sci

MACS = {
    "s1": mac_from_str("02:00:00:00:00:01"),
    "s2": mac_from_str("02:00:00:00:00:02"),
    "s3": mac_from_str("02:00:00:00:00:03"),
}

KEY_12 = link_key(("s1", 2), ("s2", 4))


class Harness:
    def __init__(self, **kwargs):
        self.time_us = 0
        self.scheduled = []
        self.outbox = []
        self.central = CentralController(
            now=lambda: self.time_us,
            schedule=lambda delay_us, fn, *args, housekeeping=False: self.scheduled.append(
                [self.time_us + delay_us, fn, args, housekeeping]
            ),
            send_to_local=self._send,
            rng=RandomSource(7),
            **kwargs,
        )

    def _send(self, chassis, msg):
        self.outbox.append((chassis, msg))

    def register_all(self, *names):
        for name in names:
            self.central.handle_register(name, MACS[name])

    def configs(self):
        return [(ch, m) for ch, m in self.outbox if isinstance(m, ScConfig)]

    def ack_all(self, ok=True):
        """Play the local controllers: ack every un-acked config batch."""
        acked = set()
        progress = True
        while progress:
            progress = False
            for chassis, msg in list(self.outbox):
                if isinstance(msg, ScConfig) and msg.batch_id not in acked:
                    acked.add(msg.batch_id)
                    self.central.handle_sc_ack(ScAck(chassis, msg.batch_id, ok))
                    progress = True

    def confirm_link(self, a=("s1", 2), b=("s2", 4)):
        self.central.handle_link_delta(LinkDelta(a[0], a[1], b))
        self.central.handle_link_delta(LinkDelta(b[0], b[1], a))
        self.ack_all()

    def advance_to_rekey_timers(self):
        """Move the clock to the deadline of the queued rekey timers, the only housekeeping ones."""
        [self.time_us] = {deadline_us for deadline_us, _fn, _args, hk in self.scheduled if hk}

    def run_due_timers(self):
        """Fire the scheduled callbacks whose deadline has come (one sweep)."""
        for entry in list(self.scheduled):
            deadline_us, fn, args, _hk = entry
            if deadline_us <= self.time_us:
                self.scheduled.remove(entry)
                fn(*args)


def test_register_installs_key_then_starts_discovery():
    h = Harness()
    h.register_all("s1")
    kinds = [type(m).__name__ for ch, m in h.outbox if ch == "s1"]
    assert kinds == ["KeyInstall", "StartDiscovery"]
    assert h.outbox[0][1].key.key_id == 1


def test_one_way_report_stays_reported():
    h = Harness()
    h.register_all("s1", "s2")
    h.central.handle_link_delta(LinkDelta("s1", 2, ("s2", 4)))
    assert h.central.link_map[KEY_12] == "reported"
    assert h.central.confirmed_links() == set()
    assert h.configs() == []


def test_bidirectional_reports_confirm_and_deploy():
    h = Harness()
    h.register_all("s1", "s2")
    h.central.handle_link_delta(LinkDelta("s1", 2, ("s2", 4)))
    h.central.handle_link_delta(LinkDelta("s2", 4, ("s1", 2)))
    assert h.central.confirmed_links() == {KEY_12}
    # Receiver-side ingress batches go out first, nothing egress yet.
    first_wave = h.configs()
    assert len(first_wave) == 2
    for _, cfg in first_wave:
        assert {type(op) for op in cfg.ops} == {WriteSa, WriteIgSc}
    h.ack_all()
    record = h.central.sc_records[KEY_12]
    assert record.state == "active"
    saks = {d.sak.key for d in record.directions.values()}
    assert len(saks) == 2  # per-direction keys differ
    egress = [cfg for _, cfg in h.configs()[2:]]
    assert all(any(isinstance(op, WriteEgSc) for op in cfg.ops) for cfg in egress[:2])


def test_sci_is_sender_mac_plus_port():
    h = Harness()
    h.register_all("s1", "s2")
    h.confirm_link()
    d = h.central.sc_records[KEY_12].directions["a2b"]
    assert d.sci == MACS["s1"] + b"\x00\x02"


def test_remove_demotes_and_tears_down():
    h = Harness()
    h.register_all("s1", "s2")
    h.confirm_link()
    install_ops = [type(op) for _, cfg in h.configs() for op in cfg.ops]
    h.outbox.clear()
    h.central.handle_link_delta(LinkDelta("s1", 2, None))
    assert KEY_12 not in h.central.sc_records
    assert h.central.link_map[KEY_12] == "reported"
    revoke_ops = [type(op) for _, cfg in h.configs() for op in cfg.ops]
    assert DeleteEgSc in revoke_ops and DeleteIgSc in revoke_ops and DeleteSa in revoke_ops
    # The EG-SC row alone secures a port; no op flags it.
    assert WriteEgSc in install_ops and SetPortFlag not in install_ops + revoke_ops
    h.central.handle_link_delta(LinkDelta("s2", 4, None))
    assert KEY_12 not in h.central.link_map


def test_conflicting_report_recables():
    h = Harness()
    h.register_all("s1", "s2", "s3")
    h.confirm_link()
    h.central.handle_link_delta(LinkDelta("s1", 2, ("s3", 1)))
    # s1's report replaces only its own: s2's report of s1:2 stands until s2 changes it.
    assert h.central.link_map[KEY_12] == "reported"
    assert KEY_12 not in h.central.sc_records
    new_key = link_key(("s1", 2), ("s3", 1))
    assert h.central.link_map[new_key] == "reported"


def test_a_report_never_unseats_a_link_between_two_other_ports():
    h = Harness()
    h.register_all("s1", "s2", "s3")
    key_23 = link_key(("s2", 5), ("s3", 1))
    h.confirm_link(("s2", 5), ("s3", 1))
    record = h.central.sc_records[key_23]
    sent = len(h.outbox)
    h.central.handle_link_delta(LinkDelta("s1", 2, ("s3", 1)))  # e.g. a probe of s3:1 replayed to s1:2
    assert h.central.sc_records == {key_23: record} and record.state == "active"
    assert h.central.link_map == {key_23: "confirmed", link_key(("s1", 2), ("s3", 1)): "reported"}
    assert h.outbox[sent:] == []


def test_a_repeated_report_changes_nothing():
    h = Harness()
    h.register_all("s1", "s2", "s3")
    h.confirm_link()
    h.central.handle_link_delta(LinkDelta("s1", 3, ("s3", 2)))
    record = h.central.sc_records[KEY_12]
    reports = dict(h.central.reports)
    sent = len(h.outbox)
    for delta in (LinkDelta("s1", 2, ("s2", 4)), LinkDelta("s2", 4, ("s1", 2)), LinkDelta("s1", 3, ("s3", 2))):
        h.central.handle_link_delta(delta)
    assert h.central.reports == reports
    assert h.central.sc_records == {KEY_12: record} and record.state == "active"
    assert h.outbox[sent:] == []


def test_removal_report_for_a_port_without_a_link_changes_nothing():
    h = Harness()
    h.register_all("s1", "s2")
    h.confirm_link()
    record = h.central.sc_records[KEY_12]
    sent = len(h.outbox)
    h.central.handle_link_delta(LinkDelta("s1", 7, None))
    assert list(h.central.link_map) == [KEY_12]
    assert h.central.reports == {("s1", 2): ("s2", 4), ("s2", 4): ("s1", 2)}
    assert h.central.sc_records == {KEY_12: record} and record.state == "active"
    assert len(h.outbox) == sent


def test_unknown_switch_delta_ignored():
    h = Harness()
    h.register_all("s1")
    h.central.handle_link_delta(LinkDelta("ghost", 1, ("s1", 1)))
    assert h.central.link_map == {}
    assert h.central.counters.get("linkmap.unknown_switch") == 1


def test_reconfirmed_link_gets_fresh_saks():
    h = Harness()
    h.register_all("s1", "s2")
    h.confirm_link()
    old = {d.sak.key for d in h.central.sc_records[KEY_12].directions.values()}
    h.central.handle_link_delta(LinkDelta("s1", 2, None))
    h.central.handle_link_delta(LinkDelta("s2", 4, None))
    h.confirm_link()
    new = {d.sak.key for d in h.central.sc_records[KEY_12].directions.values()}
    assert old.isdisjoint(new)
    log = h.central.sak_log
    assert len(log) == len(set(log)) == 4


def test_rekey_increments_an_and_orders_ingress_first():
    h = Harness(rekey_interval_us=60_000_000)
    h.register_all("s1", "s2")
    h.confirm_link()
    record = h.central.sc_records[KEY_12]
    d = record.directions["a2b"]
    old_sai, old_sak = d.sai, d.sak.key
    h.outbox.clear()
    h.advance_to_rekey_timers()
    h.run_due_timers()
    # Ingress install to the receiver precedes egress activation.
    first = h.configs()[0]
    assert first[0] == d.receiver
    assert {type(op) for op in first[1].ops} == {WriteSa, WriteIgSc}
    h.ack_all()
    assert d.an == 1
    assert d.sai != old_sai and d.sak.key != old_sak
    assert d.rekey_count == 1
    # Old-generation cleanup waits for the grace timer, then names the old SA at both ends.
    retire_at = h.time_us + h.central.grace_us
    assert any(not hk and deadline_us == retire_at for deadline_us, _fn, _args, hk in h.scheduled)
    h.outbox.clear()
    h.run_due_timers()
    assert h.configs() == []  # nothing is due before the grace deadline
    h.time_us = retire_at
    h.run_due_timers()
    # The sweep sends each direction's two retire batches and nothing else: no second rekey.
    sent = [(ch, cfg.ops) for ch, cfg in h.configs()]
    assert all(cfg.batch_id is None for _, cfg in h.configs()) and len(sent) == 4
    assert (d.receiver, [DeleteIgSc(sai=old_sai), DeleteSa(sai=old_sai)]) in sent
    assert (d.sender, [DeleteSa(sai=old_sai)]) in sent
    assert not any(isinstance(op, WriteSa) for _, ops in sent for op in ops)


def test_teardown_names_the_current_and_the_staged_sa():
    h = Harness()
    h.register_all("s1", "s2")
    h.confirm_link()
    d = h.central.sc_records[KEY_12].directions["a2b"]
    h.central.handle_pn_exhausted(PnExhausted(chassis_id="s1", sci=d.sci))  # stages a rekey, unacked
    sais = [d.sai, d.next[0]]
    h.outbox.clear()
    h.central.handle_link_delta(LinkDelta("s1", 2, None))
    receiver_ops = [DeleteIgSc(sai=s) for s in sais] + [DeleteSa(sai=s) for s in sais]
    assert (d.receiver, ScConfig(batch_id=None, ops=receiver_ops)) in h.configs()


def test_an_cycles_mod_four():
    h = Harness(rekey_interval_us=10_000_000)
    h.register_all("s1", "s2")
    h.confirm_link()
    d = h.central.sc_records[KEY_12].directions["a2b"]
    seen = [d.an]
    for _ in range(4):
        h.advance_to_rekey_timers()
        h.run_due_timers()
        h.ack_all()
        seen.append(d.an)
    assert seen == [0, 1, 2, 3, 0]


def test_pn_exhaustion_triggers_out_of_cycle_rekey():
    h = Harness()
    h.register_all("s1", "s2")
    h.confirm_link()
    d = h.central.sc_records[KEY_12].directions["a2b"]
    assert d.rekey_count == 0
    h.central.handle_pn_exhausted(PnExhausted(chassis_id="s1", sci=d.sci))
    h.ack_all()
    assert d.rekey_count == 1


def test_pn_exhaustion_rekeys_only_the_matching_direction():
    h = Harness()
    h.register_all("s1", "s2", "s3")
    h.confirm_link(("s1", 2), ("s2", 4))
    h.confirm_link(("s1", 3), ("s3", 1))
    key_13 = link_key(("s1", 3), ("s3", 1))
    exhausted = h.central.sc_records[key_13].directions["a2b"]
    h.central.handle_pn_exhausted(PnExhausted(chassis_id="s1", sci=exhausted.sci))
    h.ack_all()
    rekeys = {
        (key, name): d.rekey_count
        for key, record in h.central.sc_records.items()
        for name, d in record.directions.items()
    }
    assert rekeys == {(KEY_12, "a2b"): 0, (KEY_12, "b2a"): 0, (key_13, "a2b"): 1, (key_13, "b2a"): 0}
    assert h.central.counters.get("channels.pn_exhausted") == 1
    assert h.central.counters.get("channels.rekey") == 1


def test_pn_exhaustion_of_unknown_or_quarantined_channel_starts_no_rekey():
    h = Harness()
    h.register_all("s1", "s2", "s3")
    h.confirm_link(("s1", 2), ("s2", 4))
    h.confirm_link(("s1", 3), ("s3", 1))
    # s2 nacks the rekey of a2b twice: the link is quarantined while b2a stays active.
    record = h.central.sc_records[KEY_12]
    a2b, b2a = record.directions["a2b"], record.directions["b2a"]
    h.central.handle_pn_exhausted(PnExhausted(chassis_id="s1", sci=a2b.sci))
    chassis, cfg = h.configs()[-1]
    h.central.handle_sc_ack(ScAck(chassis, cfg.batch_id, ok=False, detail="bad entry"))
    h.time_us = 2_000_000
    h.run_due_timers()
    h.central.handle_sc_ack(ScAck(chassis, cfg.batch_id, ok=False, detail="bad entry"))
    assert record.state == "quarantined" and b2a.phase == "active"
    h.outbox.clear()
    h.central.handle_pn_exhausted(PnExhausted(chassis_id="s2", sci=b2a.sci))
    h.central.handle_pn_exhausted(PnExhausted(chassis_id="s1", sci=make_sci(MACS["s1"], 4)))
    assert h.configs() == []
    assert b2a.next is None and b2a.phase == "active"
    assert h.central.counters.get("channels.pn_exhausted") == 3
    assert h.central.counters.get("channels.rekey") == 1


def test_ack_of_a_torn_down_record_does_not_advance_its_successor():
    h = Harness()
    h.register_all("s1", "s2")
    h.central.handle_link_delta(LinkDelta("s1", 2, ("s2", 4)))
    h.central.handle_link_delta(LinkDelta("s2", 4, ("s1", 2)))
    old_batches = h.configs()
    h.central.handle_link_delta(LinkDelta("s1", 2, None))
    h.central.handle_link_delta(LinkDelta("s1", 2, ("s2", 4)))
    record = h.central.sc_records[KEY_12]
    sent = len(h.outbox)
    for chassis, cfg in old_batches:
        h.central.handle_sc_ack(ScAck(chassis, cfg.batch_id, ok=True))
    assert [d.phase for d in record.directions.values()] == ["ingress_pending", "ingress_pending"]
    assert not any(isinstance(op, WriteEgSc) for _, msg in h.outbox[sent:] for op in msg.ops)
    h.ack_all()
    assert record.state == "active"


def test_nack_quarantines_the_channel():
    h = Harness()
    h.register_all("s1", "s2")
    h.central.handle_link_delta(LinkDelta("s1", 2, ("s2", 4)))
    h.central.handle_link_delta(LinkDelta("s2", 4, ("s1", 2)))
    chassis, cfg = h.configs()[0]
    h.central.handle_sc_ack(ScAck(chassis, cfg.batch_id, ok=False, detail="bad entry"))
    assert h.central.sc_records[KEY_12].state == "quarantined"
    assert h.central.alerts == [f"link s1:2-s2:4 quarantined: ingress install on {chassis}: bad entry"]
    assert h.scheduled == []
    assert cfg.batch_id not in h.central._pending


def test_egress_nack_names_the_sender_in_the_alert():
    h = Harness()
    h.register_all("s1", "s2")
    h.central.handle_link_delta(LinkDelta("s1", 2, ("s2", 4)))
    h.central.handle_link_delta(LinkDelta("s2", 4, ("s1", 2)))
    for chassis, cfg in h.configs():  # both receivers ack their ingress batch
        h.central.handle_sc_ack(ScAck(chassis, cfg.batch_id, ok=True))
    chassis, cfg = h.configs()[2]  # a2b's egress batch, sent to its sender
    assert chassis == "s1" and any(isinstance(op, WriteEgSc) for op in cfg.ops)
    h.central.handle_sc_ack(ScAck(chassis, cfg.batch_id, ok=False, detail="bad entry"))
    assert h.central.sc_records[KEY_12].state == "quarantined"
    assert h.central.alerts == ["link s1:2-s2:4 quarantined: egress install on s1: bad entry"]


def test_key_rotation_bumps_generation_for_everyone():
    h = Harness()
    h.register_all("s1", "s2", "s3")
    h.outbox.clear()
    h.central.rotate_lldp_key()
    installs = [(ch, m) for ch, m in h.outbox if isinstance(m, KeyInstall)]
    assert [ch for ch, _ in installs] == ["s1", "s2", "s3"]
    assert all(m.key.key_id == 2 for _, m in installs)


def test_dumps_are_sorted_and_redacted():
    h = Harness()
    h.register_all("s1", "s2")
    h.confirm_link()
    links = h.central.dump_link_map()
    assert links == ["CONFIRMED s1:2-s2:4"]
    scs = h.central.dump_sc_records()
    assert "sak=" in scs[1] and len(scs[1].split("sak=")[1].split()[0]) == 8
    full = h.central.dump_sc_records(unsafe_keys=True)
    assert len(full[1].split("sak=")[1].split()[0]) == 32
