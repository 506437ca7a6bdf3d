import gcm_oracle
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
        """Move the clock to the deadline of the queued rekey sweeps, the only housekeeping timers."""
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


def test_a_conflicting_report_leaves_a_confirmed_link_alone():
    h = Harness()
    h.register_all("s1", "s2", "s3")
    h.confirm_link()
    record = h.central.sc_records[KEY_12]
    sent = len(h.outbox)
    h.central.handle_link_delta(LinkDelta("s1", 2, ("s3", 1)))  # e.g. a probe of s3:1 replayed to s1:2
    # Only carrier loss or expiry (a None report) moves a confirmed link's end.
    assert h.central.link_map == {KEY_12: "confirmed"}
    assert h.central.sc_records == {KEY_12: record} and record.state == "active"
    assert h.central.counters.get("linkmap.contested") == 1
    assert h.outbox[sent:] == []


def test_a_report_still_steers_a_port_whose_link_is_only_reported():
    """The hole the contested rule leaves: until its link is confirmed, a
    port takes any far end, so a replayed probe replaces its report."""
    h = Harness()
    h.register_all("s1", "s2", "s3")
    h.central.handle_link_delta(LinkDelta("s1", 2, ("s2", 4)))
    h.central.handle_link_delta(LinkDelta("s1", 2, ("s3", 1)))  # e.g. a probe of s3:1 replayed to s1:2
    h.central.handle_link_delta(LinkDelta("s2", 4, ("s1", 2)))
    assert h.central.link_map == {link_key(("s1", 2), ("s3", 1)): "reported", KEY_12: "reported"}
    assert h.central.sc_records == {}
    assert h.central.counters.get("linkmap.contested") == 0


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


def test_each_sak_is_derived_from_its_sai_as_key_number():
    """SAK i is AES-128 of i(12 bytes) + 00000001 under the master key drawn
    at start, and each direction's SAI is the KN of its SAK, across a
    teardown and a rekey."""
    h = Harness(rekey_interval_us=60_000_000)
    h.register_all("s1", "s2")
    h.confirm_link()
    h.central.handle_link_delta(LinkDelta("s1", 2, None))
    h.confirm_link()
    h.advance_to_rekey_timers()
    h.run_due_timers()
    master = h.central._master_key.key
    log = h.central.sak_log
    assert len(log) == 6
    assert log == [gcm_oracle._aes_block(master, i.to_bytes(12, "big") + b"\x00\x00\x00\x01") for i in range(1, 7)]
    for d in h.central.sc_records[KEY_12].directions.values():
        sai, _an, sak = d.next
        assert sak.key == log[sai - 1]
        assert d.sak.key == log[d.sai - 1]


def test_rekey_increments_an_and_orders_ingress_first():
    h = Harness(rekey_interval_us=60_000_000)
    h.register_all("s1", "s2")
    h.confirm_link()
    record = h.central.sc_records[KEY_12]
    d, back = record.directions["a2b"], record.directions["b2a"]
    (old_sai, old_sak), back_sai = (d.sai, d.sak.key), back.sai
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
    # Old-generation cleanup waits for the grace deadline, then names the old SA at both ends.
    retire_at = h.time_us + h.central.grace_us
    assert any(not hk and deadline_us == retire_at for deadline_us, _fn, _args, hk in h.scheduled)
    h.outbox.clear()
    h.run_due_timers()
    assert h.configs() == []  # nothing is due before the grace deadline
    h.time_us = retire_at
    h.run_due_timers()
    # The sweep sends one unacked batch per switch, for both directions, and nothing else: no second rekey.
    assert [(chassis, cfg.batch_id, cfg.ops) for chassis, cfg in h.configs()] == [
        (d.receiver, None, [DeleteIgSc(sai=old_sai), DeleteSa(sai=old_sai), DeleteSa(sai=back_sai)]),
        (d.sender, None, [DeleteSa(sai=old_sai), DeleteIgSc(sai=back_sai), DeleteSa(sai=back_sai)]),
    ]


def test_teardown_names_the_current_and_the_staged_sa():
    h = Harness()
    h.register_all("s1", "s2")
    h.confirm_link()
    d, back = h.central.sc_records[KEY_12].directions.values()
    h.central.handle_pn_exhausted(PnExhausted(chassis_id="s1", sci=d.sci))  # stages a rekey, unacked
    sais = [d.sai, d.next[0]]
    h.outbox.clear()
    h.central.handle_link_delta(LinkDelta("s1", 2, None))
    # One batch per end holds both directions' deletes: the receiver's part of a2b names both its generations.
    receiver_ops = [DeleteIgSc(sai=s) for s in sais] + [DeleteSa(sai=s) for s in sais]
    sender_ops = [DeleteEgSc(port=d.sender_port)] + [DeleteSa(sai=s) for s in sais]
    assert [(chassis, cfg.batch_id, cfg.ops) for chassis, cfg in h.configs()] == [
        (d.receiver, None, receiver_ops + [DeleteEgSc(port=back.sender_port), DeleteSa(sai=back.sai)]),
        (d.sender, None, sender_ops + [DeleteIgSc(sai=back.sai), DeleteSa(sai=back.sai)]),
    ]


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


def test_rekeys_due_at_one_instant_start_in_the_order_their_directions_went_active():
    h = Harness(rekey_interval_us=60_000_000)
    h.register_all("s1", "s2", "s3")
    h.confirm_link(("s1", 2), ("s2", 4))
    h.confirm_link(("s1", 3), ("s3", 1))
    key_13 = link_key(("s1", 3), ("s3", 1))
    # Each link's egress acks arrive a2b first, and link 1-2 was confirmed first.
    order = [(KEY_12, "a2b"), (KEY_12, "b2a"), (key_13, "a2b"), (key_13, "b2a")]
    directions = [h.central.sc_records[key].directions[name] for key, name in order]
    assert h.central._rekeys == {60_000_000: [(key, name, d.sai) for (key, name), d in zip(order, directions)]}
    assert [(at_us, fn.__name__, args) for at_us, fn, args, hk in h.scheduled if hk] == [
        (60_000_000, "_rekey_sweep", (60_000_000,))
    ]
    h.advance_to_rekey_timers()
    h.run_due_timers()
    staged = [d.next[0] for d in directions]
    assert staged == sorted(staged) and len(set(staged)) == 4
    assert h.central._rekeys == {}


def test_a_sweep_skips_a_torn_down_record_and_a_generation_replaced_since_it_was_filed():
    h = Harness(rekey_interval_us=60_000_000)
    h.register_all("s1", "s2", "s3")
    h.confirm_link(("s1", 2), ("s2", 4))
    h.confirm_link(("s1", 3), ("s3", 1))  # all four directions filed under 60 s
    record = h.central.sc_records[link_key(("s1", 3), ("s3", 1))]
    a2b, b2a = record.directions["a2b"], record.directions["b2a"]
    h.time_us = 30_000_000
    h.central.handle_pn_exhausted(PnExhausted(chassis_id="s1", sci=a2b.sci))
    h.ack_all()  # a2b's new generation is filed under 90 s; its 60 s entry is stale
    h.central.handle_link_delta(LinkDelta("s1", 2, None))  # link 1-2's two entries outlive its record
    assert [len(entries) for entries in h.central._rekeys.values()] == [4, 1]
    h.outbox.clear()
    h.time_us = 60_000_000
    h.run_due_timers()
    stages = [(chassis, cfg.ops) for chassis, cfg in h.configs() if cfg.batch_id is not None]
    sai, an, sak = b2a.next
    assert stages == [(b2a.receiver, [WriteSa(sai=sai, an=an, sak=sak, sci=b2a.sci), WriteIgSc(sai=sai)])]
    assert h.central.counters.get("channels.rekey") == 2
    assert a2b.rekey_count == 1 and a2b.next is None and a2b.phase == "active"
    assert list(h.central._rekeys) == [90_000_000]


def _assert_one_delete_batch_per_switch(configs):
    """Each switch has at most one batch, unacked, and each SAI's IG-SC delete comes before its SA delete."""
    assert len({chassis for chassis, _ in configs}) == len(configs)
    for chassis, cfg in configs:
        assert cfg.batch_id is None, chassis
        for i, op in enumerate(cfg.ops):
            if isinstance(op, DeleteIgSc):
                assert DeleteSa(sai=op.sai) in cfg.ops[i + 1:], (chassis, op)


def test_retires_due_at_one_instant_share_one_actionable_sweep():
    h = Harness(rekey_interval_us=60_000_000, grace_us=1_000_000)
    h.register_all("s1", "s2", "s3")
    h.confirm_link(("s1", 2), ("s2", 4))
    h.confirm_link(("s1", 3), ("s3", 1))
    key_13 = link_key(("s1", 3), ("s3", 1))
    order = [(KEY_12, "a2b"), (KEY_12, "b2a"), (key_13, "a2b"), (key_13, "b2a")]
    directions = [h.central.sc_records[key].directions[name] for key, name in order]
    old = [d.sai for d in directions]
    h.advance_to_rekey_timers()
    h.run_due_timers()
    h.ack_all()  # all four rekeys finish at 60 s: their old generations retire at 61 s
    assert h.central._retires == {61_000_000: [(d.sender, d.receiver, (sai,), None) for d, sai in zip(directions, old)]}
    assert [(at_us, fn.__name__, args) for at_us, fn, args, hk in h.scheduled if not hk] == [
        (61_000_000, "_retire_sweep", (61_000_000,))
    ]
    h.outbox.clear()
    h.time_us = 61_000_000
    h.run_due_timers()
    assert h.central._retires == {}
    configs = h.configs()
    _assert_one_delete_batch_per_switch(configs)
    assert [chassis for chassis, _ in configs] == ["s2", "s1", "s3"]  # in the order the retires first name them
    deleted = sorted(op.sai for _, cfg in configs for op in cfg.ops if isinstance(op, DeleteSa))
    assert deleted == sorted(old * 2)  # at the receiver and at the sender


def test_a_teardown_sends_one_batch_to_each_end():
    h = Harness()
    h.register_all("s1", "s2", "s3")
    h.confirm_link(("s1", 2), ("s2", 4))
    h.confirm_link(("s1", 3), ("s3", 1))
    h.outbox.clear()
    h.central.handle_link_delta(LinkDelta("s1", 3, None))
    configs = h.configs()
    _assert_one_delete_batch_per_switch(configs)
    assert [chassis for chassis, _ in configs] == ["s3", "s1"]
    assert [type(op) for _, cfg in configs for op in cfg.ops].count(DeleteEgSc) == 2


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
