"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines.
Every tolerance is zero: sets compare equal, counters compare to 0, bytes
compare bit-for-bit.
"""

import hashlib
import random
import struct
from contextlib import contextmanager

import pytest

import gcm_oracle
from macsecsim.audit import audit
from macsecsim.central_controller import link_key
from macsecsim.crypto import LldpKey, Sak, lldp_seal, macsec_protect, macsec_validate
from macsecsim.errors import IntegrityFailure
from macsecsim.netsim import Simulation
from macsecsim.scenario import format_counters, run_scenario
from macsecsim.topology import chain_spec
from macsecsim.wire import (
    ETHERTYPE_MACSEC,
    LLDP_MULTICAST,
    EthernetFrame,
    Lldpdu,
    MacsecFrame,
    classify,
    make_sci,
    parse_frame,
)
from conftest import SCENARIOS

from pipeline_fuzz import run_equivalence_case

SEED = 42


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def _fingerprint(sim: Simulation) -> str:
    h = hashlib.sha256()
    for rec in sim.trace.records:
        h.update(
            f"{rec.time_us}|{rec.link}|{rec.direction}|{rec.classification}|{rec.dropped}".encode()
        )
        h.update(rec.data)
    h.update(format_counters(sim).encode())
    h.update("\n".join(sim.central.dump_link_map()).encode())
    h.update("\n".join(sim.central.dump_sc_records()).encode())
    return h.hexdigest()


# -- criterion implementations (shared with the determinism double-run) ---------


def _crit1_topology_fidelity(seed):
    from macsecsim.topology import TopologySpec

    spec = TopologySpec.from_yaml(SCENARIOS / "hierarchical.yaml")
    sim = Simulation(spec, seed=seed)
    sim.quiesce()
    wiring = {link_key(link.a, link.b) for link in spec.links}
    assert len(wiring) == 6
    assert sim.central.confirmed_links() == wiring
    return sim


def _crit2_full_protection(seed):
    from macsecsim.topology import TopologySpec

    spec = TopologySpec.from_yaml(SCENARIOS / "hierarchical.yaml")
    sim = Simulation(spec, seed=seed)
    sim.quiesce()
    setup_done_us = sim.now_us()
    rng = random.Random(seed)
    for _ in range(3):
        a, b = rng.sample(sorted(sim.hosts), 2)
        payload = rng.randbytes(64)
        sim.host_send(a, sim.hosts[b].mac, 0x0800, payload)
        sim.quiesce()
        assert payload in [f.payload for f in sim.host_recv(b)]
    for link in sim.interswitch_links:
        clear = sim.trace.query(link=link.name, classification="ethernet", t_min_us=setup_done_us)
        assert clear == [], f"cleartext data frames on {link.name}"
    for host in sim.hosts.values():
        assert sim.trace.query(link=host.link.name, classification="macsec") == []
    return sim


def _crit3_chain_transparency(seed):
    rng = random.Random(seed)
    payload = rng.randbytes(1024)
    fingerprints = []
    for hops in range(2, 9):
        sim = Simulation(chain_spec(hops), seed=seed)
        sim.quiesce()
        sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, payload)
        sim.quiesce()
        assert [f.payload for f in sim.host_recv("h2")] == [payload], f"{hops}-switch chain"
        sim.host_send("h2", sim.hosts["h1"].mac, 0x0800, payload)
        sim.quiesce()
        assert payload in [f.payload for f in sim.host_recv("h1")], f"{hops}-switch chain reverse"
        fingerprints.append(_fingerprint(sim))
    return fingerprints


def _crit4_link_churn(seed):
    from macsecsim.topology import TopologySpec

    spec = TopologySpec.from_yaml(SCENARIOS / "hierarchical.yaml")
    sim = Simulation(spec, seed=seed)
    sim.quiesce()
    for name in ("agg1-core", "access1-agg1", "access3-agg2"):
        generation_before = sim.central.sak_log
        sim.set_link_state(name, False)
        sim.quiesce()
        assert audit(sim) == []
        sim.set_link_state(name, True)
        sim.quiesce()
        assert audit(sim) == []
        fresh = sim.central.sak_log[len(generation_before):]
        assert len(fresh) == 2  # one new SAK per direction
        assert set(fresh).isdisjoint(generation_before)
    log = sim.central.sak_log
    assert len(log) == len(set(log))
    return sim


def _crit5_rekeying(seed):
    spec = chain_spec(2).with_params(rekey_interval=2.0)
    sim = Simulation(spec, seed=seed)
    sim.quiesce()
    h1m, h2m = sim.hosts["h1"].mac, sim.hosts["h2"].mac
    t = sim.now_s()
    sends = 0
    while t < 7.2:  # three 2-second rekey intervals with traffic every 100 ms
        t += 0.1
        sim.run_until(t)
        sim.host_send("h1", h2m, 0x0800, b"tick")
        sim.host_send("h2", h1m, 0x0800, b"tock")
        sends += 2
    sim.run_until(t + 0.5)
    record = next(iter(sim.central.sc_records.values()))
    assert all(d.rekey_count == 3 for d in record.directions.values())
    wire_ans = {
        parse_frame(rec.data).sec_tag.an
        for rec in sim.trace.query(link="s1-s2", classification="macsec")
    }
    assert wire_ans == {0, 1, 2, 3}
    for chassis, switch in sim.switches.items():
        assert switch.counters.total("drop") == 0, chassis
        assert switch.counters.get("macsec.validate_failed") == 0, chassis
    assert len(sim.host_recv("h1")) == len(sim.host_recv("h2")) == sends // 2
    return sim


def _crit6_replay_defense(seed):
    from macsecsim.topology import TopologySpec

    spec = TopologySpec.from_yaml(SCENARIOS / "hierarchical.yaml")
    sim = Simulation(spec, seed=seed)
    sim.quiesce()
    sim.run_until(31.0)  # a second discovery round for more capture variety
    switch_ends = {}
    for rec in sim.trace.query(classification="secure_lldp"):
        link = sim.links[rec.link]
        receiver, _ = link.b if rec.direction == "a2b" else link.a
        if receiver in sim.switches:
            switch_ends[rec.index] = (rec, receiver)
    rng = random.Random(seed)
    picks = rng.sample(sorted(switch_ends), 20)
    for index in picks:
        rec, receiver = switch_ends[index]
        map_before = sim.central.confirmed_links()
        counter_before = sim.switches[receiver].counters.get("discovery.replayed_seq")
        sim.inject_frame(rec.link, rec.direction, rec.data)
        sim.quiesce()
        assert sim.central.confirmed_links() == map_before
        delta = sim.switches[receiver].counters.get("discovery.replayed_seq") - counter_before
        assert delta == 1, f"replay counter moved by {delta}"
    return sim


def _crit7_tamper_defense(seed):
    from macsecsim.crypto import lldp_open

    sim = Simulation(chain_spec(3), seed=seed)
    sim.quiesce()
    h2m = sim.hosts["h2"].mac
    secret = b"top-secret-payload-7"
    sim.host_send("h1", h2m, 0x0800, secret)
    sim.quiesce()

    lldp_rec = sim.trace.query(link="s1-s2", classification="secure_lldp", direction="a2b")[0]
    macsec_rec = sim.trace.query(link="s1-s2", classification="macsec", direction="a2b")[0]
    lldp_key = sim.central.lldp_key
    sci = parse_frame(macsec_rec.data).sec_tag.sci
    an = parse_frame(macsec_rec.data).sec_tag.an
    receiver = sim.switches["s2"]
    sak = receiver.tables.sa[receiver.tables.ig_sc[(sci, an)]].sak

    delivered_before = sum(1 for f in sim.host_recv("h2") if f.payload == secret)
    map_before = sim.central.confirmed_links()
    accepted_before = receiver.counters.get("discovery.accepted")
    replayed_before = receiver.counters.get("discovery.replayed_seq")
    validated_before = receiver.counters.get("macsec.validated")

    def flips(data):
        for pos in range(len(data)):
            for bit in range(8):
                mutated = bytearray(data)
                mutated[pos] ^= 1 << bit
                yield pos, bytes(mutated)

    # Sealed LLDP frame: every flip in the nonce/seq/ciphertext/ICV region
    # fails the ICV; the 12 Ethernet-header bytes are deliberately outside
    # the AAD, so those flips ride on replay protection (the captured seq is
    # already spent at the receiver).
    total = 0
    expected_replays = 0
    for pos, mutated in flips(lldp_rec.data):
        total += 1
        if classify(mutated) == "secure_lldp":
            if pos < 12:
                expected_replays += 1
            else:
                with pytest.raises(IntegrityFailure):
                    lldp_open(lldp_key, mutated)
        sim.inject_frame(lldp_rec.link, lldp_rec.direction, mutated)
    sim.quiesce()
    assert receiver.counters.get("discovery.accepted") == accepted_before
    assert receiver.counters.get("discovery.replayed_seq") == replayed_before + expected_replays

    # MACsec frame: every byte is inside the IV, the AAD or the GCM stream,
    # so each flip is a parse reject or an ICV failure.
    for pos, mutated in flips(macsec_rec.data):
        total += 1
        try:
            frame = parse_frame(mutated)
        except Exception:
            frame = None
        if isinstance(frame, MacsecFrame):
            with pytest.raises(IntegrityFailure):
                macsec_validate(sak, mutated)
        sim.inject_frame(macsec_rec.link, macsec_rec.direction, mutated)
    sim.quiesce()

    assert total == (len(lldp_rec.data) + len(macsec_rec.data)) * 8
    assert receiver.counters.get("macsec.validated") == validated_before
    assert sim.central.confirmed_links() == map_before
    delivered_after = sum(1 for f in sim.host_recv("h2") if f.payload == secret)
    assert delivered_after == delivered_before
    return sim


# -- the criteria ------------------------------------------------------------


def test_criterion_1_topology_fidelity():
    with criterion(1, "topology fidelity"):
        _crit1_topology_fidelity(SEED)


def test_criterion_2_full_protection():
    with criterion(2, "full protection"):
        _crit2_full_protection(SEED)


def test_criterion_3_end_to_end_transparency():
    with criterion(3, "end-to-end transparency"):
        _crit3_chain_transparency(SEED)


def test_criterion_4_link_churn():
    with criterion(4, "link churn"):
        _crit4_link_churn(SEED)


def test_criterion_5_rekeying():
    with criterion(5, "rekeying"):
        _crit5_rekeying(SEED)


def test_criterion_6_replay_defense():
    with criterion(6, "replay defense"):
        _crit6_replay_defense(SEED)


def test_criterion_7_tamper_defense():
    with criterion(7, "tamper and spoof defense"):
        _crit7_tamper_defense(SEED)


def test_criterion_8_crypto_oracle_equivalence():
    with criterion(8, "crypto oracle equivalence"):
        rng = random.Random(SEED)
        for _ in range(100):
            sak = Sak(rng.randbytes(16))
            sci = make_sci(bytes([0x02]) + rng.randbytes(5), rng.randrange(1, 65535))
            pn = rng.randrange(1, 2**32)
            frame = EthernetFrame(
                dst=bytes([0x02]) + rng.randbytes(5),
                src=bytes([0x02]) + rng.randbytes(5),
                ether_type=rng.randrange(0, 0x10000),
                payload=rng.randbytes(rng.randrange(0, 700)),
            )
            protected = parse_frame(macsec_protect(sak, sci, pn, frame.to_bytes()))
            iv = sci + struct.pack(">I", pn)
            aad = (
                frame.dst
                + frame.src
                + struct.pack(">H", ETHERTYPE_MACSEC)
                + protected.sec_tag.to_bytes()
            )
            plaintext = struct.pack(">H", frame.ether_type) + frame.payload
            ct, tag = gcm_oracle.gcm_encrypt(sak.key, iv, plaintext, aad)
            assert protected.secure_data == ct and protected.icv == tag
        for _ in range(100):
            key = LldpKey(key=rng.randbytes(16), key_id=rng.randrange(1, 100))
            nonce = rng.randbytes(12)
            seq = rng.randrange(0, 2**32)
            pdu = Lldpdu(
                chassis_id=bytes([0x61 + rng.randrange(26)]) * rng.randrange(1, 30),
                port_id=rng.randrange(0, 65536),
            ).encode()
            sealed = lldp_seal(
                key, nonce, seq, pdu, src=bytes([0x02]) + rng.randbytes(5), dst=LLDP_MULTICAST
            )
            ct, tag = gcm_oracle.gcm_encrypt(key.key, nonce, pdu, struct.pack(">I", seq))
            assert sealed[30:] == ct + tag


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "determinism"):
        # Scenario-file runs: byte-identical artifacts.
        for script in ("topology_check", "protection_check", "link_churn",
                       "replay_defense", "rekey_check"):
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{script}-{tag}"
                report, sim = run_scenario(
                    SCENARIOS / "hierarchical.yaml",
                    SCENARIOS / f"{script}.txt",
                    seed=SEED,
                    out_dir=out,
                )
                assert report.all_passed
                outs.append(out)
            for name in ("report.txt", "counters.txt", "trace.pcapng"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                    f"{script}/{name} differs between identical runs"
                )
        # Programmatic criteria: identical fingerprints across re-runs.
        assert _fingerprint(_crit1_topology_fidelity(SEED)) == _fingerprint(
            _crit1_topology_fidelity(SEED)
        )
        assert _fingerprint(_crit2_full_protection(SEED)) == _fingerprint(
            _crit2_full_protection(SEED)
        )
        assert _crit3_chain_transparency(SEED) == _crit3_chain_transparency(SEED)
        assert _fingerprint(_crit4_link_churn(SEED)) == _fingerprint(_crit4_link_churn(SEED))
        assert _fingerprint(_crit5_rekeying(SEED)) == _fingerprint(_crit5_rekeying(SEED))
        assert _fingerprint(_crit6_replay_defense(SEED)) == _fingerprint(
            _crit6_replay_defense(SEED)
        )
        assert _fingerprint(_crit7_tamper_defense(SEED)) == _fingerprint(
            _crit7_tamper_defense(SEED)
        )


def test_criterion_10_pipeline_oracle():
    with criterion(10, "pipeline oracle"):
        rng = random.Random(SEED)
        for _ in range(10_000):
            run_equivalence_case(rng)
