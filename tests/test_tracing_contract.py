"""The contract the benchmark's layer tracer relies on.

`perfbench/layers.py` wraps `macsec_protect` and `macsec_validate` where the
data plane looks them up and checks their call counts against the switch
counters; it refuses to run when a name it wraps is gone.  At the end of a
pass it sums `sys.getsizeof(vars(rec))` over `Trace.records`, so a record
must keep a `__dict__`.
"""

from collections import Counter
from pathlib import Path

from macsecsim import crypto, dataplane
from macsecsim.netsim import Simulation
from macsecsim.topology import chain_spec
from macsecsim.trace import Trace, TraceRecord, read_pcapng
from macsecsim.wire import PN_OFFSET, classify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_data_plane_calls_protect_and_validate_once_per_counted_frame(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(dataplane, "macsec_protect", counting("protect", dataplane.macsec_protect))
    monkeypatch.setattr(dataplane, "macsec_validate", counting("validate", dataplane.macsec_validate))
    sim = Simulation(chain_spec(3), seed=5, keep_frames=True)
    sim.quiesce()
    sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"unicast")
    sim.host_send("h2", b"\xff" * 6, 0x0800, b"broadcast")
    sim.quiesce()
    # A fresh PN passes the replay floor, so the altered frame reaches the ICV check.
    rec = sim.trace.query(classification="macsec")[-1]
    forged = bytearray(rec.data)
    forged[PN_OFFSET] ^= 0x80
    sim.inject_frame(rec.link, rec.direction, bytes(forged))
    sim.quiesce()

    def total(*names):
        return sum(sw.counters.get(n) for sw in sim.switches.values() for n in names)

    assert calls["protect"] == total("macsec.protected") > 0
    assert calls["validate"] == total("macsec.validated", "macsec.validate_failed")
    assert total("macsec.validate_failed") == 1


def test_layer_tracer_installs_and_uninstalls(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    def bound():
        return dataplane.macsec_protect, dataplane.macsec_validate, crypto.AESGCM, dataplane.Switch.handle_frame

    originals = bound()
    with layers.LayerTracer(capture=tmp_path / "capture.pcapng").installed():
        assert all(now is not before for now, before in zip(bound(), originals))
    assert bound() == originals


def _run_with_drops():
    """A chain_spec(3) run whose trace holds frames of all three classes and drops."""
    sim = Simulation(chain_spec(3), seed=5, keep_frames=True)
    sim.quiesce()
    sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"unicast")
    sim.quiesce()
    sim.inject_frame("s1-s2", "a2b", b"\x00" * 10)  # truncated at s2
    sim.set_link_state("s2-s3", False)
    sim.inject_frame("s2-s3", "b2a", b"\x00" * 64)  # refused by the down link
    sim.run_until(sim.now_s())
    sim.set_link_state("s2-s3", True)
    sim.quiesce()
    return sim


def test_layer_tracer_samples_the_trace_view(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    sim = _run_with_drops()
    tracer = layers.LayerTracer(capture=tmp_path / "capture.pcapng")
    tracer.attach(sim)
    tracer.pass_done()
    assert tracer.state["trace.retained_B"] > sum(len(rec.data) for rec in sim.trace.records)
    assert len(read_pcapng(tmp_path / "capture.pcapng")) == len(sim.trace.records)


def test_trace_records_are_views_of_the_rows():
    sim = _run_with_drops()
    records = sim.trace.records
    assert [rec.index for rec in records] == list(range(len(records)))
    assert {rec.classification for rec in records} == {"ethernet", "macsec", "secure_lldp"}
    assert all(rec.classification == classify(rec.data) for rec in records)
    assert sim.trace.query(classification="macsec") == [r for r in records if r.classification == "macsec"]
    records[0].dropped = "edited"
    assert sim.trace.records[0].dropped is None


def test_drops_come_back_in_records_and_in_the_pcapng(tmp_path):
    sim = _run_with_drops()
    dropped = {rec.index: rec.dropped for rec in sim.trace.records if rec.dropped}
    assert sorted(dropped.values()) == ["link_down", "truncated"]
    path = tmp_path / "trace.pcapng"
    sim.trace_export(path)
    comments = {i: p.comment for i, p in enumerate(read_pcapng(path)) if p.comment}
    assert comments == {i: f"dropped: {reason}" for i, reason in dropped.items()}

    trace = Trace()
    wire = trace.add_link("l")
    first = trace.record(5, wire, b"\x01" * 14)
    second = trace.record(6, wire + 1, b"\x02" * 14)
    trace.drop(second, "port_down")
    assert (first, second) == (0, 1)
    assert [rec.dropped for rec in trace.records] == [None, "port_down"]
    assert trace.query(direction="b2a") == [TraceRecord(1, 6, "l", "b2a", b"\x02" * 14, 14, "port_down")]
