"""The contract the benchmark's layer tracer relies on.

`perfbench/layers.py` wraps `macsec_protect` and `macsec_validate` where the
data plane looks them up and checks their call counts against the switch
counters; it refuses to run when a name it wraps is gone.
"""

from collections import Counter
from pathlib import Path

from macsecsim import crypto, dataplane
from macsecsim.netsim import build
from macsecsim.topology import chain_spec
from macsecsim.wire import PN_OFFSET

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
    sim = build(chain_spec(3), seed=5)
    sim.quiesce()
    sim.host_send("h1", sim.hosts["h2"].mac, 0x0800, b"unicast")
    sim.host_send("h2", b"\xff" * 6, 0x0800, b"broadcast")
    sim.quiesce()
    # A fresh PN passes the replay floor, so the altered frame reaches the ICV check.
    rec = sim.trace_query(classification="macsec")[-1]
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
