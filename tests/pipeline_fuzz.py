"""Random table-state / frame generator for pipeline equivalence checks."""

from __future__ import annotations

import copy
import random
import struct

from macsecsim.crypto import Sak, macsec_protect
from macsecsim.dataplane import (
    DROP,
    FLOOD,
    FORWARD,
    PACKET_IN,
    SaEntry,
    Switch,
    SwitchTables,
)
from macsecsim.wire import ETHERTYPE_LLDP, ETHERTYPE_MACSEC, EthernetFrame

from reference_pipeline import reference_flood, reference_process


def _mac(rng: random.Random) -> bytes:
    return bytes([0x02] + [rng.randrange(256) for _ in range(5)])


def _group_mac(rng: random.Random) -> bytes:
    return bytes([0x01 | rng.randrange(256)] + [rng.randrange(256) for _ in range(5)])


def random_state(rng: random.Random):
    """Tables plus port map; includes deliberately inconsistent corners."""
    n_ports = rng.randrange(2, 6)
    ports_up = {p: rng.random() > 0.15 for p in range(1, n_ports + 1)}
    tables = SwitchTables()

    n_sas = rng.randrange(0, 4)
    for i in range(n_sas):
        sai = i + 1
        tables.sa[sai] = SaEntry(
            sai=sai,
            sak=Sak(rng.randbytes(16)),
            an=rng.randrange(4),
            sci=rng.randbytes(8),
            confidentiality=rng.random() > 0.3,
            next_pn=rng.randrange(1, 40),
            lowest_acceptable_pn=rng.randrange(1, 20),
        )
        if rng.random() > 0.4:
            tables.ig_sc[(tables.sa[sai].sci, tables.sa[sai].an)] = sai
        if rng.random() > 0.5:
            tables.eg_sc[rng.randrange(1, n_ports + 1)] = sai
    if rng.random() > 0.8:
        # Stale IG row pointing at a SAI that no longer exists.
        tables.ig_sc[(rng.randbytes(8), rng.randrange(4))] = 99
    if rng.random() > 0.8:
        # Stale EG row: the port is secured, but its SA is gone.
        tables.eg_sc[rng.randrange(1, n_ports + 1)] = 99

    known_macs = []
    for _ in range(rng.randrange(0, 6)):
        mac = _mac(rng)
        tables.mac[mac] = rng.randrange(1, n_ports + 1)
        known_macs.append(mac)

    pn_ceiling = rng.choice([2**32 - 1, 2**32 - 1, 2**32 - 1, rng.randrange(1, 50)])
    return tables, ports_up, known_macs, pn_ceiling


def random_frame(rng: random.Random, tables: SwitchTables, known_macs) -> bytes:
    def pick_mac():
        if known_macs and rng.random() > 0.35:
            return rng.choice(known_macs)
        return _mac(rng)

    kind = rng.randrange(7)
    if kind == 0:  # plain ethernet, possibly group destination
        dst = _group_mac(rng) if rng.random() > 0.7 else pick_mac()
        frame = EthernetFrame(
            dst=dst,
            src=pick_mac(),
            ether_type=rng.choice([0x0800, 0x0806, 0x86DD]),
            payload=rng.randbytes(rng.randrange(0, 60)),
        )
        return frame.to_bytes()
    if kind == 1 and tables.ig_sc:  # valid-looking protected frame
        (sci, an), sai = rng.choice(sorted(tables.ig_sc.items(), key=str))
        sa = tables.sa.get(sai)
        if sa is not None:
            inner = EthernetFrame(
                dst=_group_mac(rng) if rng.random() > 0.8 else pick_mac(),
                src=pick_mac(),
                ether_type=rng.choice([0x0800, ETHERTYPE_LLDP]),
                payload=rng.randbytes(rng.randrange(0, 40)),
            )
            pn = rng.randrange(max(1, sa.lowest_acceptable_pn - 3), sa.lowest_acceptable_pn + 20)
            protected = macsec_protect(
                sa.sak, sci, pn, inner.to_bytes(), an=an, confidentiality=sa.confidentiality
            )
            raw = bytearray(protected)
            if rng.random() > 0.8:  # corrupt one byte
                raw[rng.randrange(len(raw))] ^= 0xFF
            return bytes(raw)
    if kind == 2:  # MACsec bytes with an unknown SCI
        body = rng.randbytes(14) + rng.randbytes(rng.randrange(2, 30)) + rng.randbytes(16)
        return rng.randbytes(12) + struct.pack(">H", ETHERTYPE_MACSEC) + body
    if kind == 3:  # sealed-LLDP-shaped frame
        return (
            rng.randbytes(12)
            + struct.pack(">H", ETHERTYPE_LLDP)
            + rng.randbytes(12)
            + struct.pack(">I", rng.randrange(2**32))
            + rng.randbytes(rng.randrange(0, 30))
            + rng.randbytes(16)
        )
    if kind == 4:  # truncated garbage
        return rng.randbytes(rng.randrange(0, 14))
    if kind == 5:  # truncated MACsec / LLDP
        etype = rng.choice([ETHERTYPE_MACSEC, ETHERTYPE_LLDP])
        return rng.randbytes(12) + struct.pack(">H", etype) + rng.randbytes(rng.randrange(0, 30))
    dst = pick_mac()
    src = pick_mac()
    return EthernetFrame(dst=dst, src=src, ether_type=0x0800, payload=b"x").to_bytes()


def run_equivalence_case(rng: random.Random) -> None:
    """One random case: production pipeline vs. the naive interpreter."""
    tables, ports_up, known_macs, pn_ceiling = random_state(rng)
    data = random_frame(rng, tables, known_macs)
    ingress = rng.randrange(1, len(ports_up) + 1)

    impl_tables = copy.deepcopy(tables)
    ref_tables = copy.deepcopy(tables)

    switch = Switch("fuzz", b"\x02\x00\x00\x00\x00\xff", len(ports_up), pn_ceiling=pn_ceiling)
    switch.tables = impl_tables
    switch.ports_up = dict(ports_up)
    result = switch.process_ingress(ingress, data)
    expected = reference_process(ref_tables, ingress, data, pn_ceiling)

    assert result.kind == expected["kind"], (result, expected, data.hex())
    if result.kind == FORWARD:
        assert result.egress_port == expected["port"]
        assert result.bytes_out == expected["bytes"]
    elif result.kind == DROP:
        assert result.drop_reason == expected["reason"]
    elif result.kind == PACKET_IN:
        assert result.packet_in.reason == expected["reason"]
        assert result.packet_in.ingress_port == expected["port"]
        assert result.packet_in.frame_bytes == expected["bytes"]
    elif result.kind == FLOOD:
        assert result.bytes_out == expected["bytes"]
        impl_emissions = switch.expand_flood(ingress, result.bytes_out)
        ref_emissions = reference_flood(ref_tables, ingress, expected["bytes"], ports_up, pn_ceiling)
        assert impl_emissions == ref_emissions
    # PN bookkeeping must have advanced identically on both sides.
    assert {k: (v.next_pn, v.lowest_acceptable_pn) for k, v in impl_tables.sa.items()} == {
        k: (v.next_pn, v.lowest_acceptable_pn) for k, v in ref_tables.sa.items()
    }
