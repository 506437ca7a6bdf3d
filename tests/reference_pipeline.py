"""Naive ingress interpreter used as the pipeline equivalence oracle.

Written straight from the documented step list with no shared dispatch
code: EtherType read directly off the raw bytes, one explicit branch per
step.  Crypto transforms are delegated to the crypto module (their own
equivalence is established separately against the GCM oracle).
"""

from __future__ import annotations

import struct

from macsecsim.crypto import macsec_protect, macsec_validate
from macsecsim.errors import IntegrityFailure, TruncatedFrame
from macsecsim.wire import (
    ETHERTYPE_LLDP,
    ETHERTYPE_MACSEC,
    EthernetFrame,
    MacsecFrame,
    parse_frame,
)


def reference_process(tables, ingress_port, data, pn_ceiling):
    """Returns a plain dict describing the outcome; mutates PN counters."""
    if len(data) < 14:
        return {"kind": "drop", "reason": "truncated"}
    ether_type = struct.unpack(">H", data[12:14])[0]

    # Step 1: EtherType dispatch.
    if ether_type == ETHERTYPE_LLDP:
        if len(data) < 14 + 12 + 4 + 16:
            return {"kind": "drop", "reason": "truncated"}
        return {"kind": "packet_in", "reason": "lldp_punt", "bytes": data, "port": ingress_port}

    if ether_type == ETHERTYPE_MACSEC:
        # Step 2a: validate via IG-SC and SA tables.
        try:
            frame = parse_frame(data)
        except TruncatedFrame:
            return {"kind": "drop", "reason": "truncated"}
        assert isinstance(frame, MacsecFrame)
        sai = tables.ig_sc.get((frame.sec_tag.sci, frame.sec_tag.an))
        if sai is None or sai not in tables.sa:
            return {"kind": "drop", "reason": "unknown_sci"}
        sa = tables.sa[sai]
        if frame.sec_tag.packet_number < sa.lowest_acceptable_pn:
            return {"kind": "drop", "reason": "replay_pn"}
        try:
            plain = macsec_validate(sa.sak, data, confidentiality=sa.confidentiality)
        except IntegrityFailure:
            return {"kind": "drop", "reason": "integrity_failure"}
        inner = EthernetFrame(
            dst=plain[0:6],
            src=plain[6:12],
            ether_type=struct.unpack(">H", plain[12:14])[0],
            payload=plain[14:],
        )
        sa.lowest_acceptable_pn = frame.sec_tag.packet_number + 1
        if inner.ether_type == ETHERTYPE_LLDP:
            return {
                "kind": "packet_in",
                "reason": "lldp_punt",
                "bytes": inner.to_bytes(),
                "port": ingress_port,
            }
        # Step 2b: continue with Ethernet forwarding on the inner frame.
        return _mac_stage(tables, ingress_port, inner, pn_ceiling)

    # Step 3a: all other EtherTypes go to the MAC table.
    try:
        frame = parse_frame(data)
    except TruncatedFrame:
        return {"kind": "drop", "reason": "truncated"}
    assert isinstance(frame, EthernetFrame)
    return _mac_stage(tables, ingress_port, frame, pn_ceiling)


def _mac_stage(tables, ingress_port, frame, pn_ceiling):
    if frame.dst[0] & 0x01:
        return {"kind": "flood", "bytes": frame.to_bytes()}
    if frame.src not in tables.mac or frame.dst not in tables.mac:
        # Steps 2d / 3c: punt for MAC learning.
        return {
            "kind": "packet_in",
            "reason": "mac_miss",
            "bytes": frame.to_bytes(),
            "port": ingress_port,
        }
    port = tables.mac[frame.dst]
    if port not in tables.eg_sc:
        # Step 3b: plain forward; a port without an EG-SC row is not secured.
        return {"kind": "forward", "port": port, "bytes": frame.to_bytes()}
    # Steps 3d-3e: protect, then send out.
    out = _reference_protect(tables, port, frame, pn_ceiling)
    if isinstance(out, str):
        return {"kind": "drop", "reason": out}
    return {"kind": "forward", "port": port, "bytes": out}


def _reference_protect(tables, port, frame, pn_ceiling):
    """Returns protected bytes or a drop-reason string."""
    sai = tables.eg_sc.get(port)
    if sai is None or sai not in tables.sa:
        return "no_egress_sc"
    sa = tables.sa[sai]
    if sa.next_pn > pn_ceiling:
        return "pn_exhausted"
    pn = sa.next_pn
    sa.next_pn += 1
    return macsec_protect(sa.sak, sa.sci, pn, frame, an=sa.an, confidentiality=sa.confidentiality)


def reference_flood(tables, ingress_port, data, ports_up, pn_ceiling):
    """Per-port expansion of a flood outcome: (port, bytes) pairs."""
    frame = parse_frame(data)
    emissions = []
    for port in sorted(ports_up):
        if port == ingress_port or not ports_up[port]:
            continue
        if isinstance(frame, EthernetFrame) and port in tables.eg_sc:
            out = _reference_protect(tables, port, frame, pn_ceiling)
            if isinstance(out, str):
                continue
            emissions.append((port, out))
        else:
            emissions.append((port, data))
    return emissions
