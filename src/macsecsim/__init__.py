"""Simulated MACsec-protected L2 fabrics under a two-tier SDN control plane."""

from .crypto import LldpKey, Sak, lldp_open, lldp_seal, macsec_protect, macsec_validate
from .netsim import Simulation
from .scenario import parse_script, run_scenario
from .topology import SimParams, TopologySpec, chain_spec
from .wire import EthernetFrame, Lldpdu, MacsecFrame, SecureLldpFrame, parse_frame

__all__ = [
    "EthernetFrame",
    "LldpKey",
    "Lldpdu",
    "MacsecFrame",
    "Sak",
    "SecureLldpFrame",
    "SimParams",
    "Simulation",
    "TopologySpec",
    "chain_spec",
    "lldp_open",
    "lldp_seal",
    "macsec_protect",
    "macsec_validate",
    "parse_frame",
    "parse_script",
    "run_scenario",
]

__version__ = "0.1.0"
