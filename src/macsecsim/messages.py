"""Structured in-process messages exchanged on the control channel.

The control channel is abstract reliable message passing; these carry the
exact semantic fields, no network serialization.  `Register`,
`StartDiscovery` and `SetPortFlag` are never sent and have no fields: they
stay as bare named classes only because the benchmark's tracer counts
message types by name.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto import LldpKey, Sak


class Register:
    """Never sent: the simulation calls `handle_register` for each switch itself."""


@dataclass(slots=True)
class KeyInstall:
    key: LldpKey


class StartDiscovery:
    """Never sent: a switch's first `KeyInstall` starts its discovery."""


@dataclass(slots=True)
class LinkDelta:
    chassis_id: str
    port: int
    remote: tuple[str, int] | None  # the end the port now sees; None once its link is gone


@dataclass(slots=True)
class PnExhausted:
    chassis_id: str
    sci: bytes


# SC configuration batch operations, applied atomically by the switch agent.


@dataclass(slots=True)
class WriteSa:
    sai: int
    an: int
    sak: Sak
    sci: bytes
    confidentiality: bool = True


@dataclass(slots=True)
class WriteIgSc:
    sai: int


@dataclass(slots=True)
class WriteEgSc:
    port: int
    sai: int


class SetPortFlag:
    """Never sent: a port is secured when it holds an EG-SC row."""


@dataclass(slots=True)
class DeleteIgSc:
    sai: int


@dataclass(slots=True)
class DeleteEgSc:
    port: int


@dataclass(slots=True)
class DeleteSa:
    sai: int


ScOp = WriteSa | WriteIgSc | WriteEgSc | DeleteIgSc | DeleteEgSc | DeleteSa


@dataclass(slots=True)
class ScConfig:
    batch_id: int | None  # None: untracked, neither acked nor nacked
    ops: list[ScOp]


@dataclass(slots=True)
class ScAck:
    chassis_id: str
    batch_id: int
    ok: bool
    detail: str = ""
