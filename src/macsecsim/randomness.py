"""Single randomness source feeding keys, boot timestamps and the wire's
loss and jitter draws, and the registry that checks every AES-GCM IV.

The source is a seeded PRNG, so a (spec, seed) pair fully determines a run.
It draws each discovery key and the central controller's one master key;
no nonce and no SAK is drawn.  Both are unique by construction: a nonce is
a switch MAC followed by that switch's seal counter, and a SAK is derived
from its key number (see `crypto`).
"""

from __future__ import annotations

import random


class RandomSource:
    # Always empty, since nonces are built from a counter; one shared empty
    # set, kept only because the benchmark's tracer reads its length.
    _nonces_issued: frozenset[bytes] = frozenset()

    def __init__(self, seed: int | None = None):
        self.seed = seed if seed is not None else 0
        self._rng = random.Random(self.seed)

    def rand_bytes(self, n: int) -> bytes:
        return self._rng.randbytes(n)

    def key_material(self) -> bytes:
        return self.rand_bytes(16)

    def boot_seq(self) -> int:
        """Bootup-timestamp-style seed for a switch's discovery tx sequence."""
        return self._rng.randrange(1, 2**31)

    def uniform(self) -> float:
        return self._rng.random()


class IvUniquenessRegistry:
    """Runtime assertion that no (key, IV) pair is ever used twice.

    Every IV is a fixed part followed by a counter: an SCI and a PN under a
    SAK, or a switch MAC and its seal counter under a discovery key.  A
    (key, fixed part) pair is one channel, and its counters must strictly
    increase: keeping the highest counter per channel and rejecting one
    that does not exceed it catches every reuse in one entry per channel.

    `forget` drops a channel that can never be used again: the sending
    switch deleted that SA, or a switch installed a new discovery key, after
    which the old one never seals.  The registry is thus bounded by the
    live sending SAs plus one entry per switch.
    """

    def __init__(self):
        self._seen: dict[tuple[bytes, bytes], int] = {}

    def observe(self, key: bytes, fixed: bytes, counter: int) -> None:
        channel = (key, fixed)
        if counter <= self._seen.get(channel, 0):
            raise AssertionError(f"(key, IV) reuse or PN regression: fixed={fixed.hex()} counter={counter}")
        self._seen[channel] = counter

    def forget(self, key: bytes, fixed: bytes) -> None:
        self._seen.pop((key, fixed), None)
