"""Single randomness source feeding nonces, keys and boot timestamps.

It is a seeded PRNG, so a (spec, seed) pair fully determines a run.
"""

from __future__ import annotations

import random


class RandomSource:
    def __init__(self, seed: int | None = None):
        self.seed = seed if seed is not None else 0
        self._rng = random.Random(self.seed)
        self._nonces_issued: set[bytes] = set()

    def rand_bytes(self, n: int) -> bytes:
        return self._rng.randbytes(n)

    def lldp_nonce(self) -> bytes:
        """Fresh 12-byte nonce; re-issue of a previous nonce is a hard error."""
        nonce = self.rand_bytes(12)
        if nonce in self._nonces_issued:
            raise AssertionError("nonce reuse detected")
        self._nonces_issued.add(nonce)
        return nonce

    def key_material(self) -> bytes:
        return self.rand_bytes(16)

    def boot_seq(self) -> int:
        """Bootup-timestamp-style seed for a switch's discovery tx sequence."""
        return self._rng.randrange(1, 2**31)

    def uniform(self) -> float:
        return self._rng.random()


class IvUniquenessRegistry:
    """Runtime assertion that no (key, IV) pair is ever used twice.

    The IV is a fixed prefix (the SCI) followed by a counter (the PN).  A
    channel is one (key, SCI) pair, and its PNs must strictly increase:
    keeping the highest PN per channel and rejecting one that does not
    exceed it catches every reuse in one entry per SA.
    """

    def __init__(self):
        self._seen: dict[tuple[bytes, bytes], int] = {}

    def observe(self, key: bytes, sci: bytes, pn: int) -> None:
        channel = (key, sci)
        if pn <= self._seen.get(channel, 0):
            raise AssertionError(f"(SAK, IV) reuse or PN regression: sci={sci.hex()} pn={pn}")
        self._seen[channel] = pn
