"""Reproducible random streams for replica-parallel simulation.

Each replica gets its own counter-based (Philox) stream keyed by
(master_seed, replica_index), so replicas can run in any order or in
parallel and still produce byte-identical output.

``UniformBlock`` draws its uniforms in blocks that start at ``FIRST_BLOCK``
and double at each refill up to ``BLOCK``, so a short run draws little
more than it uses.  The stream of uniforms does not depend on the block
sizes (Philox ``random()`` gives the same doubles however they are
requested), but the generator's state after a run does: it has moved past
the blocks drawn, not past the uniforms used.  An engine therefore owns
its generator; nothing should draw from it after the engine does.
"""
from __future__ import annotations

import numpy as np

#: largest block of uniforms drawn from the generator at a time
BLOCK = 1 << 16
#: first block drawn; each refill doubles the size up to BLOCK
FIRST_BLOCK = 1 << 8


def replica_stream(master_seed: int, replica_index: int = 0) -> np.random.Generator:
    """Independent generator for one replica of one experiment."""
    return np.random.Generator(np.random.Philox(key=[master_seed, replica_index]))


class UniformBlock:
    """Buffered uniform draws for tight event loops.

    Pulls uniforms from the generator in blocks that ramp up to ``BLOCK``;
    ``next()`` is then a couple of list operations instead of a Generator
    call per event.
    """

    __slots__ = ("_gen", "_buf", "_n", "_i")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._n = FIRST_BLOCK
        self._buf = gen.random(FIRST_BLOCK)
        self._i = 0

    def refill(self):
        """Draw the next block, twice the size of the last up to
        ``BLOCK``, and start reading it."""
        self._n = min(2 * self._n, BLOCK)
        self._buf = self._gen.random(self._n)
        self._i = 0

    def next(self) -> float:
        i = self._i
        if i >= self._n:
            self.refill()
            i = 0
        self._i = i + 1
        return self._buf[i]
