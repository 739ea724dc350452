"""Reproducible random streams for replica-parallel simulation.

Each replica gets its own counter-based (Philox) stream keyed by
(master_seed, replica_index), so replicas can run in any order or in
parallel and still produce byte-identical output.

``UniformBlock`` draws its uniforms in blocks that start at ``FIRST_BLOCK``
and double at each refill up to ``BLOCK``, so a short run draws little
more than it uses.  A caller that knows about how many uniforms it will
use says so with ``plan(want)``: the refills then draw what the current
block lacks of ``want``, in blocks of up to ``BLOCK``, and only past that
does the ramp resume, doubling from the last planned block.  The engines
plan each run from its expected event count: an N = 200 replica of about
18,000 events then draws about 1.1 uniforms for each one it uses, where
the ramp alone, whose last block can hold half of all drawn, drew about
1.7.  The stream of uniforms does not depend on the block sizes (Philox
``random()`` gives the same doubles however they are requested), but the
generator's state after a run does: it has moved past the blocks drawn,
not past the uniforms used.  An engine therefore owns its generator;
nothing should draw from it after the engine does.  Consecutive
``oracle.dual_rw_estimate`` calls sharing one generator read it after the
blocks the previous call's engine planned and drew, so block sizing moves
the estimates of all but the first call.
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

    Pulls uniforms from the generator in blocks that ramp up to ``BLOCK``,
    or that ``plan`` sizes; ``next()`` is then a couple of list operations
    instead of a Generator call per event.
    """

    __slots__ = ("_gen", "_buf", "_n", "_i", "_planned")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._n = FIRST_BLOCK
        self._buf = gen.random(FIRST_BLOCK)
        self._i = 0
        self._planned = 0

    def plan(self, want: int):
        """Expect ``want`` more uniforms: the next refills draw what the
        current block lacks of them, ``BLOCK`` at a time.  A new plan
        replaces the last one."""
        self._planned = max(want - (self._n - self._i), 0)

    def refill(self):
        """Draw the next block and start reading it: the plan's remainder
        up to ``BLOCK`` while one is left, else twice the last block up
        to ``BLOCK``."""
        if self._planned:
            self._n = min(self._planned, BLOCK)
            self._planned -= self._n
        else:
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
