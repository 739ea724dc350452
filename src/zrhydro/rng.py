"""Reproducible random streams for replica-parallel simulation.

Each replica gets its own counter-based (Philox) stream keyed by
(master_seed, replica_index), so replicas can run in any order or in
parallel and still produce byte-identical output.
"""
from __future__ import annotations

import numpy as np

#: uniforms drawn from the generator at a time
BLOCK = 1 << 16


def replica_stream(master_seed: int, replica_index: int = 0) -> np.random.Generator:
    """Independent generator for one replica of one experiment."""
    return np.random.Generator(np.random.Philox(key=[master_seed, replica_index]))


class UniformBlock:
    """Buffered uniform draws for tight event loops.

    Pulls uniforms from the generator in large blocks; ``next()`` is then a
    couple of list operations instead of a Generator call per event.
    """

    __slots__ = ("_gen", "_buf", "_i")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._buf = gen.random(BLOCK)
        self._i = 0

    def next(self) -> float:
        i = self._i
        if i >= BLOCK:
            self._buf = self._gen.random(BLOCK)
            i = 0
        self._i = i + 1
        return self._buf[i]
