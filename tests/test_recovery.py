"""Recovery paths of the event loop: empty-site picks and the leak cap."""
import numpy as np
import pytest

from zrhydro.coupling import (BasicCouplingEngine, LabeledCouplingEngine,
                              PairConfiguration, SecondClassEngine)
from zrhydro.engine import (Configuration, EventEngine, LeakageError,
                            ModelParams, SumTree)
from zrhydro.rates import linear_rate
from zrhydro.rng import replica_stream

EMPTY = 40


def _make(kind, occ, params, closed=True):
    def cfg():
        return Configuration(-50, np.array(occ, dtype=np.int64), closed)
    rng = replica_stream(21, 0)
    if kind == "event":
        return EventEngine(cfg(), params, linear_rate(), rng)
    if kind == "basic":
        return BasicCouplingEngine(PairConfiguration(cfg(), cfg()), params,
                                   linear_rate(), rng)
    if kind == "second":
        return SecondClassEngine(cfg(), params, linear_rate(), rng)
    return LabeledCouplingEngine(cfg(), params, linear_rate(), rng)


@pytest.mark.parametrize("kind", ["event", "basic", "second", "labeled"])
def test_empty_site_pick_rebuilds_and_finishes(kind, monkeypatch):
    # a rate-proportional pick can land on an empty site only through
    # float round-off in the tree; force one and check the run recovers
    params = ModelParams(0.75, 1.0, 1.0 if kind == "labeled" else 0.0, 50)
    occ = [3] * 101
    occ[EMPTY] = 0
    eng = _make(kind, occ, params)
    find = SumTree.find
    forced = []

    def find_once(tree, u):
        if not forced:
            forced.append(u)
            return EMPTY
        return find(tree, u)

    monkeypatch.setattr(SumTree, "find", find_once)
    eng.run(0.2)
    assert forced and eng.n_events > 0
    eng.verify_rates()


def test_labeled_origin_exit_hits_leak_cap():
    # the origin sits on the left edge: with alpha = 0 a quarter of the
    # origin's jumps leave the window there, far beyond the default cap
    # of 1e-3 of the mass
    params = ModelParams(0.75, 0.0, 1.0, 50)
    occ = np.zeros(201, dtype=np.int64)
    occ[0] = 50
    eng = LabeledCouplingEngine(Configuration(0, occ), params, linear_rate(),
                                replica_stream(4, 0))
    with pytest.raises(LeakageError):
        eng.run(0.5)
