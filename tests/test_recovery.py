"""Recovery paths of the event loop on both kernels: empty-site picks,
the event budget, the leak cap, the rate audit and the particle-balance
audit."""
import numpy as np
import pytest

from zrhydro import _ckernel, engine
from zrhydro.coupling import (BasicCouplingEngine, LabeledCouplingEngine,
                              PairConfiguration, SecondClassEngine)
from zrhydro.engine import (Configuration, EventBudgetError, EventEngine,
                            GillespieLoop, LeakageError, ModelParams,
                            RateConsistencyError, SimulationError)
from zrhydro.rates import linear_rate
from zrhydro.rng import replica_stream

KINDS = ["event", "basic", "second", "labeled"]
EMPTY = 40


def _make(kind, occ, params, closed=True, **kw):
    def cfg():
        return Configuration(-50, np.array(occ, dtype=np.int64), closed)
    rng = replica_stream(21, 0)
    if kind == "event":
        return EventEngine(cfg(), params, linear_rate(), rng, **kw)
    if kind == "basic":
        return BasicCouplingEngine(PairConfiguration(cfg(), cfg()), params,
                                   linear_rate(), rng, **kw)
    if kind == "second":
        return SecondClassEngine(cfg(), params, linear_rate(), rng, **kw)
    return LabeledCouplingEngine(cfg(), params, linear_rate(), rng, **kw)


def _params(kind):
    return ModelParams(0.75, 1.0, 1.0 if kind == "labeled" else 0.0, 50)


def _empty_site_run(kind, monkeypatch):
    # a rate-proportional pick can land on an empty site only through
    # float round-off in the tree; a huge weight on an empty site in the
    # tree alone forces one at the first event, and the audit it triggers
    # must find the per-site rates consistent and rebuild the tree
    occ = [3] * 101
    occ[EMPTY] = 0
    eng = _make(kind, occ, _params(kind))
    eng._tree.update(EMPTY, 1e6)
    audits = []
    verify = GillespieLoop.verify_rates

    def spy(self, *args):
        audits.append(self.n_events)
        return verify(self, *args)

    monkeypatch.setattr(GillespieLoop, "verify_rates", spy)
    eng.run(0.2)
    assert audits[0] == 0 and len(audits) >= 2
    assert eng.n_events > 0
    verify(eng)
    return eng


@pytest.mark.parametrize("kind", KINDS)
def test_empty_site_pick_rebuilds_and_finishes(kind, monkeypatch, c_kernel):
    assert _empty_site_run(kind, monkeypatch).kernel == "c"


@pytest.mark.parametrize("kind", KINDS)
def test_empty_site_pick_rebuilds_and_finishes_python_loop(
        kind, monkeypatch, python_loop):
    assert _empty_site_run(kind, monkeypatch).kernel == "python"


def _state(eng):
    """Time, events, total rate, occupations and counters, exactly."""
    occ = [[int(k) for k in getattr(eng, name)] for name in eng._OCC]
    return (eng.time.hex(), eng.n_events, float(eng._total).hex(), occ,
            [int(k) for k in eng._cnt], eng._ub._i)


def _failing_run(error, make, monkeypatch):
    """Run ``make()`` into ``error`` on each loop; both must stop in the
    same state."""
    results = {}
    for loop in ("c", "python"):
        with monkeypatch.context() as m:
            if loop == "python":
                m.setattr(_ckernel, "load", lambda: None)
            eng = make()
            assert eng.kernel == loop
            with pytest.raises(error):
                eng.run(5.0)
            results[loop] = _state(eng)
    assert results["c"] == results["python"]
    return results["c"]


@pytest.mark.parametrize("kind", KINDS)
def test_event_budget_inside_compiled_stretch(kind, monkeypatch, c_kernel):
    # the budget runs out far from any buffer refill or audit, inside a
    # compiled stretch; the loop stops one event past it on both kernels
    monkeypatch.setattr(engine, "MAX_EVENTS", 5000)
    state = _failing_run(EventBudgetError, lambda: _make(
        kind, [3] * 101, _params(kind)), monkeypatch)
    assert state[1] == 5001


@pytest.mark.parametrize("kind", KINDS)
def test_leak_cap_inside_compiled_stretch(kind, monkeypatch, c_kernel):
    # an open window with particles next to its right edge: the exit that
    # passes a tenth of the mass comes over a thousand events into the run
    occ = [3] * 101
    occ[-3:] = [20, 20, 20]
    state = _failing_run(LeakageError, lambda: _make(
        kind, occ, _params(kind), closed=False, leak_fraction=0.1),
        monkeypatch)
    assert state[1] > 1000


def _labeled_origin_exit():
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


def test_labeled_origin_exit_hits_leak_cap(c_kernel):
    _labeled_origin_exit()


def test_labeled_origin_exit_hits_leak_cap_python_loop(python_loop):
    _labeled_origin_exit()


@pytest.mark.parametrize("kind", KINDS)
def test_conservation_audit_fires(kind, kernel):
    # a recorded starting balance one above the window's: the end-of-run
    # audit must find the mismatch, on closed and open windows alike
    for closed in (True, False):
        eng = _make(kind, [3] * 101, _params(kind), closed=closed,
                    leak_fraction=1.0)
        eng._mass0 = (eng._mass0[0] + 1,) + eng._mass0[1:]
        assert eng.kernel == kernel
        with pytest.raises(SimulationError, match="conservation"):
            eng.run(0.05)
        assert eng.n_events > 0


def test_closed_window_with_earlier_exits_keeps_balance(kernel):
    # a closed configuration that arrives with an exit count, as one
    # reused after an open run does: the exit stays in the balance
    cfg = Configuration(-50, np.full(101, 3, dtype=np.int64), closed=True,
                        exited_left=1)
    eng = EventEngine(cfg, _params("event"), linear_rate(),
                      replica_stream(21, 0))
    rec = eng.run(0.05)
    assert rec.kernel == kernel and rec.n_events > 0
    assert (cfg.total_mass + cfg.destroyed_count, cfg.exited_left,
            cfg.exited_right) == (303, 1, 0)


def test_labeled_counts_origin_kills(monkeypatch, c_kernel):
    # a closed labeled window loses omega-particles only to origin kills,
    # which both loops count alike
    def run():
        eng = _make("labeled", [3] * 101, _params("labeled"))
        eng.run(0.2)
        return eng
    eng = run()
    monkeypatch.setattr(_ckernel, "load", lambda: None)
    ref = run()
    assert (eng.kernel, ref.kernel) == ("c", "python")
    exits, kills = (int(k) for k in eng._cnt)
    assert exits == 0 and kills > 0
    assert sum(int(k) for k in eng._omega) + kills == 303
    assert _state(eng) == _state(ref)


def _emptying_window():
    # 2,000 particles at the origin of an open window, as one killing-
    # probability run of the dual walks at N = 50, beta = -0.5: by
    # t = 46.4 each has died or left
    occ = np.zeros(58, dtype=np.int64)
    occ[29] = 2000
    return EventEngine(Configuration(-29, occ),
                       ModelParams(0.75, 1.0, -0.5, 50), linear_rate(),
                       replica_stream(0, 0), leak_fraction=1.0)


def test_emptied_window_passes_the_rate_audit(kernel):
    # the running total started near 1.1e5 and ends a few 1e-9 from the
    # rebuilt 0.0: that is rounding carried from the large totals, not
    # drift, and the audit bound scales with the last rebuild's total
    eng = _emptying_window()
    rec = eng.run(46.4)
    assert rec.kernel == kernel
    assert eng.config.total_mass == 0 and eng._total == 0.0
    assert rec.destroyed_count + rec.exited_left + rec.exited_right == 2000


def test_rate_audit_still_sees_drift(kernel):
    # a running total off by 1e-8 of the rebuilt one is drift
    eng = _emptying_window()
    eng._total *= 1 + 1e-8
    assert eng.kernel == kernel
    with pytest.raises(RateConsistencyError, match="running total"):
        eng.run(0.01)
