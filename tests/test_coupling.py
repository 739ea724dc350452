import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zrhydro import _ckernel
from zrhydro.coupling import (BasicCouplingEngine, LabeledCouplingEngine,
                              PairConfiguration, SecondClassEngine,
                              run_labeled_coupling, second_class_left_mass)
from zrhydro.engine import (Configuration, EventEngine, ModelParams,
                            build_initial)
from zrhydro.profiles import DensityProfile
from zrhydro.rates import indicator_rate, linear_rate, rate_from_spec
from zrhydro.rng import replica_stream


def config(occ, x_min=0, closed=False):
    return Configuration(x_min, np.array(occ, dtype=np.int64), closed)


class TestBasicCoupling:
    def test_equal_copies_stay_equal(self):
        params = ModelParams(0.75, 1.0, 0.0, 40)
        rng = replica_stream(3, 0)
        occ = rng.poisson(1.0, 41)
        pair = PairConfiguration(config(occ, -20, closed=True),
                                 config(occ, -20, closed=True))
        BasicCouplingEngine(pair, params, indicator_rate(),
                            replica_stream(3, 1)).run(0.5)
        assert np.array_equal(pair.omega.occ, pair.varpi.occ)

    def test_marginal_byte_identical(self):
        # degenerate second copy reproduces the single-engine trajectory
        params = ModelParams(0.8, 1.0, 0.0, 50)
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        c1 = build_initial(rho0, params, (-70, 40), replica_stream(5, 0))
        c2 = build_initial(rho0, params, (-70, 40), replica_stream(5, 1))
        single = c1.copy()
        eng = EventEngine(single, params, indicator_rate(),
                          replica_stream(6, 0))
        eng.run(0.4)
        pair = PairConfiguration(c1.copy(), c1.copy())
        BasicCouplingEngine(pair, params, indicator_rate(),
                            replica_stream(6, 0)).run(0.4)
        assert np.array_equal(single.occ, pair.omega.occ)
        assert np.array_equal(single.occ, pair.varpi.occ)
        assert single.destroyed_count == pair.omega.destroyed_count

    def test_order_preservation(self):
        params = ModelParams(0.75, 1.0, 0.0, 40)
        rng = replica_stream(8, 0)
        lo = rng.poisson(0.7, 61)
        hi = lo + rng.poisson(0.4, 61)
        pair = PairConfiguration(config(lo, -30, closed=True),
                                 config(hi, -30, closed=True))
        eng = BasicCouplingEngine(pair, params, indicator_rate(),
                                  replica_stream(8, 1), order_guard=True)
        eng.run(1.0)
        assert eng.order_violations == 0
        assert np.all(pair.omega.occ <= pair.varpi.occ)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_order_preserved_for_any_attractive_rate(self, data):
        # omega <= varpi at every site stays so, on both loops, for any
        # non-decreasing rate, drift, destruction regime and window
        n = data.draw(st.integers(1, 8))
        lo = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        extra = data.draw(st.lists(st.integers(0, 3), min_size=n,
                                   max_size=n))
        x_min = data.draw(st.integers(-8, 1))
        closed = data.draw(st.booleans())
        steps = data.draw(st.lists(st.floats(0.0, 2.0), min_size=1,
                                   max_size=4))
        slope = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        g = np.cumsum([max(steps[0], 0.1), *steps[1:]])
        spec = "table:0," + ",".join(map(repr, g.tolist()))
        rate = data.draw(st.sampled_from([
            rate_from_spec(f"{spec};slope={slope}"), linear_rate(),
            indicator_rate()]))
        params = ModelParams(data.draw(st.floats(0.5, 1.0, exclude_min=True)),
                             data.draw(st.floats(0.0, 2.0)),
                             data.draw(st.sampled_from([-1.0, 0.0, 1.0])),
                             10)
        seed = data.draw(st.integers(0, 2**16))

        def run():
            pair = PairConfiguration(config(lo, x_min, closed),
                                     config(np.add(lo, extra), x_min, closed))
            eng = BasicCouplingEngine(pair, params, rate,
                                      replica_stream(seed, 0),
                                      leak_fraction=1.0, order_guard=True)
            eng.run(1.0)
            assert eng.order_violations == 0
            assert np.all(pair.omega.occ <= pair.varpi.occ)
            return eng.kernel, pair.omega.occ, pair.varpi.occ

        compiled = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_ckernel, "load", lambda: None)
            python = run()
        assert python[0] == "python"
        if compiled[0] == "c":
            # the two loops give one trajectory
            assert all(np.array_equal(c, p)
                       for c, p in zip(compiled[1:], python[1:]))

    def test_mismatched_windows_rejected(self):
        with pytest.raises(ValueError):
            PairConfiguration(config([1, 2], 0), config([1, 2], 1))


class TestSecondClass:
    def test_alpha_zero_no_conversions(self):
        params = ModelParams(0.75, 0.0, 0.0, 40)
        cfg = config([1] * 41, -20, closed=True)
        eng = SecondClassEngine(cfg, params, linear_rate(),
                                replica_stream(10, 0))
        eng.run(0.5)
        st = eng.state()
        assert st.conversions == 0
        assert st.k_t == 0

    def test_closed_mass_conservation(self):
        params = ModelParams(0.75, 1.0, 0.0, 40)
        cfg = config([2] * 41, -20, closed=True)
        mass0 = cfg.total_mass
        eng = SecondClassEngine(cfg, params, indicator_rate(),
                                replica_stream(11, 0))
        eng.run(0.8)
        st = eng.state()
        assert int(st.omega.occ.sum() + st.zeta.occ.sum()) == mass0

    def test_k_t_counts_conversions(self):
        params = ModelParams(0.75, 1.0, 0.0, 40)
        cfg = config([2] * 41, -20, closed=True)
        eng = SecondClassEngine(cfg, params, indicator_rate(),
                                replica_stream(12, 0))
        eng.run(0.5)
        st = eng.state()
        assert st.k_t == st.conversions

    def test_exits_counted_by_edge(self):
        # 30 particles on the left edge of an open window: in a short run
        # only the left edge is within reach, so every exit is a left exit
        params = ModelParams(0.75, 0.0, 0.0, 20)
        occ = [0] * 41
        occ[0] = 30
        eng = SecondClassEngine(config(occ, -20), params, linear_rate(),
                                np.random.default_rng(0), leak_fraction=1.0)
        rec = eng.run(0.2)
        st = eng.state()
        assert rec.exited_left > 0 and rec.exited_right == 0
        assert (st.omega.total_mass + st.zeta.total_mass
                + rec.exited_left == 30)

    def test_left_mass_trivial(self):
        from zrhydro.coupling import SecondClassState
        st = SecondClassState(
            omega=config([0] * 11, -5), zeta=config([0] * 11, -5),
            conversions=0)
        assert second_class_left_mass(st, 100) == 0.0
        st.zeta.occ[10] = 1  # site +5, right of the origin
        assert second_class_left_mass(st, 100) == 0.0
        st.zeta.occ[2] = 1  # site -3
        assert second_class_left_mass(st, 100) == pytest.approx(0.01)


class TestLabeledCoupling:
    def test_discrepancy_nonnegative(self):
        params = ModelParams(0.75, 1.0, 1.0, 25)
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        cfg = build_initial(rho0, params, (-40, 20), replica_stream(13, 0))
        disc = run_labeled_coupling(cfg, params, indicator_rate(), 0.3,
                                    replica_stream(13, 1))
        assert disc >= 0

    def test_rejects_weak_destruction(self):
        params = ModelParams(0.75, 1.0, 0.5, 25)
        cfg = config([1] * 11, -5)
        with pytest.raises(ValueError):
            run_labeled_coupling(cfg, params, indicator_rate(), 0.1,
                                 replica_stream(14, 0))

    def test_eta_dominated(self):
        params = ModelParams(0.75, 1.0, 1.0, 25)
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        cfg = build_initial(rho0, params, (-40, 20), replica_stream(15, 0))
        eng = LabeledCouplingEngine(cfg, params, indicator_rate(),
                                    replica_stream(15, 1))
        eng.run(0.3)
        assert all(e <= o for e, o in zip(eng._eta, eng._omega))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closed_window_keeps_its_balance(data):
    # a closed window loses no particle at either edge, and every engine
    # keeps its balance, on both loops, for any non-decreasing rate,
    # drift, destruction regime and window
    kind = data.draw(st.sampled_from(["event", "second", "labeled"]))
    n = data.draw(st.integers(1, 8))
    occ = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    x_min = data.draw(st.integers(-8, 1))
    steps = data.draw(st.lists(st.floats(0.0, 2.0), min_size=1,
                               max_size=4))
    slope = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    g = np.cumsum([max(steps[0], 0.1), *steps[1:]])
    spec = "table:0," + ",".join(map(repr, g.tolist()))
    rate = data.draw(st.sampled_from([
        rate_from_spec(f"{spec};slope={slope}"), linear_rate(),
        indicator_rate()]))
    params = ModelParams(data.draw(st.floats(0.5, 1.0, exclude_min=True)),
                         data.draw(st.floats(0.0, 2.0)),
                         data.draw(st.sampled_from([-1.0, 0.0, 1.0])),
                         10)
    seed = data.draw(st.integers(0, 2**16))
    engine = {"event": EventEngine, "second": SecondClassEngine,
              "labeled": LabeledCouplingEngine}[kind]

    def run():
        eng = engine(config(occ, x_min, closed=True), params, rate,
                     replica_stream(seed, 0))
        start = eng._balance()
        eng.run(0.5)
        if kind == "labeled":
            assert eng._cnt[0] == 0
        else:
            assert eng._cnt[1] == eng._cnt[2] == 0
        assert eng._balance() == start
        return (eng.kernel, eng.n_events, eng.time.hex(),
                [[int(k) for k in getattr(eng, name)] for name in eng._OCC],
                [int(k) for k in eng._cnt])

    compiled = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ckernel, "load", lambda: None)
        python = run()
    assert python[0] == "python"
    if compiled[0] == "c":
        # the two loops give one trajectory
        assert compiled[1:] == python[1:]
