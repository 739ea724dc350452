import numpy as np
import pytest

from zrhydro.coupling import (LabeledCouplingEngine, PairConfiguration,
                              SecondClassEngine, micro_entropy_functional,
                              one_block_statistic, ordering_defect,
                              run_basic_coupling, run_labeled_coupling,
                              run_second_class, second_class_left_mass,
                              young_measure_eval)
from zrhydro.engine import (Configuration, EventEngine, ModelParams,
                            build_initial)
from zrhydro.profiles import DensityProfile
from zrhydro.rates import indicator_rate, linear_rate
from zrhydro.rng import replica_stream
from zrhydro.testfuncs import TestFunction2D
from zrhydro.thermo import ThermoTable


def config(occ, x_min=0, closed=False):
    return Configuration(x_min, np.array(occ, dtype=np.int64), closed)


class TestOrderingDefect:
    def test_equal_copies(self):
        a = config([1, 2, 3])
        b = config([1, 2, 3])
        assert ordering_defect(a, b, 0, 2) == 0

    def test_opposite_signs(self):
        a = config([0, 0, 2])
        b = config([1, 0, 1])
        assert ordering_defect(a, b, 0, 2) == 1

    def test_same_sign(self):
        a = config([0, 0, 0])
        b = config([1, 0, 1])
        assert ordering_defect(a, b, 0, 2) == 0


class TestBasicCoupling:
    def test_equal_copies_stay_equal(self):
        params = ModelParams(0.75, 1.0, 0.0, 40)
        rng = replica_stream(3, 0)
        occ = rng.poisson(1.0, 41)
        pair = PairConfiguration(config(occ, -20, closed=True),
                                 config(occ, -20, closed=True))
        eng = run_basic_coupling(pair, params, indicator_rate(),
                                 0.5, replica_stream(3, 1))
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
        run_basic_coupling(pair, params, indicator_rate(),
                           0.4, replica_stream(6, 0))
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
        eng = run_basic_coupling(pair, params, indicator_rate(), 1.0,
                                 replica_stream(8, 1), order_guard=True)
        assert eng.order_violations == 0
        assert np.all(pair.omega.occ <= pair.varpi.occ)

    def test_mismatched_windows_rejected(self):
        with pytest.raises(ValueError):
            PairConfiguration(config([1, 2], 0), config([1, 2], 1))


class TestSecondClass:
    def test_alpha_zero_no_conversions(self):
        params = ModelParams(0.75, 0.0, 0.0, 40)
        cfg = config([1] * 41, -20, closed=True)
        st = run_second_class(cfg, params, linear_rate(), 0.5,
                              replica_stream(10, 0))
        assert st.conversions == 0
        assert st.k_t == 0

    def test_closed_mass_conservation(self):
        params = ModelParams(0.75, 1.0, 0.0, 40)
        cfg = config([2] * 41, -20, closed=True)
        mass0 = cfg.total_mass
        st = run_second_class(cfg, params, indicator_rate(), 0.8,
                              replica_stream(11, 0))
        assert int(st.omega.occ.sum() + st.zeta.occ.sum()) == mass0

    def test_k_t_counts_conversions(self):
        params = ModelParams(0.75, 1.0, 0.0, 40)
        cfg = config([2] * 41, -20, closed=True)
        st = run_second_class(cfg, params, indicator_rate(), 0.5,
                              replica_stream(12, 0))
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


class TestStatistics:
    def test_entropy_functional_identical_copies(self):
        params = ModelParams(0.75, 1.0, 0.0, 50)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        H = TestFunction2D(0.5, 0.4, 0.0, 0.5)
        occ = np.random.default_rng(0).poisson(1.0, 101)
        snaps = [(t, occ, occ) for t in (0.1, 0.2, 0.3)]
        val = micro_entropy_functional(snaps, -50, H, 5, thermo, params)
        assert val == 0.0

    def test_entropy_functional_zero_test_function(self):
        params = ModelParams(0.75, 1.0, 0.0, 50)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        H = TestFunction2D(10.0, 0.1, 0.0, 0.5)  # support after t_end
        rng = np.random.default_rng(1)
        snaps = [(t, rng.poisson(1.0, 101), rng.poisson(0.5, 101))
                 for t in (0.1, 0.2)]
        val = micro_entropy_functional(snaps, -50, H, 5, thermo, params)
        assert val == 0.0

    def test_entropy_support_check(self):
        params = ModelParams(0.75, 1.0, 0.0, 50)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        H = TestFunction2D(0.5, 0.4, 0.0, 50.0)  # wider than the window
        occ = np.ones(101, dtype=np.int64)
        snaps = [(0.1, occ, occ), (0.2, occ, occ)]
        with pytest.raises(ValueError):
            micro_entropy_functional(snaps, -50, H, 5, thermo, params)

    def test_one_block_constant_linear(self):
        params = ModelParams(0.75, 0.0, 0.0, 50)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        cfg = config([3] * 101, -50)
        prof = one_block_statistic(cfg, 5, thermo, params)
        assert np.allclose(prof.values[10:-10], 0.0, atol=1e-6)

    def test_one_block_empty(self):
        params = ModelParams(0.75, 0.0, 0.0, 50)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        cfg = config([0] * 41, -20)
        prof = one_block_statistic(cfg, 3, thermo, params)
        assert np.allclose(prof.values, 0.0)

    def test_one_block_lln_trend(self):
        # spatial mean of the statistic decreases with the block size;
        # needs a nonlinear rate (for g(k) = k it vanishes identically)
        params = ModelParams(0.75, 0.0, 0.0, 100)
        thermo = ThermoTable(indicator_rate(), rho_max=8.0)
        rng = replica_stream(20, 0)
        occ = thermo.sample_marginal(1.0, rng, 501)
        cfg = Configuration(-250, occ)
        means = []
        for ell in (5, 20, 80):
            prof = one_block_statistic(cfg, ell, thermo, params)
            interior = prof.values[160:-160]
            means.append(interior.mean())
        assert means[0] > means[1] > means[2]

    def test_young_measure_literal(self):
        params = ModelParams(0.75, 0.0, 0.0, 10)
        cfg = config([1] * 21, -10)
        ell = 2

        def G(u, lam):
            return lam if 0.0 <= u <= 1.0 else 0.0

        from zrhydro.engine import block_average
        blocks = block_average(cfg.occ, ell)
        xs = np.arange(-10, 11)
        expected = sum(G(x / 10, blocks[i]) for i, x in enumerate(xs)
                       if x > ell) / 10
        assert young_measure_eval(cfg, params, ell, G) == pytest.approx(
            expected)
