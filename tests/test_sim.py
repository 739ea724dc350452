import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zrhydro import engine
from zrhydro.engine import (Configuration, EventBudgetError, EventEngine,
                            LeakageError, ModelParams, SnapshotObserver,
                            SumTree, block_average, build_initial,
                            choose_window, empirical_density)
from zrhydro.profiles import DensityProfile
from zrhydro.rates import indicator_rate, linear_rate
from zrhydro.rng import replica_stream


def make_engine(occ, x_min, params, rate, seed=0, **kw):
    cfg = Configuration(x_min=x_min, occ=np.array(occ, dtype=np.int64), **kw)
    return cfg, EventEngine(cfg, params, rate, replica_stream(seed, 0))


class TestModelParams:
    def test_symmetric_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(p=0.5, alpha=0.0, beta=0.0, N=10)

    def test_drift(self):
        assert ModelParams(0.75, 0.0, 0.0, 10).drift == pytest.approx(0.5)

    @pytest.mark.parametrize("alpha, beta, field", [
        (math.nan, 0.0, "alpha"), (math.inf, 0.0, "alpha"),
        (1.0, math.nan, "beta"), (1.0, -math.inf, "beta")])
    def test_non_finite_strength_rejected(self, alpha, beta, field):
        # nan passes alpha < 0; it must fail here, not deep in a run
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ModelParams(0.75, alpha, beta, 10)

    def test_destruction_factor(self):
        pr = ModelParams(0.75, 2.0, 0.5, 100)
        assert pr.destruction_factor == pytest.approx(20.0)


class TestChooseWindow:
    def test_drift_sizing(self):
        pr = ModelParams(p=1.0, alpha=0.0, beta=0.0, N=100)
        assert choose_window((-1.0, 0.0), pr, 1.0, 0.5) == (-150, 150)

    def test_zero_time(self):
        pr = ModelParams(p=0.75, alpha=0.0, beta=0.0, N=100)
        assert choose_window((0.0, 0.0), pr, 0.0, 0.5) == (-50, 50)

    def test_asymmetric(self):
        pr = ModelParams(p=0.75, alpha=0.0, beta=0.0, N=50)
        assert choose_window((-1.0, 1.0), pr, 2.0, 1.0) == (-100, 150)


class TestBuildInitial:
    def test_zero_profile(self):
        pr = ModelParams(0.75, 0.0, 0.0, 100)
        rho0 = DensityProfile.constant(0.0, -1.0, 1.0, 0.01)
        cfg = build_initial(rho0, pr, (-100, 100), replica_stream(0, 0))
        assert cfg.total_mass == 0

    def test_poisson_mass_band(self):
        pr = ModelParams(0.75, 0.0, 0.0, 100)
        rho0 = DensityProfile.constant(1.0, -2.0, 2.0, 0.01)
        cfg = build_initial(rho0, pr, (-200, 199), replica_stream(1, 0))
        assert 400 - 60 <= cfg.total_mass <= 400 + 60

    def test_support_respected(self):
        pr = ModelParams(0.75, 0.0, 0.0, 100)
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        cfg = build_initial(rho0, pr, (-150, 150), replica_stream(2, 0))
        right = cfg.occ[cfg.x_max - cfg.x_min - 100:]
        assert right.sum() == 0


class TestEngine:
    def test_empty_no_events(self):
        pr = ModelParams(0.75, 1.0, 0.0, 50)
        cfg, eng = make_engine([0] * 21, -10, pr, linear_rate())
        rec = eng.run(1.0)
        assert rec.n_events == 0
        assert cfg.total_mass == 0

    def test_single_particle_drift(self):
        pr = ModelParams(0.75, 0.0, 0.0, 100)
        finals = []
        for rep in range(300):
            cfg = Configuration(-200, np.zeros(401, dtype=np.int64))
            cfg.occ[200] = 1
            eng = EventEngine(cfg, pr, linear_rate(), replica_stream(7, rep))
            eng.run(1.0)
            finals.append(int(np.argmax(cfg.occ)) - 200)
        mean = np.mean(finals)
        assert abs(mean - 50) < 3 * math.sqrt(100 / 300) * 2

    def test_destruction_competition(self, monkeypatch):
        # single particle at the origin, alpha N^beta = 100: destroyed
        # before jumping with probability 100/101
        monkeypatch.setattr(engine, "MAX_EVENTS", 0)  # exactly the first event
        pr = ModelParams(0.75, 1.0, 2.0, 10)
        destroyed = 0
        trials = 2000
        for rep in range(trials):
            cfg = Configuration(-3, np.zeros(7, dtype=np.int64), closed=True)
            cfg.occ[3] = 1
            eng = EventEngine(cfg, pr, linear_rate(), replica_stream(9, rep))
            try:
                eng.run(1.0)
            except EventBudgetError:
                pass
            destroyed += cfg.destroyed_count
        frac = destroyed / trials
        expect = 100 / 101
        se = math.sqrt(expect * (1 - expect) / trials)
        assert abs(frac - expect) < max(3 * se, 0.01)

    def test_closed_conservation(self):
        pr = ModelParams(0.75, 1.0, 0.0, 50)
        rng = replica_stream(3, 0)
        occ = rng.poisson(1.0, 41)
        cfg, eng = make_engine(occ, -20, pr, indicator_rate(), closed=True)
        mass0 = cfg.total_mass
        eng.run(1.0)
        assert cfg.total_mass + cfg.destroyed_count == mass0

    def test_alpha_zero_never_destroys(self):
        pr = ModelParams(0.75, 0.0, 0.0, 50)
        cfg, eng = make_engine([2] * 41, -20, pr, linear_rate(), closed=True)
        eng.run(0.5)
        assert cfg.destroyed_count == 0

    def test_determinism(self):
        pr = ModelParams(0.8, 1.0, 0.0, 50)
        occ = [1, 0, 2, 1, 3, 0, 1, 2, 0, 1, 1]
        cfg1, e1 = make_engine(occ, -5, pr, linear_rate(), seed=11,
                               closed=True)
        cfg2, e2 = make_engine(occ, -5, pr, linear_rate(), seed=11,
                               closed=True)
        e1.run(0.5)
        e2.run(0.5)
        assert np.array_equal(cfg1.occ, cfg2.occ)
        assert cfg1.destroyed_count == cfg2.destroyed_count

    def test_leakage_guard(self):
        pr = ModelParams(1.0, 0.0, 0.0, 100)
        cfg, eng = make_engine([5] * 5, 0, pr, linear_rate())
        with pytest.raises(LeakageError):
            eng.run(5.0)

    def test_observer_times(self):
        pr = ModelParams(0.75, 0.0, 0.0, 50)
        cfg, eng = make_engine([1] * 21, -10, pr, linear_rate(), closed=True)
        obs = SnapshotObserver([0.1, 0.2, 0.3])
        eng.run(0.3, observers=[obs])
        assert [t for t, _ in obs.snapshots] == [0.1, 0.2, 0.3]

    def test_rate_audit_clean(self):
        pr = ModelParams(0.75, 1.0, 0.0, 50)
        cfg, eng = make_engine([2] * 31, -15, pr, indicator_rate(),
                               closed=True)
        eng.run(0.5)
        eng.verify_rates()  # must not raise


class TestSumTree:
    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=300))
    def test_rebuild_adds_values_one_at_a_time(self, values):
        # the vectorized rebuild must give the tree that adding each value
        # to its ancestors in index order gives, bit for bit
        n = len(values)
        want = [0.0] * (n + 1)
        for i, v in enumerate(values):
            j = i + 1
            while j <= n:
                want[j] += v
                j += j & (-j)
        got = SumTree(values).tree
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=200),
           st.lists(st.tuples(st.integers(0, 10**6), st.floats(0.0, 1e3)),
                    max_size=60),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
           st.booleans(), st.booleans())
    def test_updates_keep_prefix_sums_and_find(self, values, updates, us,
                                               through_set, as_array):
        # the changes go through update (nodes only) or through set
        # (values and nodes, as the engines' step closures do), on the
        # Python loop's lists or the compiled kernel's arrays
        tree = SumTree(np.array(values) if as_array else values)
        vals = np.array(values)
        scale = max(vals.sum(), 1.0)
        for i, v in updates:
            i %= len(vals)
            if through_set:
                d = tree.set(i, v)
                assert d == v - vals[i]
                # can miss v by an ulp, as the kernel's refresh() does
                vals[i] += d
            else:
                tree.update(i, v - vals[i])
                vals[i] = v
            scale = max(scale, vals.sum())
        held = vals.tolist() if through_set else values
        assert [float(x).hex() for x in tree.values] == [
            float(x).hex() for x in held]
        # the updates' round-off, relative to the largest total held
        tol = 1e-12 * scale
        # node j holds vals[j - lowbit(j):j]
        for j in range(1, tree.n + 1):
            assert abs(tree.tree[j] - vals[j - (j & -j):j].sum()) <= tol
        cum = np.cumsum(vals)
        for f in us:
            u = f * cum[-1]
            if np.min(np.abs(cum - u)) <= 1e-9 * scale:
                continue  # within round-off of a boundary between sites
            want = min(int(np.searchsorted(cum, u, side="left")), tree.n - 1)
            assert tree.find(u) == want


class TestObservables:
    def test_block_average_constant(self):
        occ = np.full(50, 3)
        # interior cells see the full block; edges taper toward zero
        assert np.allclose(block_average(occ, 5)[5:-5], 3.0)

    def test_block_too_wide(self):
        with pytest.raises(ValueError):
            block_average(np.zeros(5), 3)

    def test_empirical_density_grid(self):
        pr = ModelParams(0.75, 0.0, 0.0, 100)
        cfg = Configuration(-100, np.full(201, 2, dtype=np.int64))
        prof = empirical_density(cfg, pr, 10)
        assert prof.du == pytest.approx(0.01)
        assert prof(0.0) == pytest.approx(2.0)

    def test_empirical_density_band(self):
        pr = ModelParams(0.75, 0.0, 0.0, 200)
        rho0 = DensityProfile.constant(1.0, -1.0, 1.0, 0.01)
        cfg = build_initial(rho0, pr, (-200, 200), replica_stream(4, 0))
        prof = empirical_density(cfg, pr, 10)
        interior = prof.values[30:-30]
        assert np.all(np.abs(interior - 1.0) < 0.65 + 0.35)
