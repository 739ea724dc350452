import numpy as np
import pytest

from zrhydro.engine import GillespieLoop, ModelParams
from zrhydro.oracle import (LinearCaseParams, correlation_field,
                            dual_rw_estimate, exact_linear_solution,
                            integrate_density_ode,
                            killing_probability_experiment)
from zrhydro.profiles import DensityProfile
from zrhydro.rng import replica_stream


def lin(p=0.75, alpha=1.0, beta=0.0, N=100):
    return LinearCaseParams(ModelParams(p, alpha, beta, N))


class TestAbsorptionFactor:
    def test_limit_table(self):
        assert lin(alpha=0.0).alpha_tilde == 0.0
        assert lin(beta=-0.5).alpha_tilde == 0.0
        assert lin(beta=1.0).alpha_tilde == 1.0
        assert lin(beta=0.0, alpha=1.0).alpha_tilde == pytest.approx(2 / 3)
        assert lin(p=1.0, beta=0.0, alpha=1.0).alpha_tilde == pytest.approx(
            0.5)

    def test_prelimit_factor_critical(self):
        # beta = 0: alpha_tilde_N equals the limit for every N
        assert lin(N=10).alpha_tilde_N == pytest.approx(2 / 3)
        assert lin(N=1000).alpha_tilde_N == pytest.approx(2 / 3)

    def test_prelimit_factor_monotone_in_N(self):
        sub = [lin(beta=-0.5, N=n).alpha_tilde_N for n in (10, 100, 1000)]
        assert sub[0] > sub[1] > sub[2]  # tends to 0
        sup = [lin(beta=0.5, N=n).alpha_tilde_N for n in (10, 100, 1000)]
        assert sup[0] < sup[1] < sup[2]  # tends to 1


class TestExactSolution:
    def test_before_front(self):
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        # u < 0: untouched transport
        assert exact_linear_solution(rho0, lin(), 0.4, -0.1) == 1.0

    def test_behind_front_attenuated(self):
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        # 0 <= u < 0.5 t: attenuated by 1 - 2/3 = 1/3
        assert exact_linear_solution(rho0, lin(), 0.4, 0.1) == pytest.approx(
            1 / 3)

    def test_ahead_of_front_zero(self):
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        assert exact_linear_solution(rho0, lin(), 0.4, 0.3) == 0.0

    def test_vectorized(self):
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        out = exact_linear_solution(rho0, lin(), 0.4,
                                    np.array([-0.1, 0.1, 0.3]))
        assert np.allclose(out, [1.0, 1 / 3, 0.0])


class TestDensityOde:
    def test_no_dynamics_from_empty(self):
        curve = integrate_density_ode(lambda u: np.zeros_like(u),
                                      lin().params, (-30, 30), 0.2)
        assert np.allclose(curve.values[-1], 0.0)
        assert curve.killed == 0.0

    def test_exact_conservation(self):
        params = ModelParams(0.75, 1.0, 0.0, 50)
        rho0 = DensityProfile.from_spec("-0.5:0:1", du=0.01)
        curve = integrate_density_ode(rho0, params, (-80, 60), 0.5)
        total = curve.values[-1].sum() + (curve.killed + curve.leaked) * 1.0
        assert total == pytest.approx(rho0(np.arange(-80, 61) / 50).sum(),
                                      abs=1e-9)

    def test_matches_exact_profile(self):
        # moderate N; sup error shrinks like the diffusive width
        params = ModelParams(0.75, 1.0, 0.0, 200)
        smooth = _mollified_step(0.3)
        curve = integrate_density_ode(smooth, params, (-320, 200), 0.5)
        xs = np.arange(-320, 201) / 200
        exact = exact_linear_solution(smooth, LinearCaseParams(params),
                                      0.5, xs)
        # away from the jump at 0 and the attenuation front at 0.25
        mask = (np.abs(xs) > 0.05) & (np.abs(xs - 0.25) > 0.05)
        assert np.max(np.abs(curve.values[-1] - exact)[mask]) < 0.08

    def test_leak_guard(self):
        params = ModelParams(0.75, 0.0, 0.0, 50)
        rho0 = DensityProfile.from_spec("-0.2:0:1", du=0.01)
        with pytest.raises(RuntimeError):
            integrate_density_ode(rho0, params, (-12, 12), 1.0)

    def test_intermediate_times(self):
        params = ModelParams(0.75, 0.0, 0.0, 40)
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        curve = integrate_density_ode(rho0, params, (-80, 60), 0.4,
                                      times=[0.0, 0.2, 0.4])
        assert curve.values.shape[0] == 3
        # mass at the origin grows as the front passes
        site = curve.values[:, 5 - curve.x_min]
        assert site[0] < site[1] < site[2]


def _mollified_step(width=0.3):
    # Lipschitz plateau on (-1, 0): linear ramps of the given width at
    # both edges, height 1 in between
    def f(u):
        u = np.asarray(u, dtype=float)
        out = (np.clip((u + 1.0) / width, 0.0, 1.0)
               * np.clip(-u / width, 0.0, 1.0))
        return out if out.ndim else float(out)
    return f


class TestDualWalk:
    def test_empty_initial_gives_zero(self):
        est, se = dual_rw_estimate(3, 0.2, lin().params,
                                   lambda u: 0.0, 50, replica_stream(1, 0))
        assert est == 0.0 and se == 0.0

    def test_no_destruction_constant_one(self):
        params = ModelParams(0.75, 0.0, 0.0, 30)
        est, se = dual_rw_estimate(0, 0.2, params, lambda u: 1.0, 50,
                                   replica_stream(2, 0))
        assert est == 1.0 and se == 0.0

    def test_agrees_with_ode(self):
        params = ModelParams(0.75, 1.0, 0.0, 50)
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        curve = integrate_density_ode(rho0, params, (-90, 60), 0.3)
        rng = replica_stream(3, 0)
        for x in (-5, 0, 8):
            est, se = dual_rw_estimate(x, 0.3, params, rho0, 400, rng)
            assert abs(est - curve.values[-1][x + 90]) <= 3 * max(se, 1e-3)


class TestKillingProbability:
    def test_alpha_zero_never_killed(self):
        params = ModelParams(0.75, 0.0, 0.0, 50)
        frac, se = killing_probability_experiment(params, 0, 200,
                                                  replica_stream(4, 0))
        assert frac == 0.0

    def test_totally_asymmetric_half(self):
        # p = 1, beta = 0, alpha = 1: kill chance 1/(1 + 1) per origin visit
        # and no returns, so alpha_tilde_N = 1/2
        params = ModelParams(1.0, 1.0, 0.0, 50)
        frac, se = killing_probability_experiment(params, 0, 2000,
                                                  replica_stream(5, 0))
        assert abs(frac - 0.5) <= 3 * se

    def test_critical_two_thirds(self):
        params = ModelParams(0.75, 1.0, 0.0, 50)
        frac, se = killing_probability_experiment(params, 0, 2000,
                                                  replica_stream(6, 0))
        assert abs(frac - 2 / 3) <= 3 * se


@pytest.mark.parametrize("factor", [1.2, 0.8])
def test_killing_probability_sees_an_engine_fault(factor, monkeypatch):
    # the walks are the engine's particles, so alpha scaled in the engine
    # alone moves test_03's setting far outside its 3-se band
    scale = GillespieLoop._origin_scale
    monkeypatch.setattr(GillespieLoop, "_origin_scale",
                        lambda self, f: scale(self, f * factor))
    params = ModelParams(0.75, 1.0, 0.0, 100)
    frac, se = killing_probability_experiment(params, 0, 10_000,
                                              replica_stream(103, 0))
    assert abs(frac - 2 / 3) > 3 * se


class TestCorrelationField:
    def test_independent_columns_near_zero(self):
        rng = replica_stream(7, 0)
        occ = rng.poisson(1.0, size=(400, 11))
        est, se = correlation_field(occ, -5, -3, 4)
        assert abs(est) <= 4 * se

    def test_identical_columns_give_variance(self):
        rng = replica_stream(8, 0)
        col = rng.poisson(2.0, size=400)
        occ = np.stack([col, col], axis=1)
        est, se = correlation_field(occ, 0, 0, 1)
        assert est == pytest.approx(col.var(ddof=1), rel=1e-12)

    def test_replica_floor(self):
        occ = np.zeros((50, 5), dtype=np.int64)
        with pytest.raises(ValueError):
            correlation_field(occ, 0, 0, 1)
