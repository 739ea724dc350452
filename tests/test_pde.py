import numpy as np
import pytest

from zrhydro.engine import ModelParams
from zrhydro.pde import (CflError, ComposedSolution, DirichletDensity,
                         FluxModel, KruzhkovReport, PdeGrid, ZeroFlux,
                         boundary_density_from_left_trace,
                         boundary_flux_trace, compose_theorem_solution,
                         default_M, kruzhkov_check, l1_contraction_check,
                         left_trace_from_grid, solve_half_line,
                         solve_whole_line, _check_cfl)
from zrhydro.profiles import DensityProfile
from zrhydro.rates import indicator_rate, linear_rate
from zrhydro.testfuncs import TestFunction2D, bump_family, \
    hat_profile_callable
from zrhydro.thermo import ThermoTable


@pytest.fixture(scope="module")
def lin_flux():
    return FluxModel(ThermoTable(linear_rate(), rho_max=6.0), p=0.75)


@pytest.fixture(scope="module")
def ind_flux():
    return FluxModel(ThermoTable(indicator_rate(), rho_max=4.0), p=0.75)


class TestFluxModel:
    def test_linear_flux_is_drift_times_rho(self, lin_flux):
        rho = np.array([0.0, 1.0, 2.0])
        assert np.allclose(lin_flux.F(rho), 0.5 * rho, atol=1e-8)

    def test_indicator_flux(self, ind_flux):
        assert ind_flux.F(np.array([2.0]))[0] == pytest.approx(
            0.5 * 2.0 / 3.0, abs=1e-6)

    def test_flux_zero_at_zero(self, lin_flux):
        assert lin_flux.F(np.array([0.0]))[0] == 0.0

    def test_symmetric_p_rejected(self, lin_flux):
        with pytest.raises(ValueError):
            FluxModel(lin_flux.thermo, p=0.5)


class TestWholeLine:
    def test_constant_is_exact(self, ind_flux):
        rho0 = DensityProfile.constant(1.5, -1.0, 1.0, 0.02)
        g = solve_whole_line(rho0, ind_flux, T=0.5, domain=(-1.0, 1.0))
        assert np.allclose(g.values, 1.5, atol=1e-12)

    def test_linear_transport(self, lin_flux):
        hat = hat_profile_callable(-0.5, 0.3)
        rho0 = DensityProfile.from_callable(hat, -1.2, 0.5, 0.01)
        g = solve_whole_line(rho0, lin_flux, T=0.8, domain=(-1.2, 0.9))
        moved = hat_profile_callable(-0.1, 0.3)
        assert g.at_time(0.8).l1_distance(moved, -1.2, 0.9) < 0.02

    def test_first_order_convergence(self, lin_flux):
        hat = hat_profile_callable(-0.5, 0.3)
        errs = []
        for du in (0.02, 0.01, 0.005):
            rho0 = DensityProfile.from_callable(hat, -1.2, 0.5, du)
            g = solve_whole_line(rho0, lin_flux, T=0.8, du=du,
                                 domain=(-1.2, 0.9))
            errs.append(g.at_time(0.8).l1_distance(
                hat_profile_callable(-0.1, 0.3), -1.2, 0.9))
        assert 1.7 <= errs[0] / errs[1] <= 2.3
        assert 1.7 <= errs[1] / errs[2] <= 2.3

    def test_shock_speed(self, ind_flux):
        rho0 = DensityProfile.from_spec("-1:0:0,0:1.5:2", du=1 / 200)
        g = solve_whole_line(rho0, ind_flux, T=1.0, du=1 / 200,
                             domain=(-1.0, 1.5))
        prof = g.at_time(1.0)
        front = prof.u_min + prof.du * np.argmax(prof.values > 1.0)
        assert abs(front - 1 / 6) <= 3 / 200

    def test_mass_conservation(self, ind_flux):
        rho0 = DensityProfile.from_spec("-1:0:1.5", du=0.01)
        g = solve_whole_line(rho0, ind_flux, T=0.5, domain=(-1.5, 1.0))
        balance = g.mass() + g.outflow - g.inflow
        assert np.max(np.abs(balance - balance[0])) <= 1e-12 * balance[0]

    def test_cfl_guard(self, lin_flux):
        with pytest.raises(CflError):
            _check_cfl(lin_flux, du=0.01, dt=1.0)

    def test_maximum_principle_observed(self, ind_flux):
        rho0 = DensityProfile.from_spec("-1:0:0.5,0:1:2.5", du=0.01)
        g = solve_whole_line(rho0, ind_flux, T=0.7, domain=(-1.2, 1.5))
        assert g.values.min() >= -1e-12
        assert g.values.max() <= 2.5 + 1e-12


class TestHalfLine:
    def test_constant_dirichlet(self, ind_flux):
        rho0 = DensityProfile.constant(1.0, 0.0, 1.0, 0.02)
        g = solve_half_line(rho0, ind_flux, DirichletDensity(1.0), T=0.5,
                            u_max=1.0)
        assert np.allclose(g.values, 1.0, atol=1e-12)

    def test_zero_flux_empty(self, ind_flux):
        rho0 = DensityProfile.constant(0.0, 0.0, 1.0, 0.02)
        g = solve_half_line(rho0, ind_flux, ZeroFlux(), T=0.5)
        assert np.allclose(g.values, 0.0)

    def test_inflow_mass_identity(self, lin_flux):
        # influx (2p-1) Phi(1) t = 0.5 t
        rho0 = DensityProfile.constant(0.0, 0.0, 1.0, 0.01)
        g = solve_half_line(rho0, lin_flux, DirichletDensity(lambda t: 1.0),
                            T=1.0, du=0.01)
        assert g.mass()[-1] == pytest.approx(0.5, rel=0.02)

    def test_boundary_flux_trace_agrees(self, lin_flux):
        rho0 = DensityProfile.constant(0.0, 0.0, 1.0, 0.01)
        g = solve_half_line(rho0, lin_flux, DirichletDensity(lambda t: 1.0),
                            T=1.0, du=0.01)
        ts, lhs, rhs = boundary_flux_trace(g, lin_flux)
        inner = slice(3, -3)
        assert np.max(np.abs(lhs[inner] - rhs[inner])) <= 0.02 * 0.5


class TestBoundaryDensity:
    def test_identity_without_destruction(self):
        params = ModelParams(0.75, 0.0, 0.0, 10)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        f = boundary_density_from_left_trace(lambda t: 0.8, params, thermo)
        assert f(0.3) == pytest.approx(0.8, abs=1e-6)

    def test_linear_case_value(self):
        params = ModelParams(0.75, 1.0, 0.0, 10)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        f = boundary_density_from_left_trace(lambda t: 1.0, params, thermo)
        assert f(0.0) == pytest.approx(1 / 3, abs=1e-6)

    def test_zero_trace(self):
        params = ModelParams(0.75, 1.0, 0.0, 10)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        f = boundary_density_from_left_trace(lambda t: 0.0, params, thermo)
        assert f(0.5) == 0.0


class TestComposition:
    def test_alpha_zero_is_whole_line(self):
        params = ModelParams(0.75, 0.0, 0.0, 10)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        sol = compose_theorem_solution(0.0, rho0, params, thermo, 0.5)
        assert sol.left is sol.right

    def test_critical_plateaus(self):
        params = ModelParams(0.75, 1.0, 0.0, 10)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        sol = compose_theorem_solution(0.0, rho0, params, thermo, 0.8)
        prof = sol.at_time(0.8)
        assert prof(-0.3) == pytest.approx(1.0, abs=0.02)
        assert prof(0.2) == pytest.approx(1 / 3, abs=0.02)

    def test_critical_boundary_trace_is_the_reference_map(self):
        # the map runs once over the trace column; every lookup, on the
        # grid's times and between them, is the per-call map's value
        params = ModelParams(0.75, 1.0, 0.0, 10)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        # a staircase on u < 0 passes the origin, so the trace moves
        rho0 = DensityProfile.from_spec(
            "-0.4:-0.3:0.5,-0.3:-0.2:1,-0.2:-0.1:1.5,-0.1:0:2", du=0.02)
        sol = compose_theorem_solution(0.0, rho0, params, thermo, 0.8)
        ref = boundary_density_from_left_trace(left_trace_from_grid(sol.left),
                                               params, thermo)
        dt = sol.left.dt
        times = np.concatenate([sol.left.times, sol.left.times + 0.3 * dt,
                                sol.left.times + 0.7 * dt, [-dt, 2.0]])
        for t in times.tolist():
            assert sol.boundary_trace(t).hex() == ref(t).hex()
        on_grid = [sol.boundary_trace(t) for t in sol.left.times]
        assert len(set(on_grid)) > 10
        # off the grid, the nearest time row answers
        for n, t in enumerate(sol.left.times[:-1].tolist()):
            assert sol.boundary_trace(t + 0.3 * dt) == on_grid[n]
            assert sol.boundary_trace(t + 0.7 * dt) == on_grid[n + 1]

    def test_supercritical_destroys_everything(self):
        params = ModelParams(0.75, 1.0, 1.0, 10)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        sol = compose_theorem_solution(1.0, rho0, params, thermo, 0.8)
        assert sol.at_time(0.8)(0.2) == pytest.approx(0.0, abs=1e-9)

    def test_subcritical_pure_transport(self):
        params = ModelParams(0.75, 1.0, -1.0, 10)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        sol = compose_theorem_solution(-1.0, rho0, params, thermo, 0.8)
        assert sol.at_time(0.8)(0.2) == pytest.approx(1.0, abs=0.02)


class TestKruzhkov:
    def test_constant_solution_exact_zero(self, ind_flux):
        rho0 = DensityProfile.constant(1.0, -1.0, 1.0, 0.02)
        g = solve_whole_line(rho0, ind_flux, T=0.5, domain=(-1.0, 1.0))
        fam = [TestFunction2D(0.25, 0.2, 0.0, 0.5)]
        rep = kruzhkov_check(g, ind_flux, None, fam, c_values=[1.0])
        assert rep.entries[0].value == pytest.approx(0.0, abs=1e-14)

    def test_entropic_shock_passes(self, ind_flux):
        rho0 = DensityProfile.from_spec("-1:0:0,0:1.5:2", du=1 / 200)
        g = solve_whole_line(rho0, ind_flux, T=1.0, du=1 / 200,
                             domain=(-1.0, 1.5))
        fam = bump_family((0.1, 0.9), (-0.6, 0.9))
        assert kruzhkov_check(g, ind_flux, None, fam).passed

    def test_nonentropic_jump_fails(self, ind_flux):
        # reversed Riemann data transported as a sharp jump instead of
        # the rarefaction: violates the entropy inequalities
        du = 1 / 200
        rho0 = DensityProfile.from_spec("-1:0:0,0:1.5:2", du=du)
        g = solve_whole_line(rho0, ind_flux, T=1.0, du=du,
                             domain=(-1.0, 1.5))
        cells = g.centers
        vals = np.array([np.where(cells < t / 6, 2.0, 0.0)
                         for t in g.times])
        fake = PdeGrid(u_min=-1.0, du=du, dt=g.dt, values=vals)
        fam = bump_family((0.1, 0.9), (-0.6, 0.9))
        rep = kruzhkov_check(fake, ind_flux, None, fam)
        assert not rep.passed
        worst = rep.worst()
        assert 0.0 < worst.c < 2.0

    def test_dirichlet_semi_kruzhkov(self, lin_flux):
        rho0 = DensityProfile.constant(0.0, 0.0, 1.0, 0.01)
        bd = DirichletDensity(lambda t: 1.0)
        g = solve_half_line(rho0, lin_flux, bd, T=1.0, du=0.01)
        fam = [TestFunction2D(0.5, 0.4, 0.0, 0.3),
               TestFunction2D(0.5, 0.4, 0.4, 0.3)]
        M = default_M(lin_flux, alpha=1.0)
        rep = kruzhkov_check(g, lin_flux, bd, fam, M=M)
        assert rep.passed
        assert rep.smallest_M is not None and rep.smallest_M <= M

    def test_zero_flux_boundary_integrals_reported(self, ind_flux):
        rho0 = DensityProfile.constant(0.0, 0.0, 1.0, 0.02)
        g = solve_half_line(rho0, ind_flux, ZeroFlux(), T=0.5)
        rep = kruzhkov_check(g, ind_flux, ZeroFlux(),
                             [TestFunction2D(0.25, 0.2, 0.5, 0.3)])
        assert rep.boundary_flux_integrals is not None
        assert np.all(rep.boundary_flux_integrals <= 1e-12)

    def test_dirichlet_requires_M(self, lin_flux):
        rho0 = DensityProfile.constant(0.5, 0.0, 1.0, 0.02)
        bd = DirichletDensity(0.5)
        g = solve_half_line(rho0, lin_flux, bd, T=0.3)
        with pytest.raises(ValueError):
            kruzhkov_check(g, lin_flux, bd, [TestFunction2D(0.1, 0.1, 0.2,
                                                            0.1)])


class TestContraction:
    def test_l1_contraction(self, ind_flux):
        a = DensityProfile.from_spec("-1:0:1", du=0.01)
        b = DensityProfile.from_spec("-0.8:0.2:1.5", du=0.01)
        assert l1_contraction_check(a, b, ind_flux, 0.5, 0.01, (-1.5, 1.5))
