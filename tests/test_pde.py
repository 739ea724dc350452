import math

import numpy as np
import pytest

from zrhydro import _ckernel, pde
from zrhydro.engine import ModelParams
from zrhydro.pde import (CflError, DirichletDensity, FluxModel, PdeError,
                         PdeGrid, ZeroFlux, boundary_density_from_left_trace,
                         boundary_flux_trace, compose_theorem_solution,
                         default_M, kruzhkov_check, left_trace_from_grid,
                         solve_half_line, solve_whole_line, _check_cfl,
                         _stable_dt)
from zrhydro.profiles import DensityProfile
from zrhydro.rates import indicator_rate, linear_rate, rate_from_spec
from zrhydro.testfuncs import TestFunction2D, bump_family, \
    hat_profile_callable
from zrhydro.thermo import DensityRangeError, ThermoTable


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

    def test_boundary_flux_trace_needs_a_half_line_grid(self, lin_flux):
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.02)
        g = solve_whole_line(rho0, lin_flux, T=0.2)
        with pytest.raises(ValueError):
            boundary_flux_trace(g, lin_flux)


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

    def test_boundary_map_reads_the_cell_at_minus_half_du(self):
        # data from u = -1 at du = 1/400 put -u_min / du a rounding error
        # below 402; the cell that feeds the map is found by its centre
        params = ModelParams(0.75, 1.0, 0.0, 10)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        du = 1 / 400
        rho0 = DensityProfile.from_spec("-1:-0.3:2,-0.3:0:0.5", du=du)
        sol = compose_theorem_solution(0.0, rho0, params, thermo, 0.8, du=du)
        j = int(np.argmin(np.abs(sol.left.centers + du / 2)))
        assert sol.left.centers[j] == pytest.approx(-du / 2, abs=1e-12)
        want = pde._boundary_density(sol.left.values[:, j], params, thermo)
        got = np.array([sol.boundary_trace(t) for t in sol.left.times])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("du", [0.03, 0.007])
    def test_right_grid_glues_at_the_origin(self, du, beta):
        # data from u = -1 put no whole number of cells between the padded
        # left end and 0 at either du; the composed profile on u > 0 is
        # then the right grid's, read anywhere in a cell
        params = ModelParams(0.75, 1.0, beta, 10)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        rho0 = DensityProfile.from_spec("-1:0:1", du=du)
        sol = compose_theorem_solution(beta, rho0, params, thermo, 0.4)
        cells = -sol.left.u_min / du
        assert abs(cells - round(cells)) < 1e-9
        right = sol.right.at_time(0.4)
        u = (right.centers[:, None] + du * np.array([-0.4, 0.0, 0.4])).ravel()
        u = u[u <= 0.5]
        assert np.array_equal(sol.at_time(0.4)(u), right(u))

    def test_supercritical_destroys_everything(self):
        params = ModelParams(0.75, 1.0, 1.0, 10)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        sol = compose_theorem_solution(1.0, rho0, params, thermo, 0.8)
        assert sol.at_time(0.8)(0.2) == pytest.approx(0.0, abs=1e-9)

    def test_beta_must_be_the_params_beta(self):
        # a beta that params contradicts would pick the regime alone
        params = ModelParams(0.75, 1.0, 0.0, 10)
        thermo = ThermoTable(linear_rate(), rho_max=6.0)
        rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
        with pytest.raises(ValueError, match=r"beta 1\.0 differs from "
                                             r"params\.beta 0\.0"):
            compose_theorem_solution(1.0, rho0, params, thermo, 0.8)

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

    def test_zero_flux_boundary_lets_nothing_in(self, ind_flux):
        rho0 = DensityProfile.constant(0.0, 0.0, 1.0, 0.02)
        g = solve_half_line(rho0, ind_flux, ZeroFlux(), T=0.5)
        assert np.all(g.inflow == 0.0)
        assert np.all(g.values[:, :3] == 0.0)
        rep = kruzhkov_check(g, ind_flux, ZeroFlux(),
                             [TestFunction2D(0.25, 0.2, 0.5, 0.3)])
        assert rep.passed

    def test_dirichlet_requires_M(self, lin_flux):
        rho0 = DensityProfile.constant(0.5, 0.0, 1.0, 0.02)
        bd = DirichletDensity(0.5)
        g = solve_half_line(rho0, lin_flux, bd, T=0.3)
        with pytest.raises(ValueError):
            kruzhkov_check(g, lin_flux, bd, [TestFunction2D(0.1, 0.1, 0.2,
                                                            0.1)])


@pytest.fixture(scope="module")
def kruzhkov_cases(lin_flux, ind_flux):
    """The grids of ``TestKruzhkov``'s checks, and a composed beta = 0
    Dirichlet check at the entropy-check benchmark's du = 1/400, each as
    the arguments of one ``kruzhkov_check``."""
    du = 1 / 200
    shock = solve_whole_line(DensityProfile.from_spec("-1:0:0,0:1.5:2",
                                                      du=du),
                             ind_flux, T=1.0, du=du, domain=(-1.0, 1.5))
    jump = PdeGrid(u_min=-1.0, du=du, dt=shock.dt, values=np.array(
        [np.where(shock.centers < t / 6, 2.0, 0.0) for t in shock.times]))
    fam = bump_family((0.1, 0.9), (-0.6, 0.9))
    bd = DirichletDensity(lambda t: 1.0)
    sol = compose_theorem_solution(
        0.0, DensityProfile.from_spec("-1:0:1", du=1 / 400),
        ModelParams(0.75, 1.0, 0.0, 400), lin_flux.thermo, 0.8, du=1 / 400)
    M = default_M(lin_flux, alpha=1.0)
    return {
        "constant": (solve_whole_line(
            DensityProfile.constant(1.0, -1.0, 1.0, 0.02), ind_flux, T=0.5,
            domain=(-1.0, 1.0)), ind_flux, None,
            [TestFunction2D(0.25, 0.2, 0.0, 0.5)], {"c_values": [1.0]}),
        "entropic_shock": (shock, ind_flux, None, fam, {}),
        "nonentropic_jump": (jump, ind_flux, None, fam, {}),
        "dirichlet": (solve_half_line(
            DensityProfile.constant(0.0, 0.0, 1.0, 0.01), lin_flux, bd,
            T=1.0, du=0.01), lin_flux, bd,
            [TestFunction2D(0.5, 0.4, 0.0, 0.3),
             TestFunction2D(0.5, 0.4, 0.4, 0.3)], {"M": M}),
        "zero_flux": (solve_half_line(
            DensityProfile.constant(0.0, 0.0, 1.0, 0.02), ind_flux,
            ZeroFlux(), T=0.5), ind_flux, ZeroFlux(),
            [TestFunction2D(0.25, 0.2, 0.5, 0.3)], {}),
        "composed_beta0": (sol.right, lin_flux,
                           DirichletDensity(sol.boundary_trace),
                           bump_family((0.05, 0.75), (-0.3, 0.9), 2, 3),
                           {"M": M}),
    }


def _kruzhkov_bits(grid, flux, boundary, family, keywords):
    rep = kruzhkov_check(grid, flux, boundary, family, **keywords)
    return ([(e.test_name, e.c.hex(), e.form, e.tol.hex(),
              float(e.value).hex())
             for e in rep.entries], rep.passed, rep.smallest_M)


def _no_reference(*args):
    raise AssertionError("the numpy reference ran")


@pytest.mark.parametrize("case", ["constant", "entropic_shock",
                                  "nonentropic_jump", "dirichlet",
                                  "zero_flux", "composed_beta0"])
def test_compiled_kruzhkov_is_the_reference(case, kruzhkov_cases, c_kernel,
                                            monkeypatch):
    # every entry, the verdict and smallest_M, bit for bit; the compiled
    # pass must not fall back
    with monkeypatch.context() as m:
        m.setattr(pde, "_kruzhkov_block", _no_reference)
        got = _kruzhkov_bits(*kruzhkov_cases[case])
    monkeypatch.setattr(_ckernel, "load", lambda: None)
    assert got == _kruzhkov_bits(*kruzhkov_cases[case])


def test_nonfinite_kruzhkov_block_runs_the_reference(kruzhkov_cases,
                                                     c_kernel, monkeypatch):
    # a NaN density passes phi_of's range check; the compiled call fails
    # on the one block that holds it, and the reference gives its NaN
    # entries
    grid, flux, boundary, family, keywords = kruzhkov_cases["dirichlet"]
    vals = grid.values.copy()
    vals[len(vals) // 2, 5] = np.nan
    bad = PdeGrid(u_min=grid.u_min, du=grid.du, dt=grid.dt, values=vals)
    keywords = dict(keywords, c_values=np.linspace(0.0, 1.2, 9))
    ran = []
    block = pde._kruzhkov_block
    monkeypatch.setattr(pde, "_kruzhkov_block",
                        lambda *a: ran.append(1) or block(*a))
    got = _kruzhkov_bits(bad, flux, boundary, family, keywords)
    assert ran == [1]
    assert any(v == "nan" for *_, v in got[0])
    monkeypatch.setattr(_ckernel, "load", lambda: None)
    assert got == _kruzhkov_bits(bad, flux, boundary, family, keywords)


class TestContraction:
    def test_l1_contraction(self, ind_flux):
        # the L1 distance between two solutions never grows (monotone scheme)
        a = DensityProfile.from_spec("-1:0:1", du=0.01)
        b = DensityProfile.from_spec("-0.8:0.2:1.5", du=0.01)
        ga, gb = (solve_whole_line(r, ind_flux, 0.5, du=0.01,
                                   domain=(-1.5, 1.5)) for r in (a, b))
        d = np.abs(ga.values - gb.values).sum(axis=1) * 0.01
        assert np.all(np.diff(d) <= 1e-12 * max(d[0], 1.0))


def _reference_march(rho, flux, T, du, dt, left_ghost):
    """The per-step march that ``pde._march`` must reproduce bit for bit:
    F through ``flux.F`` on every step, ghost included, and whole-array
    checks."""
    n_steps = int(math.ceil(T / dt - 1e-12))
    lam = dt / du
    lo0, hi0 = float(rho.min()), float(rho.max())
    vals = np.empty((n_steps + 1, len(rho)))
    vals[0] = rho
    inflow = np.zeros(n_steps + 1)
    outflow = np.zeros(n_steps + 1)
    Ffun = flux.F
    for n in range(n_steps):
        t = n * dt
        cur = vals[n]
        Fc = Ffun(cur)
        if left_ghost is None:
            ghost = float(cur[0])
        else:
            ghost = float(left_ghost(t))
        f_in = float(Ffun(np.array([ghost]))[0])
        fluxes = np.concatenate([[f_in], Fc])
        new = cur - lam * (fluxes[1:] - fluxes[:-1])
        if not np.all(np.isfinite(new)):
            raise PdeError("non-finite state during time marching")
        lo0 = min(lo0, ghost)
        hi0 = max(hi0, ghost)
        if new.min() < lo0 - 1e-12 or new.max() > hi0 + 1e-12:
            raise PdeError("maximum principle violated")
        vals[n + 1] = new
        inflow[n + 1] = inflow[n] + dt * f_in
        outflow[n + 1] = outflow[n] + dt * Fc[-1]
    return vals, inflow, outflow


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]


#: (initial data, left boundary) of each march setup; the whole line
#: extends its first cell, the half line reads a ghost
MARCH_SETUPS = {
    "whole-line": ("-1:-0.4:0.5,-0.4:0.3:2,0.3:0.8:0.8", None),
    "dirichlet-callable": ("0:0.5:0.4,0.5:1:1.6", DirichletDensity(
        lambda t: 1.0 + 0.8 * math.sin(9 * t))),
    "dirichlet-constant": ("0:0.5:0.4,0.5:1:1.6", DirichletDensity(1.3)),
    "zero-flux": ("0:0.5:1.5,0.5:1:0.3", ZeroFlux()),
}
MARCH_RATES = ("linear", "indicator", "table:0,1,1.5,1.8;slope=0.25")


def _march_args(rate, setup, du=0.02, T=0.8):
    flux = FluxModel(ThermoTable(rate_from_spec(rate), rho_max=4.0), p=0.75)
    spec, boundary = MARCH_SETUPS[setup]
    rho0 = DensityProfile.from_spec(spec, du=du)
    if boundary is None:
        init, ghost = rho0.resample(-1.2, 1.0, du), None
    else:
        init = rho0.resample(0.0, 1.0, du)
        ghost = boundary.value if isinstance(boundary, DirichletDensity) \
            else (lambda t: 0.0)
    return init.values, flux, T, du, _stable_dt(flux, du, T), ghost


class TestMarchReference:
    """``pde._march`` on the compiled march; ``TestMarchReferenceNumpy``
    runs the same cases on the numpy steps."""

    @pytest.fixture(autouse=True)
    def path(self, c_kernel):
        return c_kernel

    @pytest.mark.parametrize("rate", MARCH_RATES)
    @pytest.mark.parametrize("setup", sorted(MARCH_SETUPS))
    def test_bit_identical_to_the_per_step_march(self, rate, setup, path,
                                                 monkeypatch):
        args = _march_args(rate, setup)
        if path == "c":
            # the compiled march finishes without the reference
            monkeypatch.setattr(pde, "_march_steps", None)
        got = pde._march(*args)
        ref = _reference_march(*args)
        assert got[0].shape == ref[0].shape
        for g, r in zip(got, ref):
            assert _hex(g) == _hex(r)
        # the march moved something and fed the outflow edge
        assert np.any(got[0][-1] != got[0][0]) and got[2][-1] > 0

    def test_cfl_violation_fails_at_the_reference_step(self):
        rho, flux, _, du, dt, _ = _march_args("indicator", "whole-line")
        rho = DensityProfile.from_spec("-1:0:2,0:1:0.5", du=du).resample(
            -1.2, 1.0, du).values
        dt *= 1.2
        steps = []
        for march in (pde._march, _reference_march):
            for k in range(1, 100):
                try:
                    march(rho, flux, k * dt, du, dt, None)
                except PdeError as err:
                    assert str(err) == "maximum principle violated"
                    steps.append(k)
                    break
        assert len(steps) == 2 and steps[0] == steps[1] > 1

    @pytest.mark.parametrize("case", ["nan-ghost", "high-ghost", "nan-data",
                                      "nan-and-high-data", "nan-and-low-data",
                                      "high-data", "nan-then-high-ghost"])
    def test_error_paths_match_the_reference(self, case):
        rho, flux, T, du, dt, _ = _march_args("linear", "zero-flux")
        top = flux.thermo.covered_rho_max
        ghost = (lambda t: 0.5)
        if case == "nan-ghost":
            ghost = (lambda t: math.nan if t > 0.3 else 0.5)
        elif case == "high-ghost":
            ghost = (lambda t: 2 * top if t > 0.3 else 0.5)
        elif case == "nan-then-high-ghost":
            ghost = (lambda t: 2 * top if t > 0.6
                     else math.nan if t > 0.3 else 0.5)
        else:
            rho = rho.copy()
            if "nan" in case:
                rho[5] = math.nan
            if "high" in case:
                rho[9] = 2 * top
            if "low" in case:
                rho[9] = -0.5
        expect = {"nan-ghost": (PdeError, "non-finite"),
                  "high-ghost": (DensityRangeError, "tabulated range"),
                  "nan-data": (PdeError, "non-finite"),
                  "nan-and-high-data": (DensityRangeError, "tabulated range"),
                  "nan-and-low-data": (DensityRangeError, "tabulated range"),
                  "high-data": (DensityRangeError, "tabulated range"),
                  "nan-then-high-ghost": (DensityRangeError,
                                          "tabulated range")}
        # the only deliberate change of error: the march range-checks every
        # ghost before its first step, so a later ghost out of range fails
        # ahead of the NaN ghost that the per-step march meets first
        ref_expect = dict(expect)
        ref_expect["nan-then-high-ghost"] = (PdeError, "non-finite")
        for march, (kind, msg) in ((pde._march, expect[case]),
                                   (_reference_march, ref_expect[case])):
            with pytest.raises(kind, match=msg) as err:
                march(rho, flux, T, du, dt, ghost)
            assert type(err.value) is kind


class TestMarchReferenceNumpy(TestMarchReference):
    @pytest.fixture(autouse=True)
    def path(self, python_loop):
        return python_loop
