"""The Kruzhkov check's one compiled pass per test function.

``kruzhkov_check`` hands ``zrh_kruzhkov`` the grid, the window a test
function covers, the table and the 1-d factors of H's derivatives, and C
reads them in place.  Its entries must be those of ``_kruzhkov_block``,
the numpy reference, and those of the block that the check used to cut
from the grid in numpy (``_cut_block_entries`` below, with its masked
cells and its 2-d derivative arrays), bit for bit, at the edges of the
grid and on the odd inputs too.  ``DirichletDensity.column`` reads a
boundary trace once per march or check; it must give the per-time values.
"""
import math

import numpy as np
import pytest

from zrhydro import _ckernel, pde
from zrhydro.engine import ModelParams
from zrhydro.pde import (DirichletDensity, FluxModel, PdeGrid, ZeroFlux,
                         compose_theorem_solution, default_M, kruzhkov_check,
                         solve_half_line, solve_whole_line)
from zrhydro.profiles import DensityProfile
from zrhydro.rates import indicator_rate, linear_rate
from zrhydro.testfuncs import TestFunction2D, bump_family
from zrhydro.thermo import DensityRangeError, ThermoTable


@pytest.fixture(scope="module")
def lin_flux():
    return FluxModel(ThermoTable(linear_rate(), rho_max=6.0), p=0.75)


@pytest.fixture(scope="module")
def ind_flux():
    return FluxModel(ThermoTable(indicator_rate(), rho_max=4.0), p=0.75)


def _trace_value(trace, t):
    return float(trace(t)) if callable(trace) else float(trace)


def bump(s):
    """(1 - s^2)^2 on |s| < 1, zero outside, as the checker first formed
    it."""
    s = np.asarray(s, dtype=float)
    out = np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 2, 0.0)
    return out if out.ndim else float(out)


def bump_prime(s):
    """-4 s (1 - s^2) on |s| < 1, zero outside."""
    s = np.asarray(s, dtype=float)
    return np.where(np.abs(s) < 1.0, -4.0 * s * (1.0 - s * s), 0.0)


def _cut_block_entries(grid, flux, boundary, family, c_values, M=None):
    """(name, c, form, tol, value) of each entry, from each test function's
    block cut from the grid with a cell mask, F(rho) of the block, and
    H_t, H_u and H(t, 0) formed as 2-d and 1-d arrays."""
    dirichlet = isinstance(boundary, DirichletDensity)
    forms = ((("plus", lambda x: np.maximum(x, 0.0)),
              ("minus", lambda x: np.maximum(-x, 0.0)))
             if dirichlet else (("abs", np.abs),))
    centers, du, dt = grid.centers, grid.du, grid.dt
    T_span = dt * (grid.values.shape[0] - 1)
    cs = np.array([float(c) for c in c_values])
    Fcs = flux.F(cs)
    out = []
    for H in family:
        tol = (du * (H.sup_dt() + flux.flux_lipschitz * H.sup_du())
               * min(2 * H.t_halfwidth, T_span) * 2 * H.u_halfwidth)
        t0, t1 = H.t_support
        n0 = max(int(math.floor(t0 / dt)), 0)
        n1 = min(int(math.ceil(t1 / dt)), grid.values.shape[0] - 1)
        times = np.arange(n0, n1 + 1) * dt
        u0, u1 = H.u_support
        jmask = (centers + du / 2 > u0) & (centers - du / 2 < u1)
        rho = grid.values[n0:n1 + 1].compress(jmask, axis=1)
        F_rho = flux.F(rho)
        st = (times[:, None] - H.t_center) / H.t_halfwidth
        su = (centers[jmask] - H.u_center) / H.u_halfwidth
        H_t = bump_prime(st) / H.t_halfwidth * bump(su)
        H_u = bump(st) * bump_prime(su) / H.u_halfwidth
        if dirichlet:
            H_0 = (bump((times - H.t_center) / H.t_halfwidth)
                   * bump((0.0 - H.u_center) / H.u_halfwidth))
            rho_bar = np.array([_trace_value(boundary.trace, t)
                                for t in times.tolist()])
        for c, Fc in zip(cs, Fcs):
            for form, tr in forms:
                rows = np.sum(H_t * tr(rho - c) + H_u * tr(F_rho - Fc),
                              axis=1) * du
                value = pde._trapezoid(rows, dt)
                if dirichlet:
                    value += M * pde._trapezoid(H_0 * tr(rho_bar - c), dt)
                out.append((H.name, float(c).hex(), form, tol.hex(),
                            float(value).hex()))
    return out


def _bits(grid, flux, boundary, family, c_values, M=None):
    rep = kruzhkov_check(grid, flux, boundary, family, c_values=c_values,
                         M=M)
    return [(e.test_name, e.c.hex(), e.form, e.tol.hex(),
             float(e.value).hex()) for e in rep.entries], rep.smallest_M


def _no_reference(*args):
    raise AssertionError("the numpy reference ran")


def _all_paths(grid, flux, boundary, family, c_values, M=None,
               monkeypatch=None):
    """The compiled pass, with no fallback, and the numpy reference; both
    must equal the cut block's entries."""
    with monkeypatch.context() as m:
        m.setattr(pde, "_kruzhkov_block", _no_reference)
        compiled = _bits(grid, flux, boundary, family, c_values, M)
    with monkeypatch.context() as m:
        m.setattr(_ckernel, "load", lambda: None)
        reference = _bits(grid, flux, boundary, family, c_values, M)
    assert compiled == reference
    assert compiled[0] == _cut_block_entries(grid, flux, boundary, family,
                                             c_values, M)
    return compiled


@pytest.fixture(scope="module")
def half_line(lin_flux):
    """A Dirichlet half-line grid whose data and trace both move."""
    rho0 = DensityProfile.from_spec("0:0.3:0.2,0.3:0.7:1.4,0.7:1:0.6",
                                    du=0.02)
    trace = DirichletDensity(lambda t: 1.0 + 0.5 * math.sin(7 * t))
    return solve_half_line(rho0, lin_flux, trace, T=0.6, du=0.02), trace


C_VALUES = np.linspace(0.0, 1.8, 7)


def test_blocks_at_the_grid_edges(half_line, lin_flux, ind_flux, c_kernel,
                                  monkeypatch):
    # supports past both ends in t and in u take the first and last row
    # and the first and last cell; a narrow bump at the grid's corner
    # takes a block of one or two rows and cells
    grid, trace = half_line
    T, u_max = grid.dt * grid.n_steps, grid.u_max
    family = [TestFunction2D(T / 2, T / 2 + 0.05, u_max / 2,
                             u_max / 2 + 0.05, name="all"),
              TestFunction2D(0.0, 0.6 * grid.dt, 0.0, 0.6 * grid.du,
                             name="first"),
              TestFunction2D(T, 0.6 * grid.dt, u_max, 0.6 * grid.du,
                             name="last")]
    M = default_M(lin_flux, alpha=1.0)
    entries, smallest = _all_paths(grid, lin_flux, trace, family, C_VALUES,
                                   M, monkeypatch)
    assert len(entries) == 3 * len(C_VALUES) * 2 and smallest is not None
    whole = solve_whole_line(DensityProfile.from_spec("-1:0:0,0:1.5:2",
                                                      du=0.02),
                             ind_flux, T=0.5, du=0.02, domain=(-1.0, 1.5))
    _all_paths(whole, ind_flux, None, family + bump_family((0.1, 0.4),
                                                           (-0.6, 0.9)),
               C_VALUES, monkeypatch=monkeypatch)


def test_empty_family(half_line, lin_flux, c_kernel, monkeypatch):
    grid, trace = half_line
    M = default_M(lin_flux, alpha=1.0)
    assert _all_paths(grid, lin_flux, trace, [], C_VALUES, M,
                      monkeypatch) == ([], 0.0)


def test_supports_that_miss_the_grid(half_line, lin_flux, c_kernel,
                                     monkeypatch):
    # a block of no cells or no rows: every integral is 0
    grid, trace = half_line
    family = [TestFunction2D(0.3, 0.2, 5.0, 0.3, name="past u"),
              TestFunction2D(0.3, 0.2, -0.4, 0.3, name="before u"),
              TestFunction2D(5.0, 0.2, 0.5, 0.3, name="past t")]
    M = default_M(lin_flux, alpha=1.0)
    entries, _ = _all_paths(grid, lin_flux, trace, family, C_VALUES, M,
                            monkeypatch)
    assert len(entries) == 3 * len(C_VALUES) * 2
    assert all(float.fromhex(v) == 0.0 for *_, v in entries)


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_non_contiguous_grid_values(half_line, lin_flux, layout, c_kernel,
                                    monkeypatch):
    grid, trace = half_line
    if layout == "fortran":
        values = np.asfortranarray(grid.values)
    else:
        wide = np.zeros((grid.values.shape[0], 2 * grid.n_cells))
        wide[:, ::2] = grid.values
        values = wide[:, ::2]
    assert not values.flags.c_contiguous
    bent = PdeGrid(u_min=grid.u_min, du=grid.du, dt=grid.dt, values=values)
    family = bump_family((0.05, 0.55), (-0.1, 1.0), 2, 3)
    M = default_M(lin_flux, alpha=1.0)
    assert _all_paths(bent, lin_flux, trace, family, C_VALUES, M,
                      monkeypatch) == _bits(grid, lin_flux, trace, family,
                                            C_VALUES, M)


@pytest.mark.parametrize("trace", [1.3, lambda t: 0.4 + t * t],
                         ids=["constant", "callable"])
def test_dirichlet_traces(trace, lin_flux, c_kernel, monkeypatch):
    rho0 = DensityProfile.constant(0.5, 0.0, 1.0, 0.02)
    boundary = DirichletDensity(trace)
    grid = solve_half_line(rho0, lin_flux, boundary, T=0.5, du=0.02)
    family = bump_family((0.0, 0.5), (-0.2, 1.0), 2, 3)
    _all_paths(grid, lin_flux, boundary, family, C_VALUES,
               default_M(lin_flux, alpha=1.0), monkeypatch)


def test_nonfinite_boundary_density_runs_the_reference(half_line, lin_flux,
                                                       c_kernel,
                                                       monkeypatch):
    # the compiled call fails on the one block whose rows read a NaN
    # boundary density, and the reference gives its NaN entries
    grid, _ = half_line
    trace = DirichletDensity(lambda t: math.nan if 0.2 < t < 0.3 else 1.0)
    family = [TestFunction2D(0.25, 0.1, 0.3, 0.2, name="meets"),
              TestFunction2D(0.5, 0.05, 0.3, 0.2, name="misses")]
    ran = []
    block = pde._kruzhkov_block
    monkeypatch.setattr(pde, "_kruzhkov_block",
                        lambda *a: ran.append(1) or block(*a))
    got = _bits(grid, lin_flux, trace, family, C_VALUES, 1.0)
    assert ran == [1]
    assert {name for name, *_, v in got[0] if v == "nan"} == {"meets"}
    assert got[0] == _cut_block_entries(grid, lin_flux, trace, family,
                                        C_VALUES, 1.0)
    monkeypatch.setattr(_ckernel, "load", lambda: None)
    assert got == _bits(grid, lin_flux, trace, family, C_VALUES, 1.0)


@pytest.mark.parametrize("path", ["c", "python"])
def test_density_outside_the_table_raises(half_line, lin_flux, path,
                                          request):
    request.getfixturevalue("c_kernel" if path == "c" else "python_loop")
    grid, trace = half_line
    values = grid.values.copy()
    values[3, 4] = 2 * lin_flux.thermo.covered_rho_max
    bad = PdeGrid(u_min=grid.u_min, du=grid.du, dt=grid.dt, values=values)
    family = [TestFunction2D(0.1, 0.1, 0.1, 0.1)]
    with pytest.raises(DensityRangeError,
                       match="density outside tabulated range"):
        kruzhkov_check(bad, lin_flux, trace, family, c_values=C_VALUES,
                       M=1.0)
    # a block that misses the bad cell does not raise
    far = [TestFunction2D(0.4, 0.1, 0.6, 0.1)]
    assert len(kruzhkov_check(bad, lin_flux, trace, far, c_values=C_VALUES,
                              M=1.0).entries) == 2 * len(C_VALUES)


def _row_reference(column, dt, t):
    last = len(column) - 1
    return float(column[min(max(int(round(t / dt)), 0), last)])


def test_column_is_the_per_time_trace():
    # each kind of trace: the row lookup of a composed solution, a plain
    # callable and a constant; times on, between and halfway between rows
    # and off both ends
    thermo = ThermoTable(linear_rate(), rho_max=6.0)
    sol = compose_theorem_solution(
        0.0, DensityProfile.from_spec("-1:0:1", du=0.02),
        ModelParams(0.75, 1.0, 0.0, 100), thermo, 0.8, du=0.02)
    lookup = sol.boundary_trace
    dt, n = sol.right.dt, sol.right.values.shape[0]
    times = np.concatenate([np.arange(-4, 2 * n + 4) * (dt / 2),
                            (np.arange(n) + 0.5) * dt,
                            np.linspace(-0.1, 0.9, 57)])
    for trace, per_time in (
            (lookup, lambda t: _row_reference(lookup.column, dt, t)),
            (lambda t: math.exp(-t) * 1.7, lambda t: math.exp(-t) * 1.7),
            (0.35, lambda t: 0.35)):
        got = DirichletDensity(trace).column(times)
        assert [v.hex() for v in got.tolist()] == [
            float(per_time(t)).hex() for t in times.tolist()]
        assert DirichletDensity(trace).column(times[:0]).shape == (0,)
    # the lookup called at one time is the same rule
    assert [lookup(t) for t in times.tolist()] == [
        _row_reference(lookup.column, dt, t) for t in times.tolist()]
    assert ZeroFlux.trace == 0.0
