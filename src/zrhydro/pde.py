"""Finite-volume machinery for the limiting conservation law.

Solves d_t rho + d_u F(rho) = 0 with F(rho) = (2p - 1) Phi(rho) by the
explicit upwind scheme, which coincides with Godunov's scheme because F
is non-decreasing.  The scheme is monotone and conservative, so it
converges in L1 to the Kruzhkov entropy solution; a discretized
entropy-inequality checker validates outputs (and rejects hand-built
non-entropic profiles) in one pass per test function, and on Dirichlet
data also reports the smallest boundary constant M that passes.  The
half-line solver supports a Dirichlet boundary density and the zero-flux
condition, and the composition routine glues left and right problems
across the origin in the regime ``ModelParams.limit_destruction`` picks.

The march checks as it goes (see ``_march``): a bad state fails the same
check at the same step as under a per-step ``flux.F``, and a bad ghost
fails before the first step.  The march, and each test function's
Kruzhkov integrals in one pass over the grid in place, run in the
compiled library when one loads (``_ckernel``), bit for bit as the numpy
code, which is the reference and raises every error; their range checks
take their bounds from ``ThermoTable.range_bounds``.  A boundary trace
is read as one column per march or check, and the boundary map runs
once per distinct value of that column.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _ckernel
from .engine import ModelParams
from .profiles import DensityProfile
from .thermo import ThermoTable

#: CFL safety factor
CFL_NUMBER = 0.9


class PdeError(RuntimeError):
    pass


class CflError(PdeError):
    pass


@dataclass(frozen=True)
class FluxModel:
    """F(rho) = (2p - 1) Phi(rho); non-decreasing with F(0) = 0."""

    thermo: ThermoTable
    p: float

    def __post_init__(self):
        if not 0.5 < self.p <= 1.0:
            raise ValueError("asymmetry p must lie in (1/2, 1]")

    @property
    def drift(self) -> float:
        return 2.0 * self.p - 1.0

    @property
    def flux_lipschitz(self) -> float:
        return self.drift * self.thermo.rate.lipschitz_a0

    def F(self, rho):
        return self.drift * self.thermo.phi_of(rho)


@dataclass
class PdeGrid:
    """Cell averages on a uniform space-time grid.

    values[n, j] is the state in cell j at time n * dt.
    """

    u_min: float
    du: float
    dt: float
    values: np.ndarray
    inflow: np.ndarray = field(default=None)
    outflow: np.ndarray = field(default=None)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n_cells(self) -> int:
        return self.values.shape[1]

    @property
    def u_max(self) -> float:
        return self.u_min + self.du * self.n_cells

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.shape[0])

    @property
    def centers(self) -> np.ndarray:
        return self.u_min + self.du * (np.arange(self.n_cells) + 0.5)

    def at_time(self, t: float) -> DensityProfile:
        return DensityProfile(self.u_min, self.du,
                              _RowLookup(self.values, self.dt)(t))

    def mass(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.du


def _stable_dt(flux: FluxModel, du: float, T: float) -> float:
    """Largest CFL-stable step that divides T exactly."""
    L = flux.flux_lipschitz
    if L <= 0:
        raise PdeError("flux has no characteristic speed")
    dt0 = CFL_NUMBER * du / L
    return T / int(math.ceil(T / dt0 - 1e-12))


def _check_cfl(flux: FluxModel, du: float, dt: float):
    if dt * flux.flux_lipschitz / du > CFL_NUMBER + 1e-12:
        raise CflError(
            f"dt={dt:g} violates the CFL bound {CFL_NUMBER} du / L")


# -- boundary specifications --------------------------------------------


@dataclass
class DirichletDensity:
    """Left-boundary density trace t -> rho(t, 0): a constant, a callable
    or the row lookup of ``compose_theorem_solution``."""

    trace: object

    def value(self, t: float) -> float:
        return float(self.column([t])[0])

    def column(self, times) -> np.ndarray:
        """The trace at each of ``times``: a constant fills it, the row lookup
        reads it in one step, any other callable is called once a time."""
        times = np.asarray(times, dtype=float)
        if isinstance(self.trace, _RowLookup):
            return self.trace(times)
        if callable(self.trace):
            return np.array([float(self.trace(t)) for t in times.tolist()])
        return np.full(len(times), float(self.trace))


class ZeroFlux:
    """Left boundary with no influx: ghost density 0, F(0) = 0."""

    trace = 0.0


# -- solvers -------------------------------------------------------------


def _march(rho, flux, T, du, dt, left_ghost):
    """Upwind time marching; returns (values, inflow, outflow) arrays.

    ``left_ghost``: a ``DirichletDensity`` trace of the ghost density left
    of the first cell, or None for zero-gradient extension.

    The ghost column is read once, before the march, and its fluxes come
    from one ``flux.F`` call, whose range check so covers every ghost up
    front; a ghost out of range so fails ahead of a NaN ghost of an
    earlier step.  The steps then run in the compiled library's
    ``zrh_march`` when one loads, else in ``_march_steps``, the numpy
    reference; a compiled march that fails a check re-runs the reference,
    which raises that check's error at its step.  The inflow and outflow
    sums follow.
    """
    n_steps = int(math.ceil(T / dt - 1e-12))
    lam = dt / du
    vals = np.empty((n_steps + 1, len(rho)))
    vals[0] = rho
    # fmin and fmax pass over a NaN in the data, as phi_of does; the first
    # step's finiteness check then catches it
    lo, hi = float(np.fmin.reduce(rho)), float(np.fmax.reduce(rho))
    ghosts = f_ins = None
    if left_ghost is not None:
        ghosts = DirichletDensity(left_ghost).column(np.arange(n_steps) * dt)
        f_ins = flux.F(ghosts)
    lib, table = _ckernel.load(), flux.thermo
    # zrh_march reads the table grid, phi_interp's, in place
    if lib is None or lib.zrh_march(
            vals, len(rho), n_steps, table.densities, table.zetas,
            len(table.zetas), flux.drift, lam, ghosts, f_ins, lo, hi,
            *table.range_bounds(), np.empty(len(rho))):
        _march_steps(vals, flux, lam, ghosts, f_ins, lo, hi)
    # the edge fluxes of each step, F of its first and last cells or its
    # ghost, summed in step order
    F_in = flux.F(vals[:-1, 0]) if left_ghost is None else f_ins
    inflow = np.cumsum(np.concatenate([[0.0], dt * F_in]))
    outflow = np.cumsum(np.concatenate([[0.0], dt * flux.F(vals[:-1, -1])]))
    return vals, inflow, outflow


def _march_steps(vals, flux, lam, ghosts, f_ins, lo, hi):
    """Fill ``vals[1:]`` from ``vals[0]``, the reference of the march.

    Each step forms F(cur) from ``phi_interp`` into preallocated buffers,
    and takes the new state's min and max once.  They drive, in this
    order: the finiteness check (a NaN reaches both), the maximum
    principle against the data and the ghosts so far, and ``check_range``
    on the state the next step will march.  ``lo`` and ``hi`` are the
    data's min and max, read past NaN.
    """
    drift = flux.drift
    table = flux.thermo
    lo0, hi0 = lo, hi
    fluxes = np.empty(vals.shape[1] + 1)  # F at left edges of cells
    Fc = fluxes[1:]
    diff = np.empty(vals.shape[1])
    for n in range(vals.shape[0] - 1):
        table.check_range(lo, hi)
        cur, new = vals[n], vals[n + 1]
        np.multiply(table.phi_interp(cur), drift, out=Fc)
        if ghosts is None:
            ghost = float(cur[0])  # zero-gradient: first cell unchanged
            fluxes[0] = Fc[0]
        else:
            ghost = float(ghosts[n])
            fluxes[0] = f_ins[n]
        np.subtract(Fc, fluxes[:-1], out=diff)
        np.multiply(diff, lam, out=diff)
        np.subtract(cur, diff, out=new)
        lo, hi = float(new.min()), float(new.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise PdeError("non-finite state during time marching")
        lo0 = min(lo0, ghost)
        hi0 = max(hi0, ghost)
        if lo < lo0 - 1e-12 or hi > hi0 + 1e-12:
            raise PdeError("maximum principle violated")


def _solve(init: DensityProfile, flux: FluxModel, T: float, du: float,
           left_ghost) -> PdeGrid:
    """``_march`` from ``init`` on the largest CFL-stable step."""
    dt = _stable_dt(flux, du, T)
    _check_cfl(flux, du, dt)
    vals, inflow, outflow = _march(init.values, flux, T, du, dt, left_ghost)
    return PdeGrid(u_min=init.u_min, du=du, dt=dt, values=vals,
                   inflow=inflow, outflow=outflow)


def _padded(lo: float, hi: float, flux: FluxModel, T: float, du: float):
    """(lo, hi) padded by two cells on each side, and on the right also by
    the fastest characteristic's reach by T."""
    return lo - 2 * du, hi + flux.flux_lipschitz * T + 2 * du


def _origin_cell(grid) -> int:
    """Index of the first cell of ``grid`` (a ``PdeGrid`` or a
    ``DensityProfile``) right of u = 0.  Rounded: -u_min / du can land a
    rounding error below an integer (401.99999999999994 for data from
    u = -1 at du = 1/400), where a floor picks one cell too far left."""
    return round(-grid.u_min / grid.du)


def solve_whole_line(rho0: DensityProfile, flux: FluxModel, T: float,
                     du: float | None = None,
                     domain: tuple[float, float] | None = None) -> PdeGrid:
    """Entropy solution on the line by the upwind (Godunov) scheme.

    The domain defaults to the initial support extended by the maximal
    characteristic speed; edge cells use zero-gradient extension, so
    Riemann data filling the grid behave as on the full line.
    """
    if du is None:
        du = rho0.du
    if domain is None:
        domain = _padded(rho0.u_min, rho0.u_max, flux, T, du)
    return _solve(rho0.resample(*domain, du), flux, T, du, None)


def solve_half_line(rho0: DensityProfile, flux: FluxModel, boundary,
                    T: float, du: float | None = None,
                    u_max: float | None = None) -> PdeGrid:
    """Entropy solution on u > 0 with a left boundary condition.

    Since F is increasing, u = 0 is an inflow boundary: the Dirichlet
    density is imposed through the ghost cell and is attained; the
    zero-flux condition uses ghost density 0.
    """
    if du is None:
        du = rho0.du
    if u_max is None:
        u_max = _padded(0.0, max(rho0.u_max, 0.0), flux, T, du)[1]
    if not isinstance(boundary, (DirichletDensity, ZeroFlux)):
        raise ValueError("half-line solve needs Dirichlet or zero-flux data")
    return _solve(rho0.resample(0.0, u_max, du), flux, T, du, boundary.trace)


def _boundary_density(rho_left, params: ModelParams, thermo: ThermoTable):
    """R((2p-1) Phi(rho_L) / (2p-1 + s)), s = params.limit_destruction."""
    return thermo.phi_inverse(params.drift * thermo.phi(rho_left)
                              / (params.drift + params.limit_destruction))


def boundary_density_from_left_trace(left_trace, params: ModelParams,
                                     thermo: ThermoTable):
    """Boundary density ``_boundary_density`` of the trace rho_L(t, 0)."""
    trace = DirichletDensity(left_trace)
    return lambda t: _boundary_density(trace.value(t), params, thermo)


class _RowLookup:
    """t -> column[round(t / dt)], clamped to its rows, for one time or an
    array; np.rint rounds half to even, as round does."""

    def __init__(self, column: np.ndarray, dt: float):
        self.column, self.dt = column, dt

    def __call__(self, t):
        n = np.clip(np.rint(np.asarray(t) / self.dt), 0, len(self.column) - 1)
        v = self.column[n.astype(np.intp)]
        return v if np.ndim(v) else float(v)


def _left_column(grid: PdeGrid) -> np.ndarray:
    """The whole-line grid's values in the last cell left of 0, per row."""
    j = _origin_cell(grid) - 1
    if j < 0 or j >= grid.n_cells:
        raise PdeError("grid does not cover the left of the origin")
    return grid.values[:, j]


def left_trace_from_grid(grid: PdeGrid):
    """Trace of a whole-line grid at 0^-, as a function of time."""
    return _RowLookup(_left_column(grid), grid.dt)


@dataclass
class ComposedSolution:
    """Left and right solutions glued across the origin; ``boundary`` is
    the condition the right one was solved under, None on the whole line."""

    left: PdeGrid
    right: PdeGrid
    boundary: object = None

    @property
    def boundary_trace(self):
        """The Dirichlet trace t -> rho_bar(t), or None."""
        b = self.boundary
        return b.trace if isinstance(b, DirichletDensity) else None

    def at_time(self, t: float) -> DensityProfile:
        lp = self.left.at_time(t)
        if self.boundary is None:
            return lp
        rp = self.right.at_time(t)
        vals = np.concatenate([lp.values[:_origin_cell(lp)], rp.values])
        return DensityProfile(lp.u_min, lp.du, vals)


def compose_theorem_solution(beta: float, rho0: DensityProfile,
                             params: ModelParams, thermo: ThermoTable,
                             T: float, du: float | None = None
                             ) -> ComposedSolution:
    """Macroscopic solution in the regime s = ``params.limit_destruction``:
    the whole-line one on u < 0 (characteristics move right), and
    everywhere at s = 0; else on u > 0 the half-line one, with zero influx
    at s = inf or with the boundary-density map of the trace at 0^-, run
    once per distinct value of its column of time rows.  The whole-line
    grid starts a whole number of cells left of 0, so the right grid glues
    onto its edge at u = 0.  ``beta`` must be ``params.beta``, else
    ValueError.
    """
    if beta != params.beta:
        raise ValueError(f"beta {beta!r} differs from params.beta "
                         f"{params.beta!r}")
    flux = FluxModel(thermo, params.p)
    if du is None:
        du = rho0.du
    domain = _padded(min(rho0.u_min, 0.0), max(rho0.u_max, 0.0), flux, T, du)
    cells = -domain[0] / du
    if abs(cells - round(cells)) > 1e-9:
        # moved only when off an edge, so aligned grids stay as they were
        domain = (-du * math.ceil(cells), domain[1])
    whole = solve_whole_line(rho0, flux, T, du=du, domain=domain)
    s = params.limit_destruction
    if s == 0.0:
        return ComposedSolution(left=whole, right=whole)
    boundary = ZeroFlux()
    if math.isfinite(s):
        # the column repeats its values; map each distinct one once
        levels, rows = np.unique(_left_column(whole), return_inverse=True)
        boundary = DirichletDensity(_RowLookup(
            _boundary_density(levels, params, thermo)[rows], whole.dt))
    right = solve_half_line(rho0.resample(0.0, domain[1], du), flux,
                            boundary, T, du=du, u_max=domain[1])
    return ComposedSolution(left=whole, right=right, boundary=boundary)


# -- entropy checking ----------------------------------------------------


@dataclass
class KruzhkovEntry:
    test_name: str
    c: float
    value: float
    tol: float
    form: str  # "abs", "plus" or "minus"

    @property
    def passed(self) -> bool:
        return self.value >= -self.tol


@dataclass
class KruzhkovReport:
    entries: list
    smallest_M: float = None

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def worst(self) -> "KruzhkovEntry":
        return min(self.entries, key=lambda e: e.value + e.tol)

    def __str__(self):
        w = self.worst()
        return (f"kruzhkov: {'PASS' if self.passed else 'FAIL'} "
                f"({len(self.entries)} inequalities; worst "
                f"{w.value:.3e} vs -{w.tol:.3e} at c={w.c:g}, {w.test_name})")


def default_M(flux: FluxModel, alpha: float) -> float:
    """Boundary constant a0 (alpha + 2p - 1)/(2p - 1)."""
    a0 = flux.thermo.rate.lipschitz_a0
    return a0 * (alpha + flux.drift) / flux.drift


def _trapezoid(rows, dt: float) -> float:
    """Trapezoid rule in t; 0 for fewer than two rows."""
    return float(np.trapezoid(rows, dx=dt)) if len(rows) >= 2 else 0.0


def _kruzhkov_block(flux, vals, n0, nt, j0, nu, ta, ub, tc, ud, wu, cs, Fcs,
                    semi, du, dt, h0u, rho_bar):
    """The reference of ``zrh_kruzhkov``, from its inputs: arrays of I and
    B, one of each per (c, form), forms |x| or, with ``semi``, (x)+ then
    (-x)+.  The block is the nt rows from n0 by the nu cells from j0 of
    ``vals``, H_t = ta ub, H_u = (tc ud) / wu and H(t, 0) = tc h0u.  I is
    the trapezoid in t of du times the row sums of
    H_t tr(rho - c) + H_u tr(F(rho) - F(c)); with ``semi`` B is the
    trapezoid of H(t, 0) tr(rho_bar - c) on the block's rows, else 0.
    """
    rho = vals[n0:n0 + nt, j0:j0 + nu]
    F_rho = flux.F(rho)
    H_t, H_u = ta[:, None] * ub, (tc[:, None] * ud) / wu
    if semi:
        H_0, d_bars = tc * h0u, rho_bar[n0:n0 + nt] - cs[:, None]
    forms = ((lambda x: np.maximum(x, 0.0), lambda x: np.maximum(-x, 0.0))
             if semi else (np.abs,))
    Is, Bs = [], []
    for k, (c, Fc) in enumerate(zip(cs, Fcs)):
        d_rho, d_F = rho - c, F_rho - Fc
        for tr in forms:
            rows = np.sum(H_t * tr(d_rho) + H_u * tr(d_F), axis=1) * du
            Is.append(_trapezoid(rows, dt))
            Bs.append(_trapezoid(H_0 * tr(d_bars[k]), dt) if semi else 0.0)
    return np.array(Is), np.array(Bs)


def kruzhkov_check(grid: PdeGrid, flux: FluxModel, boundary,
                   test_family, c_values=None,
                   M: float = None) -> KruzhkovReport:
    """Discretized entropy-inequality check on a solved grid.

    Whole-line and zero-flux grids use the absolute-value Kruzhkov form;
    Dirichlet grids use both semi-Kruzhkov forms with the
    M * integral of H(t,0) (rho_bar(t) - c)^{+/-} boundary term.  Each
    inequality passes when the quadrature value is above -tol with tol
    proportional to the derivative norms of H times the cell width.

    F of the c values and the boundary density column come once per check.
    A test function's block is its t-support's rows by the run of cells
    its u-support meets; one ``zrh_kruzhkov`` call reads it in place,
    forms F(rho) per row as the march does and H's derivatives from
    ``TestFunction2D``'s 1-d factors.  ``_kruzhkov_block``, the numpy
    reference, gives the same entries bit for bit; it runs without the
    library, or where the call fails: on a density outside the table,
    where it raises, or a non-finite value.  An entry is I + M B, so
    Dirichlet checks also report ``smallest_M``: the first m on
    linspace(0, M, 21) with I + m B >= -tol for every entry (else M).
    """
    if c_values is None:
        top = 1.2 * float(grid.values.max())
        c_values = np.linspace(0.0, max(top, 1e-6), 9)
    T_span = grid.dt * grid.n_steps
    dirichlet = isinstance(boundary, DirichletDensity)
    if dirichlet and M is None:
        raise ValueError("Dirichlet entropy check needs the constant M")
    forms = ("plus", "minus") if dirichlet else ("abs",)
    centers, du, dt = grid.centers, grid.du, grid.dt
    vals = np.ascontiguousarray(grid.values, dtype=float)
    cs = np.array([float(c) for c in c_values])
    Fcs, k = flux.F(cs), len(cs) * len(forms)
    rho_bar = boundary.column(grid.times) if dirichlet else None
    lib, table = _ckernel.load(), flux.thermo
    # zrh_kruzhkov's inputs past the block's: row stride, c count, table
    fixed = (grid.n_cells, len(cs), table.densities, table.zetas,
             len(table.zetas), flux.drift, *table.range_bounds())
    entries, parts = [], []  # parts: (I, B, tol) of each entry
    for H in test_family:
        tol = (du * (H.sup_dt() + flux.flux_lipschitz * H.sup_du())
               * min(2 * H.t_halfwidth, T_span) * 2 * H.u_halfwidth)
        t0, t1 = H.t_support
        n0 = max(int(math.floor(t0 / dt)), 0)
        nt = max(min(int(math.ceil(t1 / dt)), grid.n_steps) + 1 - n0, 0)
        u0, u1 = H.u_support
        # a suffix of the cells meets (u0, ...) and a prefix (..., u1)
        j0 = grid.n_cells - int(np.count_nonzero(centers + du / 2 > u0))
        nu = max(int(np.count_nonzero(centers - du / 2 < u1)) - j0, 0)
        (ta, tc), (ub, ud) = (H.t_factors(np.arange(n0, n0 + nt) * dt),
                              H.u_factors(centers[j0:j0 + nu]))
        h0u = H.u_factors(0.0)[0] if dirichlet else 0.0
        block = (vals, n0, nt, j0, nu, ta, ub, tc, ud, H.u_halfwidth, cs,
                 Fcs, dirichlet, du, dt, h0u, rho_bar)
        I, B = np.empty(k), np.empty(k)
        if lib is None or lib.zrh_kruzhkov(
                *block, *fixed, np.empty(k * nt + 5 * nu + 2 * nt), I, B):
            I, B = _kruzhkov_block(flux, *block)
        for j, (i, b) in enumerate(zip(I.tolist(), B.tolist())):
            parts.append((i, b, tol))
            entries.append(KruzhkovEntry(
                H.name, float(cs[j // len(forms)]),
                i + M * b if dirichlet else i, tol, forms[j % len(forms)]))
    report = KruzhkovReport(entries=entries)
    if dirichlet:
        report.smallest_M = next(
            (float(m) for m in np.linspace(0.0, M, 21)
             if all(I + m * B >= -tol for I, B, tol in parts)), float(M))
    return report


def boundary_flux_trace(grid: PdeGrid, flux: FluxModel):
    """Both sides of the mass-balance identity at the origin of a
    half-line grid, one that starts at u = 0.

    Returns (times, mass_rate, flux_at_zero): the discrete derivative of
    the mass on u > 0 net of right-edge outflow, against that of the
    influx recorded during marching, so ``flux`` is not read.  Any other
    grid raises ``ValueError``.
    """
    if _origin_cell(grid) != 0:
        raise ValueError("boundary flux trace needs a grid starting at u = 0")
    mass_rate = np.gradient(grid.mass() + grid.outflow, grid.dt)
    return grid.times, mass_rate, np.gradient(grid.inflow, grid.dt)
