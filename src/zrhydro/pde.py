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
across the origin in the three destruction regimes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
        n = int(round(t / self.dt))
        n = min(max(n, 0), self.values.shape[0] - 1)
        return DensityProfile(self.u_min, self.du, self.values[n])

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
    """Left-boundary density trace t -> rho(t, 0)."""

    trace: object

    def value(self, t: float) -> float:
        return float(self.trace(t)) if callable(self.trace) else float(self.trace)


class ZeroFlux:
    """Left boundary with no influx: ghost density 0, F(0) = 0."""


# -- solvers -------------------------------------------------------------


def _march(rho, flux, T, du, dt, left_ghost):
    """Upwind time marching; returns (values, inflow, outflow) arrays.

    ``left_ghost``: callable t -> ghost density left of the first cell,
    or None for zero-gradient extension.
    """
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
            ghost = float(cur[0])  # zero-gradient: first cell unchanged
        else:
            ghost = float(left_ghost(t))
        f_in = float(Ffun(np.array([ghost]))[0])
        fluxes = np.concatenate([[f_in], Fc])  # F at left edges of cells
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
        pad = 2 * du
        domain = (rho0.u_min - pad,
                  rho0.u_max + flux.flux_lipschitz * T + pad)
    u_lo, u_hi = domain
    init = rho0.resample(u_lo, u_hi, du)
    dt = _stable_dt(flux, du, T)
    _check_cfl(flux, du, dt)
    vals, inflow, outflow = _march(init.values, flux, T, du, dt,
                                   left_ghost=None)
    return PdeGrid(u_min=u_lo, du=du, dt=dt, values=vals,
                   inflow=inflow, outflow=outflow)


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
        u_max = max(rho0.u_max, 0.0) + flux.flux_lipschitz * T + 2 * du
    init = rho0.resample(0.0, u_max, du)
    dt = _stable_dt(flux, du, T)
    _check_cfl(flux, du, dt)
    if isinstance(boundary, DirichletDensity):
        ghost = boundary.value
    elif isinstance(boundary, ZeroFlux):
        def ghost(t):
            return 0.0
    else:
        raise ValueError("half-line solve needs Dirichlet or zero-flux data")
    vals, inflow, outflow = _march(init.values, flux, T, du, dt,
                                   left_ghost=ghost)
    return PdeGrid(u_min=0.0, du=du, dt=dt, values=vals,
                   inflow=inflow, outflow=outflow)


def _boundary_density(rho_left, params: ModelParams, thermo: ThermoTable):
    """R((2p-1) Phi(rho_L) / (2p-1 + alpha)), for a scalar or an array."""
    drift = 2.0 * params.p - 1.0
    return thermo.phi_inverse(drift * thermo.phi(rho_left)
                              / (drift + params.alpha))


def boundary_density_from_left_trace(left_trace, params: ModelParams,
                                     thermo: ThermoTable):
    """Boundary density R((2p-1) Phi(rho_L(t,0)) / (2p-1 + alpha))."""
    def rho_bar(t: float) -> float:
        v = left_trace(t) if callable(left_trace) else float(left_trace)
        return _boundary_density(float(v), params, thermo)
    return rho_bar


def _row_lookup(column: np.ndarray, dt: float):
    """t -> column[round(t / dt)], clamped to the column's rows."""
    last = len(column) - 1

    def at(t: float) -> float:
        return float(column[min(max(int(round(t / dt)), 0), last)])
    return at


def _left_column(grid: PdeGrid) -> np.ndarray:
    """The whole-line grid's values in the last cell left of 0, per row."""
    j = int(math.floor((0.0 - grid.u_min) / grid.du)) - 1
    if j < 0 or j >= grid.n_cells:
        raise PdeError("grid does not cover the left of the origin")
    return grid.values[:, j]


def left_trace_from_grid(grid: PdeGrid):
    """Trace of a whole-line grid at 0^-, as a function of time."""
    return _row_lookup(_left_column(grid), grid.dt)


@dataclass
class ComposedSolution:
    """Left and right solutions glued across the origin."""

    left: PdeGrid
    right: PdeGrid
    beta: float
    boundary_trace: object = None

    @property
    def dt(self) -> float:
        return self.left.dt

    def at_time(self, t: float) -> DensityProfile:
        lp = self.left.at_time(t)
        rp = self.right.at_time(t)
        if self.right is self.left:
            return lp
        du = lp.du
        n_left = int(round((0.0 - lp.u_min) / du))
        vals = np.concatenate([lp.values[:n_left], rp.values])
        return DensityProfile(lp.u_min, du, vals)

    def __call__(self, u, t: float):
        prof = self.at_time(t)
        return prof(u)


def compose_theorem_solution(beta: float, rho0: DensityProfile,
                             params: ModelParams, thermo: ThermoTable,
                             T: float, du: float | None = None,
                             domain: tuple[float, float] | None = None
                             ) -> ComposedSolution:
    """Macroscopic solution in the three destruction regimes.

    beta < 0 (or alpha = 0): the destruction vanishes in the limit and
    the whole-line solution applies everywhere.  beta = 0: the left part
    of the whole-line solution survives on u < 0 (characteristics move
    right), its trace at 0^- feeds the boundary-density map, and the
    right part solves the half-line Dirichlet problem.  The map runs
    once, over the trace's whole column of time rows; ``boundary_trace``
    then looks its value up by the row round(t / dt), so the march and
    every entropy check read stored values.  beta > 0: the right problem
    has zero influx instead.
    """
    flux = FluxModel(thermo, params.p)
    if du is None:
        du = rho0.du
    if domain is None:
        pad = 2 * du
        domain = (min(rho0.u_min, 0.0) - pad,
                  max(rho0.u_max, 0.0) + flux.flux_lipschitz * T + pad)
    whole = solve_whole_line(rho0, flux, T, du=du, domain=domain)
    if params.alpha == 0.0 or beta < 0:
        return ComposedSolution(left=whole, right=whole, beta=beta)
    rho0_right = rho0.resample(0.0, domain[1], du)
    if beta == 0:
        rho_bar = _row_lookup(
            _boundary_density(_left_column(whole), params, thermo), whole.dt)
        right = solve_half_line(rho0_right, flux, DirichletDensity(rho_bar),
                                T, du=du, u_max=domain[1])
        return ComposedSolution(left=whole, right=right, beta=beta,
                                boundary_trace=rho_bar)
    right = solve_half_line(rho0_right, flux, ZeroFlux(), T, du=du,
                            u_max=domain[1])
    return ComposedSolution(left=whole, right=right, beta=beta)


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
    boundary_flux_integrals: np.ndarray = None
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


def kruzhkov_check(grid: PdeGrid, flux: FluxModel, boundary,
                   test_family, c_values=None,
                   M: float = None) -> KruzhkovReport:
    """Discretized entropy-inequality check on a solved grid.

    Whole-line and zero-flux grids use the absolute-value Kruzhkov form;
    Dirichlet grids use both semi-Kruzhkov forms with the
    M * integral of H(t,0) (rho_bar(t) - c)^{+/-} boundary term.  Each
    inequality passes when the quadrature value is above -tol with tol
    proportional to the derivative norms of H times the cell width.

    Each test function's block is evaluated once, and each (c, form)
    entry is an interior integral I plus M times a boundary integral B, so
    Dirichlet checks also report ``smallest_M``: the first m on
    linspace(0, M, 21) with I + m B >= -tol for every entry (else M).
    """
    if c_values is None:
        top = 1.2 * float(grid.values.max())
        c_values = np.linspace(0.0, max(top, 1e-6), 9)
    T_span = grid.dt * (grid.values.shape[0] - 1)
    dirichlet = isinstance(boundary, DirichletDensity)
    if dirichlet and M is None:
        raise ValueError("Dirichlet entropy check needs the constant M")
    forms = ((("plus", lambda x: np.maximum(x, 0.0)),
              ("minus", lambda x: np.maximum(-x, 0.0))) if dirichlet
             else (("abs", np.abs),))
    centers = grid.centers
    entries, parts = [], []  # parts: (I, B, tol) of each entry
    for H in test_family:
        tol = (grid.du * (H.sup_dt() + flux.flux_lipschitz * H.sup_du())
               * min(2 * H.t_halfwidth, T_span) * 2 * H.u_halfwidth)
        t0, t1 = H.t_support
        n0 = max(int(math.floor(t0 / grid.dt)), 0)
        n1 = min(int(math.ceil(t1 / grid.dt)), grid.values.shape[0] - 1)
        times = np.arange(n0, n1 + 1) * grid.dt
        u0, u1 = H.u_support
        jmask = (centers + grid.du / 2 > u0) & (centers - grid.du / 2 < u1)
        us = centers[jmask]
        rho = grid.values[n0:n1 + 1][:, jmask]
        F_rho = flux.F(rho)
        H_t, H_u = H.dt(times[:, None], us), H.du(times[:, None], us)
        if dirichlet:
            H_0 = H.value(times, 0.0)
            rho_bar = np.array([boundary.value(t) for t in times.tolist()])
        for c in c_values:
            c = float(c)
            Fc = float(flux.F(np.array([c]))[0])
            for form, tr in forms:
                rows = np.sum(H_t * tr(rho - c) + H_u * tr(F_rho - Fc),
                              axis=1) * grid.du
                I = _trapezoid(rows, grid.dt)
                B = _trapezoid(H_0 * tr(rho_bar - c), grid.dt) \
                    if dirichlet else 0.0
                parts.append((I, B, tol))
                entries.append(KruzhkovEntry(
                    H.name, c, I + M * B if dirichlet else I, tol, form))
    report = KruzhkovReport(entries=entries)
    if isinstance(boundary, ZeroFlux):
        # influx diagnostic on the first few cells
        report.boundary_flux_integrals = np.array([
            float(np.trapezoid(np.abs(flux.F(grid.values[:, j])), dx=grid.dt))
            for j in range(min(3, grid.n_cells))])
    if dirichlet:
        report.smallest_M = next(
            (float(m) for m in np.linspace(0.0, M, 21)
             if all(I + m * B >= -tol for I, B, tol in parts)), float(M))
    return report


def boundary_flux_trace(grid: PdeGrid, flux: FluxModel):
    """Both sides of the mass-balance identity at the origin.

    Returns (times, mass_rate, flux_at_zero): the discrete derivative of
    the mass on u > 0 net of right-edge outflow, against F at the trace
    cell.  For a half-line grid the trace cell is the first cell's left
    edge value; for a whole-line grid it is the last cell left of 0.
    """
    times = grid.times
    if grid.u_min >= -grid.du / 2:
        # half-line: influx recorded during marching
        mass = grid.mass()
        mass_rate = np.gradient(mass + grid.outflow, grid.dt)
        flux_in = np.gradient(grid.inflow, grid.dt)
        return times, mass_rate, flux_in
    j0 = int(math.ceil((0.0 - grid.u_min) / grid.du))
    mass = grid.values[:, j0:].sum(axis=1) * grid.du
    mass_rate = np.gradient(mass + grid.outflow, grid.dt)
    trace = grid.values[:, j0 - 1]
    flux_in = flux.F(trace)
    return times, mass_rate, flux_in


def l1_contraction_check(rho0_a: DensityProfile, rho0_b: DensityProfile,
                         flux: FluxModel, T: float, du: float,
                         domain) -> bool:
    """L1 distance between two solutions never grows (monotone scheme)."""
    ga = solve_whole_line(rho0_a, flux, T, du=du, domain=domain)
    gb = solve_whole_line(rho0_b, flux, T, du=du, domain=domain)
    d = np.abs(ga.values - gb.values).sum(axis=1) * du
    return bool(np.all(np.diff(d) <= 1e-12 * max(d[0], 1.0)))
