"""Reference machinery for the exactly solvable linear case g(k) = k.

For linear rates the site densities close on themselves: they solve a
linear ODE system, admit a Feynman-Kac representation through a killed
random walk with inverted drift, and converge to an explicit macroscopic
profile with absorption factor alpha-tilde.  The ODE and the closed form
never touch the event engine: they are its independent references.  The
dual walks are the particles of one ``EventEngine`` run per call, so an
engine fault shows in them; consecutive calls sharing a generator read
it after the blocks the previous call's engine planned and drew.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Configuration, EventEngine, ModelParams, choose_window
from .profiles import DensityProfile
from .rates import linear_rate

#: escape cutoff for the killed walk, in units of sqrt(N) sites left of 0
ESCAPE_SIGMAS = 4.0
#: margin of the dual walks' window, in standard deviations of a walk
DUAL_WINDOW_SIGMAS = 8.0
#: cap on the density ODE's mass leaving the window, as a share of the
#: initial mass
ODE_LEAK_TOL = 1e-3


@dataclass(frozen=True)
class LinearCaseParams:
    """Model parameters plus the absorption factors of the linear case."""

    params: ModelParams

    @property
    def alpha_tilde(self) -> float:
        """Limiting absorption factor: 1, alpha/(alpha+2p-1) or 0 by beta."""
        pr = self.params
        if pr.alpha == 0.0:
            return 0.0
        if pr.beta > 0:
            return 1.0
        if pr.beta == 0:
            return pr.alpha / (pr.alpha + pr.drift)
        return 0.0

    @property
    def alpha_tilde_N(self) -> float:
        """Pre-limit killing probability alpha N^beta/(alpha N^beta+2p-1)."""
        aNb = self.params.destruction_factor
        return aNb / (aNb + self.params.drift)


def exact_linear_solution(rho0, lin: LinearCaseParams, t: float, u):
    """Macroscopic density (1 - at 1{0 <= u < (2p-1)t}) rho0(u - (2p-1)t)."""
    pr = lin.params
    shift = pr.drift * t
    u = np.asarray(u, dtype=float)
    base = rho0(u - shift)
    factor = 1.0 - lin.alpha_tilde * ((u >= 0) & (u < shift))
    out = factor * base
    return float(out) if out.ndim == 0 else out


@dataclass
class OdeCurve:
    """Solution of the site-density ODE system on a lattice window."""

    x_min: int
    times: np.ndarray
    values: np.ndarray  # [n_times, n_sites]
    killed: float
    leaked: float
    params: ModelParams

    def final_profile(self) -> DensityProfile:
        return DensityProfile(self.x_min / self.params.N,
                              1.0 / self.params.N, self.values[-1])


def integrate_density_ode(rho0, params: ModelParams,
                          window: tuple[int, int], t_end: float,
                          times=None) -> OdeCurve:
    """Explicit-Euler integration of the linear-case density system.

    d/dt rho_x = N((1-p) rho_{x+1} + p rho_{x-1} - rho_x) away from the
    origin, with the extra destruction term -N alpha N^beta rho_0 at 0.
    The step obeys dt <= 0.5/(N(1+alpha N^beta)), which keeps the update
    a convex combination (non-negativity preserved).  Mass leaving the
    window edges is tracked and capped at ``ODE_LEAK_TOL`` of the initial
    mass.
    """
    x_lo, x_hi = window
    xs = np.arange(x_lo, x_hi + 1)
    rho = np.asarray(rho0(xs / params.N), dtype=float).copy()
    N = params.N
    p = params.p
    aNb = params.destruction_factor
    dt_max = 0.5 / (N * (1.0 + aNb))
    n_steps = max(int(math.ceil(t_end / dt_max - 1e-12)), 1)
    dt = t_end / n_steps
    i0 = -x_lo if x_lo <= 0 <= x_hi else -1

    if times is None:
        times = [t_end]
    times = sorted(float(t) for t in times)
    out = np.empty((len(times), len(rho)))
    ti = 0
    killed = 0.0
    leaked = 0.0
    mass0 = rho.sum()
    t = 0.0
    while ti < len(times) and times[ti] <= 0.0:
        out[ti] = rho
        ti += 1
    for n in range(n_steps):
        right = np.concatenate((rho[1:], [0.0]))
        left = np.concatenate(([0.0], rho[:-1]))
        drho = N * ((1 - p) * right + p * left - rho)
        if i0 >= 0:
            drho[i0] -= N * aNb * rho[i0]
            killed += dt * N * aNb * rho[i0]
        leaked += dt * N * (p * rho[-1] + (1 - p) * rho[0])
        rho = rho + dt * drho
        t = (n + 1) * dt
        if leaked > ODE_LEAK_TOL * max(mass0, 1e-12):
            raise RuntimeError(
                f"density leaked past the window edges at t={t:g}")
        while ti < len(times) and times[ti] <= t + 1e-12:
            out[ti] = rho
            ti += 1
    while ti < len(times):
        out[ti] = rho
        ti += 1
    return OdeCurve(x_min=x_lo, times=np.asarray(times), values=out,
                    killed=killed, leaked=leaked, params=params)


def _dual_walks(params: ModelParams, x: int, window: tuple[int, int],
                replicas: int, rng: np.random.Generator, t_end: float,
                **kw) -> Configuration:
    """``replicas`` dual walks from site ``x`` to ``t_end``: the particles
    of one linear-rate ``EventEngine`` run on the mirrored ``window``,
    which each jump at rate N, right with probability p, and die at rate
    N alpha N^beta at the origin.  Site y of the result holds those at -y.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    lo, hi = window
    occ = np.zeros(hi - lo + 1, dtype=np.int64)
    occ[-x - lo] = replicas
    cfg = Configuration(x_min=lo, occ=occ)
    EventEngine(cfg, params, linear_rate(), rng, **kw).run(t_end)
    return cfg


def dual_rw_estimate(x: int, t: float, params: ModelParams, rho0,
                     replicas: int, rng: np.random.Generator):
    """Monte Carlo Feynman-Kac value of the site density at (x, t).

    Averages rho0(X_t / N) 1{tau > t} over ``replicas`` dual walks (left
    at rate Np, right at N(1-p), killed at alpha N^{1+beta} while at the
    origin); unbiased for the ODE solution.  The window reaches
    ``DUAL_WINDOW_SIGMAS`` standard deviations of a walk past its drift,
    and exits past the engine's default leak cap (any exit, below 1,000
    walks) raise ``LeakageError`` rather than bias the estimate.
    """
    N = params.N
    margin = DUAL_WINDOW_SIGMAS * math.sqrt(max(t, 1.0 / N) / N)
    window = choose_window((-x / N, -x / N), params, t, margin)
    cfg = _dual_walks(params, x, window, replicas, rng, t)
    ys = np.arange(cfg.x_min, cfg.x_max + 1)
    at = np.broadcast_to(np.asarray(rho0(-ys / N), dtype=float), ys.shape)
    vals = np.zeros(replicas)
    vals[:cfg.total_mass] = np.repeat(at, cfg.occ)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return est, se


def killing_probability_experiment(params: ModelParams, start_site: int,
                                   replicas: int, rng: np.random.Generator):
    """Empirical probability that the dual walk dies before escaping.

    A walk escapes once it is c = ESCAPE_SIGMAS * sqrt(N) sites left of
    the origin (the drift points left, so returns from there are
    exponentially unlikely): on the mirrored window [-c, c - 1], widened
    to hold the start, that is an exit on the right.  An exit on the left,
    c sites against the drift (chance about ((1 - p)/p)^c), counts as
    survival.  Compare the kill fraction against alpha_tilde_N.
    """
    N = params.N
    c = int(math.ceil(ESCAPE_SIGMAS * math.sqrt(N)))
    # walks still in the window at the horizon count as survivors
    horizon = 40.0 * c / (N * params.drift)
    window = (min(-c, -start_site), max(c - 1, -start_site))
    cfg = _dual_walks(params, start_site, window, replicas, rng, horizon,
                      leak_fraction=1.0)
    frac = cfg.destroyed_count / replicas
    se = math.sqrt(max(frac * (1 - frac), 1e-12) / replicas)
    return frac, se


def correlation_field(occ_matrix: np.ndarray, x_min: int, x: int, y: int):
    """Two-point correlation across replicas, with jackknife SE.

    ``occ_matrix`` holds one replica per row (occupations at a common
    time on a common window starting at ``x_min``).
    """
    R = occ_matrix.shape[0]
    if R < 100:
        raise ValueError("correlation estimation needs >= 100 replicas")
    a = occ_matrix[:, x - x_min].astype(float)
    b = occ_matrix[:, y - x_min].astype(float)
    Sx, Sy = a.sum(), b.sum()
    Sxy = float(a @ b)
    est = (Sxy - Sx * Sy / R) / (R - 1)
    # leave-one-out covariances from the running sums
    loo = ((Sxy - a * b) - (Sx - a) * (Sy - b) / (R - 1)) / (R - 2)
    se = math.sqrt((R - 1) / R * float(((loo - loo.mean()) ** 2).sum()))
    return float(est), se
