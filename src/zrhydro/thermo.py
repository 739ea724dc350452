"""Equilibrium thermodynamics of the zero-range process.

Partition function Z(zeta), density R(zeta), the mean-jump-rate function
Phi (inverse of R) and sampling of the product-measure site marginals.
Each takes a scalar or an array: a scalar returns a float, an array an
array of its shape.

One series core serves them all.  For an array of fugacities it forms the
terms zeta^k / g(k)! as a running product over one cached table of g, and
each fugacity's series stops at its own first term that falls below
``SERIES_TOL`` times the partial sum.  The products and sums run in the
order a scalar loop would run them, so every value is that loop's to the
bit.  Divergence is decided from the radius of convergence: for
non-decreasing g it is zeta* = lim g(k) = ``rate.sup_g`` (infinite for
rates that keep growing), so a series diverges exactly when
zeta >= zeta*; a sum too large for a double is reported the same way.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .rates import RateFunction

#: stop the series when term / partial_sum drops below this
SERIES_TOL = 1e-12
#: hard cap on the number of series terms before declaring divergence
TERM_BUDGET = 10_000
#: terms of a first pass; series still open get four times as many next
FIRST_TERMS = 64
#: absolute tolerance on zeta in the bisection defining Phi
PHI_TOL = 1e-10
#: fugacity grid points of a ThermoTable
GRID_SIZE = 2048
#: marginal pmfs stop at the first term below this
PMF_TAIL_TOL = 1e-13


class DivergenceError(ArithmeticError):
    """Fugacity at or beyond the radius of convergence of Z."""


class DensityRangeError(ValueError):
    """Requested density outside the tabulated range."""


# -- the series core -----------------------------------------------------


@functools.lru_cache(maxsize=16)
def _g_table(rate: RateFunction) -> np.ndarray:
    """g(1), ..., g(TERM_BUDGET - 1): the divisors of the series terms."""
    return rate.table(TERM_BUDGET - 1)[1:]


def _term_rows(rate: RateFunction, zetas: np.ndarray, head, n: int):
    """head * prod_{j <= k} zeta / g(j) for k = 0..n, one row per zeta."""
    rows = np.empty((len(zetas), n + 1))
    rows[:, 0] = head
    np.divide(zetas[:, None], _g_table(rate)[:n], out=rows[:, 1:])
    return np.cumprod(rows, axis=1, out=rows)


def _first(stop: np.ndarray):
    """(rows with a True at k >= 1, the first such k of each row)."""
    stop = stop[:, 1:]
    return stop.any(axis=1), stop.argmax(axis=1) + 1


def _grow(zetas: np.ndarray, step, what: str):
    """Call ``step(idx, n)`` on the open rows ``idx`` with ``n`` terms.

    ``step`` returns which of its rows stopped; the others go round again
    with four times the terms, until the term budget is spent.
    """
    idx = np.arange(len(zetas))
    n = FIRST_TERMS
    while idx.size:
        n = min(n, TERM_BUDGET - 1)
        # terms past a row's stop may overflow; they are never read
        with np.errstate(over="ignore"):
            idx = idx[~step(idx, n)]
        if idx.size and n == TERM_BUDGET - 1:
            raise DivergenceError(f"{what} for zeta={zetas[idx[0]]:g} "
                                  "exhausted term budget")
        n *= 4


def _series(rate: RateFunction, zetas: np.ndarray, weighted: bool):
    """Z and (if ``weighted``) sum_k k zeta^k / g(k)! of a 1-d array."""
    if np.any(zetas < 0):
        raise ValueError("fugacity must be non-negative")
    beyond = zetas >= rate.sup_g
    if np.any(beyond):
        raise DivergenceError(f"series for zeta={zetas[beyond][0]:g} does "
                              f"not converge (zeta* = {rate.sup_g:g})")
    sums = [np.empty(len(zetas)) for _ in range(1 + weighted)]

    def step(idx, n):
        terms = _term_rows(rate, zetas[idx], 1.0, n)
        partials = [np.cumsum(terms, axis=1)]
        if weighted:
            partials.append(np.cumsum(np.arange(n + 1) * terms, axis=1))
        done = np.ones(len(idx), dtype=bool)
        for out, partial in zip(sums, partials):
            hit, k = _first(terms <= SERIES_TOL * partial)
            out[idx[hit]] = np.take_along_axis(partial, k[:, None], 1)[hit, 0]
            done &= hit
        return done

    _grow(zetas, step, "series")
    for out in sums:
        inf = out == np.inf
        if np.any(inf):
            raise DivergenceError(f"series for zeta={zetas[inf][0]:g} "
                                  "overflows a double")
    return sums[0], (sums[1] if weighted else None)


def _like(values: np.ndarray, x: np.ndarray):
    """``values`` in the shape of ``x``; a float when ``x`` is a scalar."""
    return float(values[0]) if x.ndim == 0 else values.reshape(x.shape)


def partition_function(rate: RateFunction, zeta):
    """Z(zeta) = sum_k zeta^k / g(k)!."""
    z = np.asarray(zeta, dtype=float)
    return _like(_series(rate, z.ravel(), weighted=False)[0], z)


def mean_density(rate: RateFunction, zeta):
    """R(zeta), the mean occupation under the fugacity-zeta marginal."""
    z = np.asarray(zeta, dtype=float)
    Z, S = _series(rate, z.ravel(), weighted=True)
    return _like(S / Z, z)


def _marginal_pmfs(rate: RateFunction, zetas: np.ndarray):
    """Truncated pmfs k -> zeta^k / (Z(zeta) g(k)!), one row per fugacity,
    and the length of each row; entries past a row's length are not its."""
    heads = 1.0 / _series(rate, zetas, weighted=False)[0]
    lengths = np.empty(len(zetas), dtype=np.int64)

    def step(idx, n):
        pmf = _term_rows(rate, zetas[idx], heads[idx], n)
        hit, k = _first(pmf < PMF_TAIL_TOL)
        lengths[idx[hit]] = k[hit] + 1
        return hit

    _grow(zetas, step, "pmf tail")
    return _term_rows(rate, zetas, heads, int(lengths.max()) - 1), lengths


@dataclass
class ThermoTable:
    """Density-fugacity correspondence for one rate function.

    Tabulates (zeta, Z, R) on a grid up to a density ceiling and exposes
    Phi (density -> fugacity, by monotone bisection), its inverse R, and
    marginal sampling.  Immutable after construction; safe to share.
    """

    rate: RateFunction
    rho_max: float = 4.0
    zeta_star_estimate: float = field(init=False)
    zetas: np.ndarray = field(init=False, repr=False)
    densities: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.zeta_star_estimate = self.rate.sup_g
        zeta_hi = self._find_zeta_ceiling()
        zetas = np.linspace(0.0, zeta_hi, GRID_SIZE)
        dens = mean_density(self.rate, zetas)
        if np.any(np.diff(dens) <= 0):
            raise ArithmeticError("tabulated density is not strictly increasing")
        self.zetas = zetas
        self.densities = dens

    def _find_zeta_ceiling(self) -> float:
        zstar = self.zeta_star_estimate
        zeta = min(1.0, 0.5 * zstar) if np.isfinite(zstar) else 1.0
        for _ in range(200):
            try:
                if mean_density(self.rate, zeta) >= self.rho_max:
                    return zeta
            except DivergenceError:
                # back off toward the last convergent fugacity
                zeta *= 0.75
                continue
            if np.isfinite(zstar):
                zeta = min(2.0 * zeta, 0.5 * (zeta + zstar))
            else:
                zeta *= 2.0
        # bounded rates may not reach rho_max below zeta*; keep what we have
        return zeta

    # -- exact interface (scalar or array) ---------------------------------

    @property
    def covered_rho_max(self) -> float:
        return float(self.densities[-1])

    def phi(self, rho):
        """Phi(rho): the fugacity zeta with R(zeta) = rho.

        Every density runs its own bisection; they advance in lockstep.
        """
        r = np.asarray(rho, dtype=float)
        flat = r.ravel()
        bad = (flat < 0) | (flat > self.covered_rho_max * (1 + 1e-12))
        if np.any(bad):
            raise DensityRangeError(
                f"density {flat[bad][0]:g} outside tabulated range "
                f"[0, {self.covered_rho_max:g}]")
        lo = np.zeros(flat.size)
        hi = np.full(flat.size, float(self.zetas[-1]))
        open_ = (flat != 0.0) & (hi - lo > PHI_TOL)
        while np.any(open_):
            i = np.flatnonzero(open_)
            mid = 0.5 * (lo[i] + hi[i])
            below = mean_density(self.rate, mid) < flat[i]
            lo[i[below]] = mid[below]
            hi[i[~below]] = mid[~below]
            open_[i] = hi[i] - lo[i] > PHI_TOL
        return _like(np.where(flat == 0.0, 0.0, 0.5 * (lo + hi)), r)

    def phi_inverse(self, flux_value):
        """R(flux_value); the round-trip inverse of phi."""
        return mean_density(self.rate, flux_value)

    # -- vectorized interface (interpolation on the tabulated grid) -----

    def phi_of(self, rho):
        """Vectorized Phi via interpolation on the construction grid."""
        rho = np.asarray(rho, dtype=float)
        if np.any(rho < -1e-12) or np.any(rho > self.covered_rho_max * (1 + 1e-9)):
            raise DensityRangeError("density outside tabulated range")
        return np.interp(rho, self.densities, self.zetas)

    # -- sampling --------------------------------------------------------

    def marginal_pmf(self, zeta: float) -> np.ndarray:
        """Truncated pmf k -> zeta^k / (Z(zeta) g(k)!)."""
        pmfs, lengths = _marginal_pmfs(self.rate, np.array([float(zeta)]))
        return pmfs[0, :lengths[0]]

    def sample_by_fugacity(self, zeta, rng: np.random.Generator,
                           n: int = 1):
        """Draw n occupations from the fugacity-zeta marginal (inversion).

        An array of fugacities gives n draws per entry, in an array of
        shape ``zeta.shape + (n,)``.  The entries draw in order, n
        uniforms each; a zero fugacity draws none and gives zeros.
        """
        z = np.asarray(zeta, dtype=float)
        flat = z.ravel()
        out = np.zeros((flat.size, n), dtype=np.int64)
        live = flat != 0.0
        if np.any(live):
            pmfs, lengths = _marginal_pmfs(self.rate, flat[live])
            cdf = np.cumsum(pmfs, axis=1)
            last = (np.arange(len(lengths)), lengths - 1)
            cdf[last] = np.maximum(cdf[last], 1.0)
            cdf[np.arange(cdf.shape[1]) >= lengths[:, None]] = np.inf
            u = rng.random((len(lengths), n))
            # the count of cdf entries <= u is searchsorted(..., "right")
            out[live] = np.sum(cdf[:, None, :] <= u[:, :, None], axis=2)
        return out.reshape(z.shape + (n,))

    def sample_marginal(self, rho: float, rng: np.random.Generator,
                        n: int = 1):
        """Draw occupations from the density-rho marginal nu_rho."""
        if rho == 0.0:
            return np.zeros(n, dtype=np.int64)
        return self.sample_by_fugacity(self.phi(rho), rng, n)
