"""Equilibrium thermodynamics of the zero-range process.

Partition function Z(zeta), density R(zeta), the mean-jump-rate function
Phi (inverse of R) and sampling of the product-measure site marginals.
All series are evaluated by truncation: a term is dropped once it falls
below ``SERIES_TOL`` times the partial sum.  Divergence is decided from
the radius of convergence: for non-decreasing g it is zeta* = lim g(k)
= ``rate.sup_g`` (infinite for rates that keep growing), so a series
diverges exactly when zeta >= zeta*; a sum too large for a double is
reported the same way.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rates import RateFunction

#: stop the series when term / partial_sum drops below this
SERIES_TOL = 1e-12
#: hard cap on the number of series terms before declaring divergence
TERM_BUDGET = 10_000
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


def _series(rate: RateFunction, zeta: float, weight_k: bool):
    """Sum zeta^k / g(k)! (weighted by k if requested)."""
    if zeta < 0:
        raise ValueError("fugacity must be non-negative")
    if zeta >= rate.sup_g:
        raise DivergenceError(f"series for zeta={zeta:g} does not converge "
                              f"(zeta* = {rate.sup_g:g})")
    term = 1.0
    total = 0.0 if weight_k else 1.0
    for k in range(1, TERM_BUDGET):
        term *= zeta / rate.g(k)
        total += k * term if weight_k else term
        if term <= SERIES_TOL * total:
            if total == np.inf:
                raise DivergenceError(
                    f"series for zeta={zeta:g} overflows a double")
            return total
    raise DivergenceError(f"series for zeta={zeta:g} exhausted term budget")


def partition_function(rate: RateFunction, zeta: float) -> float:
    """Z(zeta) = sum_k zeta^k / g(k)!."""
    return _series(rate, zeta, weight_k=False)


def mean_density(rate: RateFunction, zeta: float) -> float:
    """R(zeta), the mean occupation under the fugacity-zeta marginal."""
    if zeta == 0.0:
        return 0.0
    num = _series(rate, zeta, weight_k=True)
    return num / partition_function(rate, zeta)


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
        dens = np.array([mean_density(self.rate, z) for z in zetas])
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

    # -- scalar interface ------------------------------------------------

    @property
    def covered_rho_max(self) -> float:
        return float(self.densities[-1])

    def phi(self, rho: float) -> float:
        """Phi(rho): the fugacity zeta with R(zeta) = rho."""
        if rho < 0 or rho > self.covered_rho_max * (1 + 1e-12):
            raise DensityRangeError(
                f"density {rho:g} outside tabulated range "
                f"[0, {self.covered_rho_max:g}]")
        if rho == 0.0:
            return 0.0
        lo, hi = 0.0, float(self.zetas[-1])
        while hi - lo > PHI_TOL:
            mid = 0.5 * (lo + hi)
            if mean_density(self.rate, mid) < rho:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def phi_inverse(self, flux_value: float) -> float:
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
        Z = partition_function(self.rate, zeta)
        term = 1.0 / Z
        probs = [term]
        for k in range(1, TERM_BUDGET):
            term *= zeta / self.rate.g(k)
            probs.append(term)
            if term < PMF_TAIL_TOL:
                return np.array(probs)
        raise DivergenceError("pmf tail does not decay")

    def sample_by_fugacity(self, zeta: float,
                           rng: np.random.Generator, n: int = 1):
        """Draw occupations from the fugacity-zeta marginal (inversion)."""
        if zeta == 0.0:
            return np.zeros(n, dtype=np.int64)
        pmf = self.marginal_pmf(zeta)
        cdf = np.cumsum(pmf)
        cdf[-1] = max(cdf[-1], 1.0)
        u = rng.random(n)
        return np.searchsorted(cdf, u, side="right").astype(np.int64)

    def sample_marginal(self, rho: float, rng: np.random.Generator,
                        n: int = 1):
        """Draw occupations from the density-rho marginal nu_rho."""
        if rho == 0.0:
            return np.zeros(n, dtype=np.int64)
        return self.sample_by_fugacity(self.phi(rho), rng, n)
