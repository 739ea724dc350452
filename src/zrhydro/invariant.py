"""Inhomogeneous invariant product measures for the destruction dynamics.

The site fugacities m_x solve the discrete balance system

    p m_{x-1} + (1-p) m_{x+1} - m_x = 0            (x != 0)
    p m_{-1} + (1-p) m_1 = (1 + alpha N^beta) m_0

whose general solution is geometric-plus-constant on each half line:
m_x = c1 r^x + c2 for x <= 0 and c3 r^x + c4 for x >= 0 with
r = p/(1-p), glued by c1 + c2 = c3 + c4 and the origin equation.  For
p = 1 the solution is the two-level profile m_- = (1 + alpha N^beta) m_+.

Profiles are validated on construction: non-negativity, admissible
fugacities (below the radius of convergence) and the balance residual.
The geometric factor is evaluated in log space and construction fails
with the maximal admissible window when the requested one is too large.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import (CallbackObserver, Configuration, EventEngine,
                     ModelParams)
from .harness import map_replicas
from .rates import RateFunction
from .thermo import ThermoTable

#: tolerance on the discrete balance residual
RESIDUAL_TOL = 1e-10
#: equally spaced observation times of a stationarity test
STATIONARITY_TIMES = 10

#: named constant choices used by the coupled-process experiments
PRESETS = ("absorbing-critical", "absorbing-subcritical")


class AdmissibilityError(ValueError):
    """Profile negative or fugacity inadmissible on the requested window."""


@dataclass
class StationaryProfile:
    """Site fugacities m on [x_min, x_min + len(m) - 1]."""

    params: ModelParams
    x_min: int
    m: np.ndarray
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        if np.any(self.m < 0):
            raise AdmissibilityError("fugacity profile must be non-negative")
        res = self.residual()
        if res > RESIDUAL_TOL:
            raise ValueError(f"balance residual {res:g} above tolerance")

    def fugacity(self, x: int) -> float:
        return float(self.m[x - self.x_min])

    def residual(self) -> float:
        """Max violation of the discrete balance system on interior sites."""
        p, m = self.params.p, self.m
        target = m[1:-1].copy()
        if 0 < -self.x_min < len(m) - 1:
            target[-self.x_min - 1] *= 1 + self.params.destruction_factor
        lhs = p * m[:-2] + (1 - p) * m[2:]
        return float(np.max(np.abs(lhs - target), initial=0.0))


def maximal_admissible_window(params: ModelParams, c1: float, c2: float,
                              c3: float, c4: float,
                              zeta_star: float = math.inf) -> tuple[int, int]:
    """Largest lattice interval where the two-branch profile is admissible.

    Admissible means 0 <= m_x < zeta_star.  Scans outward from the
    origin; the left branch is c1 r^x + c2, the right c3 r^x + c4.
    """
    r = params.p / (1 - params.p)
    m0 = c1 + c2

    def ok(v):
        return 0.0 <= v < zeta_star

    if not ok(m0):
        raise AdmissibilityError(f"profile inadmissible at the origin: {m0:g}")
    lo = 0
    while lo > -10 ** 7:
        v = c1 * math.exp((lo - 1) * math.log(r)) + c2
        if not ok(v):
            break
        lo -= 1
        # once the geometric term rounds away (at once when c1 == 0),
        # every further site is c2
        if v == c2:
            lo = -10 ** 7
            break
    hi = 0
    while hi < 10 ** 7:
        try:
            v = c3 * math.exp((hi + 1) * math.log(r))
        except OverflowError:
            v = math.inf if c3 > 0 else -math.inf
        v += c4
        if not ok(v):
            break
        hi += 1
        if c3 == 0:
            hi = 10 ** 7
            break
    return lo, hi


def build_profile(params: ModelParams, window: tuple[int, int],
                  c1: float | None = None, c2: float | None = None,
                  m_plus: float | None = None,
                  zeta_star: float = math.inf) -> StationaryProfile:
    """Construct a stationary fugacity profile on a lattice window.

    For p = 1 supply ``m_plus``; the profile is the two-level solution
    m_x = (1 + alpha N^beta) m_plus for x < 0, m_plus for x >= 0.  For
    1/2 < p < 1 supply (c1, c2) on the left branch; the right-branch
    constants follow from the gluing conditions.
    """
    x_lo, x_hi = window
    if x_hi < x_lo:
        raise ValueError("empty window")
    xs = np.arange(x_lo, x_hi + 1)
    aNb = params.destruction_factor

    if params.p == 1.0:
        if m_plus is None:
            raise ValueError("p = 1 profiles are set by m_plus")
        if m_plus < 0 or (1 + aNb) * m_plus >= zeta_star:
            raise AdmissibilityError("p = 1 levels outside admissible range")
        m = np.where(xs < 0, (1 + aNb) * m_plus, m_plus)
        return StationaryProfile(params, x_lo, m,
                                 constants={"m_plus": m_plus,
                                            "m_minus": (1 + aNb) * m_plus})

    if c1 is None or c2 is None:
        raise ValueError("1/2 < p < 1 profiles are set by (c1, c2)")
    drift = params.drift
    c3 = c1 + aNb * (c1 + c2) / drift
    c4 = c2 - aNb * (c1 + c2) / drift
    r = params.p / (1 - params.p)
    # r**x in log space; an overflow to +inf is caught as inadmissible
    with np.errstate(over="ignore"):
        geom = np.exp(xs * math.log(r))
        # a constant branch never forms 0 * r**x, which is nan once r**x
        # overflows
        left = c1 * geom + c2 if c1 != 0 else c2
        right = c3 * geom + c4 if c3 != 0 else c4
        m = np.where(xs <= 0, left, right)
    bad = ~((m >= 0) & (m < zeta_star) & np.isfinite(m))
    if np.any(bad):
        lo, hi = maximal_admissible_window(params, c1, c2, c3, c4, zeta_star)
        raise AdmissibilityError(
            f"profile inadmissible on [{x_lo}, {x_hi}]; maximal admissible "
            f"window is [{lo}, {hi}]")
    return StationaryProfile(params, x_lo, m,
                             constants={"c1": c1, "c2": c2,
                                        "c3": c3, "c4": c4})


def preset_profile(name: str, params: ModelParams, density: float,
                   thermo: ThermoTable,
                   window: tuple[int, int]) -> StationaryProfile:
    """Named constant choices for the coupled-process experiments.

    ``absorbing-critical`` (beta = 0 regime): right-limit fugacity
    Phi(c), vanishing geometric part on the right.
    ``absorbing-subcritical`` (0 < beta < 1 regime): left-limit fugacity
    Phi(c), right limit reduced by (2p-1)/(2p-1+alpha N^beta).
    """
    phi_c = thermo.phi(density)
    drift = params.drift
    aNb = params.destruction_factor
    if name == "absorbing-critical":
        c1 = -aNb * phi_c / drift
        c2 = (aNb + drift) * phi_c / drift
    elif name == "absorbing-subcritical":
        c1 = -aNb * phi_c / (drift + aNb)
        c2 = phi_c
    else:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESETS}")
    return build_profile(params, window, c1=c1, c2=c2,
                         zeta_star=thermo.rate.sup_g)


def sample_stationary(profile: StationaryProfile, thermo: ThermoTable,
                      rng: np.random.Generator) -> Configuration:
    """Independent site draws with fugacity m_x, one uniform per site
    from left to right (none at a zero fugacity)."""
    occ = thermo.sample_by_fugacity(profile.m, rng, 1)[:, 0]
    return Configuration(x_min=profile.x_min, occ=occ)


@dataclass
class SiteStatistic:
    x: int
    target: float
    mean_g: float
    se_g: float

    @property
    def passed(self) -> bool:
        return abs(self.mean_g - self.target) <= 3 * self.se_g


@dataclass
class StationarityReport:
    sites: list
    replicas: int
    t_end: float

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.sites)

    def __str__(self):
        lines = [f"stationarity over t in [0, {self.t_end:g}], "
                 f"{self.replicas} replicas: "
                 + ("PASS" if self.passed else "FAIL")]
        for s in self.sites:
            lines.append(
                f"  x={s.x:+d}: <g>={s.mean_g:.4f} (m_x={s.target:.4f}, "
                f"se={s.se_g:.4f}) "
                + ("ok" if s.passed else "VIOLATION"))
        return "\n".join(lines)


def stationarity_test(profile: StationaryProfile, rate: RateFunction,
                      thermo: ThermoTable, t_end: float, replicas: int,
                      sites, master_seed: int = 0) -> StationarityReport:
    """Empirical invariance check of the product measure.

    Each replica starts from an independent sample of the profile
    measure, runs the destruction dynamics on the profile's window with
    open boundaries, and records g(omega_x) at equally spaced times.
    PASS when the replica-averaged time average of g(omega_x) is within
    3 standard errors of m_x at every requested site; a zero-width band
    raises ValueError.
    """
    if replicas == 1:
        # map_replicas rejects fewer
        raise ValueError("a standard error needs at least 2 replicas, got 1")
    params = profile.params
    sites = list(sites)
    idx = [x - profile.x_min for x in sites]
    if any(i < 0 or i >= len(profile.m) for i in idx):
        raise ValueError("observable site outside the profile window")
    times = (np.linspace(0.0, t_end, STATIONARITY_TIMES + 1)[1:] if t_end > 0
             else np.array([0.0]))

    def run(rng):
        cfg = sample_stationary(profile, thermo, rng)
        acc_g = np.zeros(len(sites))

        def record(t, engine):
            for j, i in enumerate(idx):
                acc_g[j] += engine.rate.g(engine._occ[i])

        # t_end = 0 records the sample itself, at time 0
        eng = EventEngine(cfg, params, rate, rng, leak_fraction=1.0)
        eng.run(max(t_end, 0.0), observers=[CallbackObserver(times, record)])
        return acc_g / len(times)

    gvals = np.array(map_replicas(run, master_seed, replicas))
    stats = []
    for j, x in enumerate(sites):
        se = float(gvals[:, j].std(ddof=1) / math.sqrt(replicas))
        if se == 0.0:
            raise ValueError(f"site x = {x}: every replica read the same "
                             "average of g, so se = 0; use more replicas")
        stats.append(SiteStatistic(
            x=x, target=profile.fugacity(x),
            mean_g=float(gvals[:, j].mean()), se_g=se))
    return StationarityReport(sites=stats, replicas=replicas, t_end=t_end)
