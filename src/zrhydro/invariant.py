"""Inhomogeneous invariant product measures for the destruction dynamics.

The site fugacities m_x solve the discrete balance system

    p m_{x-1} + (1-p) m_{x+1} - m_x = 0            (x != 0)
    p m_{-1} + (1-p) m_1 = (1 + alpha N^beta) m_0

whose general solution is geometric-plus-constant on each half line:
m_x = c1 r^x + c2 for x <= 0 and c3 r^x + c4 for x >= 0 with
r = p/(1-p), glued by c1 + c2 = c3 + c4 and the origin equation.  Given
(c1, c2) this needs p < 1; the flat-right family (c3 = 0, c4 = m_plus),
whose right fugacity is (2p-1)/(2p-1+alpha N^beta) times the left one,
builds at every p, and both presets are members of it.

Profiles are validated on construction: non-negativity, admissible
fugacities (below the radius of convergence) and the balance residual.
The geometric factor is evaluated in log space and construction fails
with the maximal admissible window when the requested one is too large.
"""
from __future__ import annotations

import bisect
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


def _log_r(p: float) -> float:
    """log r, r = p/(1-p); inf at p = 1, where r**x is 0 on x < 0."""
    return math.log(p / (1 - p)) if p < 1 else math.inf


def _fugacities(params: ModelParams, constants: dict, split: int, xs):
    """m_x at the sites xs: c1 r^x + c2 left of split, c3 r^x + c4 from it.

    r**x is taken in log space, so an overflow shows as +inf, and at p = 1
    it is 0 left of the origin (nan at it, where the flat right branch
    holds).  A constant branch never forms 0 * r**x.
    """
    c1, c2, c3, c4 = (constants[k] for k in ("c1", "c2", "c3", "c4"))
    with np.errstate(over="ignore", invalid="ignore"):
        geom = np.exp(xs * _log_r(params.p))
        left = c1 * geom + c2 if c1 != 0 else c2
        right = c3 * geom + c4 if c3 != 0 else c4
        return np.where(xs < split, left, right)


def _admissible(m, zeta_star: float):
    """0 <= m < zeta_star, false at nan and at +inf."""
    return (m >= 0) & (m < zeta_star)


def maximal_admissible_window(params: ModelParams, constants: dict,
                              split: int,
                              zeta_star: float = math.inf) -> tuple[int, int]:
    """Largest lattice interval about the origin where a profile is admissible.

    The profile is c1 r^x + c2 left of ``split`` and c3 r^x + c4 from it,
    as ``build_profile`` builds it, with ``split`` 0 or 1.  So the sites on
    either side of the origin lie on one branch, monotone in x, and the
    admissible ones form one run; a bisection over 10^7 sites finds where
    it ends, and a run that does not end is reported as reaching +-10^7.
    """
    def ok(x):
        return bool(_admissible(_fugacities(params, constants, split, x),
                                zeta_star))

    def reach(side):
        if not ok(side):  # the bisection needs the run to start here
            return 0
        return bisect.bisect_left(range(1, 10 ** 7 + 1), True,
                                  key=lambda k: not ok(side * k))

    if not ok(0):
        m0 = float(_fugacities(params, constants, split, 0))
        raise AdmissibilityError(f"profile inadmissible at the origin: {m0:g}")
    return -reach(-1), reach(1)


def build_profile(params: ModelParams, window: tuple[int, int],
                  c1: float | None = None, c2: float | None = None,
                  m_plus: float | None = None,
                  zeta_star: float = math.inf) -> StationaryProfile:
    """Construct a stationary fugacity profile on a lattice window.

    ``m_plus`` sets the flat-right profile at every 1/2 < p <= 1: c3 = 0,
    c4 = m_plus, c1 = -alpha N^beta m_plus / (2p-1), c2 = m_plus - c1, the
    left branch on x < 0 (at p = 1 the two levels m_plus and
    (1 + alpha N^beta) m_plus).  At 1/2 < p < 1, (c1, c2) may set the left
    branch on x <= 0 instead; c3 and c4 follow from the gluing conditions.
    """
    x_lo, x_hi = window
    if x_hi < x_lo:
        raise ValueError("empty window")
    drift, aNb = params.drift, params.destruction_factor
    if m_plus is not None and c1 is None and c2 is None:
        c1, c2 = -aNb * m_plus / drift, (aNb + drift) * m_plus / drift
        c3, c4, split = 0.0, m_plus, 0
    elif m_plus is not None or c1 is None or c2 is None or params.p == 1.0:
        raise ValueError("a profile is set by m_plus alone, or by (c1, c2) "
                         "at 1/2 < p < 1")
    else:
        c3 = c1 + aNb * (c1 + c2) / drift
        c4 = c2 - aNb * (c1 + c2) / drift
        split = 1
    constants = {"c1": c1, "c2": c2, "c3": c3, "c4": c4}
    m = _fugacities(params, constants, split, np.arange(x_lo, x_hi + 1))
    if not np.all(_admissible(m, zeta_star)):
        lo, hi = maximal_admissible_window(params, constants, split,
                                           zeta_star)
        raise AdmissibilityError(
            f"profile inadmissible on [{x_lo}, {x_hi}]; maximal admissible "
            f"window is [{lo}, {hi}]")
    return StationaryProfile(params, x_lo, m, constants=constants)


def preset_profile(name: str, params: ModelParams, density: float,
                   thermo: ThermoTable,
                   window: tuple[int, int]) -> StationaryProfile:
    """Named flat-right profiles for the coupled-process experiments.

    ``absorbing-critical`` (beta = 0 regime): right-limit fugacity
    m_plus = Phi(c).
    ``absorbing-subcritical`` (0 < beta < 1 regime): left-limit fugacity
    Phi(c), so m_plus = Phi(c) (2p-1)/(2p-1+alpha N^beta).
    """
    phi_c = thermo.phi(density)
    if name == "absorbing-critical":
        m_plus = phi_c
    elif name == "absorbing-subcritical":
        m_plus = (phi_c * params.drift
                  / (params.drift + params.destruction_factor))
    else:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESETS}")
    return build_profile(params, window, m_plus=m_plus,
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
