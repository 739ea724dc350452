"""Coupled dynamics: the two-copy basic coupling, second-class particles
and the labeled coupling for strong destruction, with the counts each one
reports (order violations, conversions, the surviving discrepancy).

Each coupled engine runs on ``engine.GillespieLoop`` and supplies only its
state, its per-site total rates and its per-event rule, which splits one
site event into the channels of the coupling.  The loop consumes
randomness in the same pattern for every process (waiting time, site,
channel, direction per event), so with matched seeds and a degenerate
second copy the basic coupling reproduces the single-copy engine's
trajectory byte for byte.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import LEAK_FRACTION, Configuration, GillespieLoop, ModelParams
from .rates import RateFunction


@dataclass
class PairConfiguration:
    omega: Configuration
    varpi: Configuration

    def __post_init__(self):
        if (self.omega.x_min != self.varpi.x_min
                or len(self.omega.occ) != len(self.varpi.occ)):
            raise ValueError("coupled copies must share a window")
        if self.omega.closed != self.varpi.closed:
            raise ValueError("coupled copies must share the boundary mode")


class BasicCouplingEngine(GillespieLoop):
    """Two copies evolving under the coupled generator.

    Shared moves fire at the minimum of the two site rates; each copy
    compensates with a solo channel at the rate difference, and the
    origin destruction splits the same way.  The per-site total is
    therefore scale * max(g(omega_x), g(varpi_x)).
    """

    _MODE, _OCC = 1, ("_a", "_b")

    def __init__(self, pair: PairConfiguration, params: ModelParams,
                 rate: RateFunction, rng: np.random.Generator,
                 leak_fraction: float = LEAK_FRACTION,
                 order_guard: bool = False):
        super().__init__(pair.omega, params.destruction_factor, params, rate,
                         rng, leak_fraction)
        self.pair = pair
        self.order_guard = order_guard
        ca, cb = pair.omega, pair.varpi
        # destroyed, left and right exits of each copy, order violations
        self._cnt = [ca.destroyed_count, ca.exited_left, ca.exited_right,
                     cb.destroyed_count, cb.exited_left, cb.exited_right, 0]

        self._a = pair.omega.occ.copy()
        self._b = pair.varpi.occ.copy()
        if order_guard and np.any(self._a > self._b):
            raise ValueError("order guard requires omega <= varpi initially")
        self._start()

    @property
    def order_violations(self) -> int:
        return int(self._cnt[6])

    def occupations_omega(self) -> np.ndarray:
        return np.array(self._a, dtype=np.int64)

    def occupations_varpi(self) -> np.ndarray:
        return np.array(self._b, dtype=np.int64)

    def _site_rates(self):
        gt = np.asarray(self._gt)
        return np.asarray(self._scale) * np.maximum(gt[self._a], gt[self._b])

    def _sync(self):
        ca, cb = self.pair.omega, self.pair.varpi
        ca.occ = self.occupations_omega()
        cb.occ = self.occupations_varpi()
        (ca.destroyed_count, ca.exited_left, ca.exited_right,
         cb.destroyed_count, cb.exited_left, cb.exited_right) = (
            int(k) for k in self._cnt[:6])

    def _balance(self):
        return (int(np.sum(self._a) + np.sum(self._cnt[:3])),
                int(np.sum(self._b) + np.sum(self._cnt[3:6])))

    def _step(self):
        a, b, scale, gt, cnt = self._a, self._b, self._scale, self._gt, \
            self._cnt
        put, leak = self._tree.set, self._check_leak
        n, origin, p, d0 = self._n, self._origin, self.params.p, self._d0
        closed, guard = self._closed, self.order_guard

        def step(x, uch, u, total):
            ka, kb = a[x], b[x]
            ga, gb = gt[ka], gt[kb]
            mx = ga if ga > gb else gb
            if mx <= 0.0:
                return None
            mn = ga if ga < gb else gb
            r = uch * mx
            move_a = r < ga if r >= mn else True
            move_b = True if r < mn else r >= ga

            if x == origin and u < d0:
                if move_a:
                    a[x] = ka - 1
                    cnt[0] += 1
                if move_b:
                    b[x] = kb - 1
                    cnt[3] += 1
            else:
                if x == origin:
                    go_right = u < d0 + (1.0 - d0) * p
                else:
                    go_right = u < p
                y = x + 1 if go_right else x - 1
                if y < 0 or y >= n:
                    if not closed:
                        side = 1 if y < 0 else 2
                        if move_a:
                            a[x] = ka - 1
                            cnt[side] += 1
                        if move_b:
                            b[x] = kb - 1
                            cnt[3 + side] += 1
                        leak(cnt[1] + cnt[2] + cnt[4] + cnt[5])
                else:
                    if move_a:
                        a[x] = ka - 1
                        a[y] += 1
                    if move_b:
                        b[x] = kb - 1
                        b[y] += 1
                    total += put(y, scale[y] * max(gt[a[y]], gt[b[y]]))
                    if guard and (a[y] > b[y]):
                        cnt[6] += 1
            total += put(x, scale[x] * max(gt[a[x]], gt[b[x]]))
            if guard and (a[x] > b[x]):
                cnt[6] += 1
            return total

        return step


# -- second-class particles ---------------------------------------------


@dataclass
class SecondClassState:
    omega: Configuration
    zeta: Configuration
    conversions: int

    @property
    def k_t(self) -> int:
        """Current number of second-class particles."""
        return int(self.zeta.occ.sum())


def second_class_left_mass(state: SecondClassState, N: int) -> float:
    """N^{-1} * sum of second-class particles at sites <= 0."""
    xs = np.arange(state.zeta.x_min, state.zeta.x_min + len(state.zeta.occ))
    return float(state.zeta.occ[xs <= 0].sum()) / N


class SecondClassEngine(GillespieLoop):
    """(omega, zeta) process: destruction replaced by conversion.

    omega-particles jump at N g(omega_x); zeta-particles at
    N (g(omega_x + zeta_x) - g(omega_x)); at the origin an omega-particle
    converts to a zeta-particle at rate alpha N^{1+beta} g(omega_0).
    The sum omega + zeta is a plain zero-range trajectory.
    """

    _MODE, _OCC = 2, ("_w", "_z")

    def __init__(self, initial: Configuration, params: ModelParams,
                 rate: RateFunction, rng: np.random.Generator,
                 leak_fraction: float = LEAK_FRACTION):
        # conversion, not destruction, acts at the origin: N everywhere
        super().__init__(initial, 0.0, params, rate, rng, leak_fraction)
        self._w = initial.occ.copy()
        self._z = np.zeros(self._n, dtype=np.int64)
        self._conv = params.alpha * float(params.N) ** (1.0 + params.beta)
        # conversions, left and right exits
        self._cnt = [0, 0, 0]
        self._start()

    @property
    def conversions(self) -> int:
        return int(self._cnt[0])

    def _site_rates(self):
        gt, w, o = np.asarray(self._gt), np.asarray(self._w), self._origin
        r = np.asarray(self._scale) * gt[w + np.asarray(self._z)]
        if o >= 0:
            r[o] += self._conv * gt[w[o]]
        return r

    def state(self) -> SecondClassState:
        return SecondClassState(
            omega=Configuration(self._x_min, np.array(self._w, dtype=np.int64),
                                self._closed),
            zeta=Configuration(self._x_min, np.array(self._z, dtype=np.int64),
                               self._closed),
            conversions=self.conversions)

    def _balance(self):
        return (int(np.sum(self._w) + np.sum(self._z) + self._cnt[1]
                    + self._cnt[2]),)

    def _step(self):
        w, z, scale, gt, cnt = self._w, self._z, self._scale, self._gt, \
            self._cnt
        put, leak = self._tree.set, self._check_leak
        n, origin, p = self._n, self._origin, self.params.p
        conv, closed = self._conv, self._closed

        def site_rate(i):
            r = scale[i] * gt[w[i] + z[i]]
            if i == origin:
                r += conv * gt[w[i]]
            return r

        def step(x, uch, u, total):
            kw, kz = w[x], z[x]
            tot_occ = kw + kz
            gw = gt[kw]
            gwz = gt[tot_occ]
            site_total = scale[x] * gwz + (conv * gw if x == origin else 0.0)
            if site_total <= 0.0:
                return None
            r = uch * site_total
            if x == origin and r < conv * gw:
                # conversion: omega-particle becomes a second-class particle
                w[x] = kw - 1
                z[x] = kz + 1
                cnt[0] += 1
            else:
                if x == origin:
                    r -= conv * gw
                moved_w = r < scale[x] * gw
                y = x + 1 if u < p else x - 1
                if y < 0 or y >= n:
                    if not closed:
                        if moved_w:
                            w[x] = kw - 1
                        else:
                            z[x] = kz - 1
                        cnt[1 if y < 0 else 2] += 1
                        leak(cnt[1] + cnt[2])
                else:
                    if moved_w:
                        w[x] = kw - 1
                        w[y] += 1
                    else:
                        z[x] = kz - 1
                        z[y] += 1
                    total += put(y, site_rate(y))
            return total + put(x, site_rate(x))

        return step


# -- labeled coupling for strong destruction ----------------------------


class LabeledCouplingEngine(GillespieLoop):
    """Coupled (eta, omega): instant-kill process vs the beta = 1/2 process.

    eta <= omega pointwise; coupled pairs move together at N g(eta_x),
    uncoupled omega-particles at N (g(omega_x) - g(eta_x)).  The origin
    carries the combined channel at rate (N + alpha N^{3/2}) g(omega_0)
    with the three-way jump/jump/die split.  eta-particles reaching the
    origin die instantly.
    """

    _MODE, _OCC = 3, ("_omega", "_eta")

    def __init__(self, initial: Configuration, params: ModelParams,
                 rate: RateFunction, rng: np.random.Generator,
                 leak_fraction: float = LEAK_FRACTION):
        super().__init__(initial, params.alpha * math.sqrt(float(params.N)),
                         params, rate, rng, leak_fraction)
        self._eta = initial.occ.copy()
        self._omega = initial.occ.copy()
        if self._origin >= 0:
            # eta-particles at the origin die at time zero
            self._eta[self._origin] = 0
        self._cnt = [0, 0]  # exits, origin kills
        self._start()

    def _site_rates(self):
        return np.asarray(self._scale) * np.asarray(self._gt)[self._omega]

    def _balance(self):
        return (int(np.sum(self._omega) + np.sum(self._cnt)),)

    def discrepancy(self) -> int:
        """Surviving uncoupled omega-particles: sum |eta - omega|."""
        return int(np.sum(self._omega) - np.sum(self._eta))

    def run(self, t_end: float) -> int:
        """Run to ``t_end``; returns the discrepancy.  A run that starts at
        or past ``t_end`` draws nothing."""
        if self.time < t_end:
            self._loop(t_end, ())
        return self.discrepancy()

    def _step(self):
        eta, omg, scale, gt, cnt = self._eta, self._omega, self._scale, \
            self._gt, self._cnt
        put, leak = self._tree.set, self._check_leak
        n, origin, p = self._n, self._origin, self.params.p
        kill_p, closed = self._d0, self._closed

        def step(x, uch, u, total):
            ko, ke = omg[x], eta[x]
            go = gt[ko]
            if go <= 0.0:
                return None

            if x == origin:
                # three-way split for an uncoupled particle at the origin
                if u < kill_p:
                    omg[x] = ko - 1
                    cnt[1] += 1
                else:
                    rest = (u - kill_p) / (1.0 - kill_p)
                    y = x + 1 if rest < p else x - 1
                    if y < 0 or y >= n:
                        if not closed:
                            omg[x] = ko - 1
                            cnt[0] += 1
                            leak(cnt[0])
                    else:
                        omg[x] = ko - 1
                        omg[y] += 1
                        total += put(y, scale[y] * gt[omg[y]])
            else:
                coupled = uch * go < gt[ke]
                y = x + 1 if u < p else x - 1
                if y < 0 or y >= n:
                    if not closed:
                        omg[x] = ko - 1
                        if coupled:
                            eta[x] = ke - 1
                        cnt[0] += 1
                        leak(cnt[0])
                else:
                    omg[x] = ko - 1
                    omg[y] += 1
                    if coupled:
                        eta[x] = ke - 1
                        if y != origin:
                            eta[y] += 1
                        # arriving at the origin kills the eta-particle
                    total += put(y, scale[y] * gt[omg[y]])
            return total + put(x, scale[x] * gt[omg[x]])

        return step


def run_labeled_coupling(initial: Configuration, params: ModelParams,
                         rate: RateFunction, t_end: float,
                         rng: np.random.Generator, **kwargs) -> int:
    """Run the labeled dynamics; returns the surviving discrepancy count."""
    if params.beta < 1.0:
        raise ValueError("labeled coupling targets the beta >= 1 regime")
    eng = LabeledCouplingEngine(initial, params, rate, rng, **kwargs)
    return eng.run(t_end)
