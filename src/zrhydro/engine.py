"""Exact continuous-time kinetic Monte Carlo for the accelerated dynamics.

The process runs on a finite lattice window.  Per-site event rates are
``N * g(occupation)``, with the origin carrying the extra destruction
factor ``1 + alpha * N**beta``.  Time is macroscopic: waiting times are
exponential against the total (already accelerated) rate.

``GillespieLoop`` is the one event loop of the package (Gillespie direct
method; site selection on a binary-indexed sum tree, so each event costs
O(log window)).  It serves this module's single-copy ``EventEngine`` and
the coupled engines in ``coupling``; a process supplies only its state,
its per-site rate and its per-event rule.

The loop runs most events in a compiled kernel (``_kernel.c``, built on
first use by ``_ckernel``) that repeats the Python loop operation for
operation, so both give bit-identical trajectories.  The kernel hands
every event that needs Python back to the loop: observer times, audits,
the event budget, the leak cap, empty-site picks and events that straddle
two uniform blocks; a block that runs out between events is refilled
without leaving ``_stretch``.  The same library builds array-backed sum
trees.  The Python loop is the reference, and runs everything when no C
compiler works; ``TrajectoryRecord.kernel`` says which one ran.
"""
from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass

import numpy as np

from . import _ckernel
from .profiles import DensityProfile
from .rates import RateFunction
from .rng import UniformBlock

#: audit cadence (conservation + sum-tree consistency), in events
AUDIT_EVERY = 100_000
#: relative tolerance between the running total rate and a full rebuild
RATE_REL_TOL = 1e-9
#: default cap on mass allowed to leave an open window
LEAK_FRACTION = 1e-3
#: events one ``run`` may take before ``EventBudgetError``
MAX_EVENTS = 500_000_000


class SimulationError(RuntimeError):
    pass


class LeakageError(SimulationError):
    """Open-boundary exits exceeded the configured fraction of the mass."""


class EventBudgetError(SimulationError):
    """Event budget exhausted before reaching the requested time."""


class RateConsistencyError(SimulationError):
    """Incrementally maintained rates drifted from a from-scratch rebuild."""


@dataclass(frozen=True)
class ModelParams:
    """Asymmetry p, destruction intensity alpha, exponent beta, scaling N."""

    p: float
    alpha: float
    beta: float
    N: int

    def __post_init__(self):
        if not 0.5 < self.p <= 1.0:
            raise ValueError("asymmetry p must lie in (1/2, 1]")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and non-negative")
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if self.N < 1:
            raise ValueError("N must be a positive integer")

    @property
    def drift(self) -> float:
        """Macroscopic transport speed (2p - 1)."""
        return 2.0 * self.p - 1.0

    @property
    def destruction_factor(self) -> float:
        """alpha * N**beta, the extra rate factor at the origin."""
        return self.alpha * float(self.N) ** self.beta

    @property
    def limit_destruction(self) -> float:
        """lim alpha N^beta, the regime: 0 if beta < 0 or alpha = 0 (no
        boundary), alpha if beta = 0 (Dirichlet map), inf if beta > 0."""
        if self.alpha == 0.0 or self.beta < 0:
            return 0.0
        return self.alpha if self.beta == 0 else math.inf


@dataclass
class Configuration:
    """Occupation numbers on [x_min, x_max] plus event bookkeeping."""

    x_min: int
    occ: np.ndarray
    closed: bool = False
    destroyed_count: int = 0
    exited_left: int = 0
    exited_right: int = 0

    def __post_init__(self):
        self.occ = np.asarray(self.occ, dtype=np.int64)
        if np.any(self.occ < 0):
            raise ValueError("occupations must be non-negative")

    @property
    def x_max(self) -> int:
        return self.x_min + len(self.occ) - 1

    @property
    def total_mass(self) -> int:
        return int(self.occ.sum())

    def copy(self) -> "Configuration":
        return Configuration(self.x_min, self.occ.copy(), self.closed,
                             self.destroyed_count, self.exited_left,
                             self.exited_right)


@dataclass
class TrajectoryRecord:
    t_end: float
    n_events: int
    wall_time: float
    destroyed_count: int
    exited_left: int
    exited_right: int
    #: the event loop that ran: "c" (compiled kernel) or "python"
    kernel: str


class SnapshotObserver:
    """Records (t, occupations) at the configured times."""

    def __init__(self, times):
        self.times = sorted(float(t) for t in times)
        self.snapshots: list[tuple[float, np.ndarray]] = []

    def notify(self, t: float, engine: "EventEngine"):
        self.snapshots.append((t, engine.occupations()))


class CallbackObserver:
    def __init__(self, times, fn):
        self.times = sorted(float(t) for t in times)
        self.fn = fn

    def notify(self, t: float, engine: "EventEngine"):
        self.fn(t, engine)


class SumTree:
    """Binary-indexed tree over non-negative per-site rates.

    The tree owns ``values``, the per-site rates, beside its nodes
    ``tree``.  Both are lists when the tree is built from a list (the
    Python loop indexes them faster) and numpy arrays when it is built
    from an array (the compiled kernel shares them); ``rebuild`` and
    ``set`` change them in place.  ``rebuild`` forms an array-backed
    tree's nodes in the compiled library when one loads.  ``set`` moves a
    value and the nodes together, as the kernel's ``refresh()`` does;
    ``update`` moves the nodes only.
    """

    def __init__(self, values):
        self.n = n = len(values)
        if isinstance(values, np.ndarray):
            self.values, self.tree = np.zeros(n), np.zeros(n + 1)
        else:
            self.values, self.tree = [0.0] * n, [0.0] * (n + 1)
        self.rebuild(values)

    def rebuild(self, values):
        """Node j sums values[j - lowbit(j):j] in index order, exactly as
        adding each value to its ancestors one at a time would; a
        running sum over the aligned blocks of each size gives them
        all."""
        n = self.n
        v = np.asarray(values, dtype=np.float64)
        lib = None if isinstance(self.tree, list) else _ckernel.load()
        if lib is not None:
            self.values[:] = v
            lib.zrh_build(self.values, self.tree, n)
            return
        t = np.zeros(n + 1)
        k = 1
        while k <= n:
            m = n // k
            sums = np.add.accumulate(v[:m * k].reshape(m, k), axis=1)[:, -1]
            t[k::2 * k] = sums[::2]
            k *= 2
        if isinstance(self.tree, list):
            v, t = v.tolist(), t.tolist()
        self.values[:], self.tree[:] = v, t

    def set(self, i: int, r: float) -> float:
        """Set site ``i`` to rate ``r``; returns the change of the total.
        Walks the nodes itself, as a call to ``update`` would add a tenth
        to each refresh of the Python loop."""
        v, t, n = self.values, self.tree, self.n
        d = r - v[i]
        v[i] += d
        j = i + 1
        while j <= n:
            t[j] += d
            j += j & (-j)
        return d

    def update(self, i: int, delta: float):
        t = self.tree
        n = self.n
        j = i + 1
        while j <= n:
            t[j] += delta
            j += j & (-j)

    def find(self, u: float) -> int:
        """Largest index with prefix sum <= u (rate-proportional pick)."""
        t = self.tree
        pos = 0
        bit = 1 << (self.n.bit_length())
        while bit:
            nxt = pos + bit
            if nxt <= self.n and t[nxt] < u:
                pos = nxt
                u -= t[nxt]
            bit >>= 1
        return min(pos, self.n - 1)


class GillespieLoop:
    """The Gillespie direct-method event loop that every engine runs.

    Each event draws four uniforms in a fixed order: the exponential
    waiting time, the rate-proportional site (a sum-tree pick), the
    channel and the direction.  The loop also owns the observer schedule,
    the event budget ``MAX_EVENTS``, the leak cap, the audit cadence and
    the rate audit itself, the sum tree ``_tree``, which holds the
    per-site rates, and the g table, sized once to cover every occupation
    the window's particles can reach.

    A process supplies its state, as numpy arrays until ``_start``, and
    - ``_site_rates()``: the total event rate of every site, from scratch,
      as a numpy array, with the same floating-point operations as its
      step closure; it must accept the state as lists or as arrays;
    - ``_step()``: the per-event closure ``step(x, uch, u, total)``, which
      applies one event at site ``x`` with channel and direction uniforms
      ``uch`` and ``u``, sets the rate of each site it changed with
      ``_tree.set``, and returns the new total rate, or None when ``x``
      holds nothing that can move;
    - ``_balance()``: a tuple, one entry per copy, of the particles in
      the window plus those destroyed (or killed) and those that exited;
      no event changes it, so ``_check_mass`` compares it, at every audit
      and at the end of every run, with its value at the start;
    - its counters in the list ``_cnt``, the first three of which ``run``
      reports as destroyed, left and right exits, and for the compiled
      kernel its mode ``_MODE`` and the names ``_OCC`` of its two
      occupation lists, whose larger starting total bounds every
      occupation (no event creates a particle);
    - optionally ``_sync()`` (publish state before observers and errors).

    The loop reads the window from the starting ``Configuration`` and
    splits the origin's rate by ``factor`` (``_origin_scale``).  The
    kernel's other process constants, the conversion rate ``_conv`` and
    ``order_guard``, default to off (see ``_kernel.c``).

    The closures capture the live containers, which audits update in
    place, so they stay valid for the whole run.  With the compiled kernel
    those containers are numpy arrays that the kernel shares; the Python
    loop turns them into lists, which it indexes faster.
    """

    _conv = 0.0
    order_guard = False

    def __init__(self, config: Configuration, factor: float,
                 params: ModelParams, rate: RateFunction,
                 rng: np.random.Generator, leak_fraction: float):
        self.params = params
        self.rate = rate
        self.rng = rng
        self.leak_fraction = leak_fraction
        self.time = 0.0
        self.n_events = 0
        self._x_min, self._closed = config.x_min, config.closed
        self._n = n = len(config.occ)
        x0 = -self._x_min
        self._origin = x0 if 0 <= x0 < n else -1
        self._origin_scale(factor)

    def _origin_scale(self, factor: float):
        """Set the per-site rate factors ``_scale``, N everywhere and
        N (1 + factor) at the origin, and ``_d0``, the origin's extra
        share factor / (1 + factor)."""
        self._scale = np.full(self._n, float(self.params.N))
        if self._origin >= 0:
            self._scale[self._origin] = self.params.N * (1.0 + factor)
        self._d0 = factor / (1.0 + factor)

    def _start(self):
        """Build the g table, site rates and sum tree once the process's
        state is in place, as arrays that the compiled kernel shares if
        one loads, or as lists for the Python loop.  The starting balance
        sets the leak cap."""
        a, b = (getattr(self, name) for name in self._OCC)
        self._gt = self.rate.table(int(max(a.sum(), b.sum())) + 2)
        self._cnt = np.array(self._cnt, dtype=np.int64)
        rates = self._site_rates()
        self._total = self._rebuilt = math.fsum(rates.tolist())
        self._mass0 = self._balance()
        self._leak_cap = self.leak_fraction * max(sum(self._mass0), 1)
        self._ub = UniformBlock(self.rng)
        lib = _ckernel.load()
        self.kernel = "python" if lib is None else "c"
        if lib is not None:
            self._tree = SumTree(rates)
            st = _ckernel.State(mode=self._MODE, n=self._n,
                                origin=self._origin, closed=self._closed,
                                guard=self.order_guard, p=self.params.p,
                                d0=self._d0, conv=self._conv,
                                leak_cap=self._leak_cap)
            st.share(gt=self._gt, rates=self._tree.values,
                     tree=self._tree.tree, cnt=self._cnt, scale=self._scale,
                     a=a, b=b)
            self._st, self._st_buf, self._kernel_run = st, None, lib.zrh_run
        else:
            self._tree = SumTree(rates.tolist())
            for name in dict.fromkeys(("_gt", "_scale", "_cnt") + self._OCC):
                setattr(self, name, getattr(self, name).tolist())

    def _stretch(self, t, total, events, t_stop, ev_max):
        """Run compiled events from (t, total, events) up to the next one
        that needs Python; returns the new (t, total, events).

        A kernel that stopped only because the uniform block ran out,
        exactly at an event boundary, is refilled and run again: the
        Python loop would draw next, and so refill the block the same way
        at the same point of the stream."""
        st, ub = self._st, self._ub
        st.events, st.ev_max = events, ev_max
        st.t, st.total, st.t_stop = t, total, t_stop
        while True:
            if ub._buf is not self._st_buf:
                self._st_buf = ub._buf
                st.share(buf=ub._buf)
                st.buf_n = len(ub._buf)
            st.i = ub._i
            self._kernel_run(st)
            ub._i = st.i
            if not (st.i == st.buf_n and st.events < ev_max
                    and st.total > 1e-300 and st.t < t_stop):
                return st.t, st.total, st.events
            ub.refill()

    # -- hooks -----------------------------------------------------------

    def _sync(self):
        pass

    # -- shared checks ---------------------------------------------------

    def _check_mass(self):
        now = self._balance()
        if now != self._mass0:
            raise SimulationError(
                f"particle conservation broken: {now} != {self._mass0}")

    def _check_leak(self, exits: int):
        if exits > self._leak_cap:
            raise LeakageError("open-window exits exceeded "
                               f"{self.leak_fraction:g} of the mass")

    def verify_rates(self):
        """Recompute all rates from scratch; raise on drift."""
        fresh = self._site_rates()
        held = self._tree.values
        drift = np.abs(fresh - np.asarray(held, dtype=np.float64))
        bad = np.flatnonzero(
            drift > RATE_REL_TOL * np.maximum(1.0, np.abs(fresh)))
        if bad.size:
            i = int(bad[0])
            raise RateConsistencyError(f"site {i}: {held[i]} != {fresh[i]}")
        # the running total carries rounding from every total since the
        # last rebuild, so its bound scales with that rebuild's total too
        root = math.fsum(fresh.tolist())
        if abs(root - self._total) > RATE_REL_TOL * max(1.0, root,
                                                        self._rebuilt):
            raise RateConsistencyError(
                f"running total {self._total} != rebuilt {root}")
        self._tree.rebuild(fresh)
        self._total = self._rebuilt = root

    # -- main loop -------------------------------------------------------

    def run(self, t_end: float, observers=()) -> TrajectoryRecord:
        if t_end < self.time:
            raise ValueError("t_end before current time")
        wall0 = _time.perf_counter()
        events_start = self.n_events
        self._loop(t_end, observers)
        destroyed, left, right = (int(k) for k in self._cnt[:3])
        return TrajectoryRecord(
            t_end=self.time, n_events=self.n_events - events_start,
            wall_time=_time.perf_counter() - wall0,
            destroyed_count=destroyed, exited_left=left, exited_right=right,
            kernel=self.kernel)

    def _loop(self, t_end: float, observers):
        sched = sorted(
            (tt, k, ob) for k, ob in enumerate(observers)
            for tt in ob.times if self.time - 1e-15 <= tt <= t_end)
        si, n_sched = 0, len(sched)

        step = self._step()
        nxt = self._ub.next
        find = self._tree.find
        stretch = self._stretch if self.kernel == "c" else None
        log = math.log
        every = AUDIT_EVERY
        t = self.time
        total = self._total
        # size the uniform blocks for the events expected by t_end, four
        # uniforms each, with a margin of four Poisson deviations
        m = min(total * (t_end - t), MAX_EVENTS)
        self._ub.plan(int(4 * (m + 4 * math.sqrt(m) + 16)))
        events = self.n_events
        limit = events + MAX_EVENTS
        next_audit = (events // every + 1) * every

        try:
            while True:
                if stretch is not None:
                    # compiled events, then this loop runs the one that
                    # needs Python
                    t, total, events = stretch(
                        t, total, events,
                        sched[si][0] if si < n_sched else t_end,
                        min(limit, next_audit - 1))
                if t >= t_end or total <= 1e-300:
                    # at the end time already: draw nothing
                    t_ev = t_end + 1.0
                else:
                    t_ev = t - log(1.0 - nxt()) / total
                # scheduled times never exceed t_end
                while si < n_sched and sched[si][0] <= t_ev:
                    tt, _, ob = sched[si]
                    self.time, self._total, self.n_events = tt, total, events
                    self._sync()
                    ob.notify(tt, self)
                    si += 1
                if t_ev > t_end:
                    t = t_end
                    break
                t = t_ev

                x = find(nxt() * total)
                uch = nxt()
                new_total = step(x, uch, nxt(), total)
                if new_total is None:
                    # an empty site, reachable only through float underflow
                    # in the tree: rebuild and skip
                    self.time, self._total = t, total
                    self.verify_rates()
                    total = self._total
                    continue
                total = new_total

                events += 1
                if events > limit:
                    raise EventBudgetError(f"exceeded {MAX_EVENTS} events")
                if events == next_audit:
                    next_audit += every
                    self.time, self._total, self.n_events = t, total, events
                    self.verify_rates()
                    self._check_mass()
                    total = self._total
        except SimulationError:
            self.time, self._total, self.n_events = t, total, events
            self._sync()
            raise

        self.time, self._total, self.n_events = t, total, events
        self.verify_rates()
        self._check_mass()
        self._sync()


class EventEngine(GillespieLoop):
    """Gillespie direct-method engine owning one Configuration."""

    _MODE, _OCC = 0, ("_occ", "_occ")

    def __init__(self, config: Configuration, params: ModelParams,
                 rate: RateFunction, rng: np.random.Generator,
                 leak_fraction: float = LEAK_FRACTION):
        super().__init__(config, params.destruction_factor, params, rate,
                         rng, leak_fraction)
        self.config = config
        self._occ = config.occ.copy()
        self._cnt = [config.destroyed_count, config.exited_left,
                     config.exited_right]
        self._start()

    def occupations(self) -> np.ndarray:
        return np.array(self._occ, dtype=np.int64)

    def _site_rates(self):
        return np.asarray(self._scale) * np.asarray(self._gt)[self._occ]

    def _sync(self):
        c = self.config
        c.occ = self.occupations()
        c.destroyed_count, c.exited_left, c.exited_right = (
            int(k) for k in self._cnt)

    def _balance(self):
        return (int(np.sum(self._occ) + np.sum(self._cnt)),)

    def _step(self):
        occ, scale, gt, cnt = self._occ, self._scale, self._gt, self._cnt
        put, leak = self._tree.set, self._check_leak
        n, origin, p, d0 = self._n, self._origin, self.params.p, self._d0
        closed = self._closed

        def step(x, uch, u, total):
            k = occ[x]
            if k <= 0:
                return None
            if x == origin:
                if u < d0:
                    occ[x] = k - 1
                    cnt[0] += 1
                    return total + put(x, scale[x] * gt[k - 1])
                go_right = u < d0 + (1.0 - d0) * p
            else:
                go_right = u < p
            y = x + 1 if go_right else x - 1
            if y < 0 or y >= n:
                if closed:
                    return total  # reflecting edge: move rejected
                occ[x] = k - 1
                cnt[1 if y < 0 else 2] += 1
                total += put(x, scale[x] * gt[k - 1])
                leak(cnt[1] + cnt[2])
                return total
            occ[x] = k - 1
            ky = occ[y]
            occ[y] = ky + 1
            total += put(y, scale[y] * gt[ky + 1])
            return total + put(x, scale[x] * gt[k - 1])

        return step


# -- initial conditions and observables ---------------------------------


def choose_window(support, params: ModelParams, t_end: float,
                  margin: float) -> tuple[int, int]:
    """Lattice window covering the initial support plus drift and margin."""
    if margin <= 0:
        raise ValueError("margin must be positive")
    s_min, s_max = support
    N = params.N
    lo = math.floor((s_min - margin) * N)
    hi = math.ceil((s_max + params.drift * t_end + margin) * N)
    return int(lo), int(hi)


def build_initial(rho0: DensityProfile, params: ModelParams,
                  window: tuple[int, int], rng: np.random.Generator,
                  closed: bool = False) -> Configuration:
    """Product-Poisson initial configuration with mean rho0(x/N)."""
    x_min, x_max = window
    if x_max < x_min:
        raise ValueError("empty window")
    xs = np.arange(x_min, x_max + 1)
    means = rho0(xs / params.N)
    occ = rng.poisson(means).astype(np.int64)
    return Configuration(x_min=int(x_min), occ=occ, closed=closed)


def block_average(occ: np.ndarray, ell: int) -> np.ndarray:
    """(2l+1)-site moving average of the occupation field."""
    if ell < 0:
        raise ValueError("block halfwidth must be non-negative")
    if 2 * ell + 1 > len(occ):
        raise ValueError("block wider than the window")
    kernel = np.full(2 * ell + 1, 1.0 / (2 * ell + 1))
    return np.convolve(occ.astype(float), kernel, mode="same")


def empirical_density(config: Configuration, params: ModelParams,
                      ell: int) -> DensityProfile:
    """Block-averaged empirical density on the macroscopic grid (du = 1/N)."""
    vals = block_average(config.occ, ell)
    return DensityProfile(u_min=config.x_min / params.N, du=1.0 / params.N,
                          values=vals)
