"""Spans around calls into each zrhydro layer, and the micro-runs.

The tracer patches public functions and methods from outside the package
and restores them afterwards.  A name is patched where it is looked up:
names a module imported from another (``zrhydro.harness.build_initial``)
are patched in the importing module; methods are patched on their class.
Spans live in memory as (name, start, end, parent, task) and are written
out when the run ends.  A layer's time is the self time of its spans: the
span's duration minus that of its direct children.

Some hot callees get a counting wrapper instead of a span, so their time
stays inside the caller's self time: ``mean_density`` (inside
``ThermoTable.phi``) and the two PDE solvers (inside the compose step).
"""
from __future__ import annotations

import statistics
import time

import numpy as np

import zrhydro.coupling as zcoupling
import zrhydro.engine as zengine
import zrhydro.harness as zharness
import zrhydro.oracle as zoracle
import zrhydro.pde as zpde
import zrhydro.rates as zrates
import zrhydro.rng as zrng
import zrhydro.thermo as zthermo
from workloads import HydroCritical, derived_seed
from zrhydro.profiles import DensityProfile

_clock = time.perf_counter

#: coupling engine classes and the metric prefix of each
COUPLED = (("basic", zcoupling.BasicCouplingEngine),
           ("second_class", zcoupling.SecondClassEngine),
           ("labeled", zcoupling.LabeledCouplingEngine))


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, task]
        self.counts = {}
        self.task = None
        self._stack = []
        self._saved = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, _clock(), None, parent, self.task])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int):
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def count(self, name: str, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, make):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def span(self, owners, attr, name, after=None):
        """Wrap ``owner.attr`` for each owner in one span named ``name``;
        ``after(args, result)`` records counts once the call returns."""
        def make(fn):
            def wrapped(*args, **kwargs):
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if after is not None:
                    after(args, result)
                return result
            return wrapped
        for owner in owners:
            self._patch(owner, attr, make)

    def counter(self, owners, attr, name, amount=None):
        """Count calls to ``owner.attr`` (or ``amount(result)`` per call)
        without a span."""
        counts = self.counts

        def make(fn):
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] = counts.get(name, 0) + (
                    1 if amount is None else amount(result))
                return result
            return wrapped
        for owner in owners:
            self._patch(owner, attr, make)

    def install(self):
        Eng = zengine.EventEngine
        self.span([Eng], "__init__", "engine.init")
        self.span([Eng], "run", "engine.run", after=self._after_event_run)
        self.span([Eng], "verify_rates", "engine.audit",
                  after=lambda a, r: self.count("engine.audits"))
        self.span([zharness, zengine], "build_initial", "engine.build_initial")
        self.span([zharness, zengine], "empirical_density", "engine.observe")
        for key, cls in COUPLED:
            self.span([cls], "__init__", "coupling.init")
            self.span([cls], "run", f"coupling.{key}.run",
                      after=self._after_coupled_run(key))
        self.span([zharness, zrng], "replica_stream", "rng.stream")
        self.span([zrng.UniformBlock], "__init__", "rng.block_fill")
        self.span([zharness, zrates], "rate_from_spec", "rates.parse")
        self.span([zthermo.ThermoTable], "__post_init__", "thermo.table_build")
        self.span([zthermo.ThermoTable], "phi", "thermo.phi",
                  after=lambda a, r: self.count("thermo.phi_calls"))
        self.counter([zthermo], "mean_density", "thermo.mean_density_calls")
        self.span([zharness, zpde], "compose_theorem_solution", "pde.compose")
        self.span([zpde], "kruzhkov_check", "pde.kruzhkov",
                  after=lambda a, r: self.count("pde.kruzhkov_inequalities",
                                                len(r.entries)))
        for solver in ("solve_whole_line", "solve_half_line"):
            self.counter([zpde], solver, "pde.march_steps",
                         amount=lambda grid: grid.n_steps)
        self.span([zharness, zoracle], "exact_linear_solution", "oracle.exact")
        self.span([DensityProfile], "l1_distance", "profiles.l1",
                  after=lambda a, r: self.count("profiles.l1_calls"))
        self.span([zharness], "compare", "harness.compare")

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _after_event_run(self, args, rec):
        self.count("engine.events", rec.n_events)
        self.count("engine.destroyed", rec.destroyed_count)
        self.count("engine.exited", rec.exited_left + rec.exited_right)

    def _after_coupled_run(self, key):
        def after(args, result):
            eng = args[0]
            # each engine runs once, from zero events
            self.count(f"coupling.{key}.events", eng.n_events)
            if key == "basic":
                self.count("coupling.order_violations", eng.order_violations)
            elif key == "second_class":
                self.count("coupling.second_class.conversions",
                           eng.conversions)
            else:
                self.count("coupling.labeled.discrepancy", result)
        return after

    # -- derived numbers ---------------------------------------------------

    def self_times(self) -> dict:
        """Self time summed by span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - c
        return out

    def inclusive(self, name: str) -> float:
        return sum(e - s for n, s, e, _, _ in self.spans if n == name)

    def layer_metrics(self) -> dict:
        """The per-layer numbers of the traced pass, keyed by metric name."""
        st = self.self_times()
        c = self.counts
        m = {}
        for name in ("engine.run", "engine.init", "engine.build_initial",
                     "engine.observe", "engine.audit", "coupling.init",
                     "rng.stream", "rng.block_fill", "rates.parse",
                     "thermo.table_build", "thermo.phi", "pde.compose",
                     "pde.kruzhkov", "oracle.exact", "profiles.l1"):
            m[name + "_s"] = st.get(name, 0.0)
        for name in ("engine.events", "engine.audits", "engine.destroyed",
                     "engine.exited", "coupling.order_violations",
                     "coupling.second_class.conversions",
                     "coupling.labeled.discrepancy", "thermo.phi_calls",
                     "thermo.mean_density_calls", "pde.kruzhkov_inequalities",
                     "pde.march_steps", "profiles.l1_calls"):
            m[name] = c.get(name, 0)
        for key, _ in COUPLED:
            busy = st.get(f"coupling.{key}.run", 0.0)
            events = c.get(f"coupling.{key}.events", 0)
            m[f"coupling.{key}.events_per_s"] = events / busy if busy else 0.0
        m["harness.compare_s"] = self.inclusive("harness.compare")
        m["harness.self_s"] = st.get("harness.compare", 0.0)
        return m

    def all_events(self) -> int:
        return self.counts.get("engine.events", 0) + sum(
            self.counts.get(f"coupling.{key}.events", 0) for key, _ in COUPLED)

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "task": t}
                for n, s, e, p, t in self.spans]


def nesting_errors(spans: list[dict]) -> list[str]:
    """Problems in dumped spans: a span that ends before it starts or
    outside its parent, or whose children cover more than its duration."""
    errs = []
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["end"] is None or s["end"] < s["start"]:
            errs.append(f"span {i} ({s['name']}) not closed in order")
            continue
        p = s["parent"]
        if p is not None:
            parent = spans[p]
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                errs.append(f"span {i} ({s['name']}) outside its parent")
            child[p] += s["end"] - s["start"]
    for i, s in enumerate(spans):
        if s["end"] is not None and s["end"] - s["start"] < child[i] - 1e-9:
            errs.append(f"span {i} ({s['name']}) has negative self time")
    return errs


# -- micro-runs ----------------------------------------------------------


def micro_runs(seed: int, tiny: bool, calls: int = 100_000,
               repeats: int = 5) -> dict:
    """Per-call costs of the event loop's parts, on a sum tree of the
    hydro-critical window filled with its real initial rates, driven by a
    recorded uniform stream.  Each figure is the median of ``repeats``."""
    if tiny:
        calls, repeats = 2_000, 3
    spec = HydroCritical(seed, tiny).spec
    N = spec.N[0]
    params = spec.model_params(N)
    rho0 = DensityProfile.from_spec(spec.rho0, du=spec.du)
    window = zengine.choose_window(rho0.support(), params, max(spec.times),
                                   spec.margin)
    gen = zrng.replica_stream(derived_seed(seed, 0, 0), 0)
    cfg = zengine.build_initial(rho0, params, window, gen)
    # the engine's initial per-site rates: N g(k), times 1 + alpha N^beta
    # at the origin
    scale = np.full(len(cfg.occ), float(N))
    scale[-cfg.x_min] *= 1.0 + params.destruction_factor
    g = zrates.rate_from_spec(spec.rate).table(int(cfg.occ.max()) + 1)
    rates = (scale * g[cfg.occ]).tolist()
    tree = zengine.SumTree(rates)
    total = sum(rates)
    block = zrng.UniformBlock(gen)
    us = [block.next() * total for _ in range(calls)]
    sites = [tree.find(u) for u in us]

    def timed(loop):
        runs = []
        for _ in range(repeats):
            t0 = _clock()
            loop()
            runs.append(_clock() - t0)
        return statistics.median(runs)

    def finds():
        find = tree.find
        for u in us:
            find(u)

    def updates():
        upd = tree.update
        for i in sites:
            upd(i, 0.5)
        for i in sites:
            upd(i, -0.5)

    nxt = zrng.UniformBlock(gen).next

    def draws():
        for _ in range(calls):
            nxt()

    occ = cfg.occ
    averages = max(calls // 500, 10)

    def block_averages():
        for _ in range(averages):
            zengine.block_average(occ, spec.ell)

    return {
        "engine.sumtree_find_ns": timed(finds) / calls * 1e9,
        "engine.sumtree_update_ns": timed(updates) / (2 * calls) * 1e9,
        "rng.uniform_next_ns": timed(draws) / calls * 1e9,
        "engine.block_average_us": timed(block_averages) / averages * 1e6,
        "engine.micro_calls": calls,
        "engine.micro_tree_size": tree.n,
    }
