"""The benchmark's three workloads: inputs made from a seed, tasks, checks.

A workload is a list of rounds; a round is a fixed list of tasks and is the
workload's unit of verdict.  A task's ``run`` calls into zrhydro's public
API and is the only part that is timed; its ``check`` then verifies the
output outside the timed region.  The package receives only generated
inputs: seeds, profiles and parameters.

Every module-level function of zrhydro is reached through its module
(``zengine.build_initial``), never through a local name, so the tracer's
patches on those module attributes see the benchmark's own calls too.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import zrhydro.coupling as zcoupling
import zrhydro.engine as zengine
import zrhydro.harness as zharness
import zrhydro.oracle as zoracle
import zrhydro.pde as zpde
import zrhydro.rates as zrates
import zrhydro.rng as zrng
import zrhydro.testfuncs as ztestfuncs
import zrhydro.thermo as zthermo
from zrhydro.profiles import DensityProfile

#: the step profile of the paper's headline regime, used by every workload
RHO0 = "-1:0:1"
P = 0.75
ALPHA = 1.0
#: the fewest tasks a run makes, so that task_tail_s always has ten
#: tasks beyond its percentile
MIN_TASKS = 11
#: round index of the warm-up task, which no timed round uses
WARMUP_ROUND = 1_000_000
#: scratch output inside the checkout (listed in .gitignore)
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_build" / "perfbench"


@dataclass
class Outcome:
    """What a task's check found.  ``digest`` covers the bytes that the
    default-seed digest file pins; ``l1`` feeds ``l1_error``."""

    ok: bool
    note: str = ""
    l1: float | None = None
    digest: str | None = None


@dataclass
class Task:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _fmt_values(values) -> bytes:
    """Grid values at the 12 significant digits the harness CSVs use."""
    return "\n".join(f"{float(v):.12g}"
                     for v in np.ravel(values)).encode()


def derived_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _oracle(rho0: DensityProfile, params, t: float):
    lin = zoracle.LinearCaseParams(params)
    return lambda u: zoracle.exact_linear_solution(rho0, lin, t, u)


class Workload:
    """Base: subclasses set the sizes and build one round's tasks."""

    name = ""
    #: wall time of one round at the commit that defined the benchmark,
    #: on a 2-CPU machine; it fixes how many rounds a run makes, so that a
    #: run does the same work on every commit
    nominal_round_s = 1.0

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny

    def rounds_for(self, seconds: float) -> int:
        per_round = len(self.round_tasks(0))
        least = math.ceil(MIN_TASKS / per_round)
        return max(least, round(seconds / self.nominal_round_s))

    def round_tasks(self, r: int) -> list[Task]:
        raise NotImplementedError

    def warmup_tasks(self) -> list[Task]:
        """The untimed warm-up: the first task of a round no run times."""
        return self.round_tasks(WARMUP_ROUND)[:1]


class HydroCritical(Workload):
    """harness.compare() at p = 0.75, alpha = 1, beta = 0 on the step
    profile, one replica per task, against the closed-form target."""

    name = "hydro-critical"
    nominal_round_s = 2.3

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.per_round = 4
        N = 50 if tiny else 400
        # one replica's L1 distance at N = 400 is about 0.15-0.2, so the
        # per-replica tolerance sits well above it
        self.spec = zharness.ExperimentSpec(
            name=self.name, rate="linear", p=P, alpha=ALPHA, beta=0.0,
            N=(N,), rho0=RHO0, times=(0.4, 0.8), ell=3 if tiny else 10,
            replicas=1, seed=0, target="oracle",
            tolerance=0.6 if tiny else 0.3)

    def round_tasks(self, r):
        tasks = []
        for i in range(self.per_round):
            spec = dataclasses.replace(
                self.spec, seed=derived_seed(self.seed, r, i))
            tasks.append(Task(f"replica[{r},{i}]",
                              lambda spec=spec: zharness.compare(spec),
                              self._check))
        return tasks

    def _check(self, report) -> Outcome:
        if len(report.entries) != len(self.spec.times):
            return Outcome(False, "missing comparison entries")
        if not report.passed:
            worst = max(e.distance for e in report.entries)
            return Outcome(False, f"L1 {worst:.4f} above tolerance "
                                  f"{self.spec.tolerance:g}")
        return Outcome(True, l1=float(np.mean([e.distance
                                                for e in report.entries])),
                       digest=_sha(_density_csv_bytes(report)))


def _density_csv_bytes(report) -> bytes:
    """The exact bytes harness.write_density_csv produces for ``report``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        path = f"{tmp}/density.csv"
        zharness.write_density_csv(path, report)
        with open(path, "rb") as f:
            return f.read()


class ReplicasSmall(Workload):
    """Many short replicas of all four engines at small N, shaped like
    acceptance tests 06, 07 and 10."""

    name = "replicas-small"
    nominal_round_s = 0.38

    #: (engine, N, copies per round); small N dominates the task count
    MIX = (("event", 25, 8), ("labeled", 25, 4), ("labeled", 50, 2),
           ("labeled", 100, 1), ("second", 50, 2), ("second", 100, 1),
           ("second", 200, 1), ("basic", 100, 1))
    #: N in the quick mode
    TINY_N = {25: 12, 50: 16, 100: 20, 200: 24}
    #: block half-width of the observed density at N = 25
    ELL = 2
    #: window margin; the tests use 0.5, but among the thousands of
    #: replicas of a run one would then cross the leak cap now and then
    MARGIN = 1.0

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.rho0 = DensityProfile.from_spec(RHO0, du=0.01)
        self.linear = zrates.rate_from_spec("linear")
        self.indicator = zrates.rate_from_spec("indicator")

    def round_tasks(self, r):
        tasks = []
        for kind, N, copies in self.MIX:
            make = getattr(self, "_" + kind)
            for _ in range(copies):
                i = len(tasks)
                tasks.append(make(f"{kind}{N}[{r},{i}]",
                                  self.TINY_N[N] if self.tiny else N,
                                  derived_seed(self.seed, r, i)))
        return tasks

    def _open_start(self, params, t_end, tseed):
        window = zengine.choose_window(self.rho0.support(), params, t_end,
                                       self.MARGIN)
        rng = zrng.replica_stream(tseed, 0)
        cfg = zengine.build_initial(self.rho0, params, window, rng)
        return cfg, rng, cfg.total_mass

    def _event(self, label, N, tseed):
        """EventEngine, linear rate, beta = 0, observed at t = 0.8."""
        params = zengine.ModelParams(P, ALPHA, 0.0, N)
        t_end = 0.8
        excl = ((-0.05, 0.05), (params.drift * t_end - 0.05,
                                params.drift * t_end + 0.05))

        def run():
            cfg, rng, mass0 = self._open_start(params, t_end, tseed)
            eng = zengine.EventEngine(cfg, params, self.linear, rng)
            rec = eng.run(t_end)
            prof = zengine.empirical_density(cfg, params, self.ELL)
            l1 = prof.l1_distance(_oracle(self.rho0, params, t_end),
                                  -2.0, 2.0, exclude=excl)
            return cfg, rec, mass0, l1

        def check(out):
            cfg, rec, mass0, l1 = out
            now = (cfg.total_mass + cfg.destroyed_count + cfg.exited_left
                   + cfg.exited_right)
            if now != mass0:
                return Outcome(False, f"mass {now} != {mass0}")
            return Outcome(True, l1=l1, digest=_sha(
                cfg.occ.tobytes(), rec.n_events, cfg.destroyed_count,
                cfg.exited_left, cfg.exited_right))
        return Task(label, run, check)

    def _labeled(self, label, N, tseed):
        """LabeledCouplingEngine, indicator rate, beta = 1, t = 0.5."""
        params = zengine.ModelParams(P, ALPHA, 1.0, N)

        def run():
            cfg, rng, mass0 = self._open_start(params, 0.5, tseed)
            eng = zcoupling.LabeledCouplingEngine(cfg, params,
                                                  self.indicator, rng)
            disc = eng.run(0.5)
            return eng, disc, mass0

        def check(out):
            eng, disc, mass0 = out
            # the engine has no public accessor for its two occupations
            eta = np.array(eng._eta)
            omega = np.array(eng._omega)
            if not 0 <= disc <= mass0 or np.any(eta > omega):
                return Outcome(False, f"eta not below omega ({disc})")
            return Outcome(True, digest=_sha(
                eta.tobytes(), omega.tobytes(), eng.n_events, disc))
        return Task(label, run, check)

    def _second(self, label, N, tseed):
        """SecondClassEngine, linear rate, beta = -1/2, t = 1."""
        params = zengine.ModelParams(P, ALPHA, -0.5, N)

        def run():
            cfg, rng, mass0 = self._open_start(params, 1.0, tseed)
            eng = zcoupling.SecondClassEngine(cfg, params, self.linear, rng)
            rec = eng.run(1.0)
            return eng.state(), rec, mass0

        def check(out):
            st, rec, mass0 = out
            now = st.omega.total_mass + st.zeta.total_mass + rec.exited_right
            if now != mass0:
                return Outcome(False, f"pair mass {now} != {mass0}")
            return Outcome(True, digest=_sha(
                st.omega.occ.tobytes(), st.zeta.occ.tobytes(),
                rec.n_events, st.conversions, rec.exited_right))
        return Task(label, run, check)

    def _basic(self, label, N, tseed):
        """BasicCouplingEngine with order_guard on a closed window."""
        params = zengine.ModelParams(P, ALPHA, 0.0, N)
        gen = np.random.default_rng(tseed)
        sites = 2 * N + 1
        lo = gen.poisson(1.0, sites).astype(np.int64)
        hi = lo + gen.poisson(1.0, sites).astype(np.int64)
        mass0 = (int(lo.sum()), int(hi.sum()))

        def run():
            pair = zcoupling.PairConfiguration(
                zengine.Configuration(-N, lo.copy(), closed=True),
                zengine.Configuration(-N, hi.copy(), closed=True))
            eng = zcoupling.BasicCouplingEngine(
                pair, params, self.indicator, zrng.replica_stream(tseed, 1),
                order_guard=True)
            rec = eng.run(0.5)
            return pair, eng, rec

        def check(out):
            pair, eng, rec = out
            om, va = pair.omega, pair.varpi
            if eng.order_violations or np.any(om.occ > va.occ):
                return Outcome(False, f"{eng.order_violations} violations")
            masses = (om.total_mass + om.destroyed_count,
                      va.total_mass + va.destroyed_count)
            if masses != mass0:
                return Outcome(False, f"copy mass {masses} != {mass0}")
            return Outcome(True, digest=_sha(
                om.occ.tobytes(), va.occ.tobytes(), rec.n_events,
                om.destroyed_count, va.destroyed_count))
        return Task(label, run, check)


class EntropyCheck(Workload):
    """The entropy-solution PDE and its Kruzhkov check; no KMC at all.

    A round builds the thermodynamic table, then for each beta solves
    (``compose_theorem_solution``, with its boundary mass balance and its
    L1 distance to the closed form) and runs the Kruzhkov check, one task
    per test function of the family; the reports of those tasks together
    are the family's report.  The balance and the distance cost a fraction
    of a millisecond, so they ride with the solve.  Many tasks of like
    size keep the task percentiles off single short tasks, whose times
    swing by tens of percent on a loaded host.
    """

    name = "entropy-check"
    nominal_round_s = 5.3
    T = 0.8
    #: L1 distance to the closed form that the first-order scheme must meet
    L1_LIMIT = 0.05

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.du = 1 / 50 if tiny else 1 / 400
        self.rho0 = DensityProfile.from_spec(RHO0, du=self.du)
        self.linear = zrates.rate_from_spec("linear")

    def round_tasks(self, r):
        # the seed shifts the test-function family, which keeps its size
        # and so the cost of the check
        gen = np.random.default_rng(derived_seed(self.seed, r))
        st, su = gen.uniform(-0.02, 0.02, 2)
        n = (1, 2) if self.tiny else (2, 3)
        family = ztestfuncs.bump_family((0.05 + st, 0.75 + st),
                                        (-0.3 + su, 0.9 + su), *n)
        state = {}
        tasks = [Task(f"table[{r}]", lambda: self._table(state),
                      self._check_table)]
        for beta in (0.0, 1.0):
            tasks.append(Task(f"solve[{r},{beta:g}]",
                              lambda b=beta: self._solve(state, b),
                              self._check_solve))
            tasks += [Task(f"kruzhkov[{r},{beta:g},{H.name}]",
                           lambda b=beta, H=H: self._kruzhkov(state, b, [H]),
                           self._check_kruzhkov) for H in family]
        return tasks

    def warmup_tasks(self):
        # the table, then the first solve that uses it
        return self.round_tasks(WARMUP_ROUND)[:2]

    def _params(self, beta):
        return zengine.ModelParams(P, ALPHA, beta, 400)

    def _table(self, state):
        state["table"] = zthermo.ThermoTable(self.linear, rho_max=6.0)
        state["flux"] = zpde.FluxModel(state["table"], P)
        return state["table"]

    def _solve(self, state, beta):
        params = self._params(beta)
        sol = zpde.compose_theorem_solution(
            beta, self.rho0, params, state["table"], self.T, du=self.du)
        state[beta] = sol
        balance = zpde.boundary_flux_trace(sol.right, state["flux"])
        l1 = sol.at_time(self.T).l1_distance(
            _oracle(self.rho0, params, self.T), -2.0, 2.0)
        return sol, balance, l1

    def _kruzhkov(self, state, beta, family):
        sol, flux = state[beta], state["flux"]
        if beta == 0.0:
            return zpde.kruzhkov_check(
                sol.right, flux, zpde.DirichletDensity(sol.boundary_trace),
                family, M=zpde.default_M(flux, ALPHA))
        return zpde.kruzhkov_check(sol.right, flux, zpde.ZeroFlux(), family)

    @staticmethod
    def _check_table(table):
        ok = table.covered_rho_max >= 6.0
        return Outcome(ok, "" if ok else "table stops below rho = 6")

    def _check_solve(self, out):
        sol, (_, mass_rate, flux_in), l1 = out
        vals = np.concatenate([sol.left.values.ravel(),
                               sol.right.values.ravel()])
        if not np.all(np.isfinite(vals)) or vals.min() < 0:
            return Outcome(False, "grid values not finite and non-negative")
        # the mass-balance identity at the origin (acceptance test 11)
        inner = slice(3, -3)
        scale = max(float(np.max(np.abs(flux_in))), 1e-12)
        err = float(np.max(np.abs(mass_rate[inner] - flux_in[inner]))) / scale
        if err > 0.02:
            return Outcome(False, f"mass balance rel err {err:.3g}")
        if l1 > self.L1_LIMIT:
            return Outcome(False, f"L1 {l1:.4g} above {self.L1_LIMIT}")
        return Outcome(True, l1=l1, digest=_sha(_fmt_values(sol.left.values),
                                                _fmt_values(sol.right.values)))

    @staticmethod
    def _check_kruzhkov(report):
        return Outcome(report.passed, "" if report.passed else str(report))


WORKLOADS = {w.name: w for w in (HydroCritical, ReplicasSmall, EntropyCheck)}
