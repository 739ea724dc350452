"""Experiment orchestration: replica runs, comparison metrics, suites.

An ExperimentSpec bundles everything needed to reproduce a comparison
between the particle system and a macroscopic target (finite-volume
solution or linear-case closed form).  Outputs are deterministic given
the seed: CSV rows in fixed order with 12 significant digits and a JSON
sidecar carrying the full spec.

``map_replicas`` is the one replica loop, under ``run_replicas`` (so
``compare`` and ``zrh simulate``), ``zrh couple`` and
``invariant.stationarity_test``.  Each replica has its own random stream,
so the outputs do not depend on ZRH_THREADS, which caps the loop's worker
threads in the calling process: the compiled event loop releases the GIL,
so replicas overlap there; the Python-loop fallback gains nothing.  The
``oracle`` dual walks are not replicas but one engine run per estimate;
consecutive ``dual_rw_estimate`` calls sharing a generator read it after
the blocks the previous call's engine planned and drew.

Suites are plain text files of key=value blocks separated by blank
lines; each value is read as the type of its ``ExperimentSpec`` field.
"""
from __future__ import annotations

import json
import math
import os
import time as _time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .engine import (EventEngine, ModelParams, SnapshotObserver,
                     build_initial, choose_window, empirical_density)
from .oracle import LinearCaseParams, exact_linear_solution
from .pde import compose_theorem_solution
from .profiles import DensityProfile
from .rates import rate_from_spec
from .rng import replica_stream
from .thermo import ThermoTable

#: default half-width of the exclusion zones around the singular lines
SINGULAR_DELTA = 0.05


def worker_count() -> int:
    """Parallelism cap from ZRH_THREADS (default 1, serial)."""
    try:
        return max(int(os.environ.get("ZRH_THREADS", "1")), 1)
    except ValueError:
        return 1


@dataclass
class ExperimentSpec:
    name: str
    rate: str = "linear"
    p: float = 0.75
    alpha: float = 1.0
    beta: float = 0.0
    N: tuple = (100,)
    rho0: str = "-1:0:1"
    times: tuple = (0.8,)
    ell: int = 10
    replicas: int = 10
    seed: int = 0
    du: float = 0.01
    target: str = "oracle"  # pde | oracle | none
    tolerance: float = 0.1
    interval: tuple = (-2.0, 2.0)
    delta: float = SINGULAR_DELTA
    margin: float = 0.5
    closed: bool = False

    def __post_init__(self):
        if self.target not in ("pde", "oracle", "none"):
            raise ValueError(f"unknown comparison target {self.target!r}")
        if self.target == "oracle" and self.rate != "linear":
            raise ValueError("the closed-form target needs the linear rate")
        if self.replicas < 1:
            raise ValueError(f"replicas must be at least 1, got "
                             f"{self.replicas}")
        if not self.times or min(self.times) < 0:
            raise ValueError(f"times: need one or more >= 0, got {self.times}")
        # validate the pieces parse before any run starts
        rate_from_spec(self.rate)
        DensityProfile.from_spec(self.rho0, du=self.du)

    def model_params(self, N: int) -> ModelParams:
        return ModelParams(p=self.p, alpha=self.alpha, beta=self.beta, N=N)

    def exclusions(self, t: float):
        """delta-neighborhoods of u = 0 and u = (2p-1)t; none at delta 0."""
        if self.delta == 0:
            return ()
        s = (2 * self.p - 1) * t
        return ((-self.delta, self.delta), (s - self.delta, s + self.delta))


@dataclass
class ComparisonEntry:
    N: int
    t: float
    distance: float
    se: float
    tolerance: float
    wall_time: float

    @property
    def passed(self) -> bool:
        return self.distance <= self.tolerance


@dataclass
class ComparisonReport:
    spec: ExperimentSpec
    entries: list = field(default_factory=list)
    mean_profiles: dict = field(default_factory=dict)  # (N, t) -> profile

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def summary_lines(self):
        lines = []
        for e in self.entries:
            lines.append(
                f"{self.spec.name}  N={e.N:<5d} t={e.t:<6g} "
                f"L1={e.distance:.6f} (se {e.se:.6f}, tol {e.tolerance:g}) "
                f"{'PASS' if e.passed else 'FAIL'}")
        return lines


def map_replicas(run, seed: int, replicas: int) -> list:
    """``run(replica_stream(seed, rep))`` for each replica, in replica
    order, over ``worker_count()`` threads (``Executor.map`` keeps input
    order, as the serial loop does)."""
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    streams = (replica_stream(seed, rep) for rep in range(replicas))
    workers = min(worker_count(), replicas)
    if workers == 1:
        return [run(rng) for rng in streams]
    # imported here, so that serial runs do not pay its import time
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(run, streams))


def run_replicas(spec: ExperimentSpec, N: int, rho0: DensityProfile,
                 rate):
    """All single-copy replicas of ``spec`` for one N, from the parsed
    ``spec.rho0`` and ``spec.rate``: a ``([(t, DensityProfile), ...],
    TrajectoryRecord)`` pair per replica, in replica order."""
    params = spec.model_params(N)
    window = choose_window(rho0.support(), params, max(spec.times),
                           spec.margin)

    def run(rng):
        cfg = build_initial(rho0, params, window, rng, closed=spec.closed)
        obs = SnapshotObserver(spec.times)
        rec = EventEngine(cfg, params, rate, rng).run(max(spec.times),
                                                      observers=[obs])
        out = []
        for t, occ in obs.snapshots:
            c = cfg.copy()
            c.occ = occ
            out.append((t, empirical_density(c, params, spec.ell)))
        return out, rec

    return map_replicas(run, spec.seed, spec.replicas)


def _target_callable(spec: ExperimentSpec, params: ModelParams, t: float,
                     rho0: DensityProfile, pde_solution):
    if spec.target == "oracle":
        lin = LinearCaseParams(params)
        return lambda u: exact_linear_solution(rho0, lin, t, u)
    if spec.target == "pde":
        return pde_solution.at_time(t)
    return None


def compare(spec: ExperimentSpec) -> ComparisonReport:
    """Run the experiment and measure L1 distances to the target.

    The metric lives on ``spec.interval`` minus delta-neighborhoods of
    the singular lines u = 0 and u = (2p-1)t (none when delta = 0).
    A report is produced even when entries fail.  An entry's wall time
    is the replica runs of its N plus its own target evaluation and
    metric; the PDE solve, shared by all N and times, is not in it.
    """
    report = ComparisonReport(spec=spec)
    rho0 = DensityProfile.from_spec(spec.rho0, du=spec.du)
    rate = rate_from_spec(spec.rate)
    pde_solution = None
    if spec.target == "pde":
        # the solve reads p and alpha, never N
        thermo = ThermoTable(rate, rho_max=max(4.0, 2 * rho0.values.max()))
        pde_solution = compose_theorem_solution(
            spec.beta, rho0, spec.model_params(spec.N[0]), thermo,
            max(spec.times), du=spec.du)
    for N in spec.N:
        params = spec.model_params(N)
        wall0 = _time.perf_counter()
        snaps = [dict(pr) for pr, _ in run_replicas(spec, N, rho0, rate)]
        replicas_time = _time.perf_counter() - wall0
        for t in spec.times:
            entry0 = _time.perf_counter()
            profs = [snap[t] for snap in snaps]
            mean_vals = np.mean([p.values for p in profs], axis=0)
            mean_prof = DensityProfile(profs[0].u_min, profs[0].du, mean_vals)
            report.mean_profiles[(N, t)] = mean_prof
            target = _target_callable(spec, params, t, rho0, pde_solution)
            u_lo, u_hi = spec.interval
            excl = spec.exclusions(t)
            if target is None:
                dist, se = 0.0, 0.0
            else:
                dist = mean_prof.l1_distance(target, u_lo, u_hi,
                                             exclude=excl)
                per = [p.l1_distance(target, u_lo, u_hi, exclude=excl)
                       for p in profs]
                se = (float(np.std(per, ddof=1))
                      / math.sqrt(len(per))) if len(per) > 1 else 0.0
            report.entries.append(ComparisonEntry(
                N=N, t=t, distance=dist, se=se, tolerance=spec.tolerance,
                wall_time=replicas_time + _time.perf_counter() - entry0))
    return report


# -- output formats ------------------------------------------------------


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def write_density_csv(path, report: ComparisonReport):
    """CSV of (N, t, u, density) for the replica-averaged profiles."""
    with open(path, "w") as f:
        f.write("N,t,u,density\n")
        for (N, t), prof in sorted(report.mean_profiles.items()):
            for u, v in zip(prof.centers, prof.values):
                f.write(f"{N},{_fmt(t)},{_fmt(u)},{_fmt(v)}\n")


def write_report_json(path, report: ComparisonReport):
    doc = {
        "spec": asdict(report.spec),
        "entries": [
            {"N": e.N, "t": e.t, "distance": e.distance, "se": e.se,
             "tolerance": e.tolerance, "passed": e.passed,
             "wall_time_s": round(e.wall_time, 3)}
            for e in report.entries],
        "passed": report.passed,
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True, default=list)
        f.write("\n")


# -- suite files ---------------------------------------------------------


class SuiteParseError(ValueError):
    pass


_DEFAULTS = {f.name: f.default for f in fields(ExperimentSpec)
             if f.default is not MISSING}
_BOOLS = {"true": True, "yes": True, "1": True,
          "false": False, "no": False, "0": False}


def _parse_as(typ, raw, lineno):
    try:
        return _BOOLS[raw.lower()] if typ is bool else typ(raw)
    except (KeyError, ValueError):
        raise SuiteParseError(f"line {lineno}: bad {typ.__name__} {raw!r}")


def _parse_value(key, raw, lineno):
    """``raw`` as the type of the field's default (str where there is
    none); a tuple default reads a comma-separated list of the type of
    its first element."""
    raw = raw.strip()
    default = _DEFAULTS.get(key, "")
    if isinstance(default, tuple):
        return tuple(_parse_as(type(default[0]), x, lineno)
                     for x in raw.split(","))
    return _parse_as(type(default), raw, lineno)


def parse_suite(path) -> list[ExperimentSpec]:
    """Key=value blocks separated by blank lines; '#' starts a comment."""
    blocks = []
    current = {}
    start_line = None
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                if current:
                    blocks.append((start_line, current))
                    current = {}
                continue
            if "=" not in line:
                raise SuiteParseError(f"line {lineno}: expected key=value, "
                                      f"got {line!r}")
            key, raw = line.split("=", 1)
            key = key.strip()
            if not current:
                start_line = lineno
            current[key] = _parse_value(key, raw, lineno)
    if current:
        blocks.append((start_line, current))
    specs = []
    for start, block in blocks:
        if "name" not in block:
            raise SuiteParseError(f"line {start}: experiment without a name")
        try:
            specs.append(ExperimentSpec(**block))
        except (TypeError, ValueError) as e:
            raise SuiteParseError(f"line {start}: {e}")
    return specs


def run_suite(path, out_dir=None) -> int:
    """Run every experiment in the suite, printing each block's summary
    lines as it finishes; exit code 0 iff all pass."""
    all_passed, printed = True, False
    for spec in parse_suite(path):
        report = compare(spec)
        for line in report.summary_lines():
            print(line, flush=True)
            printed = True
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            base = os.path.join(out_dir, spec.name)
            write_density_csv(base + ".csv", report)
            write_report_json(base + ".json", report)
        all_passed &= report.passed
    if not printed:
        print("empty suite")
    return 0 if all_passed else 1
