"""zrhydro benchmark: one workload per run, end-to-end or per-layer numbers.

    python3 perfbench/run.py --workload hydro-critical --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --quick

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it carries
every per-layer metric instead.  ``--quick`` runs each workload at a tiny
size in both modes and checks the output.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
#: the seed whose round-0 outputs digests.json pins
DEFAULT_SEED = 0
#: child processes timed for setup_s; the median is reported
SETUP_SAMPLES = 3
#: the reference loop's time at the speed the timings are scaled to, about
#: that of a quiet 2-CPU host at the commit that defined the benchmark
REF_NOMINAL_S = 0.02
#: seconds between two samples of the reference loop in a timed pass
REF_EVERY_S = 0.5
#: replica-parallel runs would spawn a pool on a shared machine
os.environ["ZRH_THREADS"] = "1"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny runs of every workload, output checked")
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite digests.json from default-seed outputs")
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    if not (args.quick or args.record_digests) and args.workload is None:
        ap.error("--workload is required")
    return args


def _import_package():
    """Put the checkout's src/ first on the path and import the benchmark's
    modules; exit non-zero if the checkout holds no zrhydro sources."""
    if not ((SRC / "zrhydro" / "__init__.py").is_file()
            and BENCHMARK.is_file()):
        sys.exit(f"perfbench: no zrhydro sources under {SRC}; "
                 "run from a full checkout")
    sys.path.insert(0, str(SRC))
    import workloads
    import zrhydro
    if Path(zrhydro.__file__).resolve().parent != SRC / "zrhydro":
        sys.exit(f"perfbench: imported zrhydro from {zrhydro.__file__}")
    return workloads


def _stamp(args) -> dict:
    import numpy
    sha = "unknown"
    try:
        # only the checkout's own repository, not one that encloses it
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            sha = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "seed": args.seed, "ZRH_THREADS": os.environ["ZRH_THREADS"],
            # the package has a single engine implementation today
            "engine_impl": "python-loop"}


# -- host speed ---------------------------------------------------------------


def reference_loop(n: int = 25_000) -> float:
    """A fixed interpreter-bound loop (integer and float arithmetic, list
    indexing, calls, a Fenwick-style inner loop) that no zrhydro change
    can touch."""
    tree = [0.0] * 1025

    def add(i, d):
        while i <= 1024:
            tree[i] += d
            i += i & -i
    k = 12345
    for _ in range(n):
        k = (k * 1103515245 + 12345) & 0x7FFFFFFF
        add((k >> 8 & 1023) + 1, 0.5)
    return tree[1024]


class SpeedProbe:
    """Samples the reference loop every REF_EVERY_S during a timed pass.

    The host's speed drifts by up to 2x within minutes under other
    tenants' load.  A run's timings are scaled by ``factor``, the nominal
    over the mean observed time of the reference loop during the run,
    which cancels the drift that the program and the loop share.  Inside a
    ``with`` block a timer signal takes the samples, also in the middle of
    a long task; ``busy`` adds up their time, which the task timer leaves
    out.
    """

    def __init__(self):
        self.samples = []
        self.busy = 0.0

    def sample(self, *_):
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.busy += dt

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    @property
    def factor(self) -> float:
        # the mean, not the median: time the host takes away lands in a
        # few samples, as it lands in a few tasks
        return REF_NOMINAL_S / statistics.fmean(self.samples)


# -- one pass over the rounds ----------------------------------------------


def run_pass(rounds, expected, probe=None, tracer=None) -> dict:
    """Run every task; time each one alone, then check it untimed."""
    clock = time.perf_counter
    task_s, sizes, l1s, failures = [], [], [], []
    with probe or contextlib.nullcontext():
        for r, tasks in enumerate(rounds):
            sizes.append(len(tasks))
            for i, task in enumerate(tasks):
                if tracer is not None:
                    tracer.task = f"{r}.{i}"
                    span = tracer.open("task")
                busy0 = probe.busy if probe else 0.0
                t0 = clock()
                try:
                    out, err = task.run(), None
                except Exception:  # a failing task is counted, not fatal
                    out, err = None, traceback.format_exc(limit=3)
                dt = clock() - t0 - ((probe.busy - busy0) if probe else 0.0)
                if tracer is not None:
                    tracer.close(span)
                    tracer.task = None
                task_s.append(dt)
                if err is not None:
                    failures.append(f"{task.label}: {err}")
                    continue
                outcome = task.check(out)
                want = (expected[i] if r == 0 and expected
                        and i < len(expected) else None)
                if outcome.ok and want is not None and outcome.digest != want:
                    outcome.ok = False
                    outcome.note = "default-seed digest differs"
                if not outcome.ok:
                    failures.append(f"{task.label}: {outcome.note}")
                elif outcome.l1 is not None:
                    l1s.append(outcome.l1)
    ends = list(itertools.accumulate(sizes))
    return {"task_s": task_s, "l1s": l1s, "failures": failures,
            "round_s": [sum(task_s[e - n:e]) for e, n in zip(ends, sizes)]}


def _tail(task_s):
    """Highest nearest-rank percentile with ten tasks beyond it."""
    n = len(task_s)
    k = n - 10
    return sorted(task_s)[k - 1], 100.0 * k / n


def _setup_seconds(args, probe) -> float:
    """Median wall time of fresh processes that import the package, make
    the inputs and run the warm-up task, from spawn to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])
    probe.sample()
    samples = []
    for _ in range(1 if args.tiny else SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=170,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
        probe.sample()
    return statistics.median(samples)


def run(args, wl) -> dict:
    W = wl.WORKLOADS[args.workload](args.seed, args.tiny)
    rounds = [W.round_tasks(r) for r in range(W.rounds_for(args.seconds))]
    for task in W.warmup_tasks():
        out = task.run()
        if not task.check(out).ok:
            raise RuntimeError(f"warm-up task {task.label} failed its check")
    if args.setup_only:
        return {}
    expected = None
    if args.seed == DEFAULT_SEED and DIGESTS.is_file():
        size = "tiny" if args.tiny else "full"
        expected = json.loads(DIGESTS.read_text())[size].get(W.name)
    bench = json.loads(BENCHMARK.read_text())
    env = _stamp(args)
    print("perfbench env: " + json.dumps(env, sort_keys=True))

    if args.trace == 0:
        probe = SpeedProbe()
        setup_s = _setup_seconds(args, probe)
        res = run_pass(rounds, expected, probe)
        f = probe.factor
        tail, pct = _tail(res["task_s"])
        n = len(res["task_s"])
        values = {
            "setup_s": setup_s * f,
            "wall_s": statistics.median(res["round_s"]) * f,
            "task_p50_s": statistics.median(res["task_s"]) * f,
            "task_tail_s": tail * f,
            "l1_error": statistics.median(res["l1s"]) if res["l1s"] else 0.0,
            "ok_frac": (n - len(res["failures"])) / n,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        specs = bench["end_to_end"]
        print(f"perfbench {W.name}: {n} tasks in {len(rounds)} rounds; "
              f"task_tail_s is p{pct:.1f} of {n} tasks; timings scaled by "
              f"{f:.4f} for host speed ({len(probe.samples)} samples; "
              f"unscaled wall_s {values['wall_s'] / f:.4f} s, setup_s "
              f"{setup_s:.4f} s)")
        passes = [res]
    else:
        import tracing
        plain = run_pass(rounds, expected)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(rounds, expected, tracer=tracer)
        finally:
            tracer.restore()
        traced["failures"] += tracing.nesting_errors(tracer.dump())
        values = tracer.layer_metrics()
        values.update(tracing.micro_runs(args.seed, args.tiny))
        # no reference samples here: they would land inside the spans
        plain_s, traced_s = sum(plain["task_s"]), sum(traced["task_s"])
        values["events_per_s"] = tracer.all_events() / plain_s
        values["timed_s"] = traced_s
        values["trace_overhead_frac"] = traced_s / plain_s - 1.0
        specs = bench["per_layer"]
        out_path = wl.OUT_DIR / f"spans-{W.name}-seed{args.seed}.json"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(
            {"env": env, "workload": W.name, "counts": tracer.counts,
             "spans": tracer.dump()}))
        print(f"perfbench {W.name}: {len(tracer.spans)} spans written to "
              f"{out_path.relative_to(ROOT)}")
        passes = [plain, traced]

    failures = [f for p in passes for f in p["failures"]]
    for f in failures:
        print(f"perfbench FAILED {f}", file=sys.stderr)
    names = [m["name"] for m in specs]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(names)}")
    attempted = sum(len(p["task_s"]) for p in passes)
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in specs}}


# -- quick mode and digests -------------------------------------------------


def quick(wl) -> int:
    """Tiny runs of each workload in both modes, through the real command;
    checks names, units, correctness, span nesting and the engine-free
    entropy check.  Returns the exit code."""
    bench = json.loads(BENCHMARK.read_text())
    import tracing
    problems = []
    for name in wl.WORKLOADS:
        for mode, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(DEFAULT_SEED),
                   "--seconds", "1", "--trace", str(mode), "--tiny"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=170)
            took = time.perf_counter() - t0
            tag = f"{name} --trace {mode}"
            if proc.returncode != 0:
                problems.append(
                    f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"quick {tag}: {res['attempted']} tasks, "
                  f"{res['failed']} failed, {took:.1f} s")
            if not res["correct"] or res["failed"]:
                problems.append(f"{tag}: output checks failed\n{proc.stderr}")
            for m in bench[key]:
                got = res["metrics"].get(m["name"])
                if (got is None or got["unit"] != m["unit"]
                        or not math.isfinite(got["value"])):
                    problems.append(f"{tag}: metric {m['name']} [{m['unit']}]"
                                    f" printed as {got}")
            if mode == 1:
                spans = json.loads((wl.OUT_DIR / f"spans-{name}-seed"
                                    f"{DEFAULT_SEED}.json").read_text())
                problems += [f"{tag}: {e}" for e in
                             tracing.nesting_errors(spans["spans"])]
                events = res["metrics"]["engine.events"]["value"]
                if name == "entropy-check" and events != 0:
                    problems.append(f"{tag}: {events} engine events")
    for p in problems:
        print("quick FAILED " + p, file=sys.stderr)
    print("quick: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


def record_digests(wl):
    """Write the round-0 output digests of the default seed, both sizes."""
    doc = {}
    for size, tiny in (("full", False), ("tiny", True)):
        doc[size] = {}
        for name, cls in wl.WORKLOADS.items():
            digests = []
            for task in cls(DEFAULT_SEED, tiny).round_tasks(0):
                outcome = task.check(task.run())
                if not outcome.ok:
                    raise RuntimeError(f"{task.label}: {outcome.note}")
                digests.append(outcome.digest)
            doc[size][name] = digests
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    wl = _import_package()
    if args.quick:
        return quick(wl)
    if args.record_digests:
        record_digests(wl)
        return 0
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(wl.WORKLOADS)}")
    result = run(args, wl)
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
