"""Command-line front door.

Subcommands: simulate, couple, invariant, pde, oracle, compare, suite.
Outputs are CSV (12 significant digits, fixed column order) with JSON
sidecars; --plot writes an SVG overlay when matplotlib is available.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .engine import ModelParams, build_initial, choose_window
from .harness import (ExperimentSpec, _fmt, compare, map_replicas,
                      run_replicas, run_suite, write_density_csv,
                      write_report_json)
from .invariant import (PRESETS, build_profile, preset_profile,
                        sample_stationary, stationarity_test)
from .oracle import (LinearCaseParams, dual_rw_estimate,
                     exact_linear_solution, integrate_density_ode,
                     killing_probability_experiment)
from .pde import (FluxModel, compose_theorem_solution, default_M,
                  kruzhkov_check)
from .profiles import DensityProfile
from .rates import rate_from_spec
from .rng import replica_stream
from .testfuncs import bump_family
from .thermo import ThermoTable


def _add_model_flags(p, g=True, N=True, seed=True):
    """--p, --alpha and --beta, and those of --g, --N and --seed that the
    command reads."""
    if g:
        p.add_argument("--g", default="linear", help="rate spec: linear | "
                       "indicator | bounded:c | table:...")
    p.add_argument("--p", type=float, default=0.75, dest="asym")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    if N:
        p.add_argument("--N", type=int, default=100)
    if seed:
        p.add_argument("--seed", type=int, default=0)


def _params(args, N=None) -> ModelParams:
    """The model flags as ``ModelParams``, with ``N`` in place of --N."""
    return ModelParams(p=args.asym, alpha=args.alpha, beta=args.beta,
                       N=args.N if N is None else N)


def _replica_count(text: str) -> int:
    """argparse type of every ``--replicas`` flag: a positive integer."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, not {text!r}")
    return n


def _write_text(path, text: str):
    """Write ``text`` to the file ``path``, or to stdout for ``-``."""
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as f:
        f.write(text)


def _maybe_plot(path, profiles, labels):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping plot", file=sys.stderr)
        return
    fig, ax = plt.subplots()
    for prof, label in zip(profiles, labels):
        ax.step(prof.centers, prof.values, where="mid", label=label)
    ax.set_xlabel("u")
    ax.set_ylabel("density")
    ax.legend()
    fig.savefig(path, format="svg")
    plt.close(fig)


def cmd_simulate(args):
    spec = ExperimentSpec(
        name="simulate", rate=args.g, p=args.asym, alpha=args.alpha,
        beta=args.beta, N=(args.N,), rho0=args.rho0, times=(args.t_end,),
        ell=args.ell, replicas=args.replicas, seed=args.seed,
        target="none", margin=args.window_margin, closed=args.closed)
    replicas = run_replicas(spec, args.N,
                            DensityProfile.from_spec(spec.rho0, du=spec.du),
                            rate_from_spec(spec.rate))
    with open(args.out, "w") as f:
        f.write("replica,t,u,density\n")
        for rep, (profiles, _) in enumerate(replicas):
            t, prof = profiles[0]
            for u, v in zip(prof.centers, prof.values):
                f.write(f"{rep},{_fmt(t)},{_fmt(u)},{_fmt(v)}\n")
    meta = [{"replica": rep, "destroyed": rec.destroyed_count,
             "exited_left": rec.exited_left,
             "exited_right": rec.exited_right, "events": rec.n_events,
             "wall_time_s": round(rec.wall_time, 3), "kernel": rec.kernel}
            for rep, (_, rec) in enumerate(replicas)]
    _write_text(args.out + ".json",
                json.dumps({"replicas": meta}, indent=2) + "\n")
    if args.plot:
        _maybe_plot(args.plot, [prof], ["final replica"])
    return 0


def cmd_couple(args):
    from .coupling import (BasicCouplingEngine, LabeledCouplingEngine,
                           PairConfiguration, SecondClassEngine,
                           second_class_left_mass)
    params = _params(args)
    rate = rate_from_spec(args.g)
    rho0 = DensityProfile.from_spec(args.rho0)
    window = choose_window(rho0.support(), params, args.t_end,
                           args.window_margin)
    kw = {}
    if args.preset is not None:
        thermo = ThermoTable(rate, rho_max=max(4.0, 2 * args.preset_density))
        prof = preset_profile(args.preset, params, args.preset_density,
                              thermo, window)
        # the stationary preset fills the window to both edges, so exits
        # are part of the dynamics there, not a sign of a short window
        kw["leak_fraction"] = 1.0

    def run(rng):
        if args.preset is not None:
            cfg = sample_stationary(prof, thermo, rng)
        else:
            cfg = build_initial(rho0, params, window, rng)
        if args.mode == "second-class":
            eng = SecondClassEngine(cfg, params, rate, rng, **kw)
            eng.run(args.t_end)
            st = eng.state()
            return (args.t_end, st.conversions,
                    _fmt(second_class_left_mass(st, params.N)), "")
        if args.mode == "labeled":
            eng = LabeledCouplingEngine(cfg, params, rate, rng, **kw)
            return (args.t_end, "", "", eng.run(args.t_end))
        pair = PairConfiguration(cfg.copy(), cfg.copy())
        eng = BasicCouplingEngine(pair, params, rate, rng, order_guard=True,
                                  **kw)
        eng.run(args.t_end)
        return (args.t_end, "", "", eng.order_violations)

    rows = map_replicas(run, args.seed, args.replicas)
    with open(args.out, "w") as f:
        f.write("t,k_t,left_mass,discrepancy\n")
        for t, k, lm, d in rows:
            f.write(f"{_fmt(t)},{k},{lm},{d}\n")
    return 0


def cmd_invariant(args):
    params = _params(args)
    rate = rate_from_spec(args.g)
    thermo = ThermoTable(rate, rho_max=max(4.0, 2 * args.density))
    window = (-args.half_window, args.half_window)
    if args.preset is not None:
        if (args.m_plus, args.c1, args.c2) != (None, None, None):
            raise ValueError("--preset chooses the profile; drop --m-plus, "
                             "--c1 and --c2")
        prof = preset_profile(args.preset, params, args.density, thermo,
                              window)
    else:
        prof = build_profile(params, window, c1=args.c1, c2=args.c2,
                             m_plus=args.m_plus, zeta_star=rate.sup_g)
    doc = {"x_min": prof.x_min, "m": [float(v) for v in prof.m],
           "residual": prof.residual(), "constants": prof.constants}
    if args.validate:
        rep = stationarity_test(prof, rate, thermo, t_end=args.t_end,
                                replicas=args.replicas,
                                sites=args.sites or [-2, 0, 2],
                                master_seed=args.seed)
        doc["stationarity"] = {
            "passed": rep.passed,
            "sites": [{"x": s.x, "target": s.target, "mean_g": s.mean_g,
                       "se": s.se_g, "passed": s.passed}
                      for s in rep.sites]}
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0 if doc.get("stationarity", {}).get("passed", True) else 1


def cmd_pde(args):
    rate = rate_from_spec(args.g)
    rho0 = DensityProfile.from_spec(args.rho0, du=args.du)
    thermo = ThermoTable(rate, rho_max=max(4.0, 2 * rho0.values.max()))
    params = _params(args, N=1)
    sol = compose_theorem_solution(args.beta, rho0, params, thermo,
                                   args.T, du=args.du)
    with open(args.out, "w") as f:
        f.write("t,u,rho\n")
        for t in np.linspace(0, args.T, 9):
            prof = sol.at_time(t)
            for u, v in zip(prof.centers, prof.values):
                f.write(f"{_fmt(t)},{_fmt(u)},{_fmt(v)}\n")
    if args.check:
        flux = FluxModel(thermo, args.asym)
        grid, t_window = sol.left, (0.05 * args.T, 0.95 * args.T)
        reps = [kruzhkov_check(grid, flux, None, bump_family(
            t_window, (grid.u_min + 2 * args.du, grid.u_max - 2 * args.du)))]
        if sol.boundary is not None:
            # the half-line solution the CSV holds on u > 0, under its
            # boundary condition; bumps centred at 0, h and 2h, so the
            # first one weighs the boundary term
            h = (sol.right.u_max - 2 * args.du) / 3
            bumps = bump_family(t_window, (-h, 3 * h))
            reps.append(kruzhkov_check(sol.right, flux, sol.boundary, bumps,
                                       M=default_M(flux, args.alpha)))
        passed = all(rep.passed for rep in reps)
        doc = {"passed": passed,
               "n_inequalities": sum(len(rep.entries) for rep in reps)}
        _write_text(args.out + ".check.json",
                    json.dumps(doc, indent=2) + "\n")
        for rep in reps:
            print(rep)
        return 0 if passed else 1
    return 0


def cmd_oracle(args):
    params = _params(args)
    lin = LinearCaseParams(params)
    rho0 = DensityProfile.from_spec(args.rho0)
    rng = replica_stream(args.seed, 0)
    # rows first, then the file: a failed run leaves no file behind
    if args.mode == "exact":
        head, rows = "t,u,density", [
            (args.t, u, exact_linear_solution(rho0, lin, args.t, u))
            for u in np.arange(args.u_min, args.u_max, 0.01)]
    elif args.mode == "ode":
        prof = integrate_density_ode(rho0, params,
                                     (int(args.u_min * params.N),
                                      int(args.u_max * params.N)),
                                     args.t).final_profile()
        head, rows = "t,u,density", [
            (args.t, u, v) for u, v in zip(prof.centers, prof.values)]
    elif args.mode == "dual":
        est, se = dual_rw_estimate(args.site, args.t, params, rho0,
                                   args.replicas, rng)
        head, rows = "x,t,estimate,se", [(args.site, args.t, est, se)]
    else:
        frac, se = killing_probability_experiment(params, args.site,
                                                  args.replicas, rng)
        head, rows = "start,empirical,se,alpha_tilde_N", [
            (args.site, frac, se, lin.alpha_tilde_N)]
    _write_text(args.out, "".join(line + "\n" for line in [head] + [
        ",".join(map(_fmt, row)) for row in rows]))
    return 0


def cmd_compare(args):
    spec = ExperimentSpec(
        name=args.name, rate=args.g, p=args.asym, alpha=args.alpha,
        beta=args.beta, N=tuple(args.N), rho0=args.rho0,
        times=tuple(args.times), ell=args.ell, replicas=args.replicas,
        seed=args.seed, du=args.du, target=args.target,
        tolerance=args.tolerance)
    report = compare(spec)
    print("\n".join(report.summary_lines()))
    if args.out:
        write_density_csv(args.out + ".csv", report)
        write_report_json(args.out + ".json", report)
    return 0 if report.passed else 1


def cmd_suite(args):
    return run_suite(args.suite, out_dir=args.out_dir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="zrh")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="kinetic Monte Carlo runs")
    _add_model_flags(ps)
    ps.add_argument("--rho0", default="-1:0:1")
    ps.add_argument("--t-end", type=float, default=0.5)
    ps.add_argument("--ell", type=int, default=10)
    ps.add_argument("--replicas", type=_replica_count, default=1)
    ps.add_argument("--window-margin", type=float, default=0.5)
    ps.add_argument("--closed", action="store_true")
    ps.add_argument("--out", default="simulate.csv")
    ps.add_argument("--plot", default=None)
    ps.set_defaults(fn=cmd_simulate)

    pc = sub.add_parser("couple", help="coupled dynamics runs")
    _add_model_flags(pc)
    pc.add_argument("--mode", choices=("second-class", "basic", "labeled"),
                    default="second-class")
    pc.add_argument("--preset", choices=PRESETS, default=None)
    pc.add_argument("--preset-density", type=float, default=1.0)
    pc.add_argument("--rho0", default="-1:0:1")
    pc.add_argument("--t-end", type=float, default=0.5)
    pc.add_argument("--replicas", type=_replica_count, default=1)
    pc.add_argument("--window-margin", type=float, default=0.5)
    pc.add_argument("--out", default="couple.csv")
    pc.set_defaults(fn=cmd_couple)

    pi = sub.add_parser("invariant", help="stationary profiles")
    _add_model_flags(pi)
    pi.add_argument("--preset", choices=PRESETS, default=None)
    pi.add_argument("--density", type=float, default=1.0)
    pi.add_argument("--c1", type=float, default=None)
    pi.add_argument("--c2", type=float, default=None)
    pi.add_argument("--m-plus", type=float, default=None)
    pi.add_argument("--half-window", type=int, default=50)
    pi.add_argument("--validate", action="store_true")
    pi.add_argument("--t-end", type=float, default=1.0)
    pi.add_argument("--replicas", type=_replica_count, default=100)
    pi.add_argument("--sites", type=int, nargs="*", default=None)
    pi.add_argument("--out", default="-")
    pi.set_defaults(fn=cmd_invariant)

    pp = sub.add_parser("pde", help="finite-volume solves")
    _add_model_flags(pp, N=False, seed=False)
    pp.add_argument("--rho0", default="-1:0:1")
    pp.add_argument("--du", type=float, default=0.01)
    pp.add_argument("--T", type=float, default=0.8)
    pp.add_argument("--check", action="store_true")
    pp.add_argument("--out", default="pde.csv")
    pp.set_defaults(fn=cmd_pde)

    po = sub.add_parser("oracle", help="linear-case cross checks")
    _add_model_flags(po, g=False)
    po.add_argument("--mode", choices=("exact", "ode", "dual", "killprob"),
                    default="exact")
    po.add_argument("--rho0", default="-1:0:1")
    po.add_argument("--t", type=float, default=0.8)
    po.add_argument("--u-min", type=float, default=-2.0)
    po.add_argument("--u-max", type=float, default=2.0)
    po.add_argument("--site", type=int, default=0)
    po.add_argument("--replicas", type=_replica_count, default=10000)
    po.add_argument("--out", default="-")
    po.set_defaults(fn=cmd_oracle)

    pm = sub.add_parser("compare", help="particle system vs target")
    _add_model_flags(pm, N=False)
    pm.add_argument("--name", default="compare")
    pm.add_argument("--N", type=int, nargs="+", default=[100])
    pm.add_argument("--rho0", default="-1:0:1")
    pm.add_argument("--times", type=float, nargs="+", default=[0.8])
    pm.add_argument("--ell", type=int, default=10)
    pm.add_argument("--replicas", type=_replica_count, default=10)
    pm.add_argument("--du", type=float, default=0.01)
    pm.add_argument("--target", choices=("pde", "oracle", "none"),
                    default="oracle")
    pm.add_argument("--tolerance", type=float, default=0.1)
    pm.add_argument("--out", default=None)
    pm.set_defaults(fn=cmd_compare)

    pu = sub.add_parser("suite", help="run a suite file")
    pu.add_argument("suite")
    pu.add_argument("--out-dir", default=None)
    pu.set_defaults(fn=cmd_suite)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:
        # a setting that the parser cannot judge: one line, as a bad flag
        print(f"zrh {args.command}: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
