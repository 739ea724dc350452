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

from .engine import (EventEngine, ModelParams, build_initial, choose_window,
                     empirical_density)
from .harness import (ExperimentSpec, _fmt, compare, run_suite,
                      write_density_csv, write_report_json)
from .invariant import (PRESETS, build_profile, preset_profile,
                        sample_stationary, stationarity_test)
from .oracle import (LinearCaseParams, dual_rw_estimate,
                     exact_linear_solution, integrate_density_ode,
                     killing_probability_experiment)
from .pde import FluxModel, compose_theorem_solution, kruzhkov_check
from .profiles import DensityProfile
from .rates import rate_from_spec
from .rng import replica_stream
from .testfuncs import bump_family
from .thermo import ThermoTable


def _add_model_flags(p, default_rate="linear", include_N=True):
    p.add_argument("--g", default=default_rate,
                   help="rate spec: linear | indicator | bounded:c | table:...")
    p.add_argument("--p", type=float, default=0.75, dest="asym")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    if include_N:
        p.add_argument("--N", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)


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
    params = ModelParams(p=args.asym, alpha=args.alpha, beta=args.beta,
                         N=args.N)
    rate = rate_from_spec(args.g)
    rho0 = DensityProfile.from_spec(args.rho0)
    window = choose_window(rho0.support(), params, args.t_end,
                           args.window_margin)
    rows = []
    meta = []
    for rep in range(args.replicas):
        rng = replica_stream(args.seed, rep)
        cfg = build_initial(rho0, params, window, rng, closed=args.closed)
        eng = EventEngine(cfg, params, rate, rng)
        rec = eng.run(args.t_end)
        prof = empirical_density(cfg, params, args.ell)
        for u, v in zip(prof.centers, prof.values):
            rows.append((rep, args.t_end, u, v))
        meta.append({"replica": rep, "destroyed": rec.destroyed_count,
                     "exited_left": rec.exited_left,
                     "exited_right": rec.exited_right,
                     "events": rec.n_events,
                     "wall_time_s": round(rec.wall_time, 3),
                     "kernel": rec.kernel})
    with open(args.out, "w") as f:
        f.write("replica,t,u,density\n")
        for rep, t, u, v in rows:
            f.write(f"{rep},{_fmt(t)},{_fmt(u)},{_fmt(v)}\n")
    with open(args.out + ".json", "w") as f:
        json.dump({"replicas": meta}, f, indent=2)
        f.write("\n")
    if args.plot:
        _maybe_plot(args.plot, [prof], ["final replica"])
    return 0


def cmd_couple(args):
    from .coupling import (LabeledCouplingEngine, SecondClassEngine,
                           second_class_left_mass)
    params = ModelParams(p=args.asym, alpha=args.alpha, beta=args.beta,
                         N=args.N)
    rate = rate_from_spec(args.g)
    rho0 = DensityProfile.from_spec(args.rho0)
    window = choose_window(rho0.support(), params, args.t_end,
                           args.window_margin)
    rows = []
    kw = {}
    if args.preset is not None:
        thermo = ThermoTable(rate, rho_max=max(4.0, 2 * args.preset_density))
        # the stationary preset fills the window to both edges, so exits
        # are part of the dynamics there, not a sign of a short window
        kw["leak_fraction"] = 1.0
    for rep in range(args.replicas):
        rng = replica_stream(args.seed, rep)
        if args.preset is not None:
            prof = preset_profile(args.preset, params,
                                  args.preset_density, thermo, window)
            cfg = sample_stationary(prof, thermo, rng)
        else:
            cfg = build_initial(rho0, params, window, rng)
        if args.mode == "second-class":
            eng = SecondClassEngine(cfg, params, rate, rng, **kw)
            eng.run(args.t_end)
            st = eng.state()
            rows.append((args.t_end, st.conversions,
                         _fmt(second_class_left_mass(st, params.N)), ""))
        elif args.mode == "labeled":
            eng = LabeledCouplingEngine(cfg, params, rate, rng, **kw)
            disc = eng.run(args.t_end)
            rows.append((args.t_end, "", "", disc))
        else:
            from .coupling import BasicCouplingEngine, PairConfiguration
            pair = PairConfiguration(cfg.copy(), cfg.copy())
            eng = BasicCouplingEngine(pair, params, rate, rng,
                                      order_guard=True, **kw)
            eng.run(args.t_end)
            rows.append((args.t_end, "", "", eng.order_violations))
    with open(args.out, "w") as f:
        f.write("t,k_t,left_mass,discrepancy\n")
        for t, k, lm, d in rows:
            f.write(f"{_fmt(t)},{k},{lm},{d}\n")
    return 0


def cmd_invariant(args):
    params = ModelParams(p=args.asym, alpha=args.alpha, beta=args.beta,
                         N=args.N)
    rate = rate_from_spec(args.g)
    thermo = ThermoTable(rate, rho_max=max(4.0, 2 * args.density))
    window = (-args.half_window, args.half_window)
    if args.preset is not None:
        prof = preset_profile(args.preset, params, args.density, thermo,
                              window)
    elif args.m_plus is not None:
        prof = build_profile(params, window, m_plus=args.m_plus,
                             zeta_star=thermo.zeta_star_estimate)
    else:
        prof = build_profile(params, window, c1=args.c1, c2=args.c2,
                             zeta_star=thermo.zeta_star_estimate)
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
    text = json.dumps(doc, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as f:
            f.write(text)
    return 0 if doc.get("stationarity", {}).get("passed", True) else 1


def cmd_pde(args):
    rate = rate_from_spec(args.g)
    rho0 = DensityProfile.from_spec(args.rho0, du=args.du)
    thermo = ThermoTable(rate, rho_max=max(4.0, 2 * rho0.values.max()))
    params = ModelParams(p=args.asym, alpha=args.alpha, beta=args.beta, N=1)
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
        grid = sol.left
        fam = bump_family((0.05 * args.T, 0.95 * args.T),
                          (grid.u_min + 2 * args.du,
                           grid.u_max - 2 * args.du))
        rep = kruzhkov_check(grid, flux, None, fam)
        doc = {"passed": rep.passed, "n_inequalities": len(rep.entries)}
        with open(args.out + ".check.json", "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(rep)
        return 0 if rep.passed else 1
    return 0


def cmd_oracle(args):
    params = ModelParams(p=args.asym, alpha=args.alpha, beta=args.beta,
                         N=args.N)
    lin = LinearCaseParams(params)
    rho0 = DensityProfile.from_spec(args.rho0)
    rng = replica_stream(args.seed, 0)
    out = open(args.out, "w") if args.out != "-" else sys.stdout
    if args.mode == "exact":
        out.write("t,u,density\n")
        for u in np.arange(args.u_min, args.u_max, 0.01):
            v = exact_linear_solution(rho0, lin, args.t, u)
            out.write(f"{_fmt(args.t)},{_fmt(u)},{_fmt(v)}\n")
    elif args.mode == "ode":
        curve = integrate_density_ode(rho0, params,
                                      (int(args.u_min * params.N),
                                       int(args.u_max * params.N)), args.t)
        out.write("t,u,density\n")
        prof = curve.final_profile()
        for u, v in zip(prof.centers, prof.values):
            out.write(f"{_fmt(args.t)},{_fmt(u)},{_fmt(v)}\n")
    elif args.mode == "dual":
        est, se = dual_rw_estimate(args.site, args.t, params, rho0,
                                   args.replicas, rng)
        out.write("x,t,estimate,se\n")
        out.write(f"{args.site},{_fmt(args.t)},{_fmt(est)},{_fmt(se)}\n")
    elif args.mode == "killprob":
        frac, se = killing_probability_experiment(params, args.site,
                                                  args.replicas, rng)
        out.write("start,empirical,se,alpha_tilde_N\n")
        out.write(f"{args.site},{_fmt(frac)},{_fmt(se)},"
                  f"{_fmt(lin.alpha_tilde_N)}\n")
    if out is not sys.stdout:
        out.close()
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
    ps.add_argument("--t-end", type=float, default=0.5, dest="t_end")
    ps.add_argument("--ell", type=int, default=10)
    ps.add_argument("--replicas", type=int, default=1)
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
    pc.add_argument("--t-end", type=float, default=0.5, dest="t_end")
    pc.add_argument("--replicas", type=int, default=1)
    pc.add_argument("--window-margin", type=float, default=0.5)
    pc.add_argument("--out", default="couple.csv")
    pc.set_defaults(fn=cmd_couple)

    pi = sub.add_parser("invariant", help="stationary profiles")
    _add_model_flags(pi)
    pi.add_argument("--preset", choices=PRESETS, default=None)
    pi.add_argument("--density", type=float, default=1.0)
    pi.add_argument("--c1", type=float, default=None)
    pi.add_argument("--c2", type=float, default=None)
    pi.add_argument("--m-plus", type=float, default=None, dest="m_plus")
    pi.add_argument("--half-window", type=int, default=50)
    pi.add_argument("--validate", action="store_true")
    pi.add_argument("--t-end", type=float, default=1.0, dest="t_end")
    pi.add_argument("--replicas", type=int, default=100)
    pi.add_argument("--sites", type=int, nargs="*", default=None)
    pi.add_argument("--out", default="-")
    pi.set_defaults(fn=cmd_invariant)

    pp = sub.add_parser("pde", help="finite-volume solves")
    _add_model_flags(pp)
    pp.add_argument("--rho0", default="-1:0:1")
    pp.add_argument("--du", type=float, default=0.01)
    pp.add_argument("--T", type=float, default=0.8)
    pp.add_argument("--check", action="store_true")
    pp.add_argument("--out", default="pde.csv")
    pp.set_defaults(fn=cmd_pde)

    po = sub.add_parser("oracle", help="linear-case cross checks")
    _add_model_flags(po)
    po.add_argument("--mode", choices=("exact", "ode", "dual", "killprob"),
                    default="exact")
    po.add_argument("--rho0", default="-1:0:1")
    po.add_argument("--t", type=float, default=0.8)
    po.add_argument("--u-min", type=float, default=-2.0)
    po.add_argument("--u-max", type=float, default=2.0)
    po.add_argument("--site", type=int, default=0)
    po.add_argument("--replicas", type=int, default=10000)
    po.add_argument("--out", default="-")
    po.set_defaults(fn=cmd_oracle)

    pm = sub.add_parser("compare", help="particle system vs target")
    _add_model_flags(pm, include_N=False)
    pm.add_argument("--name", default="compare")
    pm.add_argument("--N", type=int, nargs="+", default=[100])
    pm.add_argument("--rho0", default="-1:0:1")
    pm.add_argument("--times", type=float, nargs="+", default=[0.8])
    pm.add_argument("--ell", type=int, default=10)
    pm.add_argument("--replicas", type=int, default=10)
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
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
