"""End-to-end checks combining the engines, oracles and the PDE solver.

Each test prints a single PASS/FAIL line.  Tolerances mix exact
structural properties (ordering, conservation, residuals) with
statistical bands sized for the replica counts used.
"""
import numpy as np
import pytest

from zrhydro import engine
from zrhydro.coupling import (BasicCouplingEngine, PairConfiguration,
                              SecondClassEngine, run_labeled_coupling,
                              second_class_left_mass)
from zrhydro.engine import (Configuration, EventBudgetError, EventEngine,
                            ModelParams, build_initial, choose_window,
                            empirical_density)
from zrhydro.harness import ExperimentSpec, compare
from zrhydro.invariant import build_profile, stationarity_test
from zrhydro.oracle import (LinearCaseParams, correlation_field,
                            dual_rw_estimate, exact_linear_solution,
                            integrate_density_ode,
                            killing_probability_experiment)
from zrhydro.pde import (FluxModel, PdeGrid, boundary_flux_trace,
                         compose_theorem_solution, kruzhkov_check,
                         solve_whole_line)
from zrhydro.profiles import DensityProfile
from zrhydro.rates import indicator_rate, linear_rate
from zrhydro.rng import replica_stream
from zrhydro.testfuncs import bump_family
from zrhydro.thermo import ThermoTable


def _verdict(tag: str, ok: bool, detail: str) -> bool:
    print(f"acceptance {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _mollified_step(width=0.3):
    def f(u):
        u = np.asarray(u, dtype=float)
        out = (np.clip((u + 1.0) / width, 0.0, 1.0)
               * np.clip(-u / width, 0.0, 1.0))
        return out if out.ndim else float(out)
    return f


def _plateau_mean(prof: DensityProfile, u_lo: float, u_hi: float) -> float:
    us = prof.centers
    sel = (us >= u_lo) & (us <= u_hi)
    return float(prof.values[sel].mean())


def test_01_linear_hydrodynamics_critical_destruction():
    spec = ExperimentSpec(name="accept-critical", rate="linear", p=0.75,
                          alpha=1.0, beta=0.0, N=(200,), rho0="-1:0:1",
                          times=(0.8,), ell=10, replicas=50, seed=101,
                          target="oracle", tolerance=0.08,
                          interval=(-2.0, 2.0))
    report = compare(spec)
    dist = report.entries[0].distance
    prof = report.mean_profiles[(200, 0.8)]
    left = _plateau_mean(prof, -0.35, -0.05)
    right = _plateau_mean(prof, 0.05, 0.35)
    ratio = right / left
    ok = dist <= 0.08 and abs(ratio - 1 / 3) <= 0.05
    assert _verdict("01 linear-critical",
                    ok, f"L1={dist:.4f} tol 0.08, drop ratio {ratio:.4f} "
                        f"vs 1/3 +/- 0.05")


def test_02_linear_hydrodynamics_strong_and_weak_destruction():
    plateaus = {}
    for beta in (1.0, -1.0):
        spec = ExperimentSpec(name=f"accept-beta{beta:g}", rate="linear",
                              p=0.75, alpha=1.0, beta=beta, N=(200,),
                              rho0="-1:0:1", times=(0.8,), ell=10,
                              replicas=150, seed=102, target="none",
                              interval=(-2.0, 2.0))
        report = compare(spec)
        prof = report.mean_profiles[(200, 0.8)]
        # for beta = -1 stop short of the transported front at 0.4, whose
        # diffusive smearing at finite N would bias the plateau mean
        hi = 0.35 if beta > 0 else 0.28
        plateaus[beta] = _plateau_mean(prof, 0.05, hi)
    ok = plateaus[1.0] <= 0.05 and abs(plateaus[-1.0] - 1.0) <= 0.05
    assert _verdict("02 linear-regimes",
                    ok, f"beta=1 plateau {plateaus[1.0]:.4f} <= 0.05; "
                        f"beta=-1 plateau {plateaus[-1.0]:.4f} in 1 +/- 0.05")


def test_03_dual_walk_killing_probability():
    params = ModelParams(0.75, 1.0, 0.0, 100)
    frac, se = killing_probability_experiment(params, 0, 10_000,
                                              replica_stream(103, 0))
    ok = abs(frac - 2 / 3) <= 3 * se
    assert _verdict("03 killing-probability",
                    ok, f"empirical {frac:.4f} vs 2/3, se {se:.4f}")


def test_04_oracle_cross_agreement():
    params = ModelParams(0.75, 1.0, 0.0, 100)
    rho0 = _mollified_step()
    curve = integrate_density_ode(rho0, params, (-200, 150), 0.6,
                                  times=[0.3, 0.6])
    rng = replica_stream(104, 0)
    worst_z = 0.0
    for ti, t in enumerate((0.3, 0.6)):
        for x in (-20, -10, 0, 10, 20):
            est, se = dual_rw_estimate(x, t, params, rho0, 500, rng)
            ref = curve.values[ti, x + 200]
            worst_z = max(worst_z, abs(est - ref) / max(se, 1e-3))
    xs = np.arange(-200, 151) / 100
    exact = exact_linear_solution(rho0, LinearCaseParams(params), 0.6, xs)
    mask = (np.abs(xs) > 0.05) & (np.abs(xs - 0.3) > 0.05)
    sup = float(np.max(np.abs(curve.values[1] - exact)[mask]))
    ok = worst_z <= 3.0 and sup <= 0.1
    assert _verdict("04 oracle-cross-agreement",
                    ok, f"worst dual-vs-ode z {worst_z:.2f} <= 3; "
                        f"ode-vs-exact sup {sup:.4f} <= 0.1")


def test_05_invariant_measure_stationarity():
    params = ModelParams(p=1.0, alpha=1.0, beta=0.0, N=50)
    prof = build_profile(params, (-120, 120), m_plus=1.0)
    res = prof.residual()
    thermo = ThermoTable(linear_rate(), rho_max=6.0)
    rep = stationarity_test(prof, linear_rate(), thermo, t_end=1.0,
                            replicas=200,
                            sites=[-20, -10, -3, -1, 0, 1, 3, 10, 20],
                            master_seed=105)
    ok = res <= 1e-10 and rep.passed
    assert _verdict("05 stationarity",
                    ok, f"residual {res:.2e} <= 1e-10; 3-se bands "
                        f"{'ok' if rep.passed else 'violated'} at "
                        f"{len(rep.sites)} sites")


def test_06_ordering_preserved_and_pair_mass_conserved(monkeypatch):
    params = ModelParams(0.75, 1.0, 0.0, 100)
    rng = replica_stream(106, 0)
    lo = rng.poisson(1.0, 201)
    hi = lo + rng.poisson(1.0, 201)
    pair = PairConfiguration(
        Configuration(-100, lo.astype(np.int64), closed=True),
        Configuration(-100, hi.astype(np.int64), closed=True))
    mass = (int(lo.sum()), int(hi.sum()))
    monkeypatch.setattr(engine, "MAX_EVENTS", 1_000_000)
    eng = BasicCouplingEngine(pair, params, indicator_rate(),
                              replica_stream(106, 1), order_guard=True)
    with pytest.raises(EventBudgetError):
        eng.run(1e9)
    ordered = bool(np.all(pair.omega.occ <= pair.varpi.occ))
    mass_ok = (int(pair.omega.occ.sum()) + pair.omega.destroyed_count
               == mass[0]
               and int(pair.varpi.occ.sum()) + pair.varpi.destroyed_count
               == mass[1])
    sc = SecondClassEngine(
        Configuration(-50, rng.poisson(1.5, 101).astype(np.int64),
                      closed=True),
        params, indicator_rate(), replica_stream(106, 2))
    st_mass0 = sum(sc._w)
    sc.run(0.5)
    pair_mass_ok = sum(sc._w) + sum(sc._z) == st_mass0
    ok = (eng.order_violations == 0 and ordered and mass_ok
          and pair_mass_ok)
    assert _verdict("06 ordering",
                    ok, f"{eng.n_events} events, "
                        f"{eng.order_violations} violations; copy and "
                        f"pair-process mass conserved: "
                        f"{mass_ok and pair_mass_ok}")


def test_07_second_class_particle_bound():
    rate = linear_rate()
    rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
    mean_k = {}
    mean_left = {}
    for N in (50, 100, 200):
        params = ModelParams(0.75, 1.0, -0.5, N)
        window = choose_window(rho0.support(), params, 1.0, 0.5)
        ks, lms = [], []
        for rep in range(100):
            rng = replica_stream(107, rep + 1000 * N)
            cfg = build_initial(rho0, params, window, rng)
            eng = SecondClassEngine(cfg, params, rate, rng)
            eng.run(1.0)
            st = eng.state()
            ks.append(st.k_t)
            lms.append(second_class_left_mass(st, N))
        mean_k[N] = float(np.mean(ks))
        mean_left[N] = float(np.mean(lms))
    bounds = {N: 1.1 * 1.0 * 1.0 * 1.0 * N ** 0.5 * 1.0
              for N in mean_k}
    bound_ok = all(mean_k[N] <= bounds[N] for N in mean_k)
    trend_ok = mean_left[50] > mean_left[100] > mean_left[200]
    ok = bound_ok and trend_ok
    assert _verdict(
        "07 second-class-bound", ok,
        "mean K_t " + ", ".join(f"N={N}: {mean_k[N]:.2f} <= "
                                f"{bounds[N]:.2f}" for N in mean_k)
        + f"; left mass {mean_left[50]:.4f} > {mean_left[100]:.4f} > "
          f"{mean_left[200]:.4f}")


def test_08_godunov_convergence_and_entropy():
    from zrhydro.testfuncs import hat_profile_callable
    thermo = ThermoTable(linear_rate(), rho_max=6.0)
    flux = FluxModel(thermo, 0.75)
    # Lipschitz initial data: first-order convergence; jump data would
    # only converge at order 1/2 in L1
    hat = hat_profile_callable(-0.5, 0.3)
    errs = []
    conserved = True
    for du in (0.02, 0.01, 0.005):
        rho0 = DensityProfile.from_callable(hat, -1.2, 0.5, du)
        g = solve_whole_line(rho0, flux, T=0.8, du=du, domain=(-1.5, 1.0))
        exact = hat_profile_callable(-0.1, 0.3)
        errs.append(g.at_time(0.8).l1_distance(exact, -1.5, 1.0))
        bal = g.mass() + g.outflow - g.inflow
        conserved &= bool(np.max(np.abs(bal - bal[0]))
                          <= 1e-12 * max(bal[0], 1.0))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ratios_ok = 1.7 <= r1 <= 2.3 and 1.7 <= r2 <= 2.3

    ithermo = ThermoTable(indicator_rate(), rho_max=4.0)
    iflux = FluxModel(ithermo, 0.75)
    riem = DensityProfile.from_spec("-1:0:0,0:1.5:2", du=1 / 200)
    sol = solve_whole_line(riem, iflux, T=1.0, du=1 / 200,
                           domain=(-1.0, 1.5))
    fam = bump_family((0.1, 0.9), (-0.6, 0.9))
    entropic = kruzhkov_check(sol, iflux, None, fam).passed
    cells = sol.centers
    fake_vals = np.array([np.where(cells < t / 6, 2.0, 0.0)
                          for t in sol.times])
    fake = PdeGrid(u_min=-1.0, du=1 / 200, dt=sol.dt, values=fake_vals)
    nonentropic_rejected = not kruzhkov_check(fake, iflux, None,
                                              fam).passed
    ok = ratios_ok and conserved and entropic and nonentropic_rejected
    assert _verdict(
        "08 godunov-entropy", ok,
        f"refinement ratios {r1:.2f}, {r2:.2f} in [1.7, 2.3]; "
        f"conservation {conserved}; entropy PASS on solver output, "
        f"FAIL on transported jump: {nonentropic_rejected}")


def test_09_nonlinear_riemann_desk_test():
    rate = indicator_rate()
    thermo = ThermoTable(rate, rho_max=6.0)
    flux = FluxModel(thermo, 0.75)
    du = 1 / 200
    riem = DensityProfile.from_spec("0:1.5:2", du=du)
    sol = solve_whole_line(riem, flux, T=1.0, du=du, domain=(-1.2, 1.5))
    pde_prof = sol.at_time(1.0)

    params = ModelParams(0.75, 0.0, 0.0, 500)
    window = (int(-1.2 * 500), int(1.5 * 500))
    profs = []
    for rep in range(30):
        rng = replica_stream(109, rep)
        cfg = build_initial(riem, params, window, rng)
        eng = EventEngine(cfg, params, rate, rng, leak_fraction=1.0)
        eng.run(1.0)
        profs.append(empirical_density(cfg, params, 10))
    mean_vals = np.mean([p.values for p in profs], axis=0)
    kmc_prof = DensityProfile(profs[0].u_min, profs[0].du, mean_vals)

    dist = kmc_prof.l1_distance(pde_prof, -1.0, 1.0)

    def front(prof):
        us = prof.centers
        sel = (us >= -1.0) & (us <= 1.0)
        above = prof.values[sel] > 1.0
        return float(us[sel][np.argmax(above)])

    f_kmc, f_pde = front(kmc_prof), front(pde_prof)
    ok = (dist <= 0.1 and abs(f_kmc - 1 / 6) <= 0.03
          and abs(f_pde - 1 / 6) <= 0.03)
    assert _verdict("09 nonlinear-riemann",
                    ok, f"L1={dist:.4f} <= 0.1; fronts kmc {f_kmc:.4f}, "
                        f"godunov {f_pde:.4f} vs 1/6 +/- 0.03")


def test_10_labeled_coupling_discrepancy_vanishes():
    rate = indicator_rate()
    rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
    means = {}
    for N in (25, 50, 100):
        params = ModelParams(0.75, 1.0, 1.0, N)
        window = choose_window(rho0.support(), params, 0.5, 0.5)
        vals = []
        for rep in range(100):
            rng = replica_stream(110, rep + 1000 * N)
            cfg = build_initial(rho0, params, window, rng)
            vals.append(run_labeled_coupling(cfg, params, rate, 0.5, rng)
                        / N)
        means[N] = float(np.mean(vals))
    ok = means[25] > means[50] > means[100]
    assert _verdict("10 labeled-coupling",
                    ok, f"discrepancy/N {means[25]:.4f} > {means[50]:.4f} "
                        f"> {means[100]:.4f}")


def test_11_boundary_flux_consistency():
    thermo = ThermoTable(linear_rate(), rho_max=6.0)
    params = ModelParams(0.75, 1.0, 0.0, 100)
    du = 0.01
    rho0 = DensityProfile.from_spec("-1:0:1", du=du)
    sol = compose_theorem_solution(0.0, rho0, params, thermo, 0.8, du=du)
    flux = FluxModel(thermo, 0.75)

    times, mass_rate, flux_in = boundary_flux_trace(sol.right, flux)
    inner = slice(3, -3)
    scale = max(float(np.max(np.abs(flux_in))), 1e-12)
    flux_err = float(np.max(np.abs(mass_rate[inner] - flux_in[inner]))
                     / scale)

    right_first = sol.right.values[:, 0]
    bdry = np.array([sol.boundary_trace(t) for t in sol.right.times])
    sel = sol.right.times >= 0.1
    trace_err = float(np.max(np.abs(right_first[sel] - bdry[sel])))
    ok = flux_err <= 0.02 and trace_err <= 2 * du
    assert _verdict("11 boundary-flux",
                    ok, f"mass balance rel err {flux_err:.4f} <= 0.02; "
                        f"right trace err {trace_err:.4f} <= {2 * du:g}")


def test_12_correlation_decay():
    params = ModelParams(0.75, 1.0, 0.0, 200)
    rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
    window = choose_window(rho0.support(), params, 0.5, 0.5)
    occs = []
    for rep in range(1000):
        rng = replica_stream(112, rep)
        cfg = build_initial(rho0, params, window, rng)
        eng = EventEngine(cfg, params, linear_rate(), rng,
                          leak_fraction=1.0)
        eng.run(0.5)
        occs.append(cfg.occ.copy())
    occ_matrix = np.array(occs)
    sites = [-60, -40, -20, 0, 20, 40]
    worst = 0.0
    worst_pair = None
    for i, x in enumerate(sites):
        for y in sites[i + 1:]:
            if abs(x - y) < 40:
                continue
            est, se = correlation_field(occ_matrix, window[0], x, y)
            z = abs(est) / max(se, 1e-12)
            if z > worst:
                worst, worst_pair = z, (x, y)
    ok = worst <= 4.0
    assert _verdict("12 correlation-decay",
                    ok, f"max |cov|/se {worst:.2f} <= 4 at pair "
                        f"{worst_pair}")
