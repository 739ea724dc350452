"""Golden values of the Kruzhkov entropy checker.

Each case builds a small grid (the ``TestKruzhkov`` setups of
``test_pde.py``, plus a beta = 0 Dirichlet check and a beta = 1 zero-flux
check on a composed theorem solution) and compares the checker's report
against ``kruzhkov_golden.json``: the entries in order (test function,
c, form, ``float.hex`` of the tolerance, value), the verdict and the
smallest passing boundary constant M.  Tolerances must match bit for
bit; values may move by reassociated sums only.

A rewrite of the checker must leave these reports unchanged.  Re-record
only for a change that alters the inequalities on purpose:

    PYTHONPATH=src python3 tests/test_kruzhkov_golden.py --record
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from zrhydro.engine import ModelParams
from zrhydro.pde import (DirichletDensity, FluxModel, PdeGrid, ZeroFlux,
                         compose_theorem_solution, default_M, kruzhkov_check,
                         solve_half_line, solve_whole_line)
from zrhydro.profiles import DensityProfile
from zrhydro.rates import indicator_rate, linear_rate
from zrhydro.testfuncs import TestFunction2D, bump_family
from zrhydro.thermo import ThermoTable

GOLDEN = Path(__file__).with_name("kruzhkov_golden.json")


def _flux(kind):
    if kind == "linear":
        return FluxModel(ThermoTable(linear_rate(), rho_max=6.0), p=0.75)
    return FluxModel(ThermoTable(indicator_rate(), rho_max=4.0), p=0.75)


def _constant_solution():
    flux = _flux("indicator")
    rho0 = DensityProfile.constant(1.0, -1.0, 1.0, 0.02)
    g = solve_whole_line(rho0, flux, T=0.5, domain=(-1.0, 1.0))
    return kruzhkov_check(g, flux, None,
                          [TestFunction2D(0.25, 0.2, 0.0, 0.5)],
                          c_values=[1.0])


def _shock_grid(flux):
    rho0 = DensityProfile.from_spec("-1:0:0,0:1.5:2", du=1 / 200)
    return solve_whole_line(rho0, flux, T=1.0, du=1 / 200,
                            domain=(-1.0, 1.5))


def _entropic_shock():
    flux = _flux("indicator")
    return kruzhkov_check(_shock_grid(flux), flux, None,
                          bump_family((0.1, 0.9), (-0.6, 0.9)))


def _nonentropic_jump():
    flux = _flux("indicator")
    g = _shock_grid(flux)
    vals = np.array([np.where(g.centers < t / 6, 2.0, 0.0) for t in g.times])
    fake = PdeGrid(u_min=-1.0, du=g.du, dt=g.dt, values=vals)
    return kruzhkov_check(fake, flux, None,
                          bump_family((0.1, 0.9), (-0.6, 0.9)))


def _dirichlet_semi_kruzhkov():
    flux = _flux("linear")
    rho0 = DensityProfile.constant(0.0, 0.0, 1.0, 0.01)
    bd = DirichletDensity(lambda t: 1.0)
    g = solve_half_line(rho0, flux, bd, T=1.0, du=0.01)
    fam = [TestFunction2D(0.5, 0.4, 0.0, 0.3),
           TestFunction2D(0.5, 0.4, 0.4, 0.3)]
    return kruzhkov_check(g, flux, bd, fam, M=default_M(flux, alpha=1.0))


def _zero_flux():
    flux = _flux("indicator")
    rho0 = DensityProfile.constant(0.0, 0.0, 1.0, 0.02)
    g = solve_half_line(rho0, flux, ZeroFlux(), T=0.5)
    return kruzhkov_check(g, flux, ZeroFlux(),
                          [TestFunction2D(0.25, 0.2, 0.5, 0.3)])


def _composed(beta):
    flux = _flux("linear")
    du = 1 / 50
    rho0 = DensityProfile.from_spec("-1:0:1", du=du)
    sol = compose_theorem_solution(beta, rho0, ModelParams(0.75, 1.0, beta,
                                                           400),
                                   flux.thermo, 0.8, du=du)
    fam = bump_family((0.05, 0.75), (-0.3, 0.9), 1, 2)
    if beta == 0.0:
        return kruzhkov_check(sol.right, flux,
                              DirichletDensity(sol.boundary_trace), fam,
                              M=default_M(flux, 1.0))
    return kruzhkov_check(sol.right, flux, ZeroFlux(), fam)


CASES = {
    "constant_solution_exact_zero": _constant_solution,
    "entropic_shock_passes": _entropic_shock,
    "nonentropic_jump_fails": _nonentropic_jump,
    "dirichlet_semi_kruzhkov": _dirichlet_semi_kruzhkov,
    "zero_flux_boundary_integrals_reported": _zero_flux,
    "composed_beta0_dirichlet": lambda: _composed(0.0),
    "composed_beta1_zero_flux": lambda: _composed(1.0),
}


def _summary(report):
    return {
        "entries": [[e.test_name, float(e.c), e.form, float(e.tol).hex(),
                     float(e.value)] for e in report.entries],
        "passed": report.passed,
        "smallest_M": (None if report.smallest_M is None
                       else float(report.smallest_M)),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", list(CASES))
def test_kruzhkov_report_matches_golden(case, golden):
    want, got = golden[case], _summary(CASES[case]())
    assert len(got["entries"]) == len(want["entries"])
    for g, w in zip(got["entries"], want["entries"]):
        assert g[:4] == w[:4]
        assert g[4] == pytest.approx(w[4], rel=1e-12, abs=1e-15)
    assert got["passed"] == want["passed"]
    assert got["smallest_M"] == want["smallest_M"]


def _record():
    doc = {case: _summary(build()) for case, build in CASES.items()}
    # one entry per line
    cases = []
    for case, s in doc.items():
        rows = ",\n".join(f"   {json.dumps(e)}" for e in s["entries"])
        cases.append(f' {json.dumps(case)}: {{\n'
                     f'  "entries": [\n{rows}\n  ],\n'
                     f'  "passed": {json.dumps(s["passed"])},\n'
                     f'  "smallest_M": {json.dumps(s["smallest_M"])}\n }}')
    GOLDEN.write_text("{\n" + ",\n".join(cases) + "\n}\n")
    assert json.loads(GOLDEN.read_text()) == doc
    print(f"recorded {len(doc)} cases to {GOLDEN.name}")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
