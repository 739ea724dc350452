import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zrhydro.engine import ModelParams
from zrhydro.invariant import (PRESETS, AdmissibilityError, build_profile,
                               maximal_admissible_window, preset_profile,
                               sample_stationary, stationarity_test)
from zrhydro.pde import _boundary_density
from zrhydro.rates import linear_rate, rate_from_spec
from zrhydro.rng import replica_stream
from zrhydro.thermo import ThermoTable


TABLE = "table:0,1,1.5,1.8;slope=0.25"
#: a density per rate whose presets stay admissible on [-30, 30]
DENSITY = {"linear": 1.0, "indicator": 0.2, TABLE: 1.5}
#: the window that an AdmissibilityError reports
REPORT = re.compile(r"maximal admissible window is \[(-?\d+), (-?\d+)\]")
#: a probe's distance from the origin, near it or up to 2 * 10^6 out
PROBE = st.one_of(st.integers(1, 30), st.integers(1, 2 * 10 ** 6))


@pytest.fixture(scope="module")
def lin_thermo():
    return ThermoTable(linear_rate(), rho_max=6.0)


@pytest.fixture(scope="module")
def thermos():
    return {spec: ThermoTable(rate_from_spec(spec),
                              rho_max=40.0 if spec == TABLE else 6.0)
            for spec in DENSITY}


class TestBuildProfile:
    def test_totally_asymmetric_two_level(self):
        params = ModelParams(p=1.0, alpha=1.0, beta=0.0, N=50)
        prof = build_profile(params, (-10, 10), m_plus=1.0)
        assert np.allclose(prof.m[:10], 2.0)
        assert np.allclose(prof.m[10:], 1.0)
        assert prof.residual() <= 1e-10

    def test_two_level_is_the_flat_right_family(self):
        params = ModelParams(p=1.0, alpha=1.0, beta=0.0, N=50)
        prof = build_profile(params, (-10, 10), m_plus=1.0)
        assert prof.constants == {"c1": -1.0, "c2": 2.0, "c3": 0.0,
                                  "c4": 1.0}
        assert np.all(prof.m[:10] == 2.0) and np.all(prof.m[10:] == 1.0)

    def test_flat_right_below_p_one(self):
        params = ModelParams(p=0.75, alpha=1.0, beta=0.0, N=50)
        prof = build_profile(params, (-20, 20), m_plus=0.5)
        c = prof.constants
        assert c["c3"] == 0.0 and c["c4"] == 0.5
        assert np.all(prof.m[20:] == 0.5)
        assert c["c1"] + c["c2"] == pytest.approx(0.5, rel=1e-15)
        assert prof.residual() <= 1e-10

    @pytest.mark.parametrize("p", [1.0, 0.75])
    @pytest.mark.parametrize("m_plus, zeta_star", [(-1.0, np.inf),
                                                   (0.6, 1.0)])
    def test_inadmissible_flat_right_rejected(self, p, m_plus, zeta_star):
        # m_+ < 0, then m_- = c2 >= zeta_star
        params = ModelParams(p=p, alpha=1.0, beta=0.0, N=50)
        with pytest.raises(AdmissibilityError):
            build_profile(params, (-5, 5), m_plus=m_plus,
                          zeta_star=zeta_star)

    @pytest.mark.parametrize("p, kw", [
        (1.0, {"c1": -0.5, "c2": 1.0}),
        (0.75, {"c1": -0.5, "c2": 1.0, "m_plus": 0.5}),
        (0.75, {"c1": -0.5})])
    def test_constants_set_one_way(self, p, kw):
        params = ModelParams(p=p, alpha=1.0, beta=0.0, N=50)
        with pytest.raises(ValueError, match="m_plus alone"):
            build_profile(params, (-5, 5), **kw)

    def test_homogeneous_without_destruction(self):
        params = ModelParams(p=0.75, alpha=0.0, beta=0.0, N=50)
        prof = build_profile(params, (-20, 20), c1=0.0, c2=0.7)
        assert np.allclose(prof.m, 0.7)
        assert prof.residual() <= 1e-10

    def test_constraint_identities(self):
        params = ModelParams(p=0.75, alpha=1.0, beta=0.0, N=100)
        prof = build_profile(params, (-10, 2), c1=-0.5, c2=1.0)
        c = prof.constants
        aNb = params.destruction_factor
        lhs = (c["c1"] * (1 - params.p) + c["c2"] * params.p
               + c["c3"] * params.p + c["c4"] * (1 - params.p))
        assert c["c1"] + c["c2"] == pytest.approx(c["c3"] + c["c4"],
                                                  rel=1e-12)
        assert lhs == pytest.approx((1 + aNb) * (c["c1"] + c["c2"]),
                                    rel=1e-12)

    def test_growing_branch_hits_fugacity_ceiling(self):
        # c3 = 2, c4 = -1: the right branch grows without bound and is
        # inadmissible once a finite fugacity ceiling applies
        params = ModelParams(p=0.75, alpha=1.0, beta=0.0, N=100)
        with pytest.raises(AdmissibilityError) as err:
            build_profile(params, (-5, 5), c1=0.0, c2=0.9, zeta_star=1.0)
        assert "admissible" in str(err.value)

    def test_negativity_rejected(self):
        params = ModelParams(p=0.75, alpha=1.0, beta=0.0, N=100)
        # c1 = 0.0, c2 small positive keeps the left branch fine, but a
        # negative c4 with vanishing c3 would be negative at +infinity;
        # build directly with c2 negative to force negativity at 0
        with pytest.raises(AdmissibilityError):
            build_profile(params, (-5, 5), c1=0.0, c2=-1.0)

    def test_maximal_window_reported(self):
        params = ModelParams(p=0.75, alpha=1.0, beta=0.0, N=100)
        lo, hi = maximal_admissible_window(
            params, {"c1": 0.0, "c2": 0.5, "c3": 1.0, "c4": -0.5}, split=1,
            zeta_star=5.0)
        # right branch 3^x - 0.5 crosses 5.0 between x=1 and x=2
        assert hi == 1
        assert lo <= -10 ** 6  # constant left branch never fails

    def test_settled_left_branch_reported_fast_and_quietly(self):
        # c1 = c2 = 1 at p = 0.75: the left branch tends to c2 and stays
        # admissible, while the right branch, 5 * 3^x - 3, overflows a
        # double at x = 645.  c1 = 1, c2 = -0.9999 at p = 0.50002 and
        # alpha = 0: the right branch r^x - 0.9999 grows so slowly that it
        # overflows only at x = 8872284
        cases = [(0.75, 1.0, (-10, 700), 1.0, 1.0, "[-10000000, 644]"),
                 (0.50002, 0.0, (-5, 5), 1.0, -0.9999, "[-1, 8872283]")]
        for p, alpha, window, c1, c2, report in cases:
            params = ModelParams(p=p, alpha=alpha, beta=0.0, N=100)
            start = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(AdmissibilityError, match=re.escape(
                        f"maximal admissible window is {report}")):
                    build_profile(params, window, c1=c1, c2=c2)
            assert time.perf_counter() - start < 1.0

    def test_origin_read_from_its_branch(self):
        # the flat-right profile holds c4 = m_plus = zeta_star at the
        # origin, while c1 + c2 rounds to 0.29999999999999993 there
        params = ModelParams(p=0.75, alpha=1.0, beta=0.0, N=50)
        with pytest.raises(AdmissibilityError,
                           match="inadmissible at the origin: 0.3$"):
            build_profile(params, (-5, 5), m_plus=0.3, zeta_star=0.3)

    @settings(max_examples=300, deadline=None)
    @given(p=st.one_of(st.floats(0.5, 1.0, exclude_min=True),
                       # p near 1/2 puts the ends of a window far out
                       st.floats(0.5, 0.5001, exclude_min=True)),
           alpha=st.floats(0.0, 2.0), beta=st.sampled_from([-1.0, 0.0, 1.0]),
           N=st.integers(1, 100),
           constants=st.one_of(
               st.fixed_dictionaries({"m_plus": st.floats(0.0, 3.0)}),
               st.fixed_dictionaries({"c1": st.floats(-2.0, 2.0),
                                      "c2": st.floats(-2.0, 3.0)})),
           zeta_star=st.one_of(st.just(math.inf), st.floats(0.01, 5.0)),
           probes=st.tuples(PROBE.map(lambda k: -k), PROBE))
    @example(p=0.50002, alpha=0.0, beta=0.0, N=100,
             constants={"c1": 1.0, "c2": -0.9999}, zeta_star=math.inf,
             probes=(-5, 9 * 10 ** 6))
    @example(p=0.5001, alpha=1e-3, beta=0.0, N=1, constants={"m_plus": 1.0},
             zeta_star=3.0, probes=(-2000, 5))
    def test_reported_window_ends_are_exact(self, p, alpha, beta, N,
                                            constants, zeta_star, probes):
        # wherever a one-site window at a probe is refused with a window
        # report, each finite end of the report builds as a one-site
        # window, and the site past it does not
        assume(p < 1 or "m_plus" in constants)
        params = ModelParams(p=p, alpha=alpha, beta=beta, N=N)

        def refusal(site):
            try:
                build_profile(params, (site, site), zeta_star=zeta_star,
                              **constants)
            except AdmissibilityError as err:
                return str(err)
            return None

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in probes:
                err = refusal(x)
                report = err and REPORT.search(err)
                if not report:  # the probe built, or the origin failed
                    assert err is None or refusal(0) == err
                    continue
                lo, hi = map(int, report.groups())
                assert lo <= 0 <= hi and not lo <= x <= hi
                for end, past in ((lo, lo - 1), (hi, hi + 1)):
                    if abs(end) < 10 ** 7:
                        assert refusal(end) is None and refusal(past)

    def test_residual_at_origin_with_destruction(self):
        params = ModelParams(p=0.75, alpha=2.0, beta=0.5, N=64)
        prof = build_profile(params, (-8, 8), c1=-0.1, c2=0.5)
        assert prof.residual() <= 1e-10


class TestPresets:
    def test_critical_preset_right_fugacity(self, lin_thermo):
        params = ModelParams(p=0.75, alpha=1.0, beta=0.0, N=100)
        prof = preset_profile("absorbing-critical", params, 1.0,
                              lin_thermo, (-15, 15))
        assert prof.residual() <= 1e-10
        assert prof.m[-1] == pytest.approx(lin_thermo.phi(1.0), rel=1e-6)
        assert prof.constants["c3"] == pytest.approx(0.0, abs=1e-12)

    def test_critical_preset_builds_past_the_overflow(self, lin_thermo):
        # its right branch is constant (c3 == 0); r**x overflows a double
        # from x = 645 on, and 0 * inf must not turn the branch into nan
        params = ModelParams(p=0.75, alpha=1.0, beta=0.0, N=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof = preset_profile("absorbing-critical", params, 1.0,
                                  lin_thermo, (-700, 700))
            homogeneous = build_profile(
                ModelParams(p=0.75, alpha=0.0, beta=0.0, N=100),
                (-700, 700), c1=0.0, c2=0.7)
        assert prof.constants["c3"] == 0.0
        assert np.all(prof.m[700:] == prof.constants["c4"])
        assert prof.residual() <= 1e-10
        assert np.all(homogeneous.m == 0.7)

    def test_subcritical_preset(self, lin_thermo):
        params = ModelParams(p=0.75, alpha=1.0, beta=0.5, N=100)
        prof = preset_profile("absorbing-subcritical", params, 1.0,
                              lin_thermo, (-15, 15))
        assert prof.residual() <= 1e-10
        drift, aNb = params.drift, params.destruction_factor
        expect = drift * lin_thermo.phi(1.0) / (drift + aNb)
        assert prof.m[-1] == pytest.approx(expect, rel=1e-4)

    @pytest.mark.parametrize("name, alpha", [("absorbing-critical", 0.3),
                                             ("absorbing-subcritical", 0.24)])
    def test_table_presets_flat_right(self, thermos, name, alpha):
        params = ModelParams(p=0.9, alpha=alpha, beta=0.0, N=100)
        prof = preset_profile(name, params, 1.5, thermos[TABLE], (-30, 30))
        assert prof.constants["c3"] == 0.0
        assert np.all(prof.m[30:] == prof.constants["c4"])

    @pytest.mark.parametrize("name", PRESETS)
    def test_presets_at_p_one(self, lin_thermo, name):
        params = ModelParams(p=1.0, alpha=1.0, beta=0.0, N=50)
        prof = preset_profile(name, params, 1.0, lin_thermo, (-10, 10))
        m_plus = lin_thermo.phi(1.0)
        if name == "absorbing-subcritical":
            m_plus = (m_plus * params.drift
                      / (params.drift + params.destruction_factor))
        ref = build_profile(params, (-10, 10), m_plus=m_plus)
        assert prof.constants == ref.constants
        assert prof.m.tobytes() == ref.m.tobytes()

    @pytest.mark.parametrize("name", PRESETS)
    @pytest.mark.parametrize("k", [0.3, 3.0])
    @pytest.mark.parametrize("p", [0.75, 0.9, 1.0])
    @pytest.mark.parametrize("spec", list(DENSITY))
    def test_pde_boundary_map_is_the_preset(self, thermos, spec, p, k,
                                            name):
        # at beta = 0 the PDE's Dirichlet map sends the left density
        # R(c2) to the right one, R(c4), for alpha on both sides of 2p-1
        params = ModelParams(p=p, alpha=k * (2 * p - 1), beta=0.0, N=50)
        thermo = thermos[spec]
        c = preset_profile(name, params, DENSITY[spec], thermo,
                           (-30, 30)).constants
        mapped = _boundary_density(thermo.phi_inverse(c["c2"]), params,
                                   thermo)
        assert mapped == pytest.approx(thermo.phi_inverse(c["c4"]),
                                       rel=1e-9)

    def test_unknown_preset(self, lin_thermo):
        params = ModelParams(p=0.75, alpha=1.0, beta=0.0, N=100)
        with pytest.raises(ValueError):
            preset_profile("mystery", params, 1.0, lin_thermo, (-5, 5))


class TestSampling:
    def test_zero_profile_empty(self, lin_thermo):
        params = ModelParams(p=0.75, alpha=0.0, beta=0.0, N=50)
        prof = build_profile(params, (-5, 5), c1=0.0, c2=0.0)
        cfg = sample_stationary(prof, lin_thermo, replica_stream(0, 0))
        assert cfg.total_mass == 0

    def test_draws_match_per_site_draws(self, lin_thermo):
        # one uniform per positive-fugacity site, left to right
        params = ModelParams(p=1.0, alpha=1.0, beta=0.0, N=50)
        prof = build_profile(params, (-6, 5), m_plus=1.5)
        prof.m[[0, 5, 6, 11]] = 0.0  # sampling reads only m
        a, b = replica_stream(7, 0), replica_stream(7, 0)
        cfg = sample_stationary(prof, lin_thermo, a)
        assert cfg.x_min == -6
        assert cfg.occ.tolist() == [
            int(lin_thermo.sample_by_fugacity(float(z), b, 1)[0])
            for z in prof.m]
        assert cfg.occ[[0, 5, 6, 11]].tolist() == [0, 0, 0, 0]
        assert a.random() == b.random()

    def test_two_level_sample_means(self, lin_thermo):
        params = ModelParams(p=1.0, alpha=1.0, beta=0.0, N=50)
        prof = build_profile(params, (-200, 199), m_plus=1.0)
        cfg = sample_stationary(prof, lin_thermo, replica_stream(1, 0))
        left = cfg.occ[:200].mean()
        right = cfg.occ[200:].mean()
        # Poisson means 2 and 1; 3 SE bands over 200 sites
        assert abs(left - 2.0) < 3 * np.sqrt(2.0 / 200)
        assert abs(right - 1.0) < 3 * np.sqrt(1.0 / 200)


class TestStationarity:
    def test_homogeneous_equilibrium(self, lin_thermo):
        params = ModelParams(p=0.75, alpha=0.0, beta=0.0, N=40)
        prof = build_profile(params, (-50, 50), c1=0.0, c2=0.8)
        rep = stationarity_test(prof, linear_rate(), lin_thermo,
                                t_end=0.3, replicas=60, sites=[-2, 0, 3],
                                master_seed=21)
        assert rep.passed

    def test_zero_time_is_initial_sample(self, lin_thermo):
        params = ModelParams(p=0.75, alpha=0.0, beta=0.0, N=40)
        prof = build_profile(params, (-10, 10), c1=0.0, c2=1.0)
        rep = stationarity_test(prof, linear_rate(), lin_thermo,
                                t_end=0.0, replicas=50, sites=[0],
                                master_seed=22)
        assert rep.sites[0].se_g > 0

    def test_site_outside_window_rejected(self, lin_thermo):
        params = ModelParams(p=0.75, alpha=0.0, beta=0.0, N=40)
        prof = build_profile(params, (-10, 10), c1=0.0, c2=1.0)
        with pytest.raises(ValueError):
            stationarity_test(prof, linear_rate(), lin_thermo, t_end=0.1,
                              replicas=5, sites=[99])
