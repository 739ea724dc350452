import re
import time
import warnings

import numpy as np
import pytest

from zrhydro.engine import ModelParams
from zrhydro.invariant import (AdmissibilityError, build_profile,
                               maximal_admissible_window, preset_profile,
                               sample_stationary, stationarity_test)
from zrhydro.rates import linear_rate
from zrhydro.rng import replica_stream
from zrhydro.thermo import ThermoTable


@pytest.fixture(scope="module")
def lin_thermo():
    return ThermoTable(linear_rate(), rho_max=6.0)


class TestBuildProfile:
    def test_totally_asymmetric_two_level(self):
        params = ModelParams(p=1.0, alpha=1.0, beta=0.0, N=50)
        prof = build_profile(params, (-10, 10), m_plus=1.0)
        assert np.allclose(prof.m[:10], 2.0)
        assert np.allclose(prof.m[10:], 1.0)
        assert prof.residual() <= 1e-10

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
        lo, hi = maximal_admissible_window(params, 0.0, 0.5, 1.0, -0.5,
                                           zeta_star=5.0)
        # right branch 3^x - 0.5 crosses 5.0 between x=1 and x=2
        assert hi == 1
        assert lo <= -10 ** 6  # constant left branch never fails

    def test_settled_left_branch_reported_fast_and_quietly(self):
        # c1 = c2 = 1: the left branch tends to c2 and stays admissible,
        # while the right branch, 5 * 3^x - 3, overflows a double at x = 645
        params = ModelParams(p=0.75, alpha=1.0, beta=0.0, N=100)
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AdmissibilityError, match=re.escape(
                    "maximal admissible window is [-10000000, 644]")):
                build_profile(params, (-10, 700), c1=1.0, c2=1.0)
        assert time.perf_counter() - start < 1.0

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
