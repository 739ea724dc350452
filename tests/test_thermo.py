import math

import numpy as np
import pytest

from zrhydro.rates import (RateError, RateFunction, bounded_rate,
                           indicator_rate, linear_rate, rate_from_spec)
from zrhydro.thermo import (DensityRangeError, DivergenceError, ThermoTable,
                            mean_density, partition_function)


class TestRateFunction:
    def test_linear_values(self):
        g = linear_rate()
        assert g.g(0) == 0.0
        assert g.g(5) == 5.0
        assert g.g(1000) == 1000.0  # affine continuation
        assert not g.bounded

    def test_indicator_values(self):
        g = indicator_rate()
        assert g.g(0) == 0.0
        assert g.g(1) == 1.0
        assert g.g(17) == 1.0
        assert g.bounded and g.sup_g == 1.0

    def test_table_array(self):
        g = linear_rate(k_max=4)
        assert np.allclose(g.table(8), np.arange(9.0))

    def test_rejects_nonmonotone(self):
        with pytest.raises(RateError):
            RateFunction((0.0, 2.0, 1.0), lipschitz_a0=2.0)

    def test_rejects_nonzero_origin(self):
        with pytest.raises(RateError):
            RateFunction((1.0, 2.0), lipschitz_a0=1.0)

    def test_rejects_lipschitz_violation(self):
        with pytest.raises(RateError):
            RateFunction((0.0, 5.0), lipschitz_a0=1.0)

    def test_spec_parsing(self):
        assert rate_from_spec("linear").name == "linear"
        assert rate_from_spec("indicator").g(3) == 1.0
        assert rate_from_spec("bounded:2.5").sup_g == 2.5
        g = rate_from_spec("table:0,1,1.5;slope=0.5")
        assert g.g(2) == 1.5 and g.g(4) == 2.5
        with pytest.raises(RateError):
            rate_from_spec("mystery")


class TestPartitionFunction:
    def test_zeta_zero(self):
        assert partition_function(linear_rate(), 0.0) == 1.0

    def test_linear_is_exponential(self):
        assert partition_function(linear_rate(), 1.0) == pytest.approx(
            math.e, rel=1e-10)

    def test_indicator_is_geometric(self):
        assert partition_function(indicator_rate(), 0.5) == pytest.approx(
            2.0, rel=1e-9)

    def test_divergence_beyond_radius(self):
        with pytest.raises(DivergenceError):
            partition_function(indicator_rate(), 1.5)

    def test_divergence_decided_by_radius(self, monkeypatch):
        # zeta* = sup g: infinite for the linear rate, whose terms grow
        # for the first 52 of them at zeta = 52; 1 for the indicator rate
        assert partition_function(linear_rate(), 52.0) == pytest.approx(
            math.exp(52), rel=1e-12)
        assert math.isfinite(partition_function(linear_rate(), 700.0))
        with pytest.raises(DivergenceError):
            partition_function(linear_rate(), 800.0)  # e^800 overflows
        # the radius decides at zeta*, before any term is summed
        rate = indicator_rate()
        monkeypatch.setattr(RateFunction, "g", lambda self, k: 1 / 0)
        with pytest.raises(DivergenceError):
            partition_function(rate, 1.0)

    def test_negative_fugacity_rejected(self):
        with pytest.raises(ValueError):
            partition_function(linear_rate(), -0.1)


class TestMeanDensity:
    def test_linear_identity(self):
        # Poisson marginal: R(zeta) = zeta
        for z in (0.2, 0.7, 2.0):
            assert mean_density(linear_rate(), z) == pytest.approx(z, rel=1e-9)

    def test_indicator_geometric(self):
        # geometric marginal: R(zeta) = zeta/(1-zeta)
        for z in (0.25, 0.5, 0.8):
            assert mean_density(indicator_rate(), z) == pytest.approx(
                z / (1 - z), rel=1e-8)


@pytest.fixture(scope="module")
def lin():
    return ThermoTable(linear_rate(), rho_max=5.0)


@pytest.fixture(scope="module")
def ind():
    return ThermoTable(indicator_rate(), rho_max=4.0)


class TestThermoTable:
    def test_phi_zero(self, lin):
        assert lin.phi(0.0) == 0.0

    def test_phi_linear_identity(self, lin):
        assert lin.phi(2.0) == pytest.approx(2.0, abs=1e-8)

    def test_phi_indicator_closed_form(self, ind):
        # Phi(rho) = rho / (1 + rho)
        for rho in (0.5, 1.0, 2.0, 3.0):
            assert ind.phi(rho) == pytest.approx(rho / (1 + rho), abs=1e-8)

    def test_round_trip(self, ind):
        for rho in (0.3, 1.7):
            assert ind.phi_inverse(ind.phi(rho)) == pytest.approx(rho,
                                                                  abs=1e-7)

    def test_strictly_increasing_grid(self, lin):
        assert np.all(np.diff(lin.densities) > 0)

    def test_density_out_of_range(self, lin):
        with pytest.raises(DensityRangeError):
            lin.phi(1e9)

    def test_vectorized_matches_scalar(self, ind):
        rhos = np.array([0.2, 1.0, 2.5])
        vec = ind.phi_of(rhos)
        for r, v in zip(rhos, vec):
            assert v == pytest.approx(ind.phi(r), abs=1e-6)

    def test_sampling_mean(self, lin):
        rng = np.random.default_rng(1)
        draws = lin.sample_marginal(1.0, rng, 100_000)
        assert abs(draws.mean() - 1.0) < 0.01

    def test_indicator_sampling_is_geometric(self, ind):
        rng = np.random.default_rng(2)
        draws = ind.sample_by_fugacity(0.5, rng, 50_000)
        # P(k) = (1 - zeta) zeta^k
        frac0 = np.mean(draws == 0)
        assert abs(frac0 - 0.5) < 0.01

    def test_marginal_pmf_normalized(self, ind):
        pmf = ind.marginal_pmf(0.7)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-10)
