import math
import warnings

import numpy as np
import pytest

from zrhydro import _ckernel, thermo
from zrhydro.rates import (RateError, RateFunction, indicator_rate,
                           linear_rate, rate_from_spec)
from zrhydro.thermo import (PHI_TOL, SERIES_TOL, TERM_BUDGET,
                            DensityRangeError, DivergenceError, ThermoTable,
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

    def test_vectorized_range_check(self, lin):
        top = lin.covered_rho_max
        # a NaN passes and maps to NaN, but hides no density out of range
        got = lin.phi_of(np.array([[math.nan, 0.5], [1.0, math.nan]]))
        assert np.isnan(got[0, 0]) and got[1, 0] == lin.phi_of(1.0)
        assert lin.phi_of(np.array([])).shape == (0,)
        for bad in ([math.nan, 2 * top], [0.5, -1e-9], [top * (1 + 1e-8)]):
            with pytest.raises(DensityRangeError, match="tabulated range"):
                lin.phi_of(np.array(bad))
        assert lin.phi_of(top * (1 + 1e-10)) == lin.phi_of(top)
        assert lin.phi_of(-1e-13) == 0.0

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

    @pytest.mark.parametrize("zeta", [35.0, 61.0])
    def test_high_fugacity_pmf_passes_its_mode(self, lin, zeta):
        # 1/Z is far below PMF_TAIL_TOL here, so the first terms are too,
        # while the pmf still rises towards its mode near zeta
        assert lin.marginal_pmf(zeta).sum() == pytest.approx(1.0, abs=1e-12)
        n = 2000
        draws = lin.sample_by_fugacity(zeta, np.random.default_rng(3), n)
        # Poisson(zeta): the standard error of the mean is sqrt(zeta / n)
        assert abs(draws.mean() - zeta) < 4 * np.sqrt(zeta / n)


# -- the array series core against a plain scalar loop -------------------


def _ref_series(rate, zeta, weight_k):
    """sum_k (k) zeta^k / g(k)!, one term at a time."""
    if zeta >= rate.sup_g:
        raise DivergenceError("beyond the radius")
    term = 1.0
    total = 0.0 if weight_k else 1.0
    for k in range(1, TERM_BUDGET):
        term *= zeta / rate.g(k)
        total += k * term if weight_k else term
        if term <= SERIES_TOL * total:
            if total == math.inf:
                raise DivergenceError("overflow")
            return total
    raise DivergenceError("term budget")


def _ref_mean_density(rate, zeta):
    if zeta == 0.0:
        return 0.0
    return _ref_series(rate, zeta, True) / _ref_series(rate, zeta, False)


def _ref_phi(table, rho):
    if rho == 0.0:
        return 0.0
    lo, hi = 0.0, float(table.zetas[-1])
    while hi - lo > PHI_TOL:
        mid = 0.5 * (lo + hi)
        if _ref_mean_density(table.rate, mid) < rho:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _hex_or_error(fn, *args):
    try:
        return float(fn(*args)).hex()
    except DivergenceError:
        return "diverges"


CORE_RATES = ("linear", "indicator", "table:0,1,1.5,1.8;slope=0.25")


class TestSeriesCore:
    @pytest.mark.parametrize("spec", CORE_RATES)
    def test_bit_identical_to_scalar_loop(self, spec):
        rate = rate_from_spec(spec)
        table = ThermoTable(rate, 5.0)
        # the grid is one array call per quantity
        grid = table.zetas
        assert [x.hex() for x in partition_function(rate, grid)] == [
            _ref_series(rate, float(z), False).hex() for z in grid]
        assert [x.hex() for x in table.densities] == [
            _ref_mean_density(rate, float(z)).hex() for z in grid]
        # at 700 the linear Z = e^700 stays finite, the table rate's Z
        # overflows and the indicator rate is past its radius
        for z in (0.0, 52.0, 700.0):
            assert _hex_or_error(partition_function, rate, z) \
                == _hex_or_error(_ref_series, rate, z, False)
            assert _hex_or_error(mean_density, rate, z) \
                == _hex_or_error(_ref_mean_density, rate, z)

    def test_divergence_rules_hold_inside_an_array(self):
        with pytest.raises(DivergenceError, match="overflows"):
            partition_function(linear_rate(), np.array([1.0, 800.0]))
        with pytest.raises(DivergenceError, match="term budget"):
            partition_function(indicator_rate(), np.array([0.5, 0.999]))
        with pytest.raises(DivergenceError, match="does not converge"):
            mean_density(indicator_rate(), np.array([0.5, 1.0]))

    def test_raises_no_numpy_warnings(self):
        rate = linear_rate()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            partition_function(rate, np.linspace(0.0, 700.0, 41))
            mean_density(rate, np.array([0.0, 1e-300, 3.0, 700.0]))
            with pytest.raises(DivergenceError):
                partition_function(rate, 800.0)

    def test_scalar_in_float_out(self, ind):
        rate = indicator_rate()
        for value in (partition_function(rate, 0.5),
                      mean_density(rate, 0.5), ind.phi(1.5),
                      ind.phi(0.0), ind.phi_inverse(0.5)):
            assert type(value) is float
        assert partition_function(rate, np.array([[0.5]])).shape == (1, 1)

    @pytest.mark.parametrize("spec", CORE_RATES)
    def test_array_phi_is_per_element_bisection(self, spec):
        table = ThermoTable(rate_from_spec(spec), 4.0)
        rhos = np.concatenate([[0.0, 1e-9], np.linspace(0.05, 4.0, 9)])
        got = table.phi(rhos)
        assert got.shape == rhos.shape
        assert [x.hex() for x in got] == [
            _ref_phi(table, float(r)).hex() for r in rhos]
        assert table.phi(rhos.reshape(1, -1)).shape == (1, len(rhos))
        with pytest.raises(DensityRangeError):
            table.phi(np.array([1.0, 1e9]))

    def test_array_sampling_is_per_entry_inversion(self, lin):
        # n draws per entry in order; a zero fugacity draws nothing
        zetas = np.array([0.5, 0.0, 3.0, 0.0, 1.2])
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        draws = lin.sample_by_fugacity(zetas, a, 3)
        assert draws.shape == (5, 3)
        for z, row in zip(zetas, draws):
            if z == 0.0:
                assert row.tolist() == [0, 0, 0]
                continue
            term = 1.0 / _ref_series(lin.rate, z, False)
            pmf = [term]
            while term >= 1e-13 or len(pmf) == 1:
                term *= z / lin.rate.g(len(pmf))
                pmf.append(term)
            cdf = np.cumsum(pmf)
            cdf[-1] = max(cdf[-1], 1.0)
            assert lin.marginal_pmf(z).tolist() == pmf
            assert row.tolist() == np.searchsorted(
                cdf, b.random(3), side="right").tolist()
        assert a.random() == b.random()


# -- the compiled series against the numpy reference ----------------------

#: the largest fugacity each rate's series is checked at: the linear Z
#: stays finite to 700, and the others stop just short of an error
SERIES_TOPS = {"linear": 700.0, "indicator": 0.99,
               "table:0,1,1.5,1.8;slope=0.25": 180.0, "bounded:3": 2.99}


def _hexes(a):
    return [float(x).hex() for x in np.ravel(a)]


def _grid(top, n, seed):
    """Both ends, an even grid and random points of [0, top]."""
    rand = np.random.default_rng(seed).uniform(0.0, top, n)
    return np.concatenate([[0.0, top], np.linspace(0.0, top, n), rand])


class TestCompiledSeries:
    """R and Phi on each path (``kernel``) bit for bit against the numpy
    reference."""

    @pytest.mark.parametrize("spec", sorted(SERIES_TOPS))
    def test_mean_density_is_the_series_ratio(self, spec, kernel,
                                              monkeypatch):
        rate = rate_from_spec(spec)
        zs = _grid(SERIES_TOPS[spec], 300, 2)
        Z, S = thermo._series(rate, zs, weighted=True)
        with monkeypatch.context() as m:
            if kernel == "c":
                # the compiled series finishes without the reference
                m.setattr(thermo, "_series", None)
            got = mean_density(rate, zs)
            one = mean_density(rate, zs[1])
        assert _hexes(got) == _hexes(S / Z)
        assert one.hex() == float(S[1] / Z[1]).hex()

    @pytest.mark.parametrize("spec", sorted(SERIES_TOPS))
    def test_phi_is_the_lockstep_bisection(self, spec, kernel, monkeypatch):
        table = ThermoTable(rate_from_spec(spec), 4.0)
        rhos = _grid(table.covered_rho_max, 400, 5)
        with monkeypatch.context() as m:
            if kernel == "c":
                # the compiled bisection finishes without the lockstep one
                m.setattr(thermo, "mean_density", None)
            got = table.phi(rhos)
        monkeypatch.setattr(_ckernel, "load", lambda: None)
        assert _hexes(got) == _hexes(table.phi(rhos))

    def test_nan_density_is_out_of_range(self, lin, kernel, monkeypatch):
        # the range check raises before either bisection starts
        monkeypatch.setattr(thermo, "mean_density", None)
        for rho in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(DensityRangeError, match="density nan"):
                lin.phi(rho)

    @pytest.mark.parametrize("rate", [linear_rate(), indicator_rate()],
                             ids=["linear", "indicator"])
    def test_nan_fugacity_is_rejected_up_front(self, rate, kernel):
        # not summed to the term budget first
        for z in (math.nan, np.array([0.5, math.nan])):
            for series in (mean_density, partition_function):
                with pytest.raises(ValueError, match="not NaN"):
                    series(rate, z)

    @pytest.mark.parametrize("spec, zeta, error", [
        # a known fault: Z(0.999) = 1000, but the series needs ~20,000 terms
        ("indicator", 0.999, "exhausted term budget"),
        ("table:0,1,1.5,1.8;slope=0.25", 183.0, "overflows a double")])
    def test_errors_are_the_reference_errors(self, spec, zeta, error,
                                             kernel):
        rate = rate_from_spec(spec)
        for z in (zeta, np.array([0.5, zeta, 0.25])):
            with pytest.raises(DivergenceError,
                               match=f"zeta={zeta:g} {error}"):
                mean_density(rate, z)
