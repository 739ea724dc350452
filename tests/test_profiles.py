import math
import warnings

import numpy as np
import pytest

from zrhydro.engine import ModelParams
from zrhydro.oracle import LinearCaseParams, exact_linear_solution
from zrhydro.profiles import DensityProfile, ProfileError


class TestConstruction:
    def test_constant(self):
        p = DensityProfile.constant(2.0, -1.0, 1.0, 0.1)
        assert p(0.0) == 2.0
        assert p(1.5) == 0.0
        assert p.integral() == pytest.approx(4.0)

    def test_from_spec(self):
        p = DensityProfile.from_spec("-1:0:1,0:0.5:2")
        assert p(-0.5) == 1.0
        assert p(0.25) == 2.0
        assert p(0.75) == 0.0
        assert p.integral() == pytest.approx(2.0)

    def test_bad_spec(self):
        with pytest.raises(ProfileError):
            DensityProfile.from_spec("1:0:2")
        with pytest.raises(ProfileError):
            DensityProfile.from_spec("nonsense")

    def test_negative_rejected(self):
        with pytest.raises(ProfileError):
            DensityProfile(0.0, 0.1, np.array([-1.0]))


class TestOperations:
    def test_support(self):
        p = DensityProfile.from_spec("-1:0:1", du=0.01)
        lo, hi = p.support()
        assert lo == pytest.approx(-1.0)
        assert hi == pytest.approx(0.0)

    def test_resample_conserves_mass(self):
        p = DensityProfile.from_spec("-1:0:1,0:1:0.5", du=0.01)
        q = p.resample(-2.0, 2.0, 0.05)
        assert q.integral() == pytest.approx(p.integral(), abs=1e-12)

    def test_resample_refines(self):
        p = DensityProfile.constant(3.0, 0.0, 1.0, 0.25)
        q = p.resample(0.0, 1.0, 0.05)
        assert np.allclose(q.values, 3.0)

    def test_l1_distance_to_callable(self):
        p = DensityProfile.constant(1.0, 0.0, 1.0, 0.01)
        d = p.l1_distance(lambda u: np.zeros_like(np.asarray(u)), 0.0, 1.0)
        assert d == pytest.approx(1.0, abs=1e-6)

    def test_l1_exclusion_zones(self):
        p = DensityProfile.constant(1.0, 0.0, 1.0, 0.01)
        d = p.l1_distance(lambda u: np.zeros_like(np.asarray(u)), 0.0, 1.0,
                          exclude=((0.4, 0.6),))
        assert d == pytest.approx(0.8, abs=1e-2)

    def test_pointwise_vectorized(self):
        p = DensityProfile.from_spec("0:1:2", du=0.1)
        vals = p(np.array([-0.5, 0.5, 1.5]))
        assert np.allclose(vals, [0.0, 2.0, 0.0])


def _cell_value(p, x):
    """p at the point x in Python floats, one point at a time: the value
    of the cell floor((x - u_min) / du), or 0 outside the cells and at
    NaN."""
    q = (x - p.u_min) / p.du
    if not math.isfinite(q):
        return 0.0
    j = math.floor(q)
    return float(p.values[j]) if 0 <= j < len(p.values) else 0.0


def _hexes(a):
    return [float(v).hex() for v in np.ravel(a)]


def _lookup_points(p, gen):
    """Random points, every cell edge and the points just below them,
    the ends, both zeros, NaN, both infinities and points whose cell
    index lies past 2^63."""
    edges = p.u_min + p.du * np.arange(len(p.values) + 1)
    far = 2.0 ** 63 * p.du * 4
    return np.concatenate([
        gen.uniform(p.u_min - 1.0, p.u_max + 1.0, 200), edges,
        np.nextafter(edges, -np.inf),
        [p.u_min, p.u_max, 0.0, -0.0, np.nan, np.inf, -np.inf, far, -far,
         p.u_min + far, 1e308, -1e308]])


def test_lookup_is_the_cell_value_bit_for_bit(kernel):
    # the compiled lookup and its numpy reference both read the cell as
    # floor((u - u_min) / du), with no warning at NaN or infinity
    gen = np.random.default_rng(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            n = int(gen.integers(1, 40))
            values = gen.random(2 * n) * (gen.random(2 * n) < 0.7)
            values[::7] = -0.0
            u_min, du = gen.uniform(-3.0, 1.0), gen.uniform(1e-3, 0.3)
            for vals in (values[:n], values[::2]):  # contiguous or not
                p = DensityProfile(u_min, du, vals)
                pts = _lookup_points(p, gen)
                want = [_cell_value(p, x) for x in pts.tolist()]
                assert _hexes(p(pts)) == _hexes(want)
                assert _hexes(p(pts[::3])) == _hexes(want[::3])
                m = len(pts) // 4 * 4
                got = p(pts[:m].reshape(4, -1))
                assert got.shape == (4, m // 4)
                assert _hexes(got) == _hexes(want[:m])
                for x, w in zip(pts[:40].tolist(), want):
                    got = p(np.float64(x))
                    assert isinstance(got, float)
                    assert got.hex() == w.hex()


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_lookup_is_zero_and_silent_off_the_reals(x, kernel):
    p = DensityProfile.from_spec("-1:1:2", du=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert p(x) == 0.0
        assert p(np.array([x, 0.05, x])).tolist() == [0.0, 2.0, 0.0]


def _l1_case(name):
    p = DensityProfile.from_spec("-1:0:1,0:0.5:0.3", du=0.01)
    if name == "profile":
        q = DensityProfile(-1.23, 0.037, np.random.default_rng(2).random(60))
        return p.l1_distance(q, -1.5, 1.0)
    if name == "oracle":
        lin = LinearCaseParams(ModelParams(0.75, 1.0, 0.0, 25))
        return p.l1_distance(lambda u: exact_linear_solution(p, lin, 0.8, u),
                             -2.0, 2.0, exclude=((-0.05, 0.05), (0.35, 0.45)))
    if name == "ends":
        # excluded intervals that start and end on quadrature points, one
        # of them a single point, one inside another and one reversed
        n = 4000
        u = np.linspace(-2.0, 2.0, n, endpoint=False) + 4.0 / (2 * n)
        return p.l1_distance(lambda x: np.full(np.shape(x), 0.25), -2.0, 2.0,
                             exclude=((u[100], u[200]), (u[1500], u[1500]),
                                      (u[1490], u[1510]), (u[2600], u[2400])))
    # 500 points by the grid, so the 1,000-point floor
    return p.l1_distance(np.sin, -0.3, 0.2)


#: l1_distance of each case as float.hex, recorded while it still formed
#: its points with np.linspace and its exclusions with boolean masks
L1_PINNED = {"profile": "0x1.04a50672241a1p+0",
             "oracle": "0x1.0f5c28f5c28f6p-1",
             "ends": "0x1.5be76c8b43958p+0",
             "floor": "0x1.89f6af37b57e1p-2"}


@pytest.mark.parametrize("name", sorted(L1_PINNED))
def test_l1_distance_is_pinned(name, kernel):
    assert float(_l1_case(name)).hex() == L1_PINNED[name]


def test_l1_distance_rejects_a_reversed_interval():
    p = DensityProfile.constant(1.0, 0.0, 1.0, 0.01)
    with pytest.raises(ProfileError, match="empty interval"):
        p.l1_distance(p, 1.0, 0.0)
