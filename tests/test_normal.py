"""Tests for the standard-normal kernels.

``_cdf``, ``_between`` and their array forms are the unchecked kernels of
the coverage engine, and route (b)'s integrand writes the density in place;
scipy's ``ndtr`` serves as an independent cdf where the quantiles are checked.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from crossover_coverage import (
    DomainError,
    std_normal_inverse_cdf,
    std_normal_quantile,
)
from crossover_coverage import coverage as coverage_module
from crossover_coverage.normal import _between, _between_array, _cdf, _cdf_array


def bisect(f, lo, hi, tol=1e-14):
    flo = f(lo)
    assert flo * f(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0) == (flo < 0):
            lo, flo = mid, f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _both_cdfs(x):
    """The scalar and the array kernel at every entry of x."""
    return np.array([_cdf(float(v)) for v in x]), _cdf_array(x)


def _integrand_density():
    """Route (b)'s integrand at gamma = 0 with c1 = 60.

    Its Phi-interval factor is then exactly 1 for |g| <= 40, so the
    integrand is the standard-normal density it writes in place.
    """
    class Captured(Exception):
        pass

    def capture(integrand, lo, hi):
        captured.append(integrand)
        raise Captured

    captured = []
    with pytest.raises(Captured):
        coverage_module._routes(0.0, 0.05, 60.0, 2.0, _between,
                                lambda c, k: 0.0, capture)
    return captured[0]


_pdf = _integrand_density()


class TestPdf:
    def test_at_zero(self):
        # 1/sqrt(2*pi) evaluated at 30 digits: 0.3989422804014326779...
        assert abs(_pdf(0.0) - 0.3989422804014327) < 1e-15

    def test_symmetry(self):
        rng = np.random.default_rng(101)
        for x in rng.uniform(-10, 10, size=10_000):
            assert _pdf(float(x)) == _pdf(float(-x))

    def test_far_tail_underflows_quietly(self):
        value = _pdf(40.0)
        assert 0.0 <= value < 1e-300

    def test_strictly_positive_in_range(self):
        assert all(_pdf(float(x)) > 0.0 for x in np.linspace(-37, 37, 1001))

    def test_relative_error_against_high_precision(self):
        # x*x carries a relative rounding of eps, which exp turns into a
        # relative error of about eps * x**2 / 2. Past |x| = 37 the density
        # is subnormal and loses digits.
        eps = np.finfo(float).eps
        with mp.workdps(30):
            for x in np.linspace(-37.0, 37.0, 741):
                x = float(x)
                exact = mp.npdf(mp.mpf(x))
                rel = float(abs(mp.mpf(_pdf(x)) - exact) / exact)
                assert rel <= 2.0 * eps * (1.0 + 0.5 * x * x), x


class TestCdf:
    def test_at_zero(self):
        assert _cdf(0.0) == 0.5
        assert _cdf_array(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    def test_limits(self):
        assert _cdf(-math.inf) == 0.0
        assert _cdf(math.inf) == 1.0
        assert _cdf_array(np.array([-math.inf, math.inf])).tolist() == [0.0, 1.0]

    def test_derived_root_of_0975(self):
        # Independent bisection against the cdf locates the 0.975 point.
        root = bisect(lambda x: _cdf(x) - 0.975, 1.9, 2.0)
        assert abs(root - 1.959964) < 5e-7
        assert abs(_cdf(1.959964) - 0.975) < 2e-9

    def test_reflection(self):
        rng = np.random.default_rng(102)
        x = rng.uniform(-10, 10, size=10_000)
        for up, down in zip(_both_cdfs(x), _both_cdfs(-x)):
            assert np.max(np.abs(up + down - 1.0)) <= 1e-14

    def test_monotone(self):
        rng = np.random.default_rng(103)
        x = np.sort(rng.uniform(-12, 12, size=10_000))
        for values in _both_cdfs(x):
            assert (np.diff(values) >= 0.0).all()

    def test_absolute_error_against_high_precision(self):
        xs = np.linspace(-8.0, 8.0, 161)
        with mp.workdps(30):
            exact = np.array([float(0.5 * mp.erfc(-mp.mpf(float(x)) / mp.sqrt(2)))
                              for x in xs])
        for values in _both_cdfs(xs):
            assert np.max(np.abs(values - exact)) <= 1e-12


class TestBetween:
    def test_is_the_difference_of_cdfs_bit_for_bit(self):
        # The coverage engine's interval kernel must round exactly as
        # _cdf(b) - _cdf(a) did, so that every coverage keeps its bits.
        rng = np.random.default_rng(104)
        a = np.concatenate([rng.uniform(-12, 12, 5_000), rng.normal(0, 1e-8, 500),
                            [0.0, -0.0, -math.inf, math.inf, -40.0, 40.0]])
        b = np.concatenate([rng.uniform(-12, 12, 5_000), rng.normal(0, 1e-8, 500),
                            [0.0, 0.0, math.inf, math.inf, 40.0, -40.0]])
        scalar = [_between(float(x), float(y)).hex() for x, y in zip(a, b)]
        assert scalar == [(_cdf(float(y)) - _cdf(float(x))).hex() for x, y in zip(a, b)]
        assert _between_array(a, b).tobytes() == (_cdf_array(b) - _cdf_array(a)).tobytes()


class TestInverseCdf:
    def test_round_trip(self):
        p = np.concatenate([
            np.array([1e-12, 1e-8, 1e-4]),
            np.linspace(0.01, 0.99, 99),
            1.0 - np.array([1e-12, 1e-8, 1e-4]),
        ])
        z = std_normal_inverse_cdf(p)
        assert np.max(np.abs(ndtr(z) - p)) <= 1e-13

    def test_median(self):
        assert std_normal_inverse_cdf(0.5) == 0.0

    def test_symmetry_exact_on_dyadic_pairs(self):
        # 1 - p is exact for these, so the tail reduction must match exactly.
        for p in (0.25, 0.125, 0.0625):
            assert std_normal_inverse_cdf(p) == -std_normal_inverse_cdf(1.0 - p)
        # The quantile calls ndtri with no reflection of its own, which holds
        # only while ndtri is odd by itself. On the simulator's uniform
        # lattice (k + 1/2) 2**-52 (its ends, its middle and a million random
        # points) it must equal the explicit reflection bit for bit.
        k = np.concatenate([
            np.array([0, 1, 2**51 - 1, 2**51, 2**52 - 2, 2**52 - 1], dtype=np.uint64),
            np.random.default_rng(2011).integers(0, 2**52, 10**6, dtype=np.uint64)])
        p = (k.astype(np.float64) + 0.5) * 2.0**-52
        z = ndtri(np.minimum(p, 1.0 - p))
        np.testing.assert_array_equal(std_normal_inverse_cdf(p), np.where(p <= 0.5, z, -z))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            std_normal_inverse_cdf(bad)

    def test_relative_error_in_lower_tail(self):
        # From the simulator's smallest uniform, 2**-53, down to 1e-300;
        # the reference root comes from Newton steps on mpmath's cdf.
        ps = [2.0**-53, 1e-100, 1e-300, *np.logspace(-300.0, math.log10(0.49), 120)]
        with mp.workdps(40):
            for p in ps:
                z = std_normal_inverse_cdf(float(p))
                exact = mp.mpf(z)
                for _ in range(3):
                    exact -= (mp.ncdf(exact) - mp.mpf(p)) / mp.npdf(exact)
                assert abs(z - exact) <= 1e-14 * abs(exact), p

    def test_vectorized_matches_scalar(self):
        p = np.array([0.01, 0.3, 0.5, 0.77, 0.999])
        vec = std_normal_inverse_cdf(p)
        assert isinstance(vec, np.ndarray)
        for i, pi in enumerate(p):
            scalar = std_normal_inverse_cdf(float(pi))
            assert isinstance(scalar, float)
            assert scalar == vec[i]


class TestTwoSidedQuantile:
    def test_round_trip_contract(self):
        for a in (0.001, 0.01, 0.05, 0.1, 0.5):
            c = std_normal_quantile(a)
            assert c > 0.0
            assert abs((ndtr(c) - ndtr(-c)) - (1.0 - a)) <= 1e-10

    def test_against_bisection_oracle(self):
        for a, approx in ((0.05, 1.9599640), (0.1, 1.6448536)):
            root = bisect(
                lambda c: (ndtr(c) - ndtr(-c)) - (1.0 - a),
                1.0, 3.0)
            c = std_normal_quantile(a)
            assert abs(c - root) < 1e-11
            assert abs(c - approx) < 1e-6

    def test_inverse_relation_at_one(self):
        a = 2.0 * ndtr(-1.0)
        assert abs(std_normal_quantile(a) - 1.0) <= 1e-12

    # 5e-324 is the smallest subnormal: its half underflows to 0.
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0, math.nan, 5e-324])
    def test_domain(self, bad):
        with pytest.raises(DomainError, match="^a must"):
            std_normal_quantile(bad)

    @pytest.mark.parametrize("bad", [np.array([0.05, 0.1]), np.array(0.05)],
                             ids=["vector", "0-d"])
    def test_arrays_rejected(self, bad):
        # Levels are scalars; only the inverse cdf has an array mode.
        with pytest.raises(DomainError, match="^a must"):
            std_normal_quantile(bad)

    def test_bit_identical_to_halved_ndtri(self):
        levels = np.concatenate([np.logspace(-300, -1, 2000), np.linspace(0.1, 1 - 1e-6, 500)])
        for a in levels:
            assert std_normal_quantile(float(a)) == -ndtri(a / 2.0)
        for a in levels[levels > 1e-38].astype(np.float32):
            c = std_normal_quantile(a)
            assert type(c) is float
            assert c == -ndtri(float(a) / 2.0)
