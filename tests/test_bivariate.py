"""Tests for the Owen's-T-based bivariate normal probabilities."""

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from crossover_coverage import DomainError, bvn_cdf, bvn_rectangle, std_normal_cdf
from crossover_coverage.bivariate import _bvn_cdf, _bvn_cdf_array
from crossover_coverage.coverage import PIVOT_PRETEST_CORR

# (h, k, rho) -> value computed by 25-digit two-dimensional quadrature.
HIGH_PRECISION_CASES = [
    (0.5, -0.3, 0.9045340337332909, 0.3797555334347647),
    (1.2, 0.4, -0.7, 0.5424899148983188),
    (0.0, -1.0, 0.5, 0.12739820657662512),
    (2.0, 0.0, 0.3, 0.4947895822509033),
    (-0.7, -0.2, 0.95, 0.23917323798730705),
]


class TestBvnCdf:
    def test_independence_factorizes(self):
        grid = [-2.0, -0.5, 0.0, 0.7, 1.8]
        for h in grid:
            for k in grid:
                exact = std_normal_cdf(h) * std_normal_cdf(k)
                assert abs(bvn_cdf(h, k, 0.0) - exact) <= 1e-14

    def test_origin_closed_form(self):
        for rho in (-0.95, -0.5, 0.0, 0.3, 0.9045340337332909):
            exact = 0.25 + math.asin(rho) / (2.0 * math.pi)
            assert abs(bvn_cdf(0.0, 0.0, rho) - exact) <= 1e-15

    def test_degenerate_correlations(self):
        # Tolerances allow the one-ulp gap between the scalar and
        # vectorized erfc backends.
        assert abs(bvn_cdf(0.5, 1.5, 1.0) - std_normal_cdf(0.5)) <= 5e-16
        assert abs(bvn_cdf(0.5, 1.5, -1.0)
                   - (std_normal_cdf(0.5) - std_normal_cdf(-1.5))) <= 5e-16
        assert bvn_cdf(-1.0, 0.2, -1.0) == 0.0

    def test_infinite_bounds(self):
        assert bvn_cdf(math.inf, 0.3, 0.5) == std_normal_cdf(0.3)
        assert bvn_cdf(0.3, math.inf, 0.5) == std_normal_cdf(0.3)
        assert bvn_cdf(-math.inf, 0.3, 0.5) == 0.0
        assert bvn_cdf(math.inf, math.inf, 0.5) == 1.0

    def test_argument_symmetry(self):
        # Equal up to summation order of the two Owen terms.
        rng = np.random.default_rng(21)
        for _ in range(200):
            h, k = rng.normal(size=2)
            rho = rng.uniform(-0.99, 0.99)
            assert abs(bvn_cdf(h, k, rho) - bvn_cdf(k, h, rho)) <= 5e-16

    def test_high_precision_values(self):
        for h, k, rho, expected in HIGH_PRECISION_CASES:
            assert abs(bvn_cdf(h, k, rho) - expected) <= 1e-13

    def test_against_scipy_genz(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            h, k = rng.uniform(-3, 3, size=2)
            rho = rng.uniform(-0.98, 0.98)
            ref = multivariate_normal.cdf(
                [h, k], mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]],
                abseps=1e-10, releps=0.0)
            assert abs(bvn_cdf(h, k, rho) - ref) <= 5e-8

    def test_zero_edge_against_quadrature_values(self):
        # h == 0 exercises the T(0, +/-inf) special case.
        assert abs(bvn_cdf(0.0, -1.0, 0.5) - 0.12739820657662512) <= 1e-13
        assert abs(bvn_cdf(2.0, 0.0, 0.3) - 0.4947895822509033) <= 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            bvn_cdf(0.0, 0.0, 1.5)
        with pytest.raises(DomainError):
            bvn_cdf(math.nan, 0.0, 0.5)


class TestBvnRectangle:
    def test_whole_plane(self):
        assert bvn_rectangle(-math.inf, math.inf, -math.inf, math.inf, 0.7) == 1.0

    def test_marginal_strip(self):
        for rho in (-0.9, 0.0, 0.6):
            value = bvn_rectangle(-1.0, 2.0, -math.inf, math.inf, rho)
            exact = std_normal_cdf(2.0) - std_normal_cdf(-1.0)
            assert abs(value - exact) <= 1e-14

    def test_matches_cdf_combination(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a, b = np.sort(rng.normal(size=2))
            c, d = np.sort(rng.normal(size=2))
            rho = rng.uniform(-0.95, 0.95)
            combo = (bvn_cdf(b, d, rho) - bvn_cdf(a, d, rho)
                     - bvn_cdf(b, c, rho) + bvn_cdf(a, c, rho))
            assert abs(bvn_rectangle(a, b, c, d, rho) - combo) <= 1e-15

    def test_rejects_unordered_bounds(self):
        with pytest.raises(DomainError):
            bvn_rectangle(1.0, -1.0, 0.0, 1.0, 0.5)


class TestBvnCdfArray:
    # k = 0 takes the T(0, +/-inf) branch; +/-1e-300 sit just beside it.
    KS = [0.0, 1e-300, -1e-300, 0.3, -0.3, 40.0, -40.0]

    def test_matches_scalar_cdf(self):
        # Tolerance allows the one-ulp gap between the scalar and
        # vectorized erfc backends.
        ks = np.array(self.KS)
        for h in (1.959963984540054, -1.959963984540054, 0.4, -2.7):
            for rho in (PIVOT_PRETEST_CORR, -0.6, 0.0):
                values = _bvn_cdf_array(h, ks, rho)
                for k, value in zip(self.KS, values):
                    assert abs(value - _bvn_cdf(h, k, rho)) <= 5e-16, (h, k, rho)
