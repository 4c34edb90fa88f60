"""Tests of the benchmark's own coverage reference.

Run with ``python -m pytest perfbench/test_reference.py`` from the root of
the repository. The reference is checked against a 30-digit mpmath
evaluation of the conditional form of the coverage, and for two
properties the coverage must have: symmetry in gamma, and the limit
1 - alpha as |gamma| grows.
"""

import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402


def _mp_coverage(gamma, alpha1, alpha):
    """Coverage by one-dimensional integration of the conditional form."""
    with mp.workdps(30):
        g = mp.mpf(gamma)
        c1 = mp.sqrt(2) * mp.erfinv(1 - mp.mpf(alpha1))
        c = mp.sqrt(2) * mp.erfinv(1 - mp.mpf(alpha))
        rho = 3 / mp.sqrt(11)
        sd = mp.sqrt(1 - rho**2)
        shift = 3 / mp.sqrt(2) * g
        accept = mp.ncdf(c1 - g) - mp.ncdf(-c1 - g)
        pooled = mp.ncdf(c - shift) - mp.ncdf(-c - shift)

        def accepted_and_inside(r):
            mu = g + rho * r
            return mp.npdf(r) * (mp.ncdf((c1 - mu) / sd) - mp.ncdf((-c1 - mu) / sd))

        joint = (1 - mp.mpf(alpha)) - mp.quad(accepted_and_inside, [-c, 0, c])
        return float(accept * pooled + joint)


@pytest.mark.parametrize("gamma, alpha1, alpha", [
    (0.0, 0.1, 0.05),
    (1.3784, 0.1, 0.05),
    (-2.5, 0.05, 0.01),
    (0.7, 0.2, 0.1),
    (4.0, 0.01, 0.05),
])
def test_matches_mpmath(gamma, alpha1, alpha):
    assert reference.coverage(gamma, alpha1, alpha) == pytest.approx(
        _mp_coverage(gamma, alpha1, alpha), abs=1e-13)


def test_headline_minimum():
    assert reference.coverage(reference.GAMMA_STAR, 0.1, 0.05) == pytest.approx(
        0.4711, abs=5e-4)


def test_symmetric_in_gamma():
    gammas = np.linspace(0.0, 10.0, 201)
    for alpha1, alpha in [(0.01, 0.01), (0.1, 0.05), (0.2, 0.1)]:
        right = reference.coverage(gammas, alpha1, alpha)
        left = reference.coverage(-gammas, alpha1, alpha)
        np.testing.assert_allclose(left, right, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("alpha1, alpha", [(0.01, 0.01), (0.1, 0.05), (0.2, 0.1)])
def test_limit_is_one_minus_alpha(alpha1, alpha):
    for gamma in (12.0, -12.0, 40.0):
        assert reference.coverage(gamma, alpha1, alpha) == pytest.approx(
            1.0 - alpha, abs=1e-12)


def test_broadcasts_like_scalar_calls():
    gammas = np.array([-1.0, 0.0, 2.0])
    alpha1s = np.array([0.05, 0.1, 0.2])
    vector = reference.coverage(gammas, alpha1s, 0.05)
    scalar = [reference.coverage(float(g), float(a1), 0.05)
              for g, a1 in zip(gammas, alpha1s)]
    np.testing.assert_array_equal(vector, scalar)


def test_moment_correlation_is_rho():
    m = reference.estimator_moments(5, 10, 0.7, 0.3, 2.0)
    corr = m["cov_robust_carryover"] / math.sqrt(m["var_robust"] * m["var_carryover"])
    assert corr == pytest.approx(m["corr_robust_carryover"], rel=1e-15)


def test_does_not_import_the_package():
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import sys; sys.path.insert(0, %r); import reference; "
            "sys.exit('crossover_coverage' in sys.modules)" % here)
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
