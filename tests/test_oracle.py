"""The coverage against a 30-digit mpmath oracle, independent of scipy.

The oracle evaluates the coverage in the decomposition the engine uses,

    C(gamma) = A * P + (1 - alpha) - integral_{-c}^{c} Q(g) phi(g) dg,

with A the pretest's accept probability, P the pooled interval's coverage
and Q(g) the accept probability given robust pivot g, all in mpmath at 30
digits, and the integral by ``mp.quad`` split at 0. It checks that the
engine's ``err_bound`` bounds its error, that the default minima are the
oracle's values at their gamma*, and that gamma* is a local minimum of the
true coverage.
"""

import functools

import mpmath as mp
import pytest

from crossover_coverage import CoverageQuery, coverage_probability, min_coverage_table

DPS = 30

DEFAULT_ALPHA1 = [0.01, 0.05, 0.1, 0.2]
DEFAULT_ALPHA = [0.01, 0.05, 0.1]

# (gamma, alpha1, alpha) beyond the default minima: gamma = 0, the tail past
# c1 + 9 (c1 = 1.645 here) and extreme levels.
POINTS = [
    (0.0, 0.1, 0.05),
    (11.0, 0.1, 0.05),
    (20.0, 1e-300, 1e-300),
    (12.0, 1e-6, 1e-3),
    (3.0, 1e-12, 0.5),
    (1.0, 0.5, 1e-12),
    (0.5, 0.999999, 0.999999),
]


def upper_quantile(a):
    """The c > 0 with P(|Z| > c) = a, solved in log space on the lower tail.

    At 30 digits 1 - a/2 rounds to 1 for a below about 1e-30, so the
    quantile is not taken as erfinv of it.
    """
    log_half = mp.log(mp.mpf(a) / 2)
    return mp.findroot(lambda x: mp.log(mp.ncdf(-x)) - log_half, mp.mpf(1))


@functools.cache
def oracle(gamma, alpha1, alpha):
    with mp.workdps(DPS):
        gamma = mp.mpf(gamma)
        c1, c = upper_quantile(alpha1), upper_quantile(alpha)
        rho = 3 / mp.sqrt(11)  # robust pivot vs pretest correlation
        inv_sd = mp.sqrt(mp.mpf(11) / 2)  # 1 / the pretest's sd given the pivot
        shift = 3 / mp.sqrt(2)  # pooled pivot's mean per unit of gamma
        accept = mp.ncdf(c1 - gamma) - mp.ncdf(-c1 - gamma)
        pooled = mp.ncdf(c + shift * gamma) - mp.ncdf(-c + shift * gamma)

        def accept_given_pivot(g):
            mu = gamma + rho * g
            return (mp.ncdf((c1 - mu) * inv_sd) - mp.ncdf((-c1 - mu) * inv_sd)) * mp.npdf(g)

        joint, err = mp.quad(accept_given_pivot, [-c, 0, c], error=True)
        assert err < mp.mpf(10) ** -25
        return accept * pooled + (1 - mp.mpf(alpha)) - joint


@pytest.fixture(scope="module")
def reports():
    return min_coverage_table(DEFAULT_ALPHA1, DEFAULT_ALPHA)


def assert_within_err_bound(gamma, alpha1, alpha):
    result = coverage_probability(CoverageQuery(gamma, alpha1, alpha))
    truth = oracle(gamma, alpha1, alpha)
    assert abs(result.value - truth) <= result.err_bound, (gamma, alpha1, alpha)
    return truth


def test_default_minima_match_the_oracle(reports):
    for rep in reports:
        truth = assert_within_err_bound(rep.gamma_star, rep.alpha1, rep.alpha)
        assert abs(rep.min_coverage - truth) <= 1e-14, (rep.alpha1, rep.alpha)


@pytest.mark.parametrize("gamma,alpha1,alpha", POINTS)
def test_err_bound_bounds_the_error(gamma, alpha1, alpha):
    assert_within_err_bound(gamma, alpha1, alpha)


@pytest.mark.parametrize("alpha1,alpha", [(0.1, 0.05), (0.01, 0.01), (0.2, 0.1)])
def test_gamma_star_is_a_local_minimum(reports, alpha1, alpha):
    rep = next(r for r in reports if (r.alpha1, r.alpha) == (alpha1, alpha))
    at = oracle(rep.gamma_star, alpha1, alpha)
    for h in (-1e-4, 1e-4):
        assert oracle(rep.gamma_star + h, alpha1, alpha) > at, h
