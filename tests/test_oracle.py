"""The coverage against a 30-digit mpmath oracle, independent of scipy.

The oracle evaluates the coverage in the decomposition the engine uses,

    C(gamma) = A * P + (1 - alpha) - integral_{-c}^{c} Q(g) phi(g) dg,

with A the pretest's accept probability, P the pooled interval's coverage
and Q(g) the accept probability given robust pivot g, all in mpmath at 30
digits, and the integral by ``mp.quad`` split at 0. It checks that the
engine's ``err_bound`` bounds its error, that the default minima are the
oracle's values at their gamma*, and that gamma* is a local minimum of the
true coverage.

A branch-and-bound certificate then shows that each default minimum is the
global one, from the closed-form derivative C' (see ``slope``). Its float64
scan uses scipy's ``ndtr``, with a stated margin; its last step is in
mpmath alone.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from mpmath import iv
from scipy.special import ndtr

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


# The certificate that each default minimum is the global one.
#
# Write C = A * P + R, with A = Phi(c1 - gamma) - Phi(-c1 - gamma) the accept
# probability, P = Phi(c + s gamma) - Phi(-c + s gamma) the pooled coverage,
# s = 3 / sqrt(2), and R = (1 - alpha) - J. Conditioning on the pretest
# statistic gives J = integral_{-c1 - gamma}^{c1 - gamma} T(u) du, with
#
#     T(u) = phi(u) * [Phi((c - rho u) / tau) - Phi((-c - rho u) / tau)],
#
# rho = 3 / sqrt(11) and tau = sqrt(2 / 11). So, in closed form,
#
#     C' = A' P + A P' + T(c1 - gamma) - T(-c1 - gamma),
#     A' = phi(c1 + gamma) - phi(c1 - gamma),
#     P' = s [phi(c + s gamma) - phi(-c + s gamma)].
#
# A bound on C'' = A'' P + 2 A' P' + A P'' + R'', for every level pair. With
# A, P in [0, 1], |phi| <= phi(0) = 1 / sqrt(2 pi) and |phi'(x)| = |x| phi(x)
# <= phi(1): |A'| <= phi(0), |A''| <= 2 phi(1), |P'| <= s phi(0) and
# |P''| <= 2 s^2 phi(1). T is phi times a difference D in [0, 1] whose
# derivative is at most (rho / tau) phi(0) = s phi(0), so |T'| <= phi(1) +
# s phi(0)^2 and |R''| <= 2 phi(1) + 2 s phi(0)^2. Summing, with phi(0)^2 =
# 1 / (2 pi):
#
#     |C''| <= M = 2 phi(1) (2 + s^2) + 2 s / pi = 4.496...
#
# Beyond the minimum: A * P >= 0 and J <= A give C >= (1 - alpha) - A (1 - P),
# a closed-form lower bound, and A <= Phi(c1 - gamma) gives the tail cut
# C >= (1 - alpha) - Phi(c1 - gamma). C is even in gamma.
#
# The certificate, for each pair, against bar = the oracle's C(gamma*):
#   1. Scan C' in float64 on a grid of step H over [0, Gamma], where Gamma is
#      the first grid point past which the tail cut exceeds bar. On a cell
#      with end slopes u and v, C' lies within (u + v) / 2 +/- (M H / 2 +
#      MARGIN). The cell is cleared if that keeps one sign, or if the lower
#      bound of C at its left end, less H times the largest |C'|, exceeds bar.
#      MARGIN = 1e-9 covers the rounding: C' sums a dozen products of terms
#      in [-1, 1], which ndtr and exp give to a few ulps, so its float64
#      value errs by about 1e-15.
#   2. The global minimum can then lie only in an uncleared cell: anywhere
#      else C' has one sign or C exceeds bar >= the minimum. Exactly one run
#      of uncleared cells must be left, with gamma* in it.
#   3. mpmath encloses C' on that run's cells, bisecting while an enclosure
#      holds 0, down to WIDTH. Phi is enclosed through its monotonicity,
#      Phi([a, b]) in [Phi(a) - 1e-28, Phi(b) + 1e-28] at 30 digits (mpmath
#      1.3.0's interval erf, erfc and ncdf raise NoConvergence); phi and the
#      arithmetic are mpmath's interval ones. C' must be negative left of one
#      short uncleared stretch [p, q] and positive right of it, so the global
#      minimum lies in [p, q].
#   4. Over [p, q], C is at least C(gamma*) less the integral of |C'| over
#      the hull of gamma* and [p, q], bounded from the enclosures.
# The result holds up to MARGIN on the float64 scan and mpmath's 30 digits.

S = 3 / math.sqrt(2)
PHI0 = 1 / math.sqrt(2 * math.pi)
PHI1 = PHI0 * math.exp(-0.5)
M = 2 * PHI1 * (2 + S * S) + 2 * S / math.pi
H = 1e-3
MARGIN = 1e-9
WIDTH = 1e-9
PHI_TOL = mp.mpf(10) ** -28


def slope(gamma, c1, c, ncdf, npdf, s, rho, tau):
    """C'(gamma), in the arithmetic of the given Phi, phi and constants."""
    def t(u):
        return npdf(u) * (ncdf((c - rho * u) / tau) - ncdf((-c - rho * u) / tau))

    accept = ncdf(c1 - gamma) - ncdf(-c1 - gamma)
    pooled = ncdf(c + s * gamma) - ncdf(-c + s * gamma)
    return ((npdf(c1 + gamma) - npdf(c1 - gamma)) * pooled
            + accept * s * (npdf(c + s * gamma) - npdf(-c + s * gamma))
            + t(c1 - gamma) - t(-c1 - gamma))


def float_slope(gamma, c1, c):
    return slope(gamma, c1, c, ndtr, lambda x: PHI0 * np.exp(-0.5 * x * x),
                 S, 3 / math.sqrt(11), math.sqrt(2 / 11))


def interval_ncdf(x):
    """An enclosure of Phi over the interval x, from Phi at its ends."""
    with mp.workdps(DPS):
        return iv.mpf([mp.ncdf(mp.mpf(x.a)) - PHI_TOL, mp.ncdf(mp.mpf(x.b)) + PHI_TOL])


def interval_slope(lo, hi, c1, c):
    """An enclosure of C' over [lo, hi], c1 and c being 30-digit quantiles."""
    saved, iv.dps = iv.dps, DPS  # the interval context has no workdps
    try:
        return slope(iv.mpf([lo, hi]), iv.mpf(c1), iv.mpf(c), interval_ncdf, iv.npdf,
                     3 / iv.sqrt(2), 3 / iv.sqrt(11), iv.sqrt(iv.mpf(2) / 11))
    finally:
        iv.dps = saved


def one_signed(enclosure):
    return enclosure.a > 0 or enclosure.b < 0


def uncleared_runs(alpha1, alpha, bar):
    """Step 1: the (lo, hi) runs of grid cells the float64 scan leaves."""
    c1, c = float(upper_quantile(alpha1)), float(upper_quantile(alpha))
    grid = np.arange(0.0, c1 + 9.0, H)
    tail_clear = (1 - alpha) - ndtr(c1 - grid) - MARGIN > bar
    assert tail_clear.any()
    grid = grid[:np.argmax(tail_clear) + 1]  # up to Gamma
    ends = float_slope(grid, c1, c)
    mid, spread = (ends[:-1] + ends[1:]) / 2, M * H / 2 + MARGIN
    one_sign = (mid - spread > 0) | (mid + spread < 0)
    accept = ndtr(c1 - grid) - ndtr(-c1 - grid)
    pooled = ndtr(c + S * grid) - ndtr(-c + S * grid)
    lower = (1 - alpha) - accept * (1 - pooled) - MARGIN
    steepest = np.abs(mid) + spread
    above = lower[:-1] - steepest * H > bar
    left = np.flatnonzero(~(one_sign | above))
    runs = np.split(left, np.flatnonzero(np.diff(left) > 1) + 1)
    return [(float(grid[run[0]]), float(grid[run[-1] + 1])) for run in runs if len(run)]


def refined_cells(lo, hi, c1, c):
    """Step 3: [lo, hi] as (a, b, enclosure of C') cells, bisected while C' may be 0."""
    cells, todo = [], [(mp.mpf(lo), mp.mpf(hi))]
    while todo:
        a, b = todo.pop()
        enclosure = interval_slope(a, b, c1, c)
        if one_signed(enclosure) or b - a <= WIDTH:
            cells.append((a, b, enclosure))
        else:
            todo += [((a + b) / 2, b), (a, (a + b) / 2)]
    return sorted(cells, key=lambda cell: cell[0])


def test_second_derivative_bound_holds_where_sampled():
    # M is derived above; here it must at least cover C'' from central
    # differences of C', whose largest value at (0.1, 0.05) is 1.23.
    largest = {}
    for alpha1 in DEFAULT_ALPHA1:
        for alpha in DEFAULT_ALPHA:
            c1, c = float(upper_quantile(alpha1)), float(upper_quantile(alpha))
            grid = np.arange(0.0, c1 + 9.0, 1e-3)
            largest[alpha1, alpha] = np.abs(np.gradient(float_slope(grid, c1, c), grid)).max()
    assert max(largest.values()) <= M
    assert round(largest[0.1, 0.05], 2) == 1.23


@pytest.mark.parametrize("alpha1,alpha", [(0.1, 0.05), (0.01, 0.1), (0.2, 0.01)])
def test_slope_is_the_coverage_derivative(alpha1, alpha):
    # C' against central differences of the engine's coverage, and its
    # mpmath enclosure at a point against its float64 value.
    c1, c = upper_quantile(alpha1), upper_quantile(alpha)
    step = 1e-4
    for gamma in (0.3, 1.0, 1.7, 2.5, 4.0):
        ahead, behind = (coverage_probability(CoverageQuery(gamma + d, alpha1, alpha)).value
                         for d in (step, -step))
        value = float(float_slope(np.array(gamma), float(c1), float(c)))
        assert abs(value - (ahead - behind) / (2 * step)) <= 1e-7, gamma
        enclosure = interval_slope(mp.mpf(gamma), mp.mpf(gamma), c1, c)
        assert enclosure.a - MARGIN <= value <= enclosure.b + MARGIN, gamma


def test_default_minima_are_global(reports):
    for rep in reports:
        pair = (rep.alpha1, rep.alpha)
        truth = oracle(rep.gamma_star, rep.alpha1, rep.alpha)
        # Steps 1 and 2.
        runs = uncleared_runs(rep.alpha1, rep.alpha, float(truth) + MARGIN)
        assert len(runs) == 1, (pair, runs)
        (lo, hi), = runs
        assert lo <= rep.gamma_star <= hi, (pair, lo, hi)
        # Step 3.
        cells = refined_cells(lo, hi, upper_quantile(rep.alpha1), upper_quantile(rep.alpha))
        left = [i for i, (_, _, enclosure) in enumerate(cells) if not one_signed(enclosure)]
        assert left == list(range(left[0], left[-1] + 1)), pair
        assert all(enclosure.b < 0 for _, _, enclosure in cells[:left[0]]), pair
        assert all(enclosure.a > 0 for _, _, enclosure in cells[left[-1] + 1:]), pair
        p, q = cells[left[0]][0], cells[left[-1]][1]
        # Step 4: the global minimum is at least truth - drop.
        gamma_star = mp.mpf(rep.gamma_star)
        start, end = min(gamma_star, p), max(gamma_star, q)
        drop = sum((min(b, end) - max(a, start)) * max(abs(mp.mpf(e.a)), abs(mp.mpf(e.b)))
                   for a, b, e in cells if min(b, end) > max(a, start))
        assert abs(rep.min_coverage - truth) + drop <= 1e-12, (pair, drop)
