"""Property-based invariants of the coverage engine over the whole level domain.

Levels range over [1e-12, 1 - 1e-6] and gamma over [-1e8, 1e8]; the tail
bound draws levels down to 1e-300. Runs are derandomized, so the suite
draws the same examples every time.
"""

import functools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from crossover_coverage import (
    CoverageQuery,
    coverage_curve,
    coverage_probability,
    efficiency_comparison,
    min_coverage,
    reject_cover_routes,
    std_normal_quantile,
)
from crossover_coverage.coverage import ROUTE_AGREEMENT_TOL

levels = st.floats(min_value=1e-12, max_value=1.0 - 1e-6)
gammas = st.floats(min_value=-1e8, max_value=1e8)
# The minimum search is slow, so it runs for a few fixed level pairs only.
SEARCH_LEVELS = [(0.1, 0.05), (0.01, 0.1), (0.2, 0.01), (1e-300, 1e-300)]
# Log-uniform over [1e-300, 1 - 1e-6].
tiny_levels = st.floats(min_value=math.log(1e-300),
                        max_value=math.log1p(-1e-6)).map(math.exp)

examples = settings(max_examples=150, deadline=None, derandomize=True)


def coverage(gamma, alpha1, alpha):
    return coverage_probability(CoverageQuery(gamma, alpha1, alpha)).value


@functools.cache
def search(alpha1, alpha):
    return min_coverage(alpha1, alpha)


@examples
@given(gamma=gammas, alpha1=levels, alpha=levels)
def test_coverage_is_a_probability_symmetric_in_gamma(gamma, alpha1, alpha):
    value = coverage(gamma, alpha1, alpha)
    assert 0.0 <= value <= 1.0
    assert abs(value - coverage(-gamma, alpha1, alpha)) <= 1e-12


@examples
@given(gamma=gammas, alpha1=levels, alpha=levels)
def test_routes_agree(gamma, alpha1, alpha):
    via_bvn, via_quad, _ = reject_cover_routes(gamma, alpha1, alpha)
    assert abs(via_bvn - via_quad) <= ROUTE_AGREEMENT_TOL


@examples
@given(gamma=gammas, alpha1=levels, alpha=levels)
def test_curve_matches_scalar_queries(gamma, alpha1, alpha):
    # The curve's array path against the scalar path, at the drawn gamma
    # (the grid's first point) and two more.
    points = coverage_curve(alpha1, alpha, gamma, gamma + 1.0, 3)
    assert points[0].gamma == gamma
    for p in points:
        assert abs(p.coverage - coverage(p.gamma, alpha1, alpha)) <= 1e-12


@examples
@given(gamma=gammas, alpha1=levels, alpha=levels, other=levels)
def test_coverage_does_not_increase_with_alpha(gamma, alpha1, alpha, other):
    # A larger alpha shrinks both intervals, so neither branch covers more.
    low, high = sorted((alpha, other))
    assert coverage(gamma, alpha1, high) <= coverage(gamma, alpha1, low) + 1e-12


@examples
@given(gamma=st.floats(min_value=100.0, max_value=1e8), alpha1=levels, alpha=levels)
def test_far_carryover_recovers_nominal(gamma, alpha1, alpha):
    # The pretest then always rejects, and the robust interval is exact.
    for signed in (gamma, -gamma):
        assert abs(coverage(signed, alpha1, alpha) - (1.0 - alpha)) <= 1e-9


@examples
@given(excess=st.floats(min_value=0.0, max_value=1e8), alpha1=tiny_levels,
       alpha=tiny_levels)
def test_tail_beyond_search_range_is_nominal(excess, alpha1, alpha):
    # min_coverage scans [0, c1 + 9]: past it |C - (1 - alpha)| <= Phi(-9).
    gamma = std_normal_quantile(alpha1) + 9.0 + excess
    assert abs(coverage(gamma, alpha1, alpha) - (1.0 - alpha)) <= 1e-15


@examples
@given(gamma=gammas, pair=st.sampled_from(SEARCH_LEVELS))
def test_minimum_bounds_every_gamma(gamma, pair):
    # 1e-10 allows for the refinement stopping within 1e-6 of the argmin.
    assert search(*pair).min_coverage <= coverage(gamma, *pair) + 1e-10


@examples
@given(sigma_e2=st.floats(min_value=1e-100, max_value=1e100),
       n=st.integers(min_value=1, max_value=10**9))
def test_efficiency_verdict_at_threshold_for_every_n(sigma_e2, n):
    # At sigma_s2 = 4.5 sigma_e2 exactly the crossover estimator is
    # preferred, whatever n does to the rounding of the two variances.
    assert efficiency_comparison(4.5 * sigma_e2, sigma_e2, n).crossover_preferred
