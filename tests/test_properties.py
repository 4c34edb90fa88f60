"""Property-based invariants of the coverage engine over the whole level domain.

Levels range over [1e-12, 1 - 1e-6] and gamma over [-1e8, 1e8]. Runs are
derandomized, so the suite draws the same examples every time.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from crossover_coverage import (
    CoverageQuery,
    coverage_probability,
    min_coverage,
    reject_cover_routes,
)
from crossover_coverage.coverage import ROUTE_AGREEMENT_TOL

levels = st.floats(min_value=1e-12, max_value=1.0 - 1e-6)
gammas = st.floats(min_value=-1e8, max_value=1e8)
# The minimum search is slow, so it runs for a few fixed level pairs only.
SEARCH_LEVELS = [(0.1, 0.05), (0.01, 0.1), (0.2, 0.01)]

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
@given(gamma=gammas, pair=st.sampled_from(SEARCH_LEVELS))
def test_minimum_bounds_every_gamma(gamma, pair):
    # 1e-10 allows for the refinement stopping within 1e-6 of the argmin.
    assert search(*pair).min_coverage <= coverage(gamma, *pair) + 1e-10
