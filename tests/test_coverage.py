"""Tests for the analytic coverage engine."""

import math
import sys

import numpy as np
import pytest
from scipy.special import ndtr

from crossover_coverage import coverage as coverage_module
from crossover_coverage import (
    PIVOT_PRETEST_CORR,
    CoverageQuery,
    CoverageResult,
    DomainError,
    ModelParams,
    QuadratureError,
    RouteDisagreementError,
    TrialDesign,
    coverage_curve,
    coverage_probability,
    efficiency_comparison,
    min_coverage,
    min_coverage_table,
    reject_cover_routes,
    scaled_carryover,
    std_normal_quantile,
)
from crossover_coverage.coverage import (
    QUAD_ABS_TOL,
    ROUTE_AGREEMENT_TOL,
    _accept_prob,
    _pooled_inside_prob,
)

# Reference values from 30-digit arithmetic (quantile by root-finding,
# joint term by high-order quadrature of the conditional form).
REJECT_COVER_AT_ZERO = 0.0591724960990641      # gamma=0, alpha1=0.1, alpha=0.05
COVERAGE_REFS = {
    0.0: 0.9141724960990641,
    0.5: 0.805032897303648,
    1.0: 0.555809848341431,
    2.0: 0.617810815702478,
    4.0: 0.948397490083156,
}
MIN_COVERAGE_REF = 0.4711045078044567
GAMMA_STAR_REF = 1.378390034067948

C1 = std_normal_quantile(0.1)    # pretest critical value at alpha1 = 0.1
C = std_normal_quantile(0.05)    # interval quantile at alpha = 0.05


class TestPretestAcceptProb:
    def test_level_under_null(self):
        assert abs(_accept_prob(0.0, C1) - 0.9) <= 1e-12

    def test_far_shifted_mean(self):
        assert _accept_prob(10.0, C1) < 1e-15

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        for gamma in rng.uniform(0, 6, size=50):
            a = _accept_prob(float(gamma), C1)
            b = _accept_prob(float(-gamma), C1)
            assert abs(a - b) <= 1e-14

    def test_complement_consistency(self):
        # Accept and reject probabilities built from the same cdf calls
        # must partition the line.
        c1 = std_normal_quantile(0.1)
        for gamma in (0.0, 0.7, 2.3, -1.1):
            accept = ndtr(c1 - gamma) - ndtr(-c1 - gamma)
            reject = ndtr(-c1 - gamma) + (1.0 - ndtr(c1 - gamma))
            assert abs(accept + reject - 1.0) <= 1e-12
            assert abs(_accept_prob(gamma, c1) - accept) <= 1e-15


class TestPooledCoverProb:
    def test_centered_equals_nominal(self):
        assert abs(_pooled_inside_prob(0.0, C) - 0.95) <= 1e-12

    def test_escapes_for_large_gamma(self):
        assert _pooled_inside_prob(10.0, C) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(32)
        for gamma in rng.uniform(0, 6, size=50):
            assert abs(_pooled_inside_prob(float(gamma), C)
                       - _pooled_inside_prob(float(-gamma), C)) <= 1e-14


class TestRejectCoverProb:
    def test_limit_pretest_always_rejects(self):
        assert abs(reject_cover_routes(10.0, 0.1, 0.05)[1] - 0.95) <= 1e-8

    def test_routes_agree_at_zero(self):
        via_bvn, via_quad, err = reject_cover_routes(0.0, 0.1, 0.05)
        assert abs(via_bvn - via_quad) <= ROUTE_AGREEMENT_TOL
        assert err <= QUAD_ABS_TOL + ROUTE_AGREEMENT_TOL
        assert abs(via_quad - REJECT_COVER_AT_ZERO) <= 1e-10

    def test_monte_carlo_oracle_at_zero(self):
        # Brute-force correlated pair sampling, independent of both
        # analytic routes (ziggurat normals, explicit Cholesky).
        n = 10_000_000
        rng = np.random.default_rng(20250809)
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        rho = PIVOT_PRETEST_CORR
        pivot = z1
        pretest = rho * z1 + math.sqrt(1.0 - rho * rho) * z2  # gamma = 0
        c1 = std_normal_quantile(0.1)
        c = std_normal_quantile(0.05)
        hit = (np.abs(pivot) <= c) & (np.abs(pretest) >= c1)
        phat = hit.mean()
        se = math.sqrt(phat * (1.0 - phat) / n)
        assert abs(phat - reject_cover_routes(0.0, 0.1, 0.05)[1]) <= 4.0 * se

    def test_symmetry(self):
        rng = np.random.default_rng(33)
        for gamma in rng.uniform(0, 5, size=25):
            a = reject_cover_routes(float(gamma), 0.1, 0.05)[1]
            b = reject_cover_routes(float(-gamma), 0.1, 0.05)[1]
            assert abs(a - b) <= 1e-10

    def test_route_agreement_on_random_triples(self):
        rng = np.random.default_rng(34)
        worst = 0.0
        for _ in range(200):
            gamma = float(rng.uniform(-10, 10))
            alpha1 = float(rng.uniform(0.001, 0.5))
            alpha = float(rng.uniform(0.001, 0.5))
            via_bvn, via_quad, _ = reject_cover_routes(gamma, alpha1, alpha)
            worst = max(worst, abs(via_bvn - via_quad))
        assert worst <= ROUTE_AGREEMENT_TOL


class TestCoverageProbability:
    @pytest.mark.parametrize("value,err_bound", [
        (0.5, math.nan), (0.5, -1e-300), (math.nan, 0.0), (1.5, 0.0)])
    def test_result_refuses_impossible_values(self, value, err_bound):
        with pytest.raises(DomainError):
            CoverageResult(value, err_bound)

    def test_reference_values(self):
        for gamma, ref in COVERAGE_REFS.items():
            result = coverage_probability(CoverageQuery(gamma, 0.1, 0.05))
            assert abs(result.value - ref) <= 1e-9
            assert result.err_bound <= QUAD_ABS_TOL + ROUTE_AGREEMENT_TOL

    def test_composition_of_parts(self):
        # P(accept) * P(pooled covers) from scipy's ndtr, independent of the
        # engine's kernels, plus the reject-branch joint term.
        for gamma in (0.0, 0.8, 1.5, 3.0, -2.2):
            whole = coverage_probability(CoverageQuery(gamma, 0.1, 0.05)).value
            shift = 3.0 * gamma / math.sqrt(2.0)
            accept = ndtr(C1 - gamma) - ndtr(-C1 - gamma)
            pooled = ndtr(C + shift) - ndtr(-C + shift)
            parts = accept * pooled + reject_cover_routes(gamma, 0.1, 0.05)[1]
            assert abs(whole - parts) <= 1e-14

    def test_large_gamma_limit(self):
        for gamma in (10.0, -10.0):
            value = coverage_probability(CoverageQuery(gamma, 0.1, 0.05)).value
            assert abs(value - 0.95) <= 1e-6

    def test_symmetry(self):
        rng = np.random.default_rng(35)
        for gamma in rng.uniform(0, 8, size=50):
            a = coverage_probability(CoverageQuery(float(gamma), 0.1, 0.05)).value
            b = coverage_probability(CoverageQuery(float(-gamma), 0.1, 0.05)).value
            assert abs(a - b) <= 1e-10

    def test_tiny_pretest_level_recovers_nominal(self):
        # With alpha1 ~ 0 the pretest almost always accepts at gamma=0 and
        # the pooled interval is exact there.
        value = coverage_probability(CoverageQuery(0.0, 1e-6, 0.05)).value
        assert abs(value - 0.95) <= 1e-4

    def test_pretest_level_near_one_recovers_nominal(self):
        # With alpha1 ~ 1 the pretest almost always rejects and the robust
        # interval is exact for every gamma.
        value = coverage_probability(CoverageQuery(0.0, 1.0 - 1e-6, 0.05)).value
        assert abs(value - 0.95) <= 1e-4

    def test_depends_on_design_only_through_gamma(self):
        design_a = TrialDesign(8, 8)
        params_a = ModelParams.from_effects(0.7, 1.0, between_subject_var=1.0,
                                            error_var=1.0)
        design_b = TrialDesign(2, 2)
        params_b = ModelParams.from_effects(-0.3, 2.0, between_subject_var=100.0,
                                            error_var=1.0)
        gamma_a = scaled_carryover(params_a.differential_carryover, design_a, 1.0)
        gamma_b = scaled_carryover(params_b.differential_carryover, design_b, 1.0)
        assert gamma_a == gamma_b
        cov_a = coverage_probability(CoverageQuery(gamma_a, 0.1, 0.05)).value
        cov_b = coverage_probability(CoverageQuery(gamma_b, 0.1, 0.05)).value
        assert cov_a == cov_b

    def test_query_validation(self):
        with pytest.raises(DomainError):
            CoverageQuery(math.inf, 0.1, 0.05)
        with pytest.raises(DomainError):
            CoverageQuery(0.0, 0.0, 0.05)
        with pytest.raises(DomainError):
            CoverageQuery(0.0, 0.1, 1.0)


class TestCoverageCurve:
    def test_grid_contract(self):
        points = coverage_curve(0.1, 0.05, 0.0, 1.0, 2)
        assert len(points) == 2
        assert points[0].gamma == 0.0
        assert points[1].gamma == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            coverage_curve(0.1, 0.05, 1.0, 0.0, 10)
        with pytest.raises(DomainError):
            coverage_curve(0.1, 0.05, 0.0, 1.0, 1)
        with pytest.raises(DomainError):
            coverage_curve(0.1, 0.05, 0.0, 1.0, 2.5)

    @pytest.mark.parametrize("steps", [2**63 - 1, 2**64 - 1, 2**64 + 1])
    def test_impossible_step_counts_refused(self, steps):
        # Refused before any array is built; numpy would raise an IndexError
        # or a ValueError of its own.
        with pytest.raises(DomainError, match=rf"steps must be below {2**60} \(numpy arrays"):
            coverage_curve(0.1, 0.05, 0.0, 1.0, steps)

    def test_span_that_overflows_is_rejected(self):
        # linspace would return [nan, inf, 1e308] here.
        with pytest.raises(DomainError, match=r"gamma range \[-1e\+308, 1e\+308\]"):
            coverage_curve(0.1, 0.05, -1e308, 1e308, 3)


def scalar_coverage(gamma, alpha1, alpha):
    return coverage_probability(CoverageQuery(gamma, alpha1, alpha)).value


class TestCoverageGrid:
    """The array path of curves and searches against the scalar queries."""

    LEVELS = [(0.1, 0.05), (0.01, 0.1), (0.2, 0.01), (0.05, 0.05)]

    def test_curve_matches_scalar_queries(self):
        for alpha1, alpha in self.LEVELS:
            c1 = std_normal_quantile(alpha1)
            # The first grid holds -c1, 0 and c1 exactly, where the Owen's T
            # rectangles meet k = 0.
            near = coverage_curve(alpha1, alpha, -c1, c1, 9)
            assert {-c1, 0.0, c1} <= {p.gamma for p in near}
            for p in near + coverage_curve(alpha1, alpha, -8.0, 8.0, 33):
                assert abs(p.coverage - scalar_coverage(p.gamma, alpha1, alpha)) <= 1e-13

    @pytest.mark.filterwarnings("error")
    def test_curve_near_the_largest_floats(self):
        for points in (coverage_curve(0.1, 0.05, 1e308, 1.7e308, 3),
                       coverage_curve(0.1, 0.05, -1.7e308, -1e308, 3)):
            for p in points:
                assert p.coverage == scalar_coverage(p.gamma, 0.1, 0.05) == 0.95

    def test_curve_across_block_boundary(self):
        steps = coverage_module._GRID_BLOCK + 5
        points = coverage_curve(0.1, 0.05, -8.0, 8.0, steps)
        assert len(points) == steps
        worst = max(abs(p.coverage - scalar_coverage(p.gamma, 0.1, 0.05))
                    for p in points)
        assert worst <= 1e-13

    @staticmethod
    def point_queries():
        # Single queries at a gamma where the routes differ by about 1e-16
        # and QUADPACK reports a nonzero abserr.
        return (lambda: coverage_probability(CoverageQuery(1.3, 0.1, 0.05)),
                lambda: reject_cover_routes(1.3, 0.1, 0.05))

    def test_route_gate_applies_at_every_point(self, monkeypatch):
        monkeypatch.setattr(coverage_module, "ROUTE_AGREEMENT_TOL", 0.0)
        with pytest.raises(RouteDisagreementError):
            coverage_curve(0.1, 0.05, -8.0, 8.0, 801)
        with pytest.raises(RouteDisagreementError):
            min_coverage(0.1, 0.05)
        for query in self.point_queries():
            with pytest.raises(RouteDisagreementError, match=r"at gamma=1\.3,"):
                query()

    def test_quadrature_gate(self, monkeypatch):
        monkeypatch.setattr(coverage_module, "QUAD_ABS_TOL", 0.0)
        with pytest.raises(QuadratureError, match=r"on gamma in \[-8\.0, 8\.0\]"):
            coverage_curve(0.1, 0.05, -8.0, 8.0, 801)
        with pytest.raises(QuadratureError):
            min_coverage(0.1, 0.05)
        for query in self.point_queries():
            with pytest.raises(QuadratureError, match=r"at gamma=1\.3$"):
                query()

    @pytest.mark.parametrize("bad", [1e-6, math.nan])
    def test_route_gap_names_the_worst_gamma(self, monkeypatch, bad):
        # A disagreement (or a NaN, which fails every comparison) at one
        # grid point, or at a single query, must raise and name its gamma.
        quad_vec, quad = coverage_module.quad_vec, coverage_module.quad

        def off_at_one_point(*args, **kwargs):
            integral, err = quad_vec(*args, **kwargs)
            integral[5] += bad
            return integral, err

        def off(*args, **kwargs):
            integral, *rest = quad(*args, **kwargs)
            return (integral + bad, *rest)

        monkeypatch.setattr(coverage_module, "quad_vec", off_at_one_point)
        monkeypatch.setattr(coverage_module, "quad", off)
        gamma = float(np.linspace(-8.0, 8.0, 41)[5])
        with pytest.raises(RouteDisagreementError, match=f"at gamma={gamma!r},"):
            coverage_curve(0.1, 0.05, -8.0, 8.0, 41)
        for query in self.point_queries():
            with pytest.raises(RouteDisagreementError, match=r"at gamma=1\.3,"):
                query()


class TestMinCoverage:
    def test_reproduces_headline_number(self):
        report = min_coverage(0.1, 0.05)
        assert abs(report.min_coverage - MIN_COVERAGE_REF) <= 1e-6
        assert abs(report.gamma_star - GAMMA_STAR_REF) <= 1e-3

    def test_against_dense_grid_oracle(self):
        report = min_coverage(0.1, 0.05)
        c1 = std_normal_quantile(0.1)
        c = std_normal_quantile(0.05)

        def cov(g):
            return coverage_probability(CoverageQuery(g, 0.1, 0.05)).value

        # Coarse global scan confirms there is a single relevant basin.
        coarse = np.arange(0.0, 20.0, 0.05)
        coarse_vals = [cov(float(g)) for g in coarse]
        basin = float(coarse[int(np.argmin(coarse_vals))])
        assert abs(basin - report.gamma_star) <= 0.05
        # Dense local scan pins the argmin to 1e-4.
        dense = np.arange(basin - 0.05, basin + 0.05, 1e-4)
        dense_vals = [cov(float(g)) for g in dense]
        dense_arg = float(dense[int(np.argmin(dense_vals))])
        assert abs(report.gamma_star - dense_arg) <= 2e-4
        assert report.min_coverage <= min(dense_vals) + 1e-12

    def test_bounded_by_limits(self):
        for alpha1, alpha in ((0.1, 0.05), (0.05, 0.1), (0.2, 0.01)):
            report = min_coverage(alpha1, alpha)
            at_zero = coverage_probability(CoverageQuery(0.0, alpha1, alpha)).value
            assert report.min_coverage <= at_zero
            assert report.min_coverage <= 1.0 - alpha

    def test_search_reaches_minimum_beyond_gamma_20(self):
        # With levels this small the coverage falls to 0 near gamma = 21.4,
        # past the end of a fixed [0, 20] scan.
        report = min_coverage(1e-300, 1e-300)
        at_21_4 = coverage_probability(CoverageQuery(21.4, 1e-300, 1e-300)).value
        assert report.min_coverage <= at_21_4 + 1e-10


class TestMinCoverageTable:
    def test_default_grid_far_below_nominal(self):
        alpha1_list = [0.01, 0.05, 0.1, 0.2]
        alpha_list = [0.01, 0.05, 0.1]
        reports = min_coverage_table(alpha1_list, alpha_list)
        assert len(reports) == 12
        for rep in reports:
            assert rep.min_coverage < 1.0 - rep.alpha
            assert math.isfinite(rep.gamma_star)
            assert rep.gamma_star > 0.0

    def test_interior_minimum_confirmed_by_grid_oracle(self):
        for rep in min_coverage_table([0.05, 0.2], [0.05]):
            grid = np.arange(0.0, 8.0, 0.05)
            vals = [coverage_probability(
                CoverageQuery(float(g), rep.alpha1, rep.alpha)).value
                for g in grid]
            arg = float(grid[int(np.argmin(vals))])
            assert 0.0 < arg < 8.0 - 0.05
            assert abs(arg - rep.gamma_star) <= 0.05

    def test_single_cell_matches_min_coverage(self):
        assert min_coverage_table([0.1], [0.05]) == [min_coverage(0.1, 0.05)]

    def test_numpy_level_arrays(self):
        # A numpy array has no truth value; the lists are read as tuples first.
        reports = min_coverage_table(np.array([0.1]), np.array([0.05, 0.1]))
        assert reports == [min_coverage(0.1, 0.05), min_coverage(0.1, 0.1)]

    def test_empty_lists_rejected(self):
        with pytest.raises(DomainError):
            min_coverage_table([], [0.05])

    def test_non_sequence_lists_rejected(self):
        with pytest.raises(DomainError):
            min_coverage_table(0.1, [0.05])
        with pytest.raises(DomainError):
            min_coverage_table([0.1], 0.05)


class TestEfficiencyComparison:
    def test_threshold_boundary_exact(self):
        for sigma_e2 in (1.0, 2.0):
            comp = efficiency_comparison(4.5 * sigma_e2, sigma_e2, 10)
            assert comp.var_robust == comp.var_randomized
            assert comp.crossover_preferred

    def test_no_subject_variance(self):
        comp = efficiency_comparison(0.0, 1.0, 10)
        assert comp.var_robust == 0.275
        assert comp.var_randomized == 0.05
        assert not comp.crossover_preferred
        assert abs(comp.var_robust / comp.var_randomized - 5.5) < 1e-12

    def test_large_subject_variance(self):
        assert efficiency_comparison(100.0, 1.0, 10).crossover_preferred

    def test_preference_independent_of_n(self):
        for sigma_s2 in (0.0, 4.0, 4.5, 5.0, 50.0):
            flags = {efficiency_comparison(sigma_s2, 1.0, n).crossover_preferred
                     for n in (1, 2, 10, 1000)}
            assert len(flags) == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            efficiency_comparison(1.0, 0.0, 10)
        with pytest.raises(DomainError):
            efficiency_comparison(-1.0, 1.0, 10)
        with pytest.raises(DomainError):
            efficiency_comparison(1.0, 1.0, 0)

    @pytest.mark.parametrize("sigma_s2,sigma_e2,n", [
        (0.0, 5e-324, 2),
        (1e308, 1e308, 1),
        (0.0, 1e308, 1),
        (0.0, 1e-300, 2**64 - 1),
        (1.0, 1.0, 2**1100),  # 4.0 * n overflows
    ])
    def test_variances_outside_normal_range(self, sigma_s2, sigma_e2, n):
        # An infinite, zero or subnormal variance would print a ratio of
        # inf, nan or (subnormal) 5.500182 instead of 5.5.
        with pytest.raises(DomainError):
            efficiency_comparison(sigma_s2, sigma_e2, n)

    def test_normal_range_ends_accepted(self):
        # var_randomized is normal down to the smallest normal float, and
        # var_robust = 11 sigma_e2 / (4 n) finite while 11 sigma_e2 is.
        tiny = sys.float_info.min
        comp = efficiency_comparison(0.0, 2.0 * tiny, 1)
        assert comp.var_randomized == tiny
        comp = efficiency_comparison(0.0, sys.float_info.max / 11.0, 1)
        assert math.isfinite(comp.var_robust)
        assert abs(comp.var_robust / comp.var_randomized - 5.5) < 1e-15
