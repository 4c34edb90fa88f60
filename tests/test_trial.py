"""Tests for the trial model: reduction, estimators, two-stage procedure."""

import math

import numpy as np
import pytest

from crossover_coverage import (
    DomainError,
    ModelParams,
    PeriodDifferences,
    SubjectResponses,
    TrialDesign,
    TwoStageConfig,
    estimate_effects,
    reduce_responses,
    scaled_carryover,
    std_normal_quantile,
    two_stage,
)
from crossover_coverage.trial import (
    _period_differences,
    _two_stage_rule,
    carryover_effect_estimate,
    carryover_scale,
    pooled_effect_estimate,
    pooled_half_width,
    robust_effect_estimate,
    robust_half_width,
)


class TestTypes:
    def test_design_m(self):
        assert TrialDesign(8, 8).m == 0.25
        assert TrialDesign(1, 1).m == 2.0
        assert TrialDesign(10, 10).m == 0.2

    @pytest.mark.parametrize("n1,n2", [(0, 3), (3, 0), (-1, 2), (True, 2)])
    def test_design_rejects_bad_sizes(self, n1, n2):
        with pytest.raises(DomainError):
            TrialDesign(n1, n2)

    def test_from_effects_roundtrip(self):
        p = ModelParams.from_effects(0.7, 0.3)
        assert p.treatment_difference == 0.7
        assert p.differential_carryover == 0.3
        assert p == ModelParams(0.7, 0.3)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            ModelParams(error_var=0.0)
        with pytest.raises(DomainError):
            ModelParams(between_subject_var=-1.0)
        with pytest.raises(DomainError):
            ModelParams(grand_mean=math.nan)
        with pytest.raises(DomainError):
            ModelParams(period_effects=(1.0, 2.0))
        with pytest.raises(DomainError):
            ModelParams(period_effects=True)
        with pytest.raises(DomainError):
            ModelParams.from_effects(0, 0, period_effects=3)
        # A's residual effect, psi / 0.75, overflows past about 1.348e308.
        ModelParams(differential_carryover=1.3e308)
        for psi in (1.4e308, -1.4e308):
            with pytest.raises(DomainError, match="must be finite"):
                ModelParams(differential_carryover=psi)

    def test_responses_validation(self):
        with pytest.raises(DomainError):
            SubjectResponses(np.zeros((3, 3)), np.zeros((3, 4)))
        with pytest.raises(DomainError):
            SubjectResponses(np.full((2, 4), math.inf), np.zeros((3, 4)))

    @pytest.mark.parametrize("bad", [np.ones((2, 4), dtype=bool), [["1", "2", "3", "4"]]],
                             ids=["bool", "str"])
    def test_responses_reject_non_numeric_dtypes(self, bad):
        with pytest.raises(DomainError):
            SubjectResponses(bad, np.zeros((3, 4)))
        with pytest.raises(DomainError):
            SubjectResponses(np.zeros((3, 4)), bad)


class TestReduce:
    def test_constant_responses_cancel(self):
        design = TrialDesign(3, 5)
        responses = SubjectResponses(np.full((3, 4), 7.25), np.full((5, 4), 7.25))
        reduced = reduce_responses(design, responses)
        assert reduced.as_array().tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_noise_free_model(self):
        # Treatment effects 1 and 0, residual effects 1 and 0, so the
        # treatment difference is 1 and the differential carryover 0.75.
        # Rows follow the ABAB / BABA layout with no noise.
        row1 = [1.0, 0.0 + 1.0, 1.0 + 0.0, 0.0 + 1.0]
        row2 = [0.0, 1.0 + 0.0, 0.0 + 1.0, 1.0 + 0.0]
        design = TrialDesign(4, 2)
        responses = SubjectResponses(np.tile(row1, (4, 1)), np.tile(row2, (2, 1)))
        reduced = reduce_responses(design, responses)
        assert reduced.as_array().tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_period_shift_invariance_exact_for_dyadic_data(self):
        # Dyadic responses and power-of-two group sizes make every mean
        # exact, so adding period effects must cancel bit-for-bit.
        rng = np.random.default_rng(7)
        base1 = rng.integers(-8, 8, size=(2, 4)) * 0.25
        base2 = rng.integers(-8, 8, size=(4, 4)) * 0.25
        shift = np.array([0.5, -1.25, 2.0, 3.75])
        design = TrialDesign(2, 4)
        plain = reduce_responses(design, SubjectResponses(base1, base2))
        shifted = reduce_responses(
            design, SubjectResponses(base1 + shift, base2 + shift))
        assert plain == shifted

    def test_period_shift_invariance_generic(self):
        rng = np.random.default_rng(8)
        base1 = rng.normal(size=(3, 4))
        base2 = rng.normal(size=(5, 4))
        shift = rng.normal(size=4)
        design = TrialDesign(3, 5)
        plain = reduce_responses(design, SubjectResponses(base1, base2))
        shifted = reduce_responses(
            design, SubjectResponses(base1 + shift, base2 + shift))
        assert np.allclose(plain.as_array(), shifted.as_array(), atol=1e-12)

    def test_leading_trial_axes(self):
        # A stack of trials reduces, row by row, to exactly what each
        # trial reduces to on its own.
        rng = np.random.default_rng(5)
        design = TrialDesign(3, 5)
        y1 = rng.normal(size=(6, 3, 4))
        y2 = rng.normal(size=(6, 5, 4))
        d = _period_differences(design, y1, y2)
        assert d.shape == (6, 4)
        for r in range(6):
            one = reduce_responses(design, SubjectResponses(y1[r], y2[r]))
            assert np.array_equal(d[r], one.as_array())

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            reduce_responses(TrialDesign(3, 3),
                             SubjectResponses(np.zeros((2, 4)), np.zeros((3, 4))))


class TestEstimates:
    def test_differences_checked(self):
        for bad in (math.inf, -math.inf):
            with pytest.raises(DomainError):
                PeriodDifferences(bad, 0.0, 0.0, 0.0)
        reduced = PeriodDifferences(*np.array([0.5, 1.0, 1.5, 2.0]))
        assert all(type(v) is float
                   for v in (reduced.d1, reduced.d2, reduced.d3, reduced.d4))

    def test_unit_first_difference(self):
        est = estimate_effects(PeriodDifferences(1.0, 0.0, 0.0, 0.0))
        assert est.pooled_effect == 0.25
        assert est.robust_effect == 1.0
        assert est.carryover_effect == 0.75

    def test_zero(self):
        est = estimate_effects(PeriodDifferences(0.0, 0.0, 0.0, 0.0))
        assert est == (0.0, 0.0, 0.0)

    def test_common_offset_annihilated(self):
        est = estimate_effects(PeriodDifferences(1.0, 1.0, 1.0, 1.0))
        assert est.pooled_effect == 0.0
        assert est.robust_effect == 0.0
        assert est.carryover_effect == 0.0

    def test_offset_invariance_exact_for_dyadic(self):
        base = PeriodDifferences(0.5, -1.25, 2.0, 3.75)
        shifted = PeriodDifferences(0.5 + 4.5, -1.25 + 4.5, 2.0 + 4.5, 3.75 + 4.5)
        assert estimate_effects(base) == estimate_effects(shifted)

    def test_offset_invariance_generic(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = rng.normal(size=4)
            c = rng.normal()
            before = np.array(estimate_effects(PeriodDifferences(*d)))
            after = np.array(estimate_effects(PeriodDifferences(*(d + c))))
            assert np.allclose(before, after, rtol=1e-12, atol=1e-12)


class TestTwoStage:
    def test_zero_data_accepts(self):
        design = TrialDesign(8, 8)
        config = TwoStageConfig(alpha1=0.1, alpha=0.05, sigma_e=1.0)
        out = two_stage(PeriodDifferences(0.0, 0.0, 0.0, 0.0), design, config)
        assert out.h0_accepted
        assert out.pretest_stat == 0.0
        half = pooled_half_width(design.m, 0.05, 1.0)
        assert out.interval_lo == -half
        assert out.interval_hi == half

    def test_enormous_carryover_rejects(self):
        design = TrialDesign(10, 10)
        assert design.m == 0.2
        config = TwoStageConfig(alpha1=0.1, alpha=0.05, sigma_e=1.0)
        out = two_stage(PeriodDifferences(1e6, 0.0, 0.0, 0.0), design, config)
        assert not out.h0_accepted

    def test_boundary_tie_rejects(self):
        # Constructed so the pretest statistic lands exactly on the
        # critical value; the tie must be classified as rejection.
        design = TrialDesign(4, 4)
        config = TwoStageConfig(alpha1=0.1, alpha=0.05, sigma_e=1.0)
        crit = std_normal_quantile(0.1)
        d1 = crit / carryover_scale(design.m) / 0.75
        out = two_stage(PeriodDifferences(d1, 0.0, 0.0, 0.0), design, config)
        assert out.pretest_stat == crit
        assert not out.h0_accepted

    def test_boundary_tie_rejects_at_non_unit_error_scale(self):
        # An exact tie at sigma_e = sqrt(2.5). The statistic is
        # scale * carryover / sigma_e; (scale / sigma_e) * carryover rounds
        # one ulp away here, so this also pins the order of the arithmetic.
        design = TrialDesign(3, 5)
        config = TwoStageConfig(alpha1=0.1, alpha=0.05, sigma_e=math.sqrt(2.5))
        out = two_stage(PeriodDifferences(2.686034725064894, 0.0, 0.0, 0.0), design, config)
        assert out.pretest_stat == std_normal_quantile(0.1)
        assert not out.h0_accepted

    def test_one_ulp_inside_accepts(self):
        design = TrialDesign(4, 4)
        config = TwoStageConfig(alpha1=0.1, alpha=0.05, sigma_e=1.0)
        crit = std_normal_quantile(0.1)
        d1 = crit / carryover_scale(design.m) / 0.75
        inside = float(np.nextafter(d1, 0.0))
        out = two_stage(PeriodDifferences(inside, 0.0, 0.0, 0.0), design, config)
        assert abs(out.pretest_stat) < crit
        assert out.h0_accepted

    def test_interval_invariants(self):
        rng = np.random.default_rng(11)
        design = TrialDesign(5, 3)
        config = TwoStageConfig(alpha1=0.1, alpha=0.05, sigma_e=2.0)
        hw_pooled = pooled_half_width(design.m, 0.05, 2.0)
        hw_robust = robust_half_width(design.m, 0.05, 2.0)
        for _ in range(200):
            reduced = PeriodDifferences(*rng.normal(scale=2.0, size=4))
            out = two_stage(reduced, design, config)
            assert out.interval_lo <= out.interval_hi
            # h0_accepted names the interval: pooled when true, else robust.
            est = estimate_effects(reduced)
            center = est.pooled_effect if out.h0_accepted else est.robust_effect
            assert abs(0.5 * (out.interval_lo + out.interval_hi) - center) < 1e-12
            width = out.interval_hi - out.interval_lo
            expected = hw_pooled if out.h0_accepted else hw_robust
            assert abs(width - 2.0 * expected) < 1e-12

    def test_rule_on_arrays_matches_single_runs(self):
        # The rule the simulator applies to whole chunks gives, element
        # for element, the outcome of two_stage on each trial.
        rng = np.random.default_rng(17)
        design = TrialDesign(5, 3)
        config = TwoStageConfig(alpha1=0.1, alpha=0.05, sigma_e=2.0)
        d = rng.normal(scale=2.0, size=(4, 300))
        stat, accepted, lo, hi = _two_stage_rule(design, config)(
            pooled_effect_estimate(*d), robust_effect_estimate(*d),
            carryover_effect_estimate(*d))
        assert accepted.any() and not accepted.all()
        for r, col in enumerate(d.T):
            out = two_stage(PeriodDifferences(*col), design, config)
            assert (out.pretest_stat, out.h0_accepted, out.interval_lo,
                    out.interval_hi) == (stat[r], accepted[r], lo[r], hi[r])

    def test_outcome_holds_python_scalars(self):
        out = two_stage(PeriodDifferences(0.5, 0.0, 0.25, 0.0), TrialDesign(4, 4),
                        TwoStageConfig(alpha1=0.1, alpha=0.05, sigma_e=1.0))
        assert type(out.h0_accepted) is bool
        assert all(type(v) is float
                   for v in (out.pretest_stat, out.interval_lo, out.interval_hi))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            TwoStageConfig(alpha1=0.0, alpha=0.05, sigma_e=1.0)
        with pytest.raises(DomainError):
            TwoStageConfig(alpha1=0.1, alpha=1.0, sigma_e=1.0)
        with pytest.raises(DomainError):
            TwoStageConfig(alpha1=0.1, alpha=0.05, sigma_e=0.0)


class TestScaledCarryover:
    def test_zero(self):
        assert scaled_carryover(0.0, TrialDesign(8, 8), 1.0) == 0.0

    def test_direct_substitution(self):
        design = TrialDesign(8, 8)
        value = scaled_carryover(1.0, design, 1.0)
        assert value == math.sqrt(8.0 / 2.25)
        assert abs(value - 1.8856180831641267) < 1e-15

    def test_linearity(self):
        design = TrialDesign(5, 7)
        rng = np.random.default_rng(12)
        for _ in range(50):
            psi = float(rng.normal())
            assert scaled_carryover(2.0 * psi, design, 1.5) == \
                2.0 * scaled_carryover(psi, design, 1.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            scaled_carryover(1.0, TrialDesign(2, 2), 0.0)
        with pytest.raises(DomainError):
            scaled_carryover(1.0, TrialDesign(2, 2), -1.0)
        with pytest.raises(DomainError):
            scaled_carryover(math.inf, TrialDesign(2, 2), 1.0)
