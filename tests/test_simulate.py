"""Tests for the subject-level Monte Carlo simulator."""

import math

import numpy as np
import pytest

from crossover_coverage import (
    CoverageQuery,
    DomainError,
    ModelParams,
    SimConfig,
    TrialDesign,
    TwoStageConfig,
    coverage_probability,
    empirical_coverage,
    estimate_effects,
    estimator_moments,
    reduce_responses,
    replication_stream,
    scaled_carryover,
    simulate_trial,
    theoretical_moments,
    two_stage,
)
from crossover_coverage.simulate import _batch_estimates, _open_uniforms


def make_config(n1=2, n2=2, theta=0.7, psi=0.3, sigma_s2=1.0, sigma_e2=1.0,
                alpha1=0.1, alpha=0.05, replications=1000, seed=42):
    design = TrialDesign(n1, n2)
    params = ModelParams.from_effects(theta, psi, between_subject_var=sigma_s2,
                                      error_var=sigma_e2)
    return SimConfig.create(design, params, alpha1, alpha, replications, seed)


class TestStreams:
    def test_open_uniforms_never_hit_endpoints(self):
        raw = np.array([0, 2**64 - 1, 123456789], dtype=np.uint64)
        u = _open_uniforms(raw)
        assert u[0] == 2.0**-53
        assert u[1] == 1.0 - 2.0**-53
        assert ((u > 0.0) & (u < 1.0)).all()

    def test_same_seed_same_trial(self):
        design = TrialDesign(3, 4)
        params = ModelParams.from_effects(0.4, 0.9)
        a = simulate_trial(design, params, replication_stream(7, 5, design))
        b = simulate_trial(design, params, replication_stream(7, 5, design))
        assert np.array_equal(a.group1, b.group1)
        assert np.array_equal(a.group2, b.group2)

    def test_different_replications_differ(self):
        design = TrialDesign(3, 4)
        params = ModelParams.from_effects(0.4, 0.9)
        a = simulate_trial(design, params, replication_stream(7, 0, design))
        b = simulate_trial(design, params, replication_stream(7, 1, design))
        assert not np.array_equal(a.group1, b.group1)

    def test_seed_validation(self):
        design = TrialDesign(2, 2)
        with pytest.raises(DomainError):
            replication_stream(-1, 0, design)
        with pytest.raises(DomainError):
            replication_stream(2**64, 0, design)
        with pytest.raises(DomainError):
            replication_stream(True, 0, design)
        with pytest.raises(DomainError):
            replication_stream(3, -1, design)


class TestSimulateTrial:
    def test_period_one_free_of_carryover(self):
        design = TrialDesign(4, 3)
        base = ModelParams(treatment_a=0.7, treatment_b=-0.2,
                           carryover_a=0.0, carryover_b=0.0)
        moved = ModelParams(treatment_a=0.7, treatment_b=-0.2,
                            carryover_a=5.0, carryover_b=-3.0)
        a = simulate_trial(design, base, replication_stream(11, 0, design))
        b = simulate_trial(design, moved, replication_stream(11, 0, design))
        assert np.array_equal(a.group1[:, 0], b.group1[:, 0])
        assert np.array_equal(a.group2[:, 0], b.group2[:, 0])
        assert not np.array_equal(a.group1[:, 1], b.group1[:, 1])

    def test_noise_free_reduction(self):
        # Vanishing-variance surrogate: with between-subject variance zero
        # and error variance ~1e-300 the responses are the fixed-effect
        # sums, and the reduction recovers the designed contrasts.
        design = TrialDesign(5, 3)
        theta, psi = 0.7, 0.3
        params = ModelParams.from_effects(theta, psi, between_subject_var=0.0,
                                          error_var=1e-300)
        responses = simulate_trial(design, params, replication_stream(1, 0, design))
        reduced = reduce_responses(design, responses)
        expected = [theta, -theta + 4.0 * psi / 3.0, theta - 4.0 * psi / 3.0,
                    -theta + 4.0 * psi / 3.0]
        assert np.allclose(reduced.as_array(), expected, atol=1e-140)

    def test_noise_free_estimates(self):
        design = TrialDesign(2, 2)
        params = ModelParams.from_effects(1.0, 0.75, between_subject_var=0.0,
                                          error_var=1e-300)
        reduced = reduce_responses(
            design, simulate_trial(design, params, replication_stream(2, 0, design)))
        est = estimate_effects(reduced)
        assert abs(est.pooled_effect - 0.25) < 1e-140
        assert abs(est.robust_effect - 1.0) < 1e-140
        assert abs(est.carryover_effect - 0.75) < 1e-140


class TestBatchEngine:
    @pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (1, 4)])
    def test_batch_matches_scalar_pipeline(self, n1, n2):
        config = make_config(n1=n1, n2=n2, replications=150, seed=33)
        batch = np.column_stack(_batch_estimates(config, 0, 150))
        design, params = config.design, config.params
        for r in range(150):
            rng = replication_stream(33, r, design)
            reduced = reduce_responses(design, simulate_trial(design, params, rng))
            est = estimate_effects(reduced)
            assert batch[r, 0] == est.pooled_effect
            assert batch[r, 1] == est.robust_effect
            assert batch[r, 2] == est.carryover_effect

    def test_hits_match_scalar_two_stage(self):
        config = make_config(replications=300, seed=5)
        emp = empirical_coverage(config)
        theta = config.params.treatment_difference
        hits = accepts = 0
        for r in range(300):
            rng = replication_stream(5, r, config.design)
            reduced = reduce_responses(
                config.design, simulate_trial(config.design, config.params, rng))
            out = two_stage(reduced, config.design, config.two_stage)
            hits += out.interval_lo <= theta <= out.interval_hi
            accepts += out.h0_accepted
        assert emp.hits == hits
        assert emp.accept_rate == accepts / 300

    def test_chunk_invariance(self):
        config = make_config(replications=500, seed=9)
        by_7 = empirical_coverage(config, chunk_size=7)
        by_128 = empirical_coverage(config, chunk_size=128)
        whole = empirical_coverage(config, chunk_size=500)
        auto = empirical_coverage(config)
        assert by_7 == by_128 == whole == auto

    def test_moments_chunk_invariance(self):
        config = make_config(replications=400, seed=10)
        assert estimator_moments(config, chunk_size=13) == \
            estimator_moments(config, chunk_size=400)


class TestEmpiricalCoverage:
    def test_reproducible(self):
        config = make_config(replications=2000, seed=77)
        assert empirical_coverage(config) == empirical_coverage(config)

    def test_estimate_fields_consistent(self):
        emp = empirical_coverage(make_config(replications=2000, seed=78))
        assert emp.total == 2000
        assert 0 <= emp.hits <= emp.total
        assert emp.estimate == emp.hits / emp.total
        assert abs(emp.std_err
                   - math.sqrt(emp.estimate * (1 - emp.estimate) / emp.total)) < 1e-15

    def test_accept_rate_at_null(self):
        config = make_config(psi=0.0, alpha1=0.1, replications=100_000, seed=13)
        emp = empirical_coverage(config)
        se = math.sqrt(0.9 * 0.1 / config.replications)
        assert abs(emp.accept_rate - 0.9) <= 4.0 * se

    def test_matches_analytic_coverage(self):
        config = make_config(replications=100_000, seed=14)
        gamma = scaled_carryover(config.params.differential_carryover,
                                 config.design, config.two_stage.sigma_e)
        analytic = coverage_probability(
            CoverageQuery(gamma, config.two_stage.alpha1, config.two_stage.alpha))
        emp = empirical_coverage(config)
        assert abs(emp.z_against(analytic.value)) <= 3.5

    def test_equal_gamma_designs_agree(self):
        config_a = make_config(n1=8, n2=8, psi=1.0, sigma_s2=1.0,
                               replications=100_000, seed=15)
        config_b = make_config(n1=2, n2=2, psi=2.0, sigma_s2=100.0,
                               replications=100_000, seed=16)
        gamma_a = scaled_carryover(config_a.params.differential_carryover,
                                   config_a.design, 1.0)
        gamma_b = scaled_carryover(config_b.params.differential_carryover,
                                   config_b.design, 1.0)
        assert gamma_a == gamma_b
        emp_a = empirical_coverage(config_a)
        emp_b = empirical_coverage(config_b)
        gap = abs(emp_a.estimate - emp_b.estimate)
        assert gap <= 5.0 * math.hypot(emp_a.std_err, emp_b.std_err)


class TestNuisanceInvariance:
    def test_counts_bit_identical_under_mean_and_period_shifts(self):
        design = TrialDesign(3, 5)
        kwargs = dict(treatment_a=0.7, treatment_b=0.0,
                      carryover_a=0.4, carryover_b=0.0,
                      between_subject_var=1.0, error_var=1.0)
        plain = ModelParams(**kwargs)
        shifted = ModelParams(grand_mean=3.7,
                              period_effects=(0.5, -1.25, 2.0, 3.75), **kwargs)
        two_stage_cfg = TwoStageConfig(0.1, 0.05, 1.0)
        emp_plain = empirical_coverage(
            SimConfig(design, plain, two_stage_cfg, 50_000, 99))
        emp_shifted = empirical_coverage(
            SimConfig(design, shifted, two_stage_cfg, 50_000, 99))
        assert emp_plain == emp_shifted

    def test_moments_invariant_to_rounding_noise(self):
        # Exact cancellation of the shifts is impossible in floating
        # point, but the moments must agree to rounding level.
        design = TrialDesign(3, 5)
        kwargs = dict(treatment_a=0.7, treatment_b=0.0,
                      carryover_a=0.4, carryover_b=0.0,
                      between_subject_var=1.0, error_var=1.0)
        plain = ModelParams(**kwargs)
        shifted = ModelParams(grand_mean=3.7,
                              period_effects=(0.5, -1.25, 2.0, 3.75), **kwargs)
        cfg = TwoStageConfig(0.1, 0.05, 1.0)
        mom_a = estimator_moments(SimConfig(design, plain, cfg, 20_000, 99))
        mom_b = estimator_moments(SimConfig(design, shifted, cfg, 20_000, 99))
        for field in ("mean_pooled", "mean_robust", "mean_carryover",
                      "var_pooled", "var_robust", "var_carryover",
                      "cov_pooled_carryover", "cov_robust_carryover"):
            assert abs(getattr(mom_a, field) - getattr(mom_b, field)) <= 1e-12


class TestEstimatorMoments:
    def test_against_closed_forms(self):
        config = make_config(n1=4, n2=4, replications=30_000, seed=21)
        sample = estimator_moments(config)
        exact = theoretical_moments(config.design, config.params)
        n = config.replications
        assert abs(sample.mean_pooled - exact.mean_pooled) <= \
            4.0 * math.sqrt(exact.var_pooled / n)
        assert abs(sample.mean_robust - exact.mean_robust) <= \
            4.0 * math.sqrt(exact.var_robust / n)
        assert abs(sample.mean_carryover - exact.mean_carryover) <= \
            4.0 * math.sqrt(exact.var_carryover / n)
        assert abs(sample.cov_pooled_carryover) <= \
            4.0 * math.sqrt(exact.var_pooled * exact.var_carryover / n)
        for field in ("var_pooled", "var_robust", "var_carryover",
                      "cov_robust_carryover"):
            got, want = getattr(sample, field), getattr(exact, field)
            assert abs(got - want) / want <= 0.05

    def test_variances_do_not_depend_on_subject_variance(self):
        # Estimator variances involve only the error variance; runs with
        # wildly different subject variances must agree within Monte
        # Carlo error (5% is ~11 standard errors at this size).
        results = []
        for i, sigma_s2 in enumerate((0.0, 1.0, 100.0)):
            config = make_config(n1=4, n2=4, sigma_s2=sigma_s2,
                                 replications=100_000, seed=300 + i)
            results.append(estimator_moments(config))
        for field in ("var_pooled", "var_robust", "var_carryover"):
            vals = [getattr(r, field) for r in results]
            assert max(vals) / min(vals) <= 1.05

    def test_single_replication(self):
        # One sample has no spread: the n divisor gives zeros, and the
        # correlation of two constants is undefined.
        config = make_config(replications=1, seed=5)
        moments = estimator_moments(config)
        (pooled,), (robust,), (carry,) = _batch_estimates(config, 0, 1)
        assert (moments.mean_pooled, moments.mean_robust,
                moments.mean_carryover) == (pooled, robust, carry)
        for field in ("var_pooled", "var_robust", "var_carryover",
                      "cov_pooled_carryover", "cov_robust_carryover"):
            assert getattr(moments, field) == 0.0
        assert math.isnan(moments.corr_robust_carryover)

    def test_theoretical_moments_values(self):
        design = TrialDesign(8, 8)
        params = ModelParams.from_effects(0.7, 0.3, error_var=2.0)
        exact = theoretical_moments(design, params)
        noise = design.m * 2.0
        assert exact.mean_pooled == params.treatment_difference - params.differential_carryover
        assert exact.var_pooled == noise / 4.0
        assert exact.var_robust == 11.0 * noise / 8.0
        assert exact.var_carryover == 9.0 * noise / 8.0
        assert exact.cov_robust_carryover == 9.0 * noise / 8.0
        assert abs(exact.corr_robust_carryover - 0.9045340337332909) < 1e-15


class TestConfigValidation:
    def test_sigma_e_must_match_params(self):
        design = TrialDesign(2, 2)
        params = ModelParams.from_effects(0.0, 0.0, error_var=4.0)
        with pytest.raises(DomainError):
            SimConfig(design, params, TwoStageConfig(0.1, 0.05, 1.0), 10, 0)
        SimConfig(design, params, TwoStageConfig(0.1, 0.05, 2.0), 10, 0)

    @pytest.mark.parametrize("run", [empirical_coverage, estimator_moments])
    def test_chunk_size_positive(self, run):
        # Only None selects automatic chunking; 0 is an error, not a default.
        config = make_config(replications=50, seed=4)
        with pytest.raises(DomainError):
            run(config, chunk_size=0)
        assert run(config, chunk_size=None) == run(config, chunk_size=50)

    def test_replications_positive(self):
        with pytest.raises(DomainError):
            make_config(replications=0)

    def test_seed_range(self):
        with pytest.raises(DomainError):
            make_config(seed=-1)
        with pytest.raises(DomainError):
            make_config(seed=2**64)
