"""Tests for the Monte Carlo simulator and its subject-level reference path."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from crossover_coverage import (
    CoverageQuery,
    DomainError,
    EmpiricalCoverage,
    EstimatorMoments,
    ModelParams,
    NumericalError,
    SimConfig,
    TrialDesign,
    coverage_probability,
    empirical_coverage,
    estimate_effects,
    estimator_moments,
    reduce_responses,
    scaled_carryover,
    simulate_trial,
    std_normal_inverse_cdf,
    theoretical_moments,
    two_stage,
)
from crossover_coverage.simulate import (
    _CHUNK_REPS,
    _batch_estimates,
    _moment_std_errors,
    _open_uniforms,
    _responses,
    _unit_chunks,
)
from crossover_coverage.trial import (
    _period_differences,
    _two_stage_rule,
    carryover_effect_estimate,
    pooled_effect_estimate,
    robust_effect_estimate,
)


def make_config(n1=2, n2=2, theta=0.7, psi=0.3, sigma_s2=1.0, sigma_e2=1.0,
                alpha1=0.1, alpha=0.05, replications=1000, seed=42):
    design = TrialDesign(n1, n2)
    params = ModelParams.from_effects(theta, psi, between_subject_var=sigma_s2,
                                      error_var=sigma_e2)
    return SimConfig.create(design, params, alpha1, alpha, replications, seed)


# The subject-level model, run the way the tally runs the period differences:
# simulate_trial's words and responses, trial.py's reduction and estimators.

def subject_level_estimates(config, start, count):
    """Estimator triple of the subject-level replications [start, start + count)."""
    design = config.design
    y1, y2 = _responses(design, config.params, config.seed, start, count)
    d1, d2, d3, d4 = _period_differences(design, y1, y2).T
    return (pooled_effect_estimate(d1, d2, d3, d4),
            robust_effect_estimate(d1, d2, d3, d4),
            carryover_effect_estimate(d1, d2, d3, d4))


def subject_level_run(config):
    """The subject-level run's tally, and its (3, replications) estimates."""
    theta = config.params.treatment_difference
    rule = _two_stage_rule(config.design, config.two_stage)
    hits = accepts = 0
    chunks = []
    for start in range(0, config.replications, 2000):
        count = min(2000, config.replications - start)
        x = np.stack(subject_level_estimates(config, start, count))
        _, accepted, lo, hi = rule(*x)
        hits += int(np.count_nonzero((lo <= theta) & (theta <= hi)))
        accepts += int(np.count_nonzero(accepted))
        chunks.append(x)
    tally = EmpiricalCoverage(hits=hits, accepts=accepts, total=config.replications)
    return tally, np.concatenate(chunks, axis=1)


def subject_level_tally(config):
    return subject_level_run(config)[0]


def sample_moments(x):
    """EstimatorMoments of (3, n) estimates, from np.cov over all of them."""
    mean, cov = x.mean(axis=1), np.cov(x)
    return EstimatorMoments(
        mean_pooled=float(mean[0]), mean_robust=float(mean[1]),
        mean_carryover=float(mean[2]), var_pooled=float(cov[0, 0]),
        var_robust=float(cov[1, 1]), var_carryover=float(cov[2, 2]),
        cov_pooled_carryover=float(cov[0, 2]), cov_robust_carryover=float(cov[1, 2]),
        corr_robust_carryover=float(cov[1, 2] / math.sqrt(cov[1, 1] * cov[2, 2])))


def subject_level_moments(config):
    return sample_moments(subject_level_run(config)[1])


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
        a = simulate_trial(design, params, 7, 5)
        b = simulate_trial(design, params, 7, 5)
        assert np.array_equal(a.group1, b.group1)
        assert np.array_equal(a.group2, b.group2)

    def test_different_replications_differ(self):
        design = TrialDesign(3, 4)
        params = ModelParams.from_effects(0.4, 0.9)
        a = simulate_trial(design, params, 7, 0)
        b = simulate_trial(design, params, 7, 1)
        assert not np.array_equal(a.group1, b.group1)

    def test_seed_validation(self):
        design = TrialDesign(2, 2)
        params = ModelParams()
        with pytest.raises(DomainError):
            simulate_trial(design, params, -1, 0)
        with pytest.raises(DomainError):
            simulate_trial(design, params, 2**64, 0)
        with pytest.raises(DomainError):
            simulate_trial(design, params, True, 0)
        with pytest.raises(DomainError):
            simulate_trial(design, params, 3, -1)

    def test_rep_index_below_seed_range(self):
        # Philox's counter wraps after 2**256 blocks, where trial 2**256 + 1
        # would repeat trial 1; the seed's range keeps every trial far below.
        design, params = TrialDesign(2, 2), ModelParams(0.7, 0.3)
        for rep_index in (2**64, 2**256 + 1):
            with pytest.raises(DomainError, match=f"rep_index must be below {2**64} "):
                simulate_trial(design, params, 5, rep_index)
        last = simulate_trial(design, params, 5, 2**64 - 1)
        assert not np.array_equal(last.group1, simulate_trial(design, params, 5, 0).group1)


class TestSimulateTrial:
    def test_period_one_free_of_carryover(self):
        design = TrialDesign(4, 3)
        base = ModelParams(treatment_difference=0.7, differential_carryover=0.0)
        moved = ModelParams(treatment_difference=0.7, differential_carryover=0.3)
        a = simulate_trial(design, base, 11, 0)
        b = simulate_trial(design, moved, 11, 0)
        assert np.array_equal(a.group1[:, 0], b.group1[:, 0])
        assert np.array_equal(a.group2[:, 0], b.group2[:, 0])
        assert not np.array_equal(a.group1[:, 1], b.group1[:, 1])

    def test_replication_pinned_bit_for_bit(self):
        # Any change to the draws or to the order of the fixed-effect sums
        # moves these responses.
        params = ModelParams(0.7, 0.9, between_subject_var=2.0, error_var=0.5,
                             grand_mean=10.0, period_effects=(0.0, 0.3, -0.2, 0.5))
        responses = simulate_trial(TrialDesign(3, 2), params, 2024, 5)
        assert [[float(v).hex() for v in row] for row in responses.group1] == [
            ["0x1.1a68196d37718p+3", "0x1.3b756d3d1af73p+3",
             "0x1.30a904cafde22p+3", "0x1.2967041ba91e3p+3"],
            ["0x1.b70bf97d29976p+3", "0x1.ad9bf094e7b4fp+3",
             "0x1.968142c87112ep+3", "0x1.a2e120570b44cp+3"],
            ["0x1.3ed698010ac72p+3", "0x1.8089d863773d9p+3",
             "0x1.46d0a713c9035p+3", "0x1.99d8e257df0a2p+3"],
        ]
        assert [[float(v).hex() for v in row] for row in responses.group2] == [
            ["0x1.391b864714f35p+3", "0x1.86d5ac1da1808p+3",
             "0x1.8eb052b032eedp+3", "0x1.7fb2164e11897p+3"],
            ["0x1.164b94b3dbe7ep+3", "0x1.14613463e237dp+3",
             "0x1.1ae1c290c8b48p+3", "0x1.052c3c51a9295p+3"],
        ]

    def test_noise_free_reduction(self):
        # Vanishing-variance surrogate: with between-subject variance zero
        # and error variance ~1e-300 the responses are the fixed-effect
        # sums, and the reduction recovers the designed contrasts.
        design = TrialDesign(5, 3)
        theta, psi = 0.7, 0.3
        params = ModelParams.from_effects(theta, psi, between_subject_var=0.0,
                                          error_var=1e-300)
        responses = simulate_trial(design, params, 1, 0)
        reduced = reduce_responses(design, responses)
        expected = [theta, -theta + 4.0 * psi / 3.0, theta - 4.0 * psi / 3.0,
                    -theta + 4.0 * psi / 3.0]
        assert np.allclose(reduced.as_array(), expected, atol=1e-140)

    def test_noise_free_estimates(self):
        design = TrialDesign(2, 2)
        params = ModelParams.from_effects(1.0, 0.75, between_subject_var=0.0,
                                          error_var=1e-300)
        reduced = reduce_responses(
            design, simulate_trial(design, params, 2, 0))
        est = estimate_effects(reduced)
        assert abs(est.pooled_effect - 0.25) < 1e-140
        assert abs(est.robust_effect - 1.0) < 1e-140
        assert abs(est.carryover_effect - 0.75) < 1e-140

    def test_overflowed_mean_refused_without_warning(self):
        # grand_mean + theta overflows to inf. The suite turns warnings
        # into errors, so a numpy overflow warning would fail here first.
        params = ModelParams(1e308, 0.0, 1.0, 1.0, grand_mean=1e308)
        with pytest.raises(DomainError, match="group1 must be finite"):
            simulate_trial(TrialDesign(2, 2), params, 1, 0)


class TestBatchEngine:
    @pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (1, 4)])
    def test_batch_matches_scalar_pipeline(self, n1, n2):
        # The subject-level batch against simulate_trial, one trial at a time.
        config = make_config(n1=n1, n2=n2, replications=150, seed=33)
        batch = np.column_stack(subject_level_estimates(config, 0, 150))
        design, params = config.design, config.params
        for r in range(150):
            reduced = reduce_responses(design, simulate_trial(design, params, 33, r))
            est = estimate_effects(reduced)
            assert batch[r, 0] == est.pooled_effect
            assert batch[r, 1] == est.robust_effect
            assert batch[r, 2] == est.carryover_effect

    def test_hits_match_scalar_two_stage(self):
        config = make_config(replications=300, seed=5)
        emp = subject_level_tally(config)
        theta = config.params.treatment_difference
        hits = accepts = 0
        for r in range(300):
            reduced = reduce_responses(
                config.design, simulate_trial(config.design, config.params, 5, r))
            out = two_stage(reduced, config.design, config.two_stage)
            hits += out.interval_lo <= theta <= out.interval_hi
            accepts += out.h0_accepted
        assert emp.hits == hits
        assert emp.accept_rate == accepts / 300

    @pytest.mark.parametrize("n1,n2", [(2, 2), (5, 10)])
    def test_replication_is_its_philox_block(self, n1, n2):
        # Replication r reads words 4r to 4r + 3 of the seed's stream, and
        # its period differences are fd + sqrt(m) sigma_e z.
        config = make_config(n1=n1, n2=n2, psi=0.9, sigma_e2=2.5, replications=9, seed=17)
        words = np.random.Philox(key=17).random_raw(4 * 9).reshape(9, 4)
        z = std_normal_inverse_cdf(_open_uniforms(words))
        r = 0.9 / 0.75
        fd = np.array([0.7, r - 0.7, 0.7 - r, r - 0.7])
        d1, d2, d3, d4 = (fd + math.sqrt(config.design.m) * math.sqrt(2.5) * z).T
        expected = (pooled_effect_estimate(d1, d2, d3, d4),
                    robust_effect_estimate(d1, d2, d3, d4),
                    carryover_effect_estimate(d1, d2, d3, d4))
        for got, want in zip(_batch_estimates(config, next(_unit_chunks(config, None))),
                             expected):
            assert np.array_equal(got, want)

    def test_any_replication_regenerates_alone(self):
        # Replication r of the tally's chunks is the first block of a stream
        # keyed by the seed and advanced by r blocks.
        config = make_config(replications=_CHUNK_REPS + 3, seed=8)
        z_all = np.concatenate(list(_unit_chunks(config, None)))
        whole = np.stack(_batch_estimates(config, z_all))
        for r in (0, 1, _CHUNK_REPS - 1, _CHUNK_REPS, _CHUNK_REPS + 2):
            stream = np.random.Philox(key=8)
            stream.advance(r)
            z = std_normal_inverse_cdf(_open_uniforms(stream.random_raw(4))).reshape(1, 4)
            assert np.array_equal(np.stack(_batch_estimates(config, z))[:, 0], whole[:, r])

    def test_chunk_invariance(self):
        config = make_config(replications=9000, seed=9)
        auto = empirical_coverage(config)
        for chunk_size in (1, 7, 1000, 4096, 9000):
            assert empirical_coverage(config, chunk_size=chunk_size) == auto

    def test_one_philox_per_run(self, monkeypatch):
        # A run keys one stream and draws its chunks in order, however many.
        built = []

        class Philox(np.random.Philox):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", Philox)
        config = make_config(replications=2 * _CHUNK_REPS + 5, seed=11)
        tallies = []
        for chunk_size in (1, 1000, None):
            built.clear()
            tallies.append(empirical_coverage(config, chunk_size=chunk_size))
            assert built == [{"key": 11}]
        assert tallies[0] == tallies[1] == tallies[2]
        built.clear()
        estimator_moments(config)
        assert built == [{"key": 11}]

    def test_chunks_are_produced_lazily(self):
        # 1e8 replications make about 24,000 chunks; taking the
        # first must not build the rest.
        config = make_config(n1=8, n2=8, replications=10**8, seed=1)
        tracemalloc.start()
        try:
            first = next(_unit_chunks(config, None))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first.shape == (4096, 4)
        assert peak < 2**20

    def test_chunk_size_checked_before_any_chunk(self):
        with pytest.raises(DomainError):
            _unit_chunks(make_config(replications=10), 0)


def assert_moments_near_closed_forms(sample, exact, n):
    """Each moment within 4 of its large-sample standard errors, as validate gates them."""
    std_err = _moment_std_errors(exact, n)
    for field in fields(EstimatorMoments):
        got, want, se = (getattr(m, field.name) for m in (sample, exact, std_err))
        assert abs(got - want) <= 4.0 * se, (field.name, got, want)


def two_sample_z(count_a, count_b, n):
    """z of the difference of two rates of n trials each, at their pooled rate."""
    pooled = (count_a + count_b) / (2 * n)
    return (count_a - count_b) / n / math.sqrt(pooled * (1.0 - pooled) * 2.0 / n)


class TestSubjectLevelEquivalence:
    # The tally draws only the period differences. At each setting it must
    # agree in law with the subject-level model it replaces: hits and
    # accepts in a two-sample test, and each side's moments against the
    # closed forms. The two sides use different seeds, so their draws are
    # independent.
    REPS = 200_000

    @pytest.mark.parametrize("n1,n2,psi,params", [
        (8, 8, 0.73, {}),
        (5, 10, 1.7, {"between_subject_var": 0.0, "error_var": 2.5}),
        (1, 4, 0.9, {"between_subject_var": 100.0}),
        (3, 5, 0.3, {"grand_mean": 3.7, "period_effects": (0.5, -1.25, 2.0, 3.75)}),
    ], ids=["8-8", "5-10-no-subject-variance", "1-4-subject-variance-100",
            "3-5-nuisance-shifts"])
    def test_tally_and_moments_match_subject_level(self, n1, n2, psi, params):
        design = TrialDesign(n1, n2)
        model = ModelParams(0.7, psi, **params)
        tally_config = SimConfig(design, model, 0.1, 0.05, self.REPS, 1801)
        reference_config = SimConfig(design, model, 0.1, 0.05, self.REPS, 1802)
        tally = empirical_coverage(tally_config)
        reference, estimates = subject_level_run(reference_config)
        assert abs(two_sample_z(tally.hits, reference.hits, self.REPS)) <= 4.0
        assert abs(two_sample_z(tally.accepts, reference.accepts, self.REPS)) <= 4.0
        exact = theoretical_moments(design, model)
        assert_moments_near_closed_forms(estimator_moments(tally_config), exact, self.REPS)
        assert_moments_near_closed_forms(sample_moments(estimates), exact, self.REPS)


class TestSubjectLevelIdentity:
    """The tally's period differences against the subject-level model's, draw for draw.

    Draw A is a subject-level run with every term of the model. Draw B reads
    the same words with theta = psi = 0, sigma_s^2 = 0, sigma_e^2 = 1 and no
    nuisance terms, so its responses are exactly A's unit error normals, and
    w = (e1 - e2) / sqrt(m) per period, e a group's mean error, is unit
    noise. The module docstring's identity d = fd + sqrt(m) sigma_e w then
    makes ``_batch_estimates(A, w)`` A's subject-level estimates, up to
    rounding, which this bounds.

    Every value either side forms before its estimators has magnitude at most
    Y = max |theta or r| + |grand mean| + max |period effect| + Z (sigma_s +
    sigma_e), Z = 8.21 bounding |z|; so does each response. Each rounding errs
    by at most u = 2**-53 of its result, and to first order in u:
    - A's response takes 6 roundings, a group's period mean of n of them at
      most n more (a sum in any order, then a division), and d one more of a
      value at most 2Y: A's d is off its exact value by at most
      (n1 + n2 + 14) u Y. That exact value also holds the subject term
      c (1, 1, 1, 1), which every estimator annihilates exactly.
    - B's group means of n normals err by n u Z each, and their difference by
      2 u Z more: (n1 + n2 + 2) u Z, scaled by sigma_e. Forming sqrt(m)
      sigma_e w takes 3 roundings of a value at most 2Y (the computed sqrt(m)
      cancels), fd 1 and d 1: B's d is off by at most (n1 + n2 + 12) u Y.
    - An estimator's coefficients b sum to at most ||b||_1 = 2 in absolute
      value, and it takes at most 4 roundings per side, each of a value at
      most 2 ||b||_1 Y.
    So the estimates differ by at most 2 (2 (n1 + n2) + 26) u Y + 32 u Y =
    4 (n1 + n2 + 21) u Y.
    """

    REPS = 200

    @pytest.mark.parametrize("n1,n2,model", [
        (3, 5, ModelParams(0.7, 0.3, 1.0, 1.0, 3.7, (0.5, -1.25, 2.0, 3.75))),
        (1, 4, ModelParams(-0.4, 0.9, 100.0, 2.5, -2.0, (0.0, 1.0, 2.0, 3.0))),
        (10, 5, ModelParams(1.2, 1.7, 0.5, 0.25, 10.0, (0.0, -0.3, 0.2, 0.1))),
        (400, 900, ModelParams(0.7, 0.73, 1e4, 1.0, 1e6, (0.0, 0.3, -0.2, 0.5))),
    ], ids=["3-5", "1-4-subject-variance-100", "10-5", "400-900-grand-mean-1e6"])
    def test_tally_estimates_are_the_subject_level_ones(self, n1, n2, model):
        design = TrialDesign(n1, n2)
        config = SimConfig(design, model, 0.1, 0.05, self.REPS, 2011)
        y1, y2 = _responses(design, model, config.seed, 3, self.REPS)
        e1, e2 = _responses(design, ModelParams(0.0, 0.0, 0.0, 1.0), config.seed, 3, self.REPS)
        w = _period_differences(design, e1, e2) / math.sqrt(design.m)
        fixed = max(abs(model.treatment_difference), abs(model.differential_carryover / 0.75))
        bound = (fixed + abs(model.grand_mean) + max(map(abs, model.period_effects))
                 + 8.21 * (math.sqrt(model.between_subject_var) + math.sqrt(model.error_var)))
        assert max(np.abs(y1).max(), np.abs(y2).max()) <= bound
        tol = 4 * (n1 + n2 + 21) * 2.0**-53 * bound
        d1, d2, d3, d4 = _period_differences(design, y1, y2).T
        subject_level = (pooled_effect_estimate(d1, d2, d3, d4),
                         robust_effect_estimate(d1, d2, d3, d4),
                         carryover_effect_estimate(d1, d2, d3, d4))
        s = math.sqrt(design.m * model.error_var / 4)
        for got, want in zip(_batch_estimates(config, w), subject_level):
            gap = float(np.max(np.abs(got - want)))
            assert gap <= tol, (gap / s, tol / s)


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

    @pytest.mark.parametrize("hits,accepts,total", [
        (5, 0, 3), (0, 4, 3), (-1, 0, 3), (0, -1, 3), (1, 1, 0), (0, 0, -2),
        (1.0, 1, 2), (1, True, 2), (1, 1, 2.0)])
    def test_impossible_counts_refused(self, hits, accepts, total):
        with pytest.raises(DomainError):
            EmpiricalCoverage(hits, accepts, total)

    def test_counts_kept_as_ints(self):
        emp = EmpiricalCoverage(np.int64(3), np.int32(0), np.int64(3))
        assert (emp.hits, emp.accepts, emp.total) == (3, 0, 3)
        assert all(type(v) is int for v in (emp.hits, emp.accepts, emp.total))
        assert (emp.estimate, emp.accept_rate, emp.std_err) == (1.0, 0.0, 0.0)

    def test_z_uses_expected_std_err(self):
        # All hits: the sample's std_err is 0, the expected coverage's is not.
        emp = EmpiricalCoverage(hits=20, accepts=16, total=20)
        assert (emp.estimate, emp.std_err, emp.accept_rate) == (1.0, 0.0, 0.8)
        assert emp.z_against(0.91) == (1.0 - 0.91) / math.sqrt(0.91 * (1.0 - 0.91) / 20)
        assert emp.z_against(1.0) == 0.0
        assert emp.z_against(0.0) == math.inf
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(DomainError, match="expected must"):
                emp.z_against(bad)

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


class TestPinnedResults:
    # Hits and accept rates of 20,000 replications at theta = 0.7,
    # alpha1 = 0.1 and alpha = 0.05; two of the runs have sigma_e != 1.
    # Every step from the raw words to the tally is bit-reproducible, so a
    # change to the draws, the reduction or the two-stage rule that moves
    # any decision shows here. The first test pins the subject-level
    # reference, the second the tally.
    @pytest.mark.parametrize("n1,n2,psi,sigma_e2,seed,hits,accept_rate", [
        (5, 10, 1.7, 2.5, 7, 11_313, 0.41965),
        (8, 8, 0.3, 1.0, 1729, 15_569, 0.8468),
        (1, 4, 0.0, 2.5, 0, 18_320, 0.9008),
    ])
    def test_hits_and_accept_rate(self, n1, n2, psi, sigma_e2, seed, hits, accept_rate):
        config = make_config(n1=n1, n2=n2, psi=psi, sigma_e2=sigma_e2,
                             replications=20_000, seed=seed)
        emp = subject_level_tally(config)
        assert (emp.hits, emp.accept_rate) == (hits, accept_rate)

    @pytest.mark.parametrize("n1,n2,psi,sigma_e2,seed,hits,accept_rate", [
        (5, 10, 1.7, 2.5, 7, 11_477, 0.40975),
        (8, 8, 0.3, 1.0, 1729, 15_591, 0.8504),
        (1, 4, 0.0, 2.5, 0, 18_331, 0.8986),
    ])
    def test_tally_hits_and_accept_rate(self, n1, n2, psi, sigma_e2, seed, hits,
                                        accept_rate):
        config = make_config(n1=n1, n2=n2, psi=psi, sigma_e2=sigma_e2,
                             replications=20_000, seed=seed)
        emp = empirical_coverage(config)
        assert (emp.hits, emp.accept_rate) == (hits, accept_rate)


class TestNuisanceInvariance:
    # The tally's fixed differences never see the grand mean or the period
    # effects; the subject-level responses carry them until the reduction.
    def test_counts_bit_identical_under_mean_and_period_shifts(self):
        design = TrialDesign(3, 5)
        kwargs = dict(treatment_difference=0.7, differential_carryover=0.3,
                      between_subject_var=1.0, error_var=1.0)
        plain = ModelParams(**kwargs)
        shifted = ModelParams(grand_mean=3.7,
                              period_effects=(0.5, -1.25, 2.0, 3.75), **kwargs)
        for run in (empirical_coverage, subject_level_tally):
            emp_plain = run(SimConfig(design, plain, 0.1, 0.05, 50_000, 99))
            emp_shifted = run(SimConfig(design, shifted, 0.1, 0.05, 50_000, 99))
            assert emp_plain == emp_shifted, run

    def test_moments_invariant_to_rounding_noise(self):
        # Exact cancellation of the shifts is impossible in floating
        # point, but the moments must agree to rounding level.
        design = TrialDesign(3, 5)
        kwargs = dict(treatment_difference=0.7, differential_carryover=0.3,
                      between_subject_var=1.0, error_var=1.0)
        plain = ModelParams(**kwargs)
        shifted = ModelParams(grand_mean=3.7,
                              period_effects=(0.5, -1.25, 2.0, 3.75), **kwargs)
        for run in (estimator_moments, subject_level_moments):
            mom_a = run(SimConfig(design, plain, 0.1, 0.05, 20_000, 99))
            mom_b = run(SimConfig(design, shifted, 0.1, 0.05, 20_000, 99))
            for field in ("mean_pooled", "mean_robust", "mean_carryover",
                          "var_pooled", "var_robust", "var_carryover",
                          "cov_pooled_carryover", "cov_robust_carryover"):
                assert abs(getattr(mom_a, field) - getattr(mom_b, field)) <= 1e-12, run


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
        for run in (estimator_moments, subject_level_moments):
            results = []
            for i, sigma_s2 in enumerate((0.0, 1.0, 100.0)):
                config = make_config(n1=4, n2=4, sigma_s2=sigma_s2,
                                     replications=100_000, seed=300 + i)
                results.append(run(config))
            for field in ("var_pooled", "var_robust", "var_carryover"):
                vals = [getattr(r, field) for r in results]
                assert max(vals) / min(vals) <= 1.05, run

    def test_single_replication(self):
        # One sample has no spread: the n divisor gives zeros, and the
        # correlation of two constants is undefined.
        config = make_config(replications=1, seed=5)
        moments = estimator_moments(config)
        (pooled,), (robust,), (carry,) = _batch_estimates(config, next(_unit_chunks(config, None)))
        assert (moments.mean_pooled, moments.mean_robust,
                moments.mean_carryover) == (pooled, robust, carry)
        for field in ("var_pooled", "var_robust", "var_carryover",
                      "cov_pooled_carryover", "cov_robust_carryover"):
            assert getattr(moments, field) == 0.0
        assert math.isnan(moments.corr_robust_carryover)

    @pytest.mark.parametrize("error_var", [1e-300, 1e-160, 1e200, 1e300])
    def test_correlation_free_of_error_scale(self, error_var):
        # The product of the two variances underflows or overflows at these
        # scales; the correlation of the rescaled estimates must not see it.
        def corr(error_var):
            return estimator_moments(make_config(
                n1=3, n2=4, theta=0.0, psi=0.0, sigma_e2=error_var,
                replications=1000, seed=1)).corr_robust_carryover

        assert abs(corr(error_var) - corr(1.0)) <= 1e-12

    def test_correlation_where_the_estimates_square_to_zero(self):
        # The estimates are about 1e-171 here; their squares underflow, but
        # the co-moments are taken in unit-noise coordinates.
        config = SimConfig(TrialDesign(2**64 - 1, 2**64 - 1), ModelParams(0, 0, 1, 5e-324),
                           0.1, 0.05, 20, 1)
        corr = estimator_moments(config).corr_robust_carryover
        assert -1.0 <= corr <= 1.0

    def test_error_scale_by_powers_of_four(self):
        # Scaling error_var by 4**k scales sigma_e by 2**k exactly, so every
        # variance and covariance scales by exactly 4**k, and the
        # correlation, taken before the scaling, does not move.
        names = ("var_pooled", "var_robust", "var_carryover", "cov_pooled_carryover",
                 "cov_robust_carryover")
        base = estimator_moments(make_config(n1=5, n2=7, replications=1000, seed=9))
        for k in range(-20, 21):
            moments = estimator_moments(make_config(n1=5, n2=7, sigma_e2=4.0**k,
                                                    replications=1000, seed=9))
            assert moments.corr_robust_carryover == base.corr_robust_carryover, k
            for name in names:
                assert getattr(moments, name) == 4.0**k * getattr(base, name), (k, name)

    def test_overflowing_comoments_raise(self):
        # At n = (1, 1) and error variance 1e308 the robust variance is
        # 2.75e308; the fold must refuse it, not warn and return inf.
        config = make_config(n1=1, n2=1, sigma_e2=1e308, replications=1000, seed=1)
        with pytest.raises(NumericalError, match=r"overflow in replications \[0, 1000\)"):
            estimator_moments(config)

    @pytest.mark.parametrize("n1,n2", [(8, 8), (5, 10), (1, 4)])
    def test_fold_matches_whole_sample(self, n1, n2):
        # The chunked fold against np.cov over all the run's estimates at
        # once, for runs ending inside, at and just past chunk boundaries.
        size = _CHUNK_REPS
        names = ("pooled", "robust", "carryover")
        for n in (1, 2, size - 1, size, size + 1, 3 * size + 7):
            config = make_config(n1=n1, n2=n2, sigma_s2=2.5, sigma_e2=0.4,
                                 replications=n, seed=n)
            moments = estimator_moments(config)
            x = np.stack(_batch_estimates(config, next(_unit_chunks(config, n))))
            cov = np.cov(x, ddof=1 if n > 1 else 0)
            scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
            for i, name in enumerate(names):
                mean = getattr(moments, f"mean_{name}")
                if n == 1:
                    assert mean == x[i, 0]
                assert abs(mean - x[i].mean()) <= 1e-13 * math.sqrt(cov[i, i])
            for (i, j), field in {(0, 0): "var_pooled", (1, 1): "var_robust",
                                  (2, 2): "var_carryover",
                                  (0, 2): "cov_pooled_carryover",
                                  (1, 2): "cov_robust_carryover"}.items():
                assert abs(getattr(moments, field) - cov[i, j]) <= 1e-13 * scale[i, j]
            if n > 1:
                corr = cov[1, 2] / math.sqrt(cov[1, 1] * cov[2, 2])
                assert abs(moments.corr_robust_carryover - corr) <= 1e-13

    def test_memory_flat_in_replications(self):
        # The estimates are folded chunk by chunk, never all held at once.
        config = make_config(n1=8, n2=8, replications=400_000, seed=3)
        tracemalloc.start()
        try:
            estimator_moments(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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
        # The procedure's error scale is derived, so no other can be set.
        for error_var in (4.0, 2.5):
            params = ModelParams.from_effects(0.0, 0.0, error_var=error_var)
            config = SimConfig(TrialDesign(2, 2), params, 0.1, 0.05, 10, 0)
            assert config.two_stage.sigma_e == math.sqrt(params.error_var)
            assert (config.two_stage.alpha1, config.two_stage.alpha) == (0.1, 0.05)

    @pytest.mark.parametrize("run", [empirical_coverage])
    def test_chunk_size_positive(self, run):
        # Only None selects automatic chunking; 0 is an error, not a default.
        config = make_config(replications=50, seed=4)
        with pytest.raises(DomainError):
            run(config, chunk_size=0)
        assert run(config, chunk_size=None) == run(config, chunk_size=50)

    @pytest.mark.parametrize("run", [empirical_coverage, estimator_moments])
    def test_overflow_raises(self, run):
        # Effects this large overflow the responses; NaN estimates must not
        # be tallied as misses or averaged into moments.
        config = make_config(theta=1e308, replications=10)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match=r"\[0, 10\)"):
            run(config)

    @pytest.mark.parametrize("run", [empirical_coverage, estimator_moments])
    def test_overflowed_fixed_difference_refused_without_warning(self, run):
        # r - theta = 1e308 + 1e308 overflows fd to inf, under no errstate.
        config = make_config(theta=-1e308, psi=0.75e308, replications=10)
        with pytest.raises(NumericalError, match=r"M = inf"):
            run(config)

    @pytest.mark.parametrize("run", [empirical_coverage, estimator_moments])
    def test_noise_rounded_away_raises(self, run):
        # At n = (8, 8) the pooled std deviation is s = 0.25, so the period
        # differences may reach 2**33 * s = 2**31 = 2.147e9 before their
        # noise rounds away. The subject variance cancels from every
        # estimate, so the tally never draws it.
        run(make_config(n1=8, n2=8, theta=2.0e9, replications=10))
        run(make_config(n1=8, n2=8, sigma_s2=1e12, replications=10))
        assert (run(make_config(n1=8, n2=8, sigma_s2=1e20, replications=10))
                == run(make_config(n1=8, n2=8, sigma_s2=1.0, replications=10)))
        config = make_config(n1=8, n2=8, theta=2.2e9, replications=10)
        with pytest.raises(NumericalError, match=r"2\*\*33 s\) in replications \[0, 10\)"):
            run(config)

    def test_widest_design_fills_one_chunk(self):
        # 5 * 3,276 = 16,380 words fill one subject-level chunk. The tally
        # draws 4 words per replication whatever the design.
        design = TrialDesign(1638, 1638)
        trial = simulate_trial(design, ModelParams(), 0, 0)
        assert trial.group1.shape == trial.group2.shape == (1638, 4)
        config = SimConfig(design, ModelParams(), 0.1, 0.05, 10, 0)
        assert [z.shape for z in _unit_chunks(config, None)] == [(10, 4)]
        assert empirical_coverage(config).total == 10

    # n1 + n2 = 3,277 and 2**64 - 1
    @pytest.mark.parametrize("n1,n2", [(1639, 1638), (2**64 - 2, 1)])
    def test_design_wider_than_a_chunk_raises(self, n1, n2):
        # Only simulate_trial refuses: the tally takes any design.
        design = TrialDesign(n1, n2)
        match = rf"n1 \+ n2 = {n1 + n2} .* \(n1 \+ n2 <= 3276\)"
        with pytest.raises(DomainError, match=match):
            simulate_trial(design, ModelParams(), 0, 0)
        config = SimConfig(design, ModelParams(), 0.1, 0.05, 1, 0)
        for chunk_size in (None, 1):
            assert empirical_coverage(config, chunk_size=chunk_size).total == 1
        assert math.isfinite(estimator_moments(config).mean_robust)

    def test_replications_positive(self):
        with pytest.raises(DomainError):
            make_config(replications=0)

    def test_seed_range(self):
        with pytest.raises(DomainError):
            make_config(seed=-1)
        with pytest.raises(DomainError):
            make_config(seed=2**64)
