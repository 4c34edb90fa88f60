"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report. The Monte Carlo criteria (4, 5, 6 and 8) simulate up to a million
replications per run and take about 3 s together on a 2-vCPU machine
(criteria 6, 4, 8 and 5: 1.5, 0.9, 0.3 and 0.03 s). Criterion 6(a) also
runs the subject-level reference, which is most of its time.
"""

import math
import time

import numpy as np

from crossover_coverage import (
    CoverageQuery,
    ModelParams,
    SimConfig,
    TrialDesign,
    coverage_curve,
    coverage_probability,
    efficiency_comparison,
    empirical_coverage,
    estimator_moments,
    min_coverage,
    reject_cover_routes,
    scaled_carryover,
    theoretical_moments,
)
from crossover_coverage.coverage import ROUTE_AGREEMENT_TOL
from test_simulate import subject_level_tally

PIVOT_PRETEST_CORR_REF = 0.9045340337332909  # 3/sqrt(11)


def report(name: str, detail: str) -> None:
    print(f"\nACCEPTANCE PASS {name}: {detail}")


def test_criterion_1_minimum_coverage_reproduction():
    start = time.perf_counter()
    rep = min_coverage(0.1, 0.05)
    elapsed = time.perf_counter() - start
    assert abs(rep.min_coverage - 0.4711) <= 0.0005
    assert elapsed < 5.0
    report("criterion 1",
           f"min coverage {rep.min_coverage:.6f} at gamma* {rep.gamma_star:.6f} "
           f"(target 0.4711 +/- 0.0005) in {elapsed:.2f}s")


def test_criterion_2_default_curve_shape():
    start = time.perf_counter()
    points = coverage_curve(0.1, 0.05, -8.0, 8.0, 801)
    elapsed = time.perf_counter() - start
    covs = [p.coverage for p in points]
    asym = max(abs(a - b) for a, b in zip(covs, covs[::-1]))
    assert asym < 1e-10
    assert abs(covs[0] - 0.95) <= 1e-4
    assert abs(covs[-1] - 0.95) <= 1e-4
    assert min(covs) < 0.50
    assert elapsed < 5.0
    report("criterion 2",
           f"curve symmetric (max asymmetry {asym:.2e}), endpoints "
           f"{covs[0]:.6f}/{covs[-1]:.6f}, interior minimum {min(covs):.4f} "
           f"in {elapsed:.2f}s")


def test_criterion_3_route_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        gamma = float(rng.uniform(-10.0, 10.0))
        alpha1 = float(rng.uniform(0.001, 0.5))
        alpha = float(rng.uniform(0.001, 0.5))
        via_bvn, via_quad, _ = reject_cover_routes(gamma, alpha1, alpha)
        worst = max(worst, abs(via_bvn - via_quad))
    elapsed = time.perf_counter() - start
    assert worst <= ROUTE_AGREEMENT_TOL
    assert elapsed < 10.0
    report("criterion 3",
           f"max route gap {worst:.3e} over 200 random triples "
           f"(tol {ROUTE_AGREEMENT_TOL:.0e}) "
           f"in {elapsed:.2f}s")


def test_criterion_4_analytic_vs_monte_carlo():
    design = TrialDesign(2, 2)
    alpha1, alpha = 0.1, 0.05
    details = []
    for i, target in enumerate([0.0, 0.5, 1.0, 2.0, 4.0]):
        psi = target / scaled_carryover(1.0, design, 1.0)
        params = ModelParams.from_effects(0.7, psi, between_subject_var=1.0,
                                          error_var=1.0)
        config = SimConfig.create(design, params, alpha1, alpha,
                                  1_000_000, 9000 + i)
        gamma = scaled_carryover(params.differential_carryover, design, 1.0)
        analytic = coverage_probability(CoverageQuery(gamma, alpha1, alpha)).value
        emp = empirical_coverage(config)
        z = emp.z_against(analytic)
        assert abs(z) <= 3.5, (target, analytic, emp.estimate, z)
        details.append(f"gamma={target}: z={z:+.2f}")
    report("criterion 4", "1e6 replications each; " + ", ".join(details))


def test_criterion_5_estimator_distributions():
    design = TrialDesign(8, 8)
    params = ModelParams.from_effects(0.7, 0.3, between_subject_var=1.0,
                                      error_var=1.0)
    config = SimConfig.create(design, params, 0.1, 0.05, 100_000, 4242)
    sample = estimator_moments(config)
    exact = theoretical_moments(design, params)
    n = config.replications
    assert abs(sample.mean_pooled - exact.mean_pooled) <= \
        4.0 * math.sqrt(exact.var_pooled / n)
    assert abs(sample.mean_robust - exact.mean_robust) <= \
        4.0 * math.sqrt(exact.var_robust / n)
    assert abs(sample.mean_carryover - exact.mean_carryover) <= \
        4.0 * math.sqrt(exact.var_carryover / n)
    assert abs(sample.var_pooled - exact.var_pooled) / exact.var_pooled <= 0.05
    assert abs(sample.var_robust - exact.var_robust) / exact.var_robust <= 0.05
    assert abs(sample.var_carryover - exact.var_carryover) / exact.var_carryover <= 0.05
    assert abs(sample.cov_pooled_carryover) <= \
        4.0 * math.sqrt(exact.var_pooled * exact.var_carryover / n)
    corr_err = abs(sample.corr_robust_carryover - PIVOT_PRETEST_CORR_REF)
    assert corr_err <= 0.01
    report("criterion 5",
           f"means within 4 se, variances within 5%, cov(pooled, carryover) "
           f"~ 0, corr {sample.corr_robust_carryover:.4f} vs "
           f"{PIVOT_PRETEST_CORR_REF:.4f} (err {corr_err:.5f})")


def test_criterion_6_nuisance_and_design_invariance():
    # (a) grand-mean and period-effect shifts leave the simulated
    # coverage statistics bit-identical at a fixed seed: the tally's, which
    # never sees them, and the subject-level model's, whose responses do.
    design = TrialDesign(3, 5)
    kwargs = dict(treatment_difference=0.7, differential_carryover=0.3,
                  between_subject_var=1.0, error_var=1.0)
    plain = ModelParams(**kwargs)
    shifted = ModelParams(grand_mean=3.7,
                          period_effects=(0.5, -1.25, 2.0, 3.75), **kwargs)
    for run in (empirical_coverage, subject_level_tally):
        emp_plain = run(SimConfig(design, plain, 0.1, 0.05, 200_000, 77))
        emp_shift = run(SimConfig(design, shifted, 0.1, 0.05, 200_000, 77))
        assert emp_plain == emp_shift, run

    # (b) same gamma from different (n, subject variance) parameterizations:
    # identical analytic coverage, statistically consistent simulations.
    config_a = SimConfig.create(
        TrialDesign(8, 8),
        ModelParams.from_effects(0.7, 1.0, between_subject_var=1.0, error_var=1.0),
        0.1, 0.05, 1_000_000, 501)
    config_b = SimConfig.create(
        TrialDesign(2, 2),
        ModelParams.from_effects(0.7, 2.0, between_subject_var=100.0, error_var=1.0),
        0.1, 0.05, 1_000_000, 502)
    gamma_a = scaled_carryover(config_a.params.differential_carryover,
                               config_a.design, 1.0)
    gamma_b = scaled_carryover(config_b.params.differential_carryover,
                               config_b.design, 1.0)
    assert gamma_a == gamma_b
    cov_a = coverage_probability(CoverageQuery(gamma_a, 0.1, 0.05)).value
    cov_b = coverage_probability(CoverageQuery(gamma_b, 0.1, 0.05)).value
    assert cov_a == cov_b
    emp_a = empirical_coverage(config_a)
    emp_b = empirical_coverage(config_b)
    gap = abs(emp_a.estimate - emp_b.estimate)
    limit = 5.0 * math.hypot(emp_a.std_err, emp_b.std_err)
    assert gap <= limit
    report("criterion 6",
           f"(a) coverage statistics bit-identical under nuisance shifts; "
           f"(b) gamma={gamma_a:.4f} twice: analytic identical "
           f"({cov_a:.6f}), empirical gap {gap:.5f} <= {limit:.5f}")


def test_criterion_7_efficiency_threshold():
    at_boundary = efficiency_comparison(4.5, 1.0, 10)
    assert at_boundary.var_robust == at_boundary.var_randomized
    assert at_boundary.crossover_preferred
    below = efficiency_comparison(4.5 - 1e-9, 1.0, 10)
    assert not below.crossover_preferred
    above = efficiency_comparison(4.5 + 1e-9, 1.0, 10)
    assert above.crossover_preferred
    report("criterion 7",
           f"exact equality at the 4.5x boundary "
           f"({at_boundary.var_robust!r} both sides), preference flips "
           f"correctly on either side")


def test_criterion_8_pretest_level():
    design = TrialDesign(2, 2)
    params = ModelParams.from_effects(0.7, 0.0, between_subject_var=1.0,
                                      error_var=1.0)
    details = []
    for i, alpha1 in enumerate((0.05, 0.1)):
        config = SimConfig.create(design, params, alpha1, 0.05,
                                  1_000_000, 7100 + i)
        emp = empirical_coverage(config)
        want = 1.0 - alpha1
        se = math.sqrt(want * alpha1 / config.replications)
        assert abs(emp.accept_rate - want) <= 4.0 * se
        details.append(f"alpha1={alpha1}: accept rate {emp.accept_rate:.5f} "
                       f"vs {want} (4 se = {4 * se:.5f})")
    report("criterion 8", "; ".join(details))
