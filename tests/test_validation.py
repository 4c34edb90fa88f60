"""One input contract across every public entry point.

Each scalar argument rejects booleans, strings and NaN with DomainError,
accepts numpy scalars, and is kept as a plain Python number.
"""

import dataclasses
import inspect
import math
import numbers
import sys
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossover_coverage
from crossover_coverage import (
    CoverageQuery,
    DomainError,
    ModelParams,
    NumericalError,
    PeriodDifferences,
    SimConfig,
    SubjectResponses,
    TrialDesign,
    TwoStageConfig,
    bvn_rectangle,
    coverage_curve,
    coverage_probability,
    efficiency_comparison,
    empirical_coverage,
    estimate_effects,
    estimator_moments,
    min_coverage,
    min_coverage_table,
    reduce_responses,
    reject_cover_routes,
    scaled_carryover,
    simulate_trial,
    std_normal_inverse_cdf,
    std_normal_quantile,
    theoretical_moments,
    two_stage,
)

DESIGN = TrialDesign(2, 2)
PARAMS = ModelParams()
CONFIG = SimConfig.create(DESIGN, PARAMS, 0.1, 0.05, 20, 0)

# (name, callable, valid keyword arguments); every argument listed is checked.
ENTRY_POINTS = [
    ("CoverageQuery", CoverageQuery, dict(gamma=0.5, alpha1=0.1, alpha=0.05)),
    ("reject_cover_routes", reject_cover_routes, dict(gamma=0.5, alpha1=0.1, alpha=0.05)),
    # The reject-branch coverage, read from the routes as callers now do.
    ("reject_cover_prob",
     lambda gamma, alpha1, alpha: reject_cover_routes(gamma, alpha1, alpha)[1],
     dict(gamma=0.5, alpha1=0.1, alpha=0.05)),
    ("coverage_curve", coverage_curve,
     dict(alpha1=0.1, alpha=0.05, gamma_min=0.0, gamma_max=1.0, steps=3)),
    ("min_coverage", min_coverage,
     dict(alpha1=0.1, alpha=0.05)),
    ("min_coverage_table", lambda alpha1, alpha: min_coverage_table([alpha1], [alpha]),
     dict(alpha1=0.1, alpha=0.05)),
    ("efficiency_comparison", efficiency_comparison,
     dict(sigma_s2=1.0, sigma_e2=1.0, n=10)),
    ("std_normal_inverse_cdf", std_normal_inverse_cdf, dict(p=0.3)),
    ("std_normal_quantile", std_normal_quantile, dict(a=0.05)),
    # The bivariate normal CDF, written as a rectangle open below.
    ("bvn_cdf", lambda h, k, rho: bvn_rectangle(-math.inf, h, -math.inf, k, rho),
     dict(h=0.1, k=0.2, rho=0.5)),
    ("bvn_rectangle", bvn_rectangle,
     dict(x_lo=-1.0, x_hi=1.0, y_lo=0.0, y_hi=1.0, rho=0.5)),
    ("TrialDesign", TrialDesign, dict(n1=2, n2=3)),
    ("ModelParams", ModelParams,
     dict(treatment_difference=0.7, differential_carryover=0.3,
          between_subject_var=1.0, error_var=1.0, grand_mean=0.0)),
    ("ModelParams.period_effects",
     lambda p4: ModelParams(period_effects=(0.0, 0.0, 0.0, p4)), dict(p4=0.5)),
    ("ModelParams.from_effects", ModelParams.from_effects,
     dict(treatment_difference=0.7, differential_carryover=0.3,
          between_subject_var=1.0, error_var=1.0, grand_mean=0.0)),
    ("PeriodDifferences", PeriodDifferences, dict(d1=0.5, d2=-1.0, d3=0.25, d4=2.0)),
    ("TwoStageConfig", TwoStageConfig, dict(alpha1=0.1, alpha=0.05, sigma_e=1.0)),
    ("scaled_carryover", partial(scaled_carryover, design=DESIGN),
     dict(psi=0.3, sigma_e=1.0)),
    ("SimConfig.create", partial(SimConfig.create, DESIGN, PARAMS),
     dict(alpha1=0.1, alpha=0.05, replications=10, seed=3)),
    ("simulate_trial", partial(simulate_trial, DESIGN, PARAMS),
     dict(seed=3, rep_index=2)),
    ("empirical_coverage", partial(empirical_coverage, CONFIG), dict(chunk_size=7)),
]

ARGUMENTS = [pytest.param(fn, kwargs, arg, id=f"{name}-{arg}")
             for name, fn, kwargs in ENTRY_POINTS for arg in kwargs]

# Public classes and functions with no row in ENTRY_POINTS, and why.
EXEMPT = {
    **dict.fromkeys(["CrossoverError", "DomainError", "NumericalError", "QuadratureError",
                     "RouteDisagreementError"], "an exception type"),
    **dict.fromkeys(["CoverageResult", "CurvePoint", "EffectEstimates", "EfficiencyComparison",
                     "EmpiricalCoverage", "EstimatorMoments", "MinCoverageReport",
                     "TwoStageOutcome"], "a result type"),
    "SubjectResponses": "takes arrays, not scalars; tests/test_trial.py checks them",
    "coverage_probability": "takes only a CoverageQuery",
    "estimate_effects": "takes only a PeriodDifferences",
    "estimator_moments": "takes only a SimConfig",
    "reduce_responses": "takes only a TrialDesign and SubjectResponses",
    "theoretical_moments": "takes only a TrialDesign and ModelParams",
    "two_stage": "takes only a PeriodDifferences, TrialDesign and TwoStageConfig",
}


def test_every_public_callable_has_a_row_or_an_exemption():
    public = {name for name in crossover_coverage.__all__
              if inspect.isclass(obj := getattr(crossover_coverage, name))
              or inspect.isfunction(obj)}
    # A row named "SimConfig.create" covers SimConfig.
    covered = {name.split(".")[0] for name, _, _ in ENTRY_POINTS}
    assert public - covered == set(EXEMPT)


def _numpy_scalar(value):
    return np.int32(value) if isinstance(value, int) else np.float32(value)


@pytest.mark.parametrize("fn,kwargs,arg", ARGUMENTS)
def test_numpy_scalars_accepted(fn, kwargs, arg):
    fn(**{**kwargs, arg: _numpy_scalar(kwargs[arg])})


@pytest.mark.parametrize("bad", [True, "0.1", math.nan], ids=["bool", "str", "nan"])
@pytest.mark.parametrize("fn,kwargs,arg", ARGUMENTS)
def test_bad_scalars_rejected(fn, kwargs, arg, bad):
    with pytest.raises(DomainError):
        fn(**{**kwargs, arg: bad})


def test_levels_kept_in_double_precision():
    level = np.float32(0.1)
    query = CoverageQuery(np.float32(1.25), level, np.float32(0.05))
    assert all(type(v) is float for v in (query.gamma, query.alpha1, query.alpha))
    same = CoverageQuery(1.25, float(level), float(np.float32(0.05)))
    assert coverage_probability(query) == coverage_probability(same)
    config = SimConfig.create(TrialDesign(np.int64(3), 4), PARAMS, level, 0.05,
                              np.int64(10), np.uint64(7))
    assert type(config.two_stage.alpha1) is float
    assert all(type(v) is int for v in (config.design.n1, config.replications,
                                        config.seed))
    report = min_coverage(level, 0.05)
    assert type(report.alpha1) is float


# (id, callable of the one signed argument, its sign rule)
SIGNED = [
    ("ModelParams-error_var", lambda v: ModelParams(error_var=v), "positive"),
    ("ModelParams-between_subject_var",
     lambda v: ModelParams(between_subject_var=v), "nonnegative"),
    ("TwoStageConfig-sigma_e", lambda v: TwoStageConfig(0.1, 0.05, v), "positive"),
    ("scaled_carryover-sigma_e", lambda v: scaled_carryover(0.3, DESIGN, v), "positive"),
    ("efficiency_comparison-sigma_e2",
     lambda v: efficiency_comparison(1.0, v, 10), "positive"),
    ("efficiency_comparison-sigma_s2",
     lambda v: efficiency_comparison(v, 1.0, 10), "nonnegative"),
]


# The smallest positive value each signed argument accepts, where that is
# not 5e-324: efficiency_comparison also needs var_robust = 11 sigma_e2 / (4 n)
# to be a normal float, which at n = 10 takes sigma_e2 >= 40/11 * 2**-1022;
# scaled_carryover needs sqrt(8/9) * 0.3 / sigma_e to be finite, which takes
# sigma_e >= about 1.6e-309, so a subnormal sigma_e raises NumericalError.
SMALLEST_ACCEPTED = {"efficiency_comparison-sigma_e2": 4.0 * sys.float_info.min,
                     "scaled_carryover-sigma_e": sys.float_info.min}


@pytest.mark.parametrize("fn,sign,smallest", [
    pytest.param(fn, sign, SMALLEST_ACCEPTED.get(name, 5e-324), id=name)
    for name, fn, sign in SIGNED])
def test_sign_rules(fn, sign, smallest):
    zeros = (0.0, -0.0)
    for bad in (-1.0, -5e-324) + (zeros if sign == "positive" else ()):
        with pytest.raises(DomainError, match=f"must be {sign}"):
            fn(bad)
    for good in (smallest, 1.0) + (zeros if sign == "nonnegative" else ()):
        fn(good)


# Every level argument of an ENTRY_POINTS row. A level lies in [1e-323, 1):
# the two-sided quantile halves it, and the half of 5e-324 underflows to 0.
LEVELS = [pytest.param(fn, kwargs, arg, id=f"{name}-{arg}")
          for name, fn, kwargs in ENTRY_POINTS for arg in kwargs
          if arg in ("alpha1", "alpha", "a")]


def test_level_table_covers_every_level_entry_point():
    assert {param.id.rsplit("-", 1)[0] for param in LEVELS} == {
        "CoverageQuery", "reject_cover_routes", "reject_cover_prob", "coverage_curve",
        "min_coverage", "min_coverage_table", "TwoStageConfig", "SimConfig.create",
        "std_normal_quantile"}


@pytest.mark.parametrize("bad", [0.0, 1.0, 5e-324])
@pytest.mark.parametrize("fn,kwargs,arg", LEVELS)
def test_level_rule_refuses_by_name(fn, kwargs, arg, bad):
    with pytest.raises(DomainError, match=f"^{arg} must"):
        fn(**{**kwargs, arg: bad})


@pytest.mark.parametrize("fn,kwargs,arg", LEVELS)
def test_smallest_level_accepted(fn, kwargs, arg):
    fn(**{**kwargs, arg: 1e-323})


# Edge values for generated arguments. 0 and 2**64 +/- 1 are ints, so integer
# arguments draw them too; a float handed to one of those is refused.
EDGES = [0, -0.0, 5e-324, 2.0**-1022, 1e-300, 1e154, 1e300, 1e308, -1e308,
         2**64 - 1, 2**64 + 1]

# The exempt public callables, each reached from scalars.
COMPOSED = [
    ("estimate_effects",
     lambda d1, d2, d3, d4: estimate_effects(PeriodDifferences(d1, d2, d3, d4)),
     dict(d1=0.5, d2=-1.0, d3=0.25, d4=2.0)),
    ("two_stage",
     lambda d1, d2, d3, d4, n1, n2, alpha1, alpha, sigma_e: two_stage(
         PeriodDifferences(d1, d2, d3, d4), TrialDesign(n1, n2),
         TwoStageConfig(alpha1, alpha, sigma_e)),
     dict(d1=0.5, d2=-1.0, d3=0.25, d4=2.0, n1=2, n2=3, alpha1=0.1, alpha=0.05,
          sigma_e=1.0)),
    # (1, 1) has the largest m, so the variances overflow first there.
    ("theoretical_moments",
     lambda n1, n2, theta, psi, error_var: theoretical_moments(
         TrialDesign(n1, n2), ModelParams(theta, psi, error_var=error_var)),
     dict(n1=1, n2=1, theta=0.7, psi=0.3, error_var=1.0)),
    # Few replications: the generated design and model are the edge cases.
    ("estimator_moments",
     lambda n1, n2, theta, psi, error_var, seed: estimator_moments(SimConfig(
         TrialDesign(n1, n2), ModelParams(theta, psi, error_var=error_var),
         0.1, 0.05, 20, seed)),
     dict(n1=2, n2=3, theta=0.7, psi=0.3, error_var=1.0, seed=3)),
    ("coverage_probability",
     lambda gamma, alpha1, alpha: coverage_probability(CoverageQuery(gamma, alpha1, alpha)),
     dict(gamma=0.5, alpha1=0.1, alpha=0.05)),
]


# Edge rows the generator cannot reach, because each sets three edge arguments
# at once; every row runs before the generated ones. The estimator_moments
# row scales the estimates to about 1e-171, where their squares underflow.
FIXED = {"estimator_moments": [dict(n1=2**64 - 1, n2=2**64 - 1, theta=0.0, psi=0.0,
                                    error_var=5e-324, seed=1)]}


def _all_finite(result) -> bool:
    """Whether every number in result, through dataclasses, tuples and arrays, is finite."""
    if dataclasses.is_dataclass(result):
        return all(_all_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (tuple, list)):
        return all(map(_all_finite, result))
    if isinstance(result, np.ndarray):
        return bool(np.isfinite(result).all())
    if isinstance(result, numbers.Integral):  # bools and ints past float range too
        return True
    return math.isfinite(result)


def _finite_or_refused(fn, drawn):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = fn(**drawn)
        except (DomainError, NumericalError):
            return
    assert _all_finite(result), (drawn, result)


@pytest.mark.parametrize("name,fn,kwargs", [pytest.param(name, fn, kwargs, id=name)
                                            for name, fn, kwargs in ENTRY_POINTS + COMPOSED])
def test_generated_arguments_give_finite_results_or_refusals(name, fn, kwargs):
    for row in FIXED.get(name, ()):
        _finite_or_refused(fn, {**kwargs, **row})
    # One or two arguments take edge values; the rest keep their valid ones.
    edges = [(arg, v) for arg in kwargs for v in EDGES]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(chosen=st.lists(st.sampled_from(edges), min_size=1, max_size=2))
    def run(chosen):
        _finite_or_refused(fn, {**kwargs, **dict(chosen)})

    run()


# Results that overflow from finite arguments, each refused by the public
# function; the array estimators on the tally's path do not check.
OVERFLOWS = {
    "scaled_carryover": lambda: scaled_carryover(0.3, DESIGN, 5e-324),
    "theoretical_moments": lambda: theoretical_moments(TrialDesign(1, 1),
                                                       ModelParams(0, 0.3, 1.0, 1e308)),
    "estimate_effects": lambda: estimate_effects(PeriodDifferences(-1e308, 0, -1e308, 0)),
    "two_stage-estimates": lambda: two_stage(PeriodDifferences(-1e308, 0, -1e308, 0), DESIGN,
                                             TwoStageConfig(0.1, 0.05, 1.0)),
    "two_stage-pretest": lambda: two_stage(PeriodDifferences(1.0, 0, 0, 0), DESIGN,
                                           TwoStageConfig(0.1, 0.05, 5e-324)),
    "two_stage-interval": lambda: two_stage(PeriodDifferences(1e308, 0, 0.5e308, 0), DESIGN,
                                            TwoStageConfig(0.1, 0.05, 1.7e308)),
    # Both groups' sums overflow to inf, and inf - inf is nan.
    "reduce_responses": lambda: reduce_responses(DESIGN, SubjectResponses(
        np.full((2, 4), 1e308), np.full((2, 4), 1e308))),
}


@pytest.mark.parametrize("call", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_overflowing_results_refused(call):
    with pytest.raises(NumericalError, match="overflow"):
        call()
