"""One input contract across every public entry point.

Each scalar argument rejects booleans, strings and NaN with DomainError,
accepts numpy scalars, and is kept as a plain Python number.
"""

import math
from functools import partial

import numpy as np
import pytest

from crossover_coverage import (
    CoverageQuery,
    DomainError,
    ModelParams,
    PeriodDifferences,
    SimConfig,
    TrialDesign,
    TwoStageConfig,
    bvn_rectangle,
    coverage_curve,
    coverage_probability,
    efficiency_comparison,
    empirical_coverage,
    min_coverage,
    min_coverage_table,
    reject_cover_routes,
    scaled_carryover,
    simulate_trial,
    std_normal_inverse_cdf,
    std_normal_quantile,
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


@pytest.mark.parametrize("fn,sign", [pytest.param(fn, sign, id=name)
                                     for name, fn, sign in SIGNED])
def test_sign_rules(fn, sign):
    zeros = (0.0, -0.0)
    for bad in (-1.0, -5e-324) + (zeros if sign == "positive" else ()):
        with pytest.raises(DomainError, match=f"must be {sign}"):
            fn(bad)
    for good in (5e-324, 1.0) + (zeros if sign == "nonnegative" else ()):
        fn(good)
