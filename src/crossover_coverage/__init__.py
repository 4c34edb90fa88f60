"""Coverage analysis of two-stage ABAB/BABA crossover confidence intervals.

The two-stage procedure pretests for differential carryover and then
builds a confidence interval with the pooled estimator (pretest accepts)
or the carryover-robust estimator (pretest rejects). This package
evaluates the resulting interval's true coverage probability exactly, by
two independent numerical routes, validates it against a subject-level
Monte Carlo simulator, and locates the coverage minimum, which falls far
below the nominal level.
"""

from .bivariate import bvn_rectangle
from .coverage import (
    PIVOT_PRETEST_CORR,
    CoverageQuery,
    CoverageResult,
    CurvePoint,
    EfficiencyComparison,
    MinCoverageReport,
    coverage_curve,
    coverage_probability,
    efficiency_comparison,
    min_coverage,
    min_coverage_table,
    reject_cover_routes,
)
from .errors import (
    CrossoverError,
    DomainError,
    NumericalError,
    QuadratureError,
    RouteDisagreementError,
)
from .normal import std_normal_inverse_cdf, std_normal_quantile
from .simulate import (
    EmpiricalCoverage,
    EstimatorMoments,
    SimConfig,
    empirical_coverage,
    estimator_moments,
    simulate_trial,
    theoretical_moments,
)
from .trial import (
    EffectEstimates,
    ModelParams,
    PeriodDifferences,
    SubjectResponses,
    TrialDesign,
    TwoStageConfig,
    TwoStageOutcome,
    estimate_effects,
    reduce_responses,
    scaled_carryover,
    two_stage,
)

__version__ = "0.1.0"

__all__ = [
    "PIVOT_PRETEST_CORR",
    "CoverageQuery",
    "CoverageResult",
    "CrossoverError",
    "CurvePoint",
    "DomainError",
    "EffectEstimates",
    "EfficiencyComparison",
    "EmpiricalCoverage",
    "EstimatorMoments",
    "MinCoverageReport",
    "ModelParams",
    "NumericalError",
    "PeriodDifferences",
    "QuadratureError",
    "RouteDisagreementError",
    "SimConfig",
    "SubjectResponses",
    "TrialDesign",
    "TwoStageConfig",
    "TwoStageOutcome",
    "bvn_rectangle",
    "coverage_curve",
    "coverage_probability",
    "efficiency_comparison",
    "empirical_coverage",
    "estimate_effects",
    "estimator_moments",
    "min_coverage",
    "min_coverage_table",
    "reduce_responses",
    "reject_cover_routes",
    "scaled_carryover",
    "simulate_trial",
    "std_normal_inverse_cdf",
    "std_normal_quantile",
    "theoretical_moments",
    "two_stage",
    "__version__",
]
