"""Four-period two-treatment crossover trial model (ABAB/BABA allocation).

Group 1 receives treatments in the order A, B, A, B and group 2 in the
order B, A, B, A. Carryover is first-order only: a treatment's residual
effect reaches into the following period and no further, so period 1
carries none. The treatment allocation is hard-coded because the
estimator coefficients below are specific to it.

The analysis pipeline is: reduce the subject responses to the four
between-group period differences, form the three linear estimators, then
run the two-stage procedure (pretest for differential carryover, pick the
confidence interval accordingly). The estimators are the rows of one contrast
matrix B, so their covariance is m sigma_e^2 B B^T; the package takes every
variance and correlation from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DomainError, NumericalError, _checked_int, _checked_items, _checked_real,
                     _checked_record)
from .normal import _as_float_array, std_normal_quantile

#: B: the pooled, robust and carryover estimators' coefficients on (d1, d2, d3, d4).
_CONTRASTS = np.array([[0.25, -0.25, 0.25, -0.25],
                       [1.0, -0.25, -0.5, -0.25],
                       [0.75, 0.0, -0.75, 0.0]])
#: B B^T, exact since every entry is dyadic, and its diagonal: 1/4, 11/8 and 9/8.
_GRAM = _CONTRASTS @ _CONTRASTS.T
_VAR_POOLED, _VAR_ROBUST, _VAR_CARRYOVER = np.diag(_GRAM).tolist()
#: Robust-carryover correlation 3/sqrt(11), also the robust pivot's with the pretest.
PIVOT_PRETEST_CORR = float(_GRAM[1, 2]) / math.sqrt(_VAR_ROBUST * _VAR_CARRYOVER)


@dataclass(frozen=True)
class TrialDesign:
    """Group sizes of the two allocation arms."""

    n1: int
    n2: int

    def __post_init__(self):
        for name in ("n1", "n2"):
            object.__setattr__(self, name, _checked_int(name, getattr(self, name), 1))

    @property
    def m(self) -> float:
        """1/n1 + 1/n2, the scale carried by every group-difference variance."""
        return 1.0 / self.n1 + 1.0 / self.n2


@dataclass(frozen=True)
class ModelParams:
    """Fixed effects and variance components of the response model.

    A response is grand_mean + subject effect + period effect + treatment
    effect + carryover from the previous period's treatment + noise.
    Subject effects are N(0, between_subject_var), noise terms are
    N(0, error_var), all independent.

    ``treatment_difference`` is the estimand, A's effect minus B's, and
    ``differential_carryover`` is 3/4 of A's residual effect minus B's.
    B's effect and B's residual effect are 0, which loses nothing: a
    common shift of both effects is a grand mean, and a common shift of
    both residual effects shifts the effects of periods 2-4, so the
    period differences see the treatments only through these two values.

    ``between_subject_var == 0`` is admitted (useful for deterministic
    tests) even though a real trial would have it positive.
    """

    treatment_difference: float = 0.0
    differential_carryover: float = 0.0
    between_subject_var: float = 1.0
    error_var: float = 1.0
    grand_mean: float = 0.0
    period_effects: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "period_effects", tuple(
            _checked_real("period_effects", v)
            for v in _checked_items("period_effects", self.period_effects, 4)))
        for name in ("treatment_difference", "differential_carryover", "grand_mean"):
            object.__setattr__(self, name, _checked_real(name, getattr(self, name)))
        # The responses carry A's residual effect, which must be finite too.
        _checked_real("differential_carryover / 0.75", self.differential_carryover / 0.75)
        object.__setattr__(self, "between_subject_var", _checked_real(
            "between_subject_var", self.between_subject_var, sign="nonnegative"))
        object.__setattr__(self, "error_var", _checked_real(
            "error_var", self.error_var, sign="positive"))

    @classmethod
    def from_effects(cls, treatment_difference, differential_carryover, *,
                     between_subject_var=1.0, error_var=1.0, grand_mean=0.0,
                     period_effects=(0.0, 0.0, 0.0, 0.0)) -> "ModelParams":
        """The constructor under the name the benchmark calls."""
        return cls(treatment_difference, differential_carryover, between_subject_var,
                   error_var, grand_mean, period_effects)


@dataclass(frozen=True)
class SubjectResponses:
    """Raw per-subject responses, one row per subject, one column per period."""

    group1: np.ndarray
    group2: np.ndarray

    def __post_init__(self):
        for name, y in (("group1", self.group1), ("group2", self.group2)):
            arr, _ = _as_float_array(y, name)
            if arr.ndim != 2 or arr.shape[1] != 4:
                raise DomainError(f"{name} must have shape (n, 4), got {arr.shape}")
            if not np.isfinite(arr).all():
                raise DomainError(f"{name} must be finite")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PeriodDifferences:
    """Between-group difference of period means, one value per period."""

    d1: float
    d2: float
    d3: float
    d4: float

    def __post_init__(self):
        for name in ("d1", "d2", "d3", "d4"):
            object.__setattr__(self, name, _checked_real(name, getattr(self, name)))

    def as_array(self) -> np.ndarray:
        return np.array([self.d1, self.d2, self.d3, self.d4])


@dataclass(frozen=True)
class TwoStageConfig:
    """Levels and known error scale for the two-stage procedure."""

    alpha1: float
    alpha: float
    sigma_e: float

    def __post_init__(self):
        for name in ("alpha1", "alpha"):
            object.__setattr__(self, name,
                               _checked_real(name, getattr(self, name), level=True))
        object.__setattr__(self, "sigma_e",
                           _checked_real("sigma_e", self.sigma_e, sign="positive"))


@dataclass(frozen=True)
class TwoStageOutcome:
    """Result of one run of the two-stage procedure.

    ``h0_accepted`` also names the interval: pooled when true, robust
    otherwise.
    """

    pretest_stat: float
    h0_accepted: bool
    interval_lo: float
    interval_hi: float


class EffectEstimates(NamedTuple):
    """The three linear estimators computed from the period differences."""

    pooled_effect: float      # efficient for the treatment difference when carryover is zero
    robust_effect: float      # unbiased for the treatment difference regardless of carryover
    carryover_effect: float   # unbiased for the differential carryover


def reduce_responses(design: TrialDesign, responses: SubjectResponses) -> PeriodDifferences:
    """Reduce raw responses to the four between-group period differences.

    The differencing removes the grand mean and all period effects exactly
    (in real arithmetic), which is the whole point of the reduction.
    """
    _checked_record("design", design, TrialDesign)
    _checked_record("responses", responses, SubjectResponses)
    if responses.group1.shape[0] != design.n1 or responses.group2.shape[0] != design.n2:
        raise DomainError(
            f"responses have groups of size {responses.group1.shape[0]} and "
            f"{responses.group2.shape[0]}; design says {design.n1} and {design.n2}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        d = _period_differences(design, responses.group1, responses.group2)
    if not np.isfinite(d).all():
        raise NumericalError(f"the period differences overflow: {d.tolist()}")
    return PeriodDifferences(float(d[0]), float(d[1]), float(d[2]), float(d[3]))


def _period_differences(design: TrialDesign, group1: np.ndarray, group2: np.ndarray):
    """Period means of (..., n1, 4) minus (..., n2, 4); leading axes index trials."""
    return group1.sum(axis=-2) / design.n1 - group2.sum(axis=-2) / design.n2


def pooled_effect_estimate(d1, d2, d3, d4):
    """Average of the per-period treatment contrasts; assumes no carryover."""
    return 0.25 * (d1 - d2 + d3 - d4)


def robust_effect_estimate(d1, d2, d3, d4):
    """Carryover-free contrast; also annihilates the between-subject offset."""
    return d1 - 0.25 * d2 - 0.5 * d3 - 0.25 * d4


def carryover_effect_estimate(d1, d2, d3, d4):
    """Contrast of periods 1 and 3, which isolates the differential carryover."""
    return 0.75 * (d1 - d3)


def estimate_effects(reduced: PeriodDifferences) -> EffectEstimates:
    """Compute the three estimators from the period differences; an overflow raises."""
    _checked_record("reduced", reduced, PeriodDifferences)
    d1, d2, d3, d4 = reduced.d1, reduced.d2, reduced.d3, reduced.d4
    estimates = EffectEstimates(
        pooled_effect=pooled_effect_estimate(d1, d2, d3, d4),
        robust_effect=robust_effect_estimate(d1, d2, d3, d4),
        carryover_effect=carryover_effect_estimate(d1, d2, d3, d4),
    )
    if not all(map(math.isfinite, estimates)):
        raise NumericalError(f"the estimates overflow: {estimates} from {reduced}")
    return estimates


def carryover_scale(m: float) -> float:
    """sqrt(8 / (9 m)): standardizes the carryover estimator to unit variance."""
    return math.sqrt(1.0 / (_VAR_CARRYOVER * m))


def scaled_carryover(psi: float, design: TrialDesign, sigma_e: float) -> float:
    """Scaled differential carryover: sqrt(8/(9 m)) * psi / sigma_e.

    This single dimensionless parameter is all the coverage probability of
    the two-stage interval depends on.
    """
    _checked_record("design", design, TrialDesign)
    sigma_e = _checked_real("sigma_e", sigma_e, sign="positive")
    psi = _checked_real("psi", psi)
    gamma = carryover_scale(design.m) * psi / sigma_e
    if math.isinf(gamma):
        raise NumericalError(f"the scaled carryover overflows: psi = {psi!r}, "
                             f"sigma_e = {sigma_e!r}, m = {design.m!r}")
    return gamma


def _two_stage_rule(design: TrialDesign, config: TwoStageConfig):
    """two_stage's (stat, accepted, lo, hi) from (pooled, robust, carryover) floats or arrays."""
    scale = carryover_scale(design.m)
    crit1 = std_normal_quantile(config.alpha1)
    c = std_normal_quantile(config.alpha)
    hw_pooled = c * math.sqrt(_VAR_POOLED * design.m) * config.sigma_e
    hw_robust = c * math.sqrt(_VAR_ROBUST * design.m) * config.sigma_e

    def rule(pooled, robust, carryover):
        stat = scale * carryover / config.sigma_e
        accepted = np.abs(stat) < crit1
        center = np.where(accepted, pooled, robust)
        half_width = np.where(accepted, hw_pooled, hw_robust)
        return stat, accepted, center - half_width, center + half_width

    return rule


def two_stage(reduced: PeriodDifferences, design: TrialDesign,
              config: TwoStageConfig) -> TwoStageOutcome:
    """Run the pretest-then-estimate procedure on reduced data.

    The pretest standardizes the carryover estimator and accepts "no
    differential carryover" on strict inequality against the two-sided
    critical value; a tie counts as rejection. Acceptance selects the
    narrow interval around the pooled estimator, rejection the wide one
    around the robust estimator.
    """
    _checked_record("reduced", reduced, PeriodDifferences)
    _checked_record("design", design, TrialDesign)
    _checked_record("config", config, TwoStageConfig)
    with np.errstate(over="ignore"):  # refused below
        stat, accepted, lo, hi = _two_stage_rule(design, config)(*estimate_effects(reduced))
    if not (math.isfinite(stat) and math.isfinite(lo) and math.isfinite(hi)):
        raise NumericalError(f"the pretest statistic {float(stat)!r} or the interval "
                             f"[{float(lo)!r}, {float(hi)!r}] overflows")
    return TwoStageOutcome(pretest_stat=float(stat), h0_accepted=bool(accepted),
                           interval_lo=float(lo), interval_hi=float(hi))
