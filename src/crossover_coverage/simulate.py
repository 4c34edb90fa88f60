"""Subject-level Monte Carlo simulator for the crossover model.

This is the empirical oracle for the analytic coverage engine: it draws
whole trials at the subject level, pushes them through the same reduction
and two-stage procedure as real data, and tallies coverage.

Reproducibility contract
------------------------
Replication ``r`` of a run with seed ``s`` consumes a fixed-width slice of
the counter space of a Philox stream keyed by ``s``. Hits are therefore
bit-identical regardless of chunking or evaluation order. Moments fold
over the automatic chunks, fixed by the design and replication count, and
take no ``chunk_size``. Any single replication can be regenerated in
isolation with ``simulate_trial(design, params, seed, rep_index)``. Only
``_raw_words`` positions and advances the stream.

Normal variates are ``std_normal_inverse_cdf`` (scipy's ``ndtri``) of
open-interval uniforms built from the raw 64-bit words. Each replication
consumes exactly ``5 * (n1 + n2)`` raw words (one per subject effect, one
per subject-period error), padded to a multiple of 4 words because Philox
advances in 4-word blocks. ``_responses`` maps the words to responses;
``trial.py``'s own reduction and two-stage procedure take it from there.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .coverage import PIVOT_PRETEST_CORR
from .errors import DomainError, NumericalError, _checked_int
# Nothing here calls std_normal_quantile; the binding stays because the
# benchmark's tracer (perfbench/spans.py) wraps simulate.std_normal_quantile.
from .normal import std_normal_inverse_cdf, std_normal_quantile
from .trial import (
    ModelParams,
    SubjectResponses,
    TrialDesign,
    TwoStageConfig,
    _period_differences,
    _two_stage_rule,
    carryover_effect_estimate,
    pooled_effect_estimate,
    robust_effect_estimate,
)

#: Philox keys are unsigned 64-bit integers.
_SEED_LIMIT = 2**64


@dataclass(frozen=True)
class SimConfig:
    """One simulation run, seed included; its procedure uses sigma_e = sqrt(params.error_var)."""

    design: TrialDesign
    params: ModelParams
    alpha1: float
    alpha: float
    replications: int
    seed: int
    two_stage: TwoStageConfig = field(init=False)

    def __post_init__(self):
        two_stage = TwoStageConfig(self.alpha1, self.alpha, math.sqrt(self.params.error_var))
        object.__setattr__(self, "two_stage", two_stage)
        object.__setattr__(self, "alpha1", two_stage.alpha1)
        object.__setattr__(self, "alpha", two_stage.alpha)
        object.__setattr__(self, "replications",
                           _checked_int("replications", self.replications, 1))
        object.__setattr__(self, "seed", _checked_int("seed", self.seed, 0, _SEED_LIMIT))

    @classmethod
    def create(cls, design: TrialDesign, params: ModelParams, alpha1: float,
               alpha: float, replications: int, seed: int) -> "SimConfig":
        """The constructor under the name the benchmark calls."""
        return cls(design, params, alpha1, alpha, replications, seed)


@dataclass(frozen=True)
class EmpiricalCoverage:
    """Coverage tally over a simulation run: hits and pretest accepts of total replications."""

    hits: int
    accepts: int
    total: int

    @property
    def estimate(self) -> float:
        return self.hits / self.total

    @property
    def accept_rate(self) -> float:
        return self.accepts / self.total

    @property
    def std_err(self) -> float:
        """Binomial standard error of the estimate, at the estimate."""
        return math.sqrt(self.estimate * (1.0 - self.estimate) / self.total)

    def z_against(self, expected: float) -> float:
        """Discrepancy from an expected coverage, in binomial std errors at that coverage."""
        if not 0.0 <= expected <= 1.0:  # NaN fails too
            raise DomainError(f"expected must lie in [0, 1], got {expected!r}")
        se = math.sqrt(expected * (1.0 - expected) / self.total)
        if se == 0.0:
            return 0.0 if self.estimate == expected else math.inf
        return (self.estimate - expected) / se


@dataclass(frozen=True)
class EstimatorMoments:
    """Means, variances and covariances of the three estimators.

    ``estimator_moments`` returns the sample moments of a simulation run,
    ``theoretical_moments`` their exact values.
    """

    mean_pooled: float
    mean_robust: float
    mean_carryover: float
    var_pooled: float
    var_robust: float
    var_carryover: float
    cov_pooled_carryover: float
    cov_robust_carryover: float
    corr_robust_carryover: float


def theoretical_moments(design: TrialDesign, params: ModelParams) -> EstimatorMoments:
    """Exact means, variances and covariances of the three estimators.

    The counterpart of what ``estimator_moments`` samples, in the same
    type. None of them involve the between-subject variance: the estimator
    coefficient vectors annihilate the common subject-average offset.
    """
    m = design.m
    theta = params.treatment_difference
    psi = params.differential_carryover
    noise = m * params.error_var
    return EstimatorMoments(
        mean_pooled=theta - psi,
        mean_robust=theta,
        mean_carryover=psi,
        var_pooled=noise / 4.0,
        var_robust=11.0 * noise / 8.0,
        var_carryover=9.0 * noise / 8.0,
        cov_pooled_carryover=0.0,
        cov_robust_carryover=9.0 * noise / 8.0,
        corr_robust_carryover=PIVOT_PRETEST_CORR,
    )


def _draws_per_rep(design: TrialDesign) -> int:
    return 5 * (design.n1 + design.n2)


def _padded_draws_per_rep(design: TrialDesign) -> int:
    # Philox advances its counter in blocks of 4 output words.
    b = _draws_per_rep(design)
    return -(-b // 4) * 4


def _raw_words(seed: int, start: int, count: int, design: TrialDesign) -> np.ndarray:
    """The words of replications [start, start + count), one unpadded row each."""
    b = _draws_per_rep(design)
    b_pad = _padded_draws_per_rep(design)
    bit_gen = np.random.Philox(key=seed)
    bit_gen.advance(start * b_pad // 4)
    return bit_gen.random_raw(count * b_pad).reshape(count, b_pad)[:, :b]


def _open_uniforms(raw: np.ndarray) -> np.ndarray:
    # (k + 1/2) / 2**52 over the top 52 bits: exact, symmetric, never 0 or 1.
    return ((raw >> 12).astype(np.float64) + 0.5) * 2.0**-52


def _fixed_effects(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    theta = params.treatment_difference
    residual = params.differential_carryover / 0.75
    # Period 1 carries no residual effect; afterwards each period carries
    # the residual of the treatment given in the period before it. B's
    # effect and residual effect are 0. The sums are of Python floats,
    # which overflow to inf without a numpy warning; callers report it.
    mu = params.grand_mean
    p1, p2, p3, p4 = params.period_effects
    group1 = np.array([mu + p1 + theta, mu + p2 + residual, mu + p3 + theta, mu + p4 + residual])
    group2 = np.array([mu + p1, mu + p2 + theta, mu + p3 + residual, mu + p4 + theta])
    return group1, group2


def _responses(design: TrialDesign, params: ModelParams,
               raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both groups' responses from a (count, 5 * (n1 + n2)) block of raw words.

    Each row holds one trial, in a fixed order: subject effects for group
    1, then group 2, then the per-subject-period errors of group 1, then
    group 2. Returns arrays of shape (count, n1, 4) and (count, n2, 4).
    """
    n1, n2 = design.n1, design.n2
    total = n1 + n2
    count = raw.shape[0]
    z = std_normal_inverse_cdf(_open_uniforms(raw))
    sigma_s = math.sqrt(params.between_subject_var)
    sigma_e = math.sqrt(params.error_var)
    xi1 = sigma_s * z[:, :n1]
    xi2 = sigma_s * z[:, n1:total]
    eps1 = sigma_e * z[:, total:total + 4 * n1].reshape(count, n1, 4)
    eps2 = sigma_e * z[:, total + 4 * n1:].reshape(count, n2, 4)
    fixed1, fixed2 = _fixed_effects(params)
    return fixed1 + xi1[:, :, None] + eps1, fixed2 + xi2[:, :, None] + eps2


def simulate_trial(design: TrialDesign, params: ModelParams, seed: int,
                   rep_index: int) -> SubjectResponses:
    """Replication rep_index of the run seeded with seed, drawn as in the batch engine."""
    seed = _checked_int("seed", seed, 0, _SEED_LIMIT)
    rep_index = _checked_int("rep_index", rep_index, 0)
    y1, y2 = _responses(design, params, _raw_words(seed, rep_index, 1, design))
    return SubjectResponses(group1=y1[0], group2=y2[0])


def _auto_chunk(design: TrialDesign, replications: int) -> int:
    # At most 16,384 words per chunk keeps each float64 temporary within
    # 128 KiB, the C allocator's default threshold for mapping fresh pages,
    # so successive chunks reuse the same heap memory instead of faulting
    # new pages in. Hits are chunk-independent; moments fold over these chunks.
    budget = 16_384 // _padded_draws_per_rep(design)
    return max(1, min(replications, budget))


def _chunk_bounds(config: SimConfig, chunk_size: int | None) -> Iterator[tuple[int, int]]:
    """(start, count) of each chunk, made lazily; chunk_size None sizes them."""
    total = config.replications
    if chunk_size is None:
        size = _auto_chunk(config.design, total)
    else:
        size = _checked_int("chunk_size", chunk_size, 1)
    return ((start, min(size, total - start)) for start in range(0, total, size))


def _batch_estimates(config: SimConfig, start: int, count: int):
    """Estimator triple for replications [start, start + count), vectorized.

    Element-for-element identical to running ``simulate_trial(design,
    params, seed, rep_index)``, reduce_responses and estimate_effects on
    each replication in turn. Raises ``NumericalError`` on a non-finite one.
    """
    design = config.design
    raw = _raw_words(config.seed, start, count, design)
    # Overflow would only warn; the check below reports it instead.
    with np.errstate(over="ignore", invalid="ignore"):
        y1, y2 = _responses(design, config.params, raw)
        d1, d2, d3, d4 = _period_differences(design, y1, y2).T
        estimates = (pooled_effect_estimate(d1, d2, d3, d4),
                     robust_effect_estimate(d1, d2, d3, d4),
                     carryover_effect_estimate(d1, d2, d3, d4))
    if not np.isfinite(estimates).all():
        raise NumericalError(f"non-finite estimate in replications [{start}, {start + count})")
    return estimates


def empirical_coverage(config: SimConfig, *, chunk_size: int | None = None) -> EmpiricalCoverage:
    """Simulate the full pipeline and tally coverage of the two-stage interval.

    Each replication is simulated, reduced, and run through the two-stage
    procedure; a hit means the interval contains the true treatment
    difference. Deterministic given the config (including its seed) and
    independent of chunk_size, which only bounds working memory.
    """
    theta = config.params.treatment_difference
    rule = _two_stage_rule(config.design, config.two_stage)
    hits = 0
    accepts = 0
    for start, count in _chunk_bounds(config, chunk_size):
        _, accepted, lo, hi = rule(*_batch_estimates(config, start, count))
        hits += int(np.count_nonzero((lo <= theta) & (theta <= hi)))
        accepts += int(np.count_nonzero(accepted))
    return EmpiricalCoverage(hits=hits, accepts=accepts, total=config.replications)


def estimator_moments(config: SimConfig) -> EstimatorMoments:
    """Sample moments of the three estimators over a simulation run.

    Variances and covariances use the n - 1 divisor (n when the run has a
    single replication). Each automatic chunk's means and co-moments are
    merged into running totals in replication order (Chan's update), so
    memory stays flat. ``theoretical_moments`` gives their exact counterparts.
    """
    n = 0
    mean = np.zeros(3)  # pooled, robust, carryover
    comoment = np.zeros((3, 3))  # sums of products of deviations from mean
    for start, count in _chunk_bounds(config, None):
        x = np.stack(_batch_estimates(config, start, count))
        delta = x.mean(axis=1) - mean
        n += count
        mean += delta * (count / n)
        comoment += count * (np.cov(x, ddof=0) + np.outer(delta, delta) * ((n - count) / n))
    cov = comoment / (n - 1 if n > 1 else n)
    var_r, var_c, cov_rc = float(cov[1, 1]), float(cov[2, 2]), float(cov[1, 2])
    corr = cov_rc / math.sqrt(var_r * var_c) if var_r > 0.0 and var_c > 0.0 else math.nan
    return EstimatorMoments(
        mean_pooled=float(mean[0]),
        mean_robust=float(mean[1]),
        mean_carryover=float(mean[2]),
        var_pooled=float(cov[0, 0]),
        var_robust=var_r,
        var_carryover=var_c,
        cov_pooled_carryover=float(cov[0, 2]),
        cov_robust_carryover=cov_rc,
        corr_robust_carryover=corr,
    )
