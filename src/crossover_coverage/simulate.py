"""Monte Carlo simulator for the crossover model.

This is the empirical oracle for the analytic coverage engine. It draws
each replication's four between-group period differences, pushes them
through ``trial.py``'s own estimators and two-stage procedure (the
functions that analyse real data, applied to whole chunks of replications
at once), and tallies coverage.

The period differences are exactly Gaussian. A response is its group's
fixed effect for the period, plus the subject's effect ~ N(0, sigma_s^2),
plus an error ~ N(0, sigma_e^2). So group 1's period means minus group
2's are

    d = fd + (subject-effect mean 1 - mean 2) * (1, 1, 1, 1) + error differences,

with fd = (theta, r - theta, theta - r, r - theta), r = psi / 0.75, and
four independent error differences ~ N(0, m sigma_e^2), m = 1/n1 + 1/n2.
The grand mean and the period effects cancel from fd by construction, and
the subject term cancels from all three estimators, whose coefficients
each sum to 0. So ``d = fd + sqrt(m) sigma_e z``, with z four independent
standard normals, gives the estimates, the tally and the moments exactly
the law of the subject-level model.

Reproducibility contract
------------------------
Replication ``r`` of a run with seed ``s`` is block ``r`` of the Philox
stream keyed by ``s``: words 4r to 4r + 3, whose open uniforms give z
through ``std_normal_inverse_cdf`` (scipy's ``ndtri``). One generator
serves a whole run: ``empirical_coverage`` and ``estimator_moments`` each
key one stream and draw their chunks from it in replication order. Tallies
are therefore bit-identical for any ``chunk_size``, and
``_batch_estimates(config, r, 1)`` keys a stream of its own at block ``r``
and regenerates replication ``r`` alone. Moments fold over the automatic
chunks of ``_CHUNK_REPS`` replications and take no ``chunk_size``. Only
``_philox_stream`` keys and positions a stream.

``simulate_trial(design, params, seed, rep_index)`` draws the whole
subject-level model from a layout of its own, which ``_raw_words`` alone
writes: ``5 * (n1 + n2)`` words per trial (one per subject effect, one per
subject-period error), padded to whole 4-word blocks. It is the reference
the tests check the tally's law against; it does not regenerate the
tallied replication. One trial may draw at most ``_CHUNK_WORDS`` words, so
it refuses designs with n1 + n2 > 3,276 before any draw. That bounds one
trial's draw, not a tally chunk: the tally takes any design.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import DomainError, NumericalError, _checked_int
# Nothing here calls std_normal_quantile; the binding stays because the
# benchmark's tracer (perfbench/spans.py) wraps simulate.std_normal_quantile.
from .normal import std_normal_inverse_cdf, std_normal_quantile
from .trial import (
    _GRAM,
    _VAR_POOLED,
    PIVOT_PRETEST_CORR,
    ModelParams,
    SubjectResponses,
    TrialDesign,
    TwoStageConfig,
    _two_stage_rule,
    carryover_effect_estimate,
    pooled_effect_estimate,
    robust_effect_estimate,
)

#: Philox keys are unsigned 64-bit integers.
_SEED_LIMIT = 2**64

#: Most Philox words one chunk draws. Each float64 temporary then stays
#: within 128 KiB, the C allocator's default threshold for mapping fresh
#: pages, so successive chunks reuse the same heap memory.
_CHUNK_WORDS = 16_384

#: Replications per automatic chunk: one 4-word Philox block each.
_CHUNK_REPS = _CHUNK_WORDS // 4


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
        return _binomial_z(self.estimate, expected, self.total)


def _binomial_z(rate: float, expected: float, total: int) -> float:
    """(rate - expected) over the binomial std error at expected; 0 or inf when that is 0."""
    if not 0.0 <= expected <= 1.0:  # NaN fails too
        raise DomainError(f"expected must lie in [0, 1], got {expected!r}")
    se = math.sqrt(expected * (1.0 - expected) / total)
    if se == 0.0:
        return 0.0 if rate == expected else math.inf
    return (rate - expected) / se


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

    @classmethod
    def _from_cov(cls, means, cov, corr: float) -> "EstimatorMoments":
        return cls(*map(float, means), float(cov[0, 0]), float(cov[1, 1]), float(cov[2, 2]),
                   float(cov[0, 2]), float(cov[1, 2]), corr)


def theoretical_moments(design: TrialDesign, params: ModelParams) -> EstimatorMoments:
    """Exact means, variances and covariances of the three estimators.

    The counterpart of what ``estimator_moments`` samples, in the same
    type: the estimands theta - psi, theta and psi, and m sigma_e^2 B B^T.
    None involve the between-subject variance: each row of B sums to 0.
    """
    theta = params.treatment_difference
    psi = params.differential_carryover
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        cov = design.m * params.error_var * _GRAM
    moments = EstimatorMoments._from_cov((theta - psi, theta, psi), cov, PIVOT_PRETEST_CORR)
    if not all(map(math.isfinite, astuple(moments))):
        raise NumericalError(f"the exact moments overflow: {moments}")
    return moments


def _philox_stream(seed: int, block: int) -> np.random.Philox:
    """The Philox stream keyed by seed, positioned at its 4-word block `block`.

    Each ``random_raw`` call of whole blocks continues where the last one
    stopped, so a run builds one and draws its chunks in order. A build
    costs several times a repositioning: about half of it is a draw of OS
    entropy that ``key=`` then ignores.
    """
    bit_gen = np.random.Philox(key=seed)
    bit_gen.advance(block)
    return bit_gen


def _raw_words(seed: int, start: int, count: int, design: TrialDesign) -> np.ndarray:
    """The subject-level words of replications [start, start + count), one unpadded row each.

    A replication takes 5 (n1 + n2) words, padded to whole 4-word blocks;
    one trial may draw at most _CHUNK_WORDS of them.
    """
    b = 5 * (design.n1 + design.n2)
    b_pad = -(-b // 4) * 4
    if b_pad > _CHUNK_WORDS:
        raise DomainError(
            f"n1 + n2 = {design.n1 + design.n2} draws {b_pad} words per trial, over the "
            f"{_CHUNK_WORDS} one subject-level trial may draw (n1 + n2 <= {_CHUNK_WORDS // 5}); "
            "coverage depends on the design only through gamma, so simulate a "
            "smaller design at the same gamma")
    words = _philox_stream(seed, start * b_pad // 4).random_raw(count * b_pad)
    return words.reshape(count, b_pad)[:, :b]


def _open_uniforms(raw: np.ndarray) -> np.ndarray:
    # (k + 1/2) / 2**52 over the top 52 bits: exact, symmetric, never 0 or 1.
    return ((raw >> 12).astype(np.float64) + 0.5) * 2.0**-52


def _treatment_table(params: ModelParams) -> np.ndarray:
    """The (2, 4) treatment and residual effects: rows ABAB and BABA, periods as columns.

    Period 1 carries no residual effect; each later period carries the
    residual of the treatment before it. B's effect and residual effect are 0.
    """
    theta = params.treatment_difference
    residual = params.differential_carryover / 0.75
    return np.array([[theta, residual, theta, residual],
                     [0.0, theta, residual, theta]])


def _responses(design: TrialDesign, params: ModelParams,
               raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both groups' responses from a (count, 5 * (n1 + n2)) block of raw words.

    Each row holds one trial, in a fixed order: the n1 + n2 subject effects,
    group 1's subjects first, then each subject's four period errors in the
    same subject order. Both groups are built as one (count, n1 + n2, 4)
    array, fixed effect + subject effect + error; the two returned views of
    it have shapes (count, n1, 4) and (count, n2, 4).
    """
    n1, n2 = design.n1, design.n2
    total = n1 + n2
    z = std_normal_inverse_cdf(_open_uniforms(raw))
    sigma_s = math.sqrt(params.between_subject_var)
    sigma_e = math.sqrt(params.error_var)
    # An overflowed mean is inf, which SubjectResponses refuses.
    with np.errstate(over="ignore"):
        means = _treatment_table(params) + (params.grand_mean + np.array(params.period_effects))
    y = (np.repeat(means, [n1, n2], axis=0) + sigma_s * z[:, :total, None]
         + sigma_e * z[:, total:].reshape(-1, total, 4))
    return y[:, :n1], y[:, n1:]


def _fixed_differences(params: ModelParams) -> np.ndarray:
    """fd, the period differences' means: the treatment table's row 0 minus row 1.

    The grand mean and the period effects cancel in that difference, so
    they do not enter here.
    """
    table = _treatment_table(params)
    with np.errstate(over="ignore"):  # to inf, which _check_precision refuses
        return table[0] - table[1]


def simulate_trial(design: TrialDesign, params: ModelParams, seed: int,
                   rep_index: int) -> SubjectResponses:
    """Trial rep_index of the subject-level model seeded with seed.

    Drawn from the subject-level layout, not the tally's: see the module's
    reproducibility contract.
    """
    seed = _checked_int("seed", seed, 0, _SEED_LIMIT)
    rep_index = _checked_int("rep_index", rep_index, 0)
    y1, y2 = _responses(design, params, _raw_words(seed, rep_index, 1, design))
    return SubjectResponses(group1=y1[0], group2=y2[0])


def _chunk_bounds(config: SimConfig, chunk_size: int | None) -> Iterator[tuple[int, int]]:
    """(start, count) of each chunk, made lazily; chunk_size None means _CHUNK_REPS.

    Hits are chunk-independent; moments fold over the automatic chunks.
    """
    total = config.replications
    size = _CHUNK_REPS if chunk_size is None else _checked_int("chunk_size", chunk_size, 1)
    return ((start, min(size, total - start)) for start in range(0, total, size))


def _unit_draws(stream: np.random.Philox, count: int) -> np.ndarray:
    """z of the stream's next count replications, a row of four each from one Philox block."""
    z = std_normal_inverse_cdf(_open_uniforms(stream.random_raw(4 * count)))
    return z.reshape(count, 4)


def _estimates(d: np.ndarray):
    """Estimator triple of period differences d, of shape (4,) or (count, 4)."""
    d1, d2, d3, d4 = d.T
    return (pooled_effect_estimate(d1, d2, d3, d4), robust_effect_estimate(d1, d2, d3, d4),
            carryover_effect_estimate(d1, d2, d3, d4))


def _batch_estimates(config: SimConfig, start: int, count: int,
                     stream: np.random.Philox | None = None):
    """Estimator triple for replications [start, start + count), vectorized.

    Replication r is Philox block r: its four words give z, and its period
    differences are d = fd + sqrt(m) sigma_e z (the module docstring shows
    this has the subject-level model's law). Element for element the same
    as ``_batch_estimates(config, r, 1)`` for each r in turn. ``stream`` is
    the run's stream, positioned at block start; without it the call keys
    one of its own there.
    """
    if stream is None:
        stream = _philox_stream(config.seed, start)
    noise = math.sqrt(config.design.m) * config.two_stage.sigma_e
    return _estimates(_fixed_differences(config.params)
                      + noise * _unit_draws(stream, count))


def _check_precision(config: SimConfig) -> None:
    """Refuse, before any draw, a run whose period differences would round their noise away.

    The open uniforms give |z| <= -Phi^-1(2^-53) = 8.2095..., so |d| <= M =
    max |fd| + 8.21 sqrt(m) sigma_e, which rounds by at most 2^-53 M. The run
    needs M <= 2^33 s, s = sigma_e sqrt(m/4) the pooled estimator's std
    deviation, so that nothing rounds by more than 2^-20 s. Nor can anything then
    overflow: |d| <= M <= 2^33 s, and sigma_e <= 1.35e154.
    """
    sigma_e = config.two_stage.sigma_e
    bound = (float(np.max(np.abs(_fixed_differences(config.params))))
             + 8.21 * math.sqrt(config.design.m) * sigma_e)
    s = sigma_e * math.sqrt(_VAR_POOLED * config.design.m)
    if not bound <= 2.0**33 * s:  # an overflowed, infinite bound fails too
        raise NumericalError(f"period differences up to M = {bound!r} round away noise of "
                             f"scale s = {s!r} (M > 2**33 s) in replications "
                             f"[0, {config.replications})")


def empirical_coverage(config: SimConfig, *, chunk_size: int | None = None) -> EmpiricalCoverage:
    """Simulate the two-stage procedure and tally coverage of its interval.

    Each replication's period differences are drawn and run through the
    estimators and the two-stage procedure; a hit means the interval
    contains the true treatment difference. Deterministic given the config
    (including its seed) and independent of chunk_size, which only bounds
    working memory.
    """
    _check_precision(config)
    theta = config.params.treatment_difference
    rule = _two_stage_rule(config.design, config.two_stage)
    stream = _philox_stream(config.seed, 0)
    hits = 0
    accepts = 0
    for start, count in _chunk_bounds(config, chunk_size):
        _, accepted, lo, hi = rule(*_batch_estimates(config, start, count, stream))
        hits += int(np.count_nonzero((lo <= theta) & (theta <= hi)))
        accepts += int(np.count_nonzero(accepted))
    return EmpiricalCoverage(hits=hits, accepts=accepts, total=config.replications)


def estimator_moments(config: SimConfig) -> EstimatorMoments:
    """Sample moments of the three estimators over a simulation run.

    Each automatic chunk's mean of the unit-noise draws z, and co-moments of
    the estimators of z, merge into running totals in replication order
    (Chan's update): memory stays flat, and nothing overflows or underflows.
    The correlation is taken there. The estimators being linear, the means are
    the estimators of fd + sqrt(m) sigma_e mean(z), and the covariances (n - 1
    divisor, n for one replication) the unit ones times (sqrt(m) sigma_e)^2.
    """
    _check_precision(config)
    n = 0
    mean = np.zeros(4)  # of z
    comoment = np.zeros((3, 3))  # sums of products of the estimators' deviations
    stream = _philox_stream(config.seed, 0)
    for _, count in _chunk_bounds(config, None):
        z = _unit_draws(stream, count)
        delta = z.mean(axis=0) - mean
        n += count
        mean += delta * (count / n)
        x, shift = np.array(_estimates(z)), np.array(_estimates(delta))
        comoment += count * (np.cov(x, ddof=0) + np.outer(shift, shift) * ((n - count) / n))
    cov = comoment / (n - 1 if n > 1 else n)
    corr = float(cov[1, 2] / math.sqrt(cov[1, 1] * cov[2, 2])) if n > 1 else math.nan
    noise = math.sqrt(config.design.m) * config.two_stage.sigma_e
    with np.errstate(over="ignore"):  # refused below
        cov = cov * noise * noise
    if not np.isfinite(cov).all():
        raise NumericalError(f"the estimators' co-moments overflow in replications [0, {n})")
    means = _estimates(_fixed_differences(config.params) + noise * mean)
    return EstimatorMoments._from_cov(means, cov, corr)
