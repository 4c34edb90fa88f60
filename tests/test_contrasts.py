"""The contrast matrix B against the code that uses it.

``trial._CONTRASTS`` is B, whose rows are the pooled, robust and carryover
estimators' coefficients on (d1, d2, d3, d4), and ``trial._GRAM`` is B B^T.
The estimator functions write the coefficients out again, so each is held
to its row of B. Every variance, scale, half-width and correlation is
derived from B B^T; each is held here, bit for bit, to the literal it
replaced, over all designs with n1, n2 <= 64 and over sampled large ones.
The exact moments are held to it while they are normal floats; below that
the literals round twice, and the derived values once.
"""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from crossover_coverage import (
    ModelParams,
    TrialDesign,
    TwoStageConfig,
    efficiency_comparison,
    std_normal_quantile,
    theoretical_moments,
)
from crossover_coverage import coverage, trial
from crossover_coverage.trial import (
    _CONTRASTS,
    _GRAM,
    PIVOT_PRETEST_CORR,
    _two_stage_rule,
    carryover_effect_estimate,
    carryover_scale,
    pooled_effect_estimate,
    robust_effect_estimate,
)

ESTIMATORS = [pooled_effect_estimate, robust_effect_estimate, carryover_effect_estimate]


def _designs():
    """Every design with n1, n2 <= 64, then 2,000 sampled ones up to 1e308 a side."""
    rng = random.Random(20)
    large = [lambda: rng.randint(1, 2**64 + 1), lambda: rng.randint(1, 10**308),
             lambda: rng.randint(1, 2**53), lambda: 2**64 - 1, lambda: 2**64 + 1]
    sampled = [(rng.choice(large)(), rng.choice(large)()) for _ in range(2000)]
    small = [(n1, n2) for n1 in range(1, 65) for n2 in range(1, 65)]
    return [TrialDesign(n1, n2) for n1, n2 in small + sampled]


DESIGNS = _designs()


def test_rows_are_the_estimator_functions():
    for i, estimator in enumerate(ESTIMATORS):
        for j, unit in enumerate(np.eye(4)):
            assert estimator(*unit.tolist()) == _CONTRASTS[i, j], (estimator.__name__, j)


def test_gram_is_exact():
    rows = [[Fraction(float(x)) for x in row] for row in _CONTRASTS]
    for i in range(3):
        for j in range(3):
            assert _GRAM[i, j] == sum(a * b for a, b in zip(rows[i], rows[j]))
    assert np.diag(_GRAM).tolist() == [0.25, 1.375, 1.125]


def test_correlation_constants():
    assert PIVOT_PRETEST_CORR == 3.0 / math.sqrt(11.0)
    assert coverage.PIVOT_PRETEST_CORR is PIVOT_PRETEST_CORR
    assert coverage._INV_COND_SD == math.sqrt(11.0 / 2.0)
    assert coverage._POOLED_SHIFT == 3.0 / math.sqrt(2.0)


def test_carryover_scale_and_pooled_sd():
    for design in DESIGNS:
        m = design.m
        assert carryover_scale(m) == math.sqrt(8.0 / (9.0 * m)), design
        # simulate._check_precision's pooled standard deviation.
        assert math.sqrt(trial._VAR_POOLED * m) == math.sqrt(m / 4.0), design


@pytest.mark.parametrize("sigma_e", [1.0, 0.37])
def test_half_widths(sigma_e):
    c = std_normal_quantile(0.05)
    for design in DESIGNS:
        rule = _two_stage_rule(design, TwoStageConfig(0.1, 0.05, sigma_e))
        # Centered at 0, the interval's upper end is its half-width.
        _, accepted, _, pooled_hw = rule(0.0, 0.0, 0.0)
        _, rejected, _, robust_hw = rule(0.0, 0.0, math.inf)
        assert accepted and not rejected
        m = design.m
        assert pooled_hw == c * math.sqrt(m / 4.0) * sigma_e, design
        assert robust_hw == c * math.sqrt(11.0 * m / 8.0) * sigma_e, design


@pytest.mark.parametrize("error_var", [1.0, 0.37, 2.5e-300, 3e300])
def test_theoretical_moments(error_var):
    for design in DESIGNS[::7]:
        exact = theoretical_moments(design, ModelParams(0.7, 0.3, error_var=error_var))
        got = (exact.var_pooled, exact.var_robust, exact.var_carryover,
               exact.cov_pooled_carryover, exact.cov_robust_carryover)
        noise = design.m * error_var
        # Each is m sigma_e^2 times an entry of B B^T, rounded once.
        assert got == tuple(float(Fraction(noise) * Fraction(q))
                            for q in (0.25, 1.375, 1.125, 0.0, 1.125)), design
        assert exact.corr_robust_carryover == 3.0 / math.sqrt(11.0)
        # So are the literals while the variances are normal; below that,
        # 11 * noise / 8 and 9 * noise / 8 round twice.
        if noise / 4.0 >= sys.float_info.min:
            assert got == (noise / 4.0, 11.0 * noise / 8.0, 9.0 * noise / 8.0, 0.0,
                           9.0 * noise / 8.0), design


def test_efficiency_robust_variance():
    rng = random.Random(21)
    for _ in range(20_000):
        sigma_e2 = 10.0 ** rng.uniform(-300.0, 307.0)
        n = rng.choice([rng.randint(1, 100), rng.randint(1, 2**64), rng.randint(1, 2**1000)])
        want = 11.0 * sigma_e2 / (4.0 * n)
        if sys.float_info.min <= sigma_e2 / (2.0 * n) and want <= 1e300:  # both normal
            assert efficiency_comparison(0.0, sigma_e2, n).var_robust == want, (sigma_e2, n)
