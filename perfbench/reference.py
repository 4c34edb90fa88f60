"""Coverage reference for the benchmark, computed apart from the package.

It does not import ``crossover_coverage``. It applies the paper's
decomposition of the two-stage interval's coverage,

    P(accept) * P(pooled pivot inside) + P(reject, robust pivot inside),

with ``scipy.stats.norm`` for the one-dimensional terms and
``scipy.stats.multivariate_normal`` (Genz's bivariate algorithm in
two dimensions) for the joint term. The pretest statistic is N(gamma, 1),
the pooled pivot is N(3*gamma/sqrt(2), 1) and independent of it, and the
robust pivot is standard normal with correlation 3/sqrt(11) against the
pretest statistic.

Every function takes floats or numpy arrays and broadcasts.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import multivariate_normal, norm

RHO = 3.0 / math.sqrt(11.0)
POOLED_SHIFT = 3.0 / math.sqrt(2.0)
GAMMA_STAR = 1.3784  # location of the 0.1/0.05 minimum, to four places

_JOINT = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, RHO], [RHO, 1.0]])


def two_sided_quantile(a):
    """The c > 0 with P(|Z| <= c) = 1 - a."""
    return norm.isf(np.asarray(a, dtype=float) / 2.0)


def accept_prob(gamma, alpha1):
    """P(|T| < c1) for the pretest statistic T ~ N(gamma, 1)."""
    c1 = two_sided_quantile(alpha1)
    gamma = np.asarray(gamma, dtype=float)
    return norm.cdf(c1 - gamma) - norm.cdf(-c1 - gamma)


def pooled_inside_prob(gamma, alpha):
    """P(|P| <= c) for the pooled pivot P ~ N(3*gamma/sqrt(2), 1)."""
    c = two_sided_quantile(alpha)
    shift = POOLED_SHIFT * np.asarray(gamma, dtype=float)
    return norm.cdf(c - shift) - norm.cdf(-c - shift)


def reject_inside_prob(gamma, alpha1, alpha):
    """P(|R| <= c and |T| >= c1) for the robust pivot R and pretest T.

    Equal to P(|R| <= c) - P(|R| <= c, |T| < c1) = (1 - alpha) minus a
    bivariate-normal rectangle.
    """
    gamma, alpha1, alpha = np.broadcast_arrays(
        np.asarray(gamma, dtype=float), np.asarray(alpha1, dtype=float),
        np.asarray(alpha, dtype=float))
    c1 = two_sided_quantile(alpha1)
    c = two_sided_quantile(alpha)
    upper = np.stack([c, c1 - gamma], axis=-1)
    lower = np.stack([-c, -c1 - gamma], axis=-1)
    rect = np.asarray(_JOINT.cdf(upper, lower_limit=lower)).reshape(gamma.shape)
    return (1.0 - alpha) - rect


def coverage(gamma, alpha1, alpha):
    """Coverage probability of the two-stage interval."""
    value = (accept_prob(gamma, alpha1) * pooled_inside_prob(gamma, alpha)
             + reject_inside_prob(gamma, alpha1, alpha))
    value = np.clip(value, 0.0, 1.0)
    return float(value) if np.ndim(value) == 0 else value


def carryover_scale(n1: int, n2: int) -> float:
    """sqrt(8 / (9 m)) with m = 1/n1 + 1/n2: gamma per unit psi / sigma_e."""
    return math.sqrt(8.0 / (9.0 * (1.0 / n1 + 1.0 / n2)))


def estimator_moments(n1: int, n2: int, theta: float, psi: float,
                      error_var: float) -> dict[str, float]:
    """Closed-form means and (co)variances of the three estimators.

    The pooled estimator has mean theta - psi and variance m*s2/4, the
    robust one mean theta and variance 11*m*s2/8, the carryover one mean
    psi and variance 9*m*s2/8; pooled and carryover are uncorrelated and
    robust and carryover share covariance 9*m*s2/8.
    """
    noise = (1.0 / n1 + 1.0 / n2) * error_var
    return {
        "mean_pooled": theta - psi,
        "mean_robust": theta,
        "mean_carryover": psi,
        "cov_pooled_carryover": 0.0,
        "var_pooled": noise / 4.0,
        "var_robust": 11.0 * noise / 8.0,
        "var_carryover": 9.0 * noise / 8.0,
        "cov_robust_carryover": 9.0 * noise / 8.0,
        "corr_robust_carryover": RHO,
    }
