"""Bivariate standard-normal probabilities via Owen's T function.

The lower cdf is assembled from the classical reduction to Owen's
one-dimensional integral T(h, a):

    P(X <= h, Y <= k) = (Phi(h) + Phi(k)) / 2 - T(h, a_h) - T(k, a_k) - delta

with a_h = (k - rho*h) / (h * sqrt(1 - rho**2)) (a_k symmetric) and
delta = 1/2 when the quadrant correction applies. T itself comes from
scipy.special.owens_t, accurate to near machine precision, so rectangle
probabilities built here are trustworthy to ~1e-14 and serve as the
independent cross-check for the quadrature route in the coverage module.
Its coverage grids use an array form that holds h fixed and varies k.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import owens_t

from .errors import DomainError, _checked_real
from .normal import _cdf, _cdf_array


def _checked_rho(rho) -> float:
    rho = _checked_real("rho", rho)
    if not -1.0 <= rho <= 1.0:
        raise DomainError("rho must lie in [-1, 1]")
    return rho


def bvn_cdf(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k) for standard bivariate normal with correlation rho.

    Accepts infinite bounds; rejects NaN. Degenerate correlations +/-1 are
    handled exactly.
    """
    return _bvn_cdf(_checked_real("h", h, infinite=True),
                    _checked_real("k", k, infinite=True), _checked_rho(rho))


def _bvn_cdf(h: float, k: float, rho: float) -> float:
    # Unchecked: callers pass float bounds (possibly infinite) and rho in [-1, 1].
    if h == -math.inf or k == -math.inf:
        return 0.0
    if h == math.inf:
        return _cdf(k)
    if k == math.inf:
        return _cdf(h)
    if rho == 1.0:
        return _cdf(min(h, k))
    if rho == -1.0:
        return max(0.0, _cdf(h) - _cdf(-k))
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)

    denom = math.sqrt(1.0 - rho * rho)
    # T(0, +/-inf) = +/-1/4, the h -> 0+ limit of the general term.
    if h == 0.0:
        t_h = 0.25 if k > 0.0 else -0.25
    else:
        t_h = float(owens_t(h, (k - rho * h) / (h * denom)))
    if k == 0.0:
        t_k = 0.25 if h > 0.0 else -0.25
    else:
        t_k = float(owens_t(k, (h - rho * k) / (k * denom)))
    delta = 0.5 if (h * k < 0.0 or (h * k == 0.0 and h + k < 0.0)) else 0.0
    value = 0.5 * (_cdf(h) + _cdf(k)) - t_h - t_k - delta
    return min(1.0, max(0.0, value))


def _bvn_cdf_array(h: float, k: np.ndarray, rho: float) -> np.ndarray:
    """_bvn_cdf at one finite nonzero h and every entry of an array of finite k.

    Unchecked, for -1 < rho < 1: the same reduction term by term, so each
    entry matches the scalar function up to the erfc backend's last ulp.
    """
    denom = math.sqrt(1.0 - rho * rho)
    t_h = owens_t(h, (k - rho * h) / (h * denom))
    k_zero = k == 0.0
    # A stand-in k keeps the unused branch of np.where free of 0/0.
    k_safe = np.where(k_zero, 1.0, k)
    t_k = np.where(k_zero, 0.25 if h > 0.0 else -0.25,
                   owens_t(k_safe, (h - rho * k_safe) / (k_safe * denom)))
    hk = h * k
    delta = np.where((hk < 0.0) | ((hk == 0.0) & (h + k < 0.0)), 0.5, 0.0)
    value = 0.5 * (_cdf(h) + _cdf_array(k)) - t_h - t_k - delta
    return np.clip(value, 0.0, 1.0)


def bvn_rectangle(x_lo: float, x_hi: float, y_lo: float, y_hi: float,
                  rho: float) -> float:
    """P(x_lo <= X <= x_hi, y_lo <= Y <= y_hi) for the same distribution.

    Accepts infinite bounds; rejects NaN and unordered bounds.
    """
    x_lo = _checked_real("x_lo", x_lo, infinite=True)
    x_hi = _checked_real("x_hi", x_hi, infinite=True)
    y_lo = _checked_real("y_lo", y_lo, infinite=True)
    y_hi = _checked_real("y_hi", y_hi, infinite=True)
    rho = _checked_rho(rho)
    if not (x_lo <= x_hi and y_lo <= y_hi):
        raise DomainError("rectangle bounds must be ordered")
    value = (_bvn_cdf(x_hi, y_hi, rho) - _bvn_cdf(x_lo, y_hi, rho)
             - _bvn_cdf(x_hi, y_lo, rho) + _bvn_cdf(x_lo, y_lo, rho))
    return min(1.0, max(0.0, value))
