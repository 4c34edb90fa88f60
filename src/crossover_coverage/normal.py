"""Standard-normal primitives: density, distribution function, quantiles.

Every public function accepts a float or a numpy array and returns the
matching kind. Inputs containing NaN are rejected with ``DomainError``
rather than propagated, because a silent NaN would corrupt the coverage
integrals downstream.

The quantile is ``scipy.special.ndtri`` on the lower half of (0, 1),
reflected for p > 0.5, so ``Phi^-1(1 - p) == -Phi^-1(p)`` holds exactly
whenever ``1 - p`` is exact. Its relative error is at the ulp level from
the simulator's smallest uniform (2**-53) down to 1e-300.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError

INV_SQRT_2 = 1.0 / math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _as_float_array(x, name):
    arr = np.asarray(x)
    # Booleans and strings would otherwise be coerced to numbers.
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be real numbers, got {x!r}")
    arr = arr.astype(float, copy=False)
    return arr, arr.ndim == 0


def std_normal_pdf(x):
    """Density of the standard normal distribution.

    Parameters
    ----------
    x : float or array_like
        Evaluation point(s); must be finite.

    Returns
    -------
    float or numpy.ndarray
        ``exp(-x**2 / 2) / sqrt(2*pi)``. Underflows to 0.0 in the far
        tails (|x| > ~38.6) without raising.
    """
    arr, scalar = _as_float_array(x, "x")
    if not np.isfinite(arr).all():
        raise DomainError("x must be finite")
    out = np.exp(-0.5 * arr * arr) * INV_SQRT_2PI
    return float(out) if scalar else out


def std_normal_cdf(x):
    """Distribution function of the standard normal distribution.

    Implemented as ``0.5 * erfc(-x / sqrt(2))`` in double precision;
    absolute error is at the few-ulp level everywhere. Accepts ``+inf``
    and ``-inf`` (mapping to 1 and 0); rejects NaN.
    """
    arr, scalar = _as_float_array(x, "x")
    if np.isnan(arr).any():
        raise DomainError("x must not contain NaN")
    out = _cdf_array(arr)
    return float(out) if scalar else out


def std_normal_inverse_cdf(p):
    """Quantile function (inverse cdf) of the standard normal distribution.

    Parameters
    ----------
    p : float or array_like
        Probabilities, each strictly inside (0, 1).

    Returns
    -------
    float or numpy.ndarray
        The value z with ``std_normal_cdf(z) == p`` to machine precision.

    Raises
    ------
    DomainError
        If any entry lies outside the open interval (0, 1).
    """
    arr, scalar = _as_float_array(p, "p")
    # NaN fails both comparisons, so it is rejected here too.
    if not ((arr > 0.0) & (arr < 1.0)).all():
        raise DomainError("p must lie strictly inside (0, 1)")
    # Reflecting the lower half keeps Phi^-1(1 - p) == -Phi^-1(p) exact
    # whenever 1 - p is exact.
    z = special.ndtri(np.minimum(arr, 1.0 - arr))
    out = np.where(arr <= 0.5, z, -z)
    return float(out) if scalar else out


def std_normal_quantile(a):
    """Two-sided quantile: the c > 0 with ``P(-c <= Z <= c) = 1 - a``.

    Parameters
    ----------
    a : float or array_like
        Significance level(s), each strictly inside (0, 1).

    Returns
    -------
    float or numpy.ndarray
        Positive c such that ``std_normal_cdf(c) - std_normal_cdf(-c)``
        is within 1e-10 of ``1 - a``.
    """
    arr, scalar = _as_float_array(a, "a")
    if not ((arr > 0.0) & (arr < 1.0)).all():
        raise DomainError("a must lie strictly inside (0, 1)")
    # a/2 is an exact halving, so no precision is lost entering the tail.
    out = -std_normal_inverse_cdf(arr / 2.0)
    return float(out) if scalar else out


def _cdf(x):
    # Scalar fast path for quadrature loops; same erfc formula, unvalidated.
    return 0.5 * math.erfc(-x * INV_SQRT_2)


def _cdf_array(x):
    # Array form of _cdf for the coverage grids: scipy's erfc, unvalidated.
    return 0.5 * special.erfc(-x * INV_SQRT_2)


def _pdf(x):
    return math.exp(-0.5 * x * x) * INV_SQRT_2PI
