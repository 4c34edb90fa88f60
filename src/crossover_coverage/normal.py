"""Standard-normal primitives: quantiles, and the engine's density and cdf.

The inverse cdf takes a float or a numpy array and returns the same kind,
the two-sided quantile a real number only. NaN is rejected with
``DomainError`` rather than propagated, because a silent NaN would corrupt
the coverage integrals downstream. The private ``_pdf``, ``_cdf`` and
``_cdf_array`` are the unchecked kernels the coverage engine integrates;
Phi(x) there is ``0.5 * erfc(-x / sqrt(2))``, accurate to a few ulp everywhere.

The quantile is ``scipy.special.ndtri`` on the lower half of (0, 1),
reflected for p > 0.5, so ``Phi^-1(1 - p) == -Phi^-1(p)`` holds exactly
whenever ``1 - p`` is exact. Its relative error is at the ulp level from
the simulator's smallest uniform (2**-53) down to 1e-300.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError, _checked_real

INV_SQRT_2 = 1.0 / math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _as_float_array(x, name):
    arr = np.asarray(x)
    # Booleans and strings would otherwise be coerced to numbers.
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be real numbers, got {x!r}")
    arr = arr.astype(float, copy=False)
    return arr, arr.ndim == 0


def std_normal_inverse_cdf(p):
    """Quantile function (inverse cdf) of the standard normal distribution.

    Parameters
    ----------
    p : float or array_like
        Probabilities, each strictly inside (0, 1).

    Returns
    -------
    float or numpy.ndarray
        The value z with Phi(z) == p to machine precision.

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
    a : float
        Significance level, a real number strictly inside (0, 1).

    Returns
    -------
    float
        Positive c such that Phi(c) - Phi(-c) is within 1e-10 of ``1 - a``.
    """
    a = _checked_real("a", a, level=True)
    # a/2 is an exact halving, so no precision is lost entering the tail.
    if a / 2.0 == 0.0:
        raise DomainError(f"a must be at least 1e-323, or its half underflows; got {a!r}")
    # a/2 < 0.5, so the inverse cdf's reflection is never needed.
    return -float(special.ndtri(a / 2.0))


def _cdf(x):
    # Scalar fast path for quadrature loops; same erfc formula, unvalidated.
    return 0.5 * math.erfc(-x * INV_SQRT_2)


def _cdf_array(x):
    # Array form of _cdf for the coverage grids: scipy's erfc, unvalidated.
    return 0.5 * special.erfc(-x * INV_SQRT_2)


def _pdf(x):
    return math.exp(-0.5 * x * x) * INV_SQRT_2PI
