"""Exception types shared across the package, and its scalar input checks.

The checks reject booleans and strings, and return a plain ``int`` or
``float`` that callers keep: under numpy 2's promotion rules an
``np.float32`` level would otherwise run the engine in single precision.
"""

import math
import numbers


class CrossoverError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CrossoverError, ValueError):
    """An input violates its documented domain (NaN, wrong sign, bad shape)."""


class NumericalError(CrossoverError, ArithmeticError):
    """A numerical routine could not certify its result.

    Carries the achieved estimate and error bound so a caller can decide
    whether the degraded answer is still usable.
    """

    def __init__(self, message, estimate=None, err_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.err_bound = err_bound


class QuadratureError(NumericalError):
    """Numerical integration failed to reach the requested tolerance."""


class RouteDisagreementError(NumericalError):
    """Two independent evaluation routes disagree beyond tolerance."""


def _checked_int(name: str, value, minimum: int, below: int | None = None) -> int:
    """``value`` as an int, which must be at least ``minimum`` (and under ``below``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise DomainError(f"{name} must be at least {minimum}, got {value}")
    if below is not None and value >= below:
        raise DomainError(f"{name} must be below {below}, got {value}")
    return value


def _checked_real(name: str, value, *, level: bool = False) -> float:
    """``value`` as a finite float; with ``level``, strictly inside (0, 1)."""
    # A plain float skips the slow ABC check: bvn_cdf runs this on every call.
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if level and not 0.0 < value < 1.0:
        raise DomainError(f"{name} must lie strictly inside (0, 1), got {value!r}")
    return value
