"""Exception types shared across the package, and its input checks.

The scalar checks reject booleans and strings, and return a plain ``int``
or ``float`` that callers keep: under numpy 2's promotion rules an
``np.float32`` level would otherwise run the engine in single precision.
A sequence argument is read into a tuple, so a scalar in its place raises
``DomainError`` rather than ``TypeError``.
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


def _checked_int(name: str, value, minimum: int, below: int | None = None, why="") -> int:
    """``value`` as an int, at least ``minimum`` (and under ``below``, for the reason ``why``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise DomainError(f"{name} must be at least {minimum}, got {value}")
    if below is not None and value >= below:
        raise DomainError(f"{name} must be below {below}{why and f' ({why})'}, got {value}")
    return value


def _checked_real(name: str, value, *, level: bool = False,
                  infinite: bool = False, sign: str | None = None) -> float:
    """``value`` as a finite float; with ``level``, in [1e-323, 1).

    A level's domain is [1e-323, 1) because the two-sided quantile halves
    it: the half of 5e-324, the smallest subnormal, underflows to 0.

    With ``infinite``, +/-inf are admitted too; NaN never is. ``sign`` is
    "positive" (above 0) or "nonnegative" (at least 0, so -0.0 passes).
    """
    # A plain float skips the slow ABC check: bvn_rectangle runs this on
    # every coverage evaluation.
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    if math.isnan(value) or (not infinite and math.isinf(value)):
        raise DomainError(f"{name} must be {'a number' if infinite else 'finite'}, "
                          f"got {value!r}")
    if level and not 1e-323 <= value < 1.0:
        raise DomainError(f"{name} must lie in [1e-323, 1), got {value!r}")
    if sign is not None and not (value > 0.0 if sign == "positive" else value >= 0.0):
        raise DomainError(f"{name} must be {sign}, got {value!r}")
    return value


def _checked_items(name: str, value, length: int | None = None) -> tuple:
    """The items of ``value`` as a tuple: exactly ``length`` of them, or at least one."""
    try:
        items = tuple(value)
    except TypeError:
        raise DomainError(f"{name} must be a sequence, got {value!r}") from None
    if length is None and not items:
        raise DomainError(f"{name} must be nonempty")
    if length is not None and len(items) != length:
        raise DomainError(f"{name} must have exactly {length} entries, got {len(items)}")
    return items
