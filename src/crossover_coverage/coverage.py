"""Exact coverage analytics for the two-stage crossover confidence interval.

Everything here lives on the scale of three standardized statistics:

* the pretest statistic, distributed N(gamma, 1) where gamma is the
  scaled differential carryover;
* the pooled-branch pivot, distributed N(-3*gamma/sqrt(2), 1) and
  independent of the pretest statistic;
* the robust-branch pivot, standard normal, with correlation
  3/sqrt(11) against the pretest statistic.

The coverage probability of the two-stage interval is then

    P(accept) * P(pooled pivot inside)  +  P(robust pivot inside, reject)

and depends on the trial only through gamma. The joint reject-branch term
is evaluated two independent ways at every gamma: a bivariate-normal
rectangle assembled from Owen's T (verification route) and an adaptive
Gauss-Kronrod quadrature of the conditional form (authoritative route).
Disagreement beyond tolerance raises instead of returning a bad number.

One body, ``_routes``, holds both routes, both gates and the coverage, at
a float gamma or a gamma array; only its primitives differ. A single query
(or Brent step) uses the math-module kernel Phi(b) - Phi(a), ``quad`` and
``bvn_rectangle``, whose Owen's T skips the ufunc. A gamma grid (a curve,
or the search's scan) uses the numpy kernel, Owen's T strips vectorized over
gamma and one ``quad_vec`` per block of ``_GRID_BLOCK`` points; one point
costs more through ``quad_vec`` than through ``quad``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.optimize import minimize_scalar

from .bivariate import _bvn_cdf_array, bvn_rectangle
from .errors import (
    DomainError,
    QuadratureError,
    RouteDisagreementError,
    _checked_int,
    _checked_items,
    _checked_real,
)
from .normal import INV_SQRT_2PI, _between, _between_array, std_normal_quantile
from .trial import _VAR_CARRYOVER, _VAR_POOLED, _VAR_ROBUST, PIVOT_PRETEST_CORR

#: Given the robust pivot g, the pretest statistic has mean
#: gamma + PIVOT_PRETEST_CORR * g and variance 1 - PIVOT_PRETEST_CORR**2.
_INV_COND_SD = 1.0 / math.sqrt(1.0 - PIVOT_PRETEST_CORR**2)

#: Mean shift of the pooled-branch pivot per unit of gamma (its bias is -psi).
_POOLED_SHIFT = math.sqrt(_VAR_CARRYOVER / _VAR_POOLED)

#: Absolute tolerance demanded of the quadrature route.
QUAD_ABS_TOL = 1e-10
_QUAD_REQUEST = 1e-12

#: Maximum tolerated gap between the two evaluation routes.
ROUTE_AGREEMENT_TOL = 5e-9

#: The rounding of the float arithmetic that assembles a coverage from its
#: parts: about four roundings of a number in [0, 1]. Neither the
#: quadrature's abserr nor the route gap sees it.
_ROUNDING_ERR = 2.0**-51

#: The minimum search's grid step and refinement tolerance.
_SEARCH_GRID_STEP = 0.01
_SEARCH_XATOL = 1e-6

#: Most gamma values evaluated in one array pass. Longer grids go block by
#: block, which bounds quad_vec's working arrays; coverage_curve still holds
#: every point it returns, so a curve's memory grows with its points.
_GRID_BLOCK = 4096


@dataclass(frozen=True)
class CoverageQuery:
    """Point at which to evaluate the coverage probability."""

    gamma: float
    alpha1: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _checked_real("gamma", self.gamma))
        for name in ("alpha1", "alpha"):
            object.__setattr__(self, name,
                               _checked_real(name, getattr(self, name), level=True))


@dataclass(frozen=True)
class CoverageResult:
    """A coverage probability with its error bound.

    ``err_bound`` is the quadrature's reported abserr plus the route gap at
    this gamma plus 2**-51 for the rounding of the value itself: an
    estimate, not a rigorous enclosure. ``tests/test_oracle.py`` holds it
    against a 30-digit oracle.
    """

    value: float
    err_bound: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise DomainError("coverage value must lie in [0, 1]")
        if not self.err_bound >= 0.0:  # NaN fails too
            raise DomainError(f"err_bound must be nonnegative, got {self.err_bound!r}")


@dataclass(frozen=True)
class MinCoverageReport:
    """Location and value of the coverage minimum over nonnegative gamma."""

    gamma_star: float
    min_coverage: float
    alpha1: float
    alpha: float


class CurvePoint(NamedTuple):
    gamma: float
    coverage: float


class EfficiencyComparison(NamedTuple):
    """Variances of the two candidate estimators and the verdict."""

    var_robust: float
    var_randomized: float
    crossover_preferred: bool


def _clip_prob(value: float) -> float:
    return min(1.0, max(0.0, value))


# P(pretest accepts) and P(pooled interval covers), unclipped. Both take a
# float gamma, or an array of gammas with between=_between_array.
def _accept_prob(gamma, c1: float, between=_between):
    return between(-c1 - gamma, c1 - gamma)


def _pooled_inside_prob(gamma, c: float, between=_between):
    shift = _POOLED_SHIFT * gamma
    return between(-c + shift, c + shift)


def _routes(gamma, alpha: float, c1: float, c: float, between, band, integrate):
    """(bivariate route, quadrature route, abserr, coverage), all unclipped.

    The routes give P(robust pivot inside, pretest rejects) at a float gamma
    or an array, with primitives to match: ``between(a, b)`` = Phi(b) - Phi(a),
    ``band(c, k)`` = P(-c <= pivot <= c, pretest <= k) and
    ``integrate(f, lo, hi)`` -> (integral, abserr). Raises if either gate
    fails, a NaN gap included.
    """
    # Route (a): the two strips of the joint normal law outside the accept band.
    via_bvn = between(-c, c) - band(c, c1 - gamma) + band(c, -c1 - gamma)

    # Route (b): complement of the accept-side integral, conditioning the
    # pretest statistic on the pivot: mean gamma + 3 g / sqrt(11),
    # variance 2/11.
    def integrand(g: float):  # dozens of calls a query: the density is written in place
        mu = gamma + PIVOT_PRETEST_CORR * g
        inside = between((-c1 - mu) * _INV_COND_SD, (c1 - mu) * _INV_COND_SD)
        return inside * (math.exp(-0.5 * g * g) * INV_SQRT_2PI)

    integral, abserr = integrate(integrand, -c, c)
    via_quad = (1.0 - alpha) - integral
    if not abserr <= QUAD_ABS_TOL:
        where = (f"at gamma={gamma}" if np.ndim(gamma) == 0
                 else f"on gamma in [{gamma[0]}, {gamma[-1]}]")
        raise QuadratureError(
            f"quadrature achieved abs error {abserr:.3e} > {QUAD_ABS_TOL:.1e} {where}",
            estimate=via_quad, err_bound=abserr)

    gap = abs(via_bvn - via_quad)
    agree = gap <= ROUTE_AGREEMENT_TOL  # a bool at a float gamma: numpy is slow on scalars
    if not (agree if isinstance(agree, bool) else agree.all()):
        worst = np.argmax(gap)  # the first NaN, if there is one
        gap, at, estimate = (float(np.ravel(x)[worst]) for x in (gap, gamma, via_quad))
        raise RouteDisagreementError(
            f"bivariate and quadrature routes differ by {gap:.3e} "
            f"at gamma={at}, alpha1 quantile={c1}, alpha={alpha}",
            estimate=estimate, err_bound=gap)
    coverage = (_accept_prob(gamma, c1, between) * _pooled_inside_prob(gamma, c, between)
                + via_quad)
    return via_bvn, via_quad, abserr, coverage


# _routes' primitives for one float gamma, then for a gamma array.
def _band(c: float, k: float) -> float:
    return bvn_rectangle(-c, c, -math.inf, k, PIVOT_PRETEST_CORR)


def _quad(integrand, lo: float, hi: float) -> tuple[float, float]:
    # full_output also keeps QUADPACK's warnings quiet: the gate judges abserr.
    return quad(integrand, lo, hi, epsabs=_QUAD_REQUEST, epsrel=_QUAD_REQUEST,
                limit=200, full_output=1)[:2]


def _band_array(c: float, k: np.ndarray) -> np.ndarray:
    return (_bvn_cdf_array(c, k, PIVOT_PRETEST_CORR)
            - _bvn_cdf_array(-c, k, PIVOT_PRETEST_CORR))


def _quad_vec(integrand, lo: float, hi: float) -> tuple[np.ndarray, float]:
    # The error is a sum of max-norms, so it bounds every entry's error.
    return quad_vec(integrand, lo, hi, epsabs=_QUAD_REQUEST,
                    epsrel=_QUAD_REQUEST, norm="max")


def reject_cover_routes(gamma: float, alpha1: float,
                        alpha: float) -> tuple[float, float, float]:
    """P(robust interval covers AND pretest rejects), by both routes.

    Returns (bivariate-cdf value, quadrature value, quadrature abserr);
    the quadrature value is the authoritative one. Raises if the routes
    disagree beyond ROUTE_AGREEMENT_TOL.
    """
    query = CoverageQuery(gamma, alpha1, alpha)
    c1 = std_normal_quantile(query.alpha1)
    c = std_normal_quantile(query.alpha)
    via_bvn, via_quad, abserr, _ = _routes(query.gamma, query.alpha, c1, c,
                                           _between, _band, _quad)
    return _clip_prob(via_bvn), _clip_prob(via_quad), abserr


def _coverage_value(gamma: float, alpha: float, c1: float,
                    c: float) -> tuple[float, float]:
    via_bvn, via_quad, abserr, coverage = _routes(gamma, alpha, c1, c,
                                                  _between, _band, _quad)
    return _clip_prob(coverage), abserr + abs(via_bvn - via_quad) + _ROUNDING_ERR


def _coverage_grid(gammas: np.ndarray, alpha: float, c1: float,
                   c: float) -> np.ndarray:
    """Coverage at every point of a finite gamma grid, _GRID_BLOCK at a time."""
    # Near the largest floats some terms overflow to inf, as they do on
    # the scalar path; the probabilities built from them are still exact.
    with np.errstate(over="ignore"):
        values = [_routes(gammas[i:i + _GRID_BLOCK], alpha, c1, c,
                          _between_array, _band_array, _quad_vec)[3]
                  for i in range(0, len(gammas), _GRID_BLOCK)]
    return np.clip(np.concatenate(values), 0.0, 1.0)


def coverage_probability(query: CoverageQuery) -> CoverageResult:
    """Coverage probability of the two-stage interval at the given query.

    This is the accept-branch product plus the reject-branch joint term;
    it is symmetric in gamma and tends to 1 - alpha as |gamma| grows.
    """
    c1 = std_normal_quantile(query.alpha1)
    c = std_normal_quantile(query.alpha)
    value, err_bound = _coverage_value(query.gamma, query.alpha, c1, c)
    return CoverageResult(value=value, err_bound=err_bound)


def coverage_curve(alpha1: float, alpha: float, gamma_min: float,
                   gamma_max: float, steps: int) -> list[CurvePoint]:
    """Coverage evaluated on an evenly spaced gamma grid (endpoints included).

    The grid is evaluated as arrays, a block at a time, with both routes
    checked at every point; each value matches coverage_probability at the
    same gamma to about 1e-15. A range whose span overflows a float raises.
    """
    alpha1 = _checked_real("alpha1", alpha1, level=True)
    alpha = _checked_real("alpha", alpha, level=True)
    gamma_min = _checked_real("gamma_min", gamma_min)
    gamma_max = _checked_real("gamma_max", gamma_max)
    if not gamma_min < gamma_max:
        raise DomainError("need gamma_min < gamma_max")
    steps = _checked_int("steps", steps, 2, 2**60, "numpy arrays stop short of 2**63 bytes")
    # A span that overflows makes linspace return NaN and inf points.
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(gamma_min, gamma_max, steps)
    if not np.isfinite(grid).all():
        raise DomainError(f"gamma range [{gamma_min!r}, {gamma_max!r}] is too wide: "
                          "its span or grid points are not finite")
    c1 = std_normal_quantile(alpha1)
    c = std_normal_quantile(alpha)
    values = _coverage_grid(grid, alpha, c1, c)
    return [CurvePoint(g, v) for g, v in zip(grid.tolist(), values.tolist())]


def min_coverage(alpha1: float, alpha: float) -> MinCoverageReport:
    """Minimum coverage probability over gamma, with its location.

    Coverage is symmetric in gamma, so only the nonnegative half-line is
    searched: a grid of step 0.01 on [0, c1 + 9], c1 = Phi^-1(1 - alpha1/2)
    (to guard against multiple local minima), evaluated as arrays like
    coverage_curve, then scipy's bounded Brent minimizer inside the cell
    around the best grid point, to 1e-6 in gamma, on the scalar path of
    coverage_probability. The best grid value is kept if the refinement
    does not beat it.

    Nothing hides beyond the grid. Write C = A*P + R, with A the
    accept probability, P the pooled coverage and R = (1 - alpha) -
    P(robust covers, accept); A*P and P(robust covers, accept) lie in
    [0, A]. So |C(gamma) - (1 - alpha)| <= A <= Phi(c1 - gamma) <= Phi(-9)
    < 1.2e-19 for gamma >= c1 + 9, and the infimum over [0, inf) is within
    2.4e-19 of the minimum over [0, c1 + 9]; the grid reaches c1 + 9.
    """
    alpha1 = _checked_real("alpha1", alpha1, level=True)
    alpha = _checked_real("alpha", alpha, level=True)
    c1 = std_normal_quantile(alpha1)
    c = std_normal_quantile(alpha)

    def f(g: float) -> float:
        return _coverage_value(g, alpha, c1, c)[0]

    grid = np.arange(0.0, c1 + 9.0 + _SEARCH_GRID_STEP, _SEARCH_GRID_STEP)
    values = _coverage_grid(grid, alpha, c1, c)
    i = int(np.argmin(values))
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    refined = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                              options={"xatol": _SEARCH_XATOL})
    gamma_star, minimum = float(refined.x), float(refined.fun)
    if values[i] < minimum:
        gamma_star, minimum = float(grid[i]), float(values[i])
    return MinCoverageReport(gamma_star=gamma_star, min_coverage=minimum,
                             alpha1=alpha1, alpha=alpha)


def min_coverage_table(alpha1_list: Sequence[float],
                       alpha_list: Sequence[float]) -> list[MinCoverageReport]:
    """Cartesian product of min_coverage over the two level lists."""
    alpha1_list = _checked_items("alpha1_list", alpha1_list)
    alpha_list = _checked_items("alpha_list", alpha_list)
    return [min_coverage(a1, a)
            for a1 in alpha1_list for a in alpha_list]


def efficiency_comparison(sigma_s2: float, sigma_e2: float,
                          n: int) -> EfficiencyComparison:
    """Compare the robust estimator against a completely randomized trial.

    Both arms of the crossover trial are taken to have n subjects; the
    comparator is the difference of group means from a completely
    randomized design with the same total number of response
    measurements. The crossover estimator wins exactly when the
    between-subject variance is at least 4.5 times the error variance,
    tested as such: the two rounded variances can disagree at the boundary.
    Both variances must be normal floats: an infinite, zero or subnormal one
    would make their ratio inf, nan or inexact, so it raises instead.
    """
    # From 2**1022 on, 2.0 * n can overflow, or n does not convert.
    n = _checked_int("n", n, 1, 2**1022)
    sigma_e2 = _checked_real("sigma_e2", sigma_e2, sign="positive")
    sigma_s2 = _checked_real("sigma_s2", sigma_s2, sign="nonnegative")
    var_robust = 2.0 * _VAR_ROBUST * sigma_e2 / n  # arms of n give m = 2/n
    var_randomized = (sigma_e2 + sigma_s2) / (2.0 * n)
    for name, var in (("var_robust", var_robust), ("var_randomized", var_randomized)):
        if not sys.float_info.min <= var < math.inf:
            raise DomainError(f"{name} = {var!r} is not a normal float (sigma_s2={sigma_s2!r}, "
                              f"sigma_e2={sigma_e2!r}, n={n})")
    return EfficiencyComparison(
        var_robust=var_robust,
        var_randomized=var_randomized,
        crossover_preferred=sigma_s2 >= 4.5 * sigma_e2,
    )
