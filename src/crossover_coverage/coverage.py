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
(or Brent step) uses math-module Phi, ``bvn_rectangle`` and ``quad``. A
gamma grid (a curve, or the search's scan) uses numpy Phi, Owen's T strips
vectorized over gamma and one ``quad_vec`` per block of ``_GRID_BLOCK``
points; one point costs more through ``quad_vec`` than through ``quad``.
"""

from __future__ import annotations

import math
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
from .normal import _cdf, _cdf_array, _pdf, std_normal_quantile

#: Correlation between the robust-branch pivot and the pretest statistic.
#: Given the robust pivot g, the pretest statistic has mean
#: gamma + PIVOT_PRETEST_CORR * g and variance 2/11.
PIVOT_PRETEST_CORR = 3.0 / math.sqrt(11.0)
_INV_COND_SD = math.sqrt(11.0 / 2.0)

#: Mean shift of the pooled-branch pivot per unit of gamma.
_POOLED_SHIFT = 3.0 / math.sqrt(2.0)

#: Absolute tolerance demanded of the quadrature route.
QUAD_ABS_TOL = 1e-10
_QUAD_REQUEST = 1e-12

#: Maximum tolerated gap between the two evaluation routes.
ROUTE_AGREEMENT_TOL = 5e-9

#: The minimum search's grid (upper end and step) and refinement tolerance.
_SEARCH_GAMMA_MAX = 20.0
_SEARCH_GRID_STEP = 0.01
_SEARCH_XATOL = 1e-6

#: Most gamma values evaluated in one array pass. Longer grids go block by
#: block, so memory stays flat however many points a curve has.
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
    this gamma: an estimate, not a rigorous enclosure.
    """

    value: float
    err_bound: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise DomainError("coverage value must lie in [0, 1]")
        if self.err_bound < 0.0:
            raise DomainError("err_bound must be nonnegative")


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
# float gamma, or an array of gammas with cdf=_cdf_array.
def _accept_prob(gamma, c1: float, cdf=_cdf):
    return cdf(c1 - gamma) - cdf(-c1 - gamma)


def _pooled_inside_prob(gamma, c: float, cdf=_cdf):
    shift = _POOLED_SHIFT * gamma
    return cdf(c + shift) - cdf(-c + shift)


def _routes(gamma, alpha: float, c1: float, c: float, cdf, band, integrate):
    """(bivariate route, quadrature route, abserr, coverage), all unclipped.

    The routes give P(robust pivot inside, pretest rejects) at a float gamma
    or an array, with primitives to match: Phi ``cdf``, ``band(c, k)`` =
    P(-c <= pivot <= c, pretest <= k) and ``integrate(f, lo, hi)`` ->
    (integral, abserr). Raises if either gate fails, a NaN gap included.
    """
    # Route (a): the two strips of the joint normal law outside the accept band.
    via_bvn = (cdf(c) - cdf(-c)) - band(c, c1 - gamma) + band(c, -c1 - gamma)

    # Route (b): complement of the accept-side integral, conditioning the
    # pretest statistic on the pivot: mean gamma + 3 g / sqrt(11),
    # variance 2/11.
    def integrand(g: float):
        mu = gamma + PIVOT_PRETEST_CORR * g
        inside = cdf((c1 - mu) * _INV_COND_SD) - cdf((-c1 - mu) * _INV_COND_SD)
        return inside * _pdf(g)

    integral, abserr = integrate(integrand, -c, c)
    via_quad = (1.0 - alpha) - integral
    if not abserr <= QUAD_ABS_TOL:
        where = (f"at gamma={gamma}" if np.ndim(gamma) == 0
                 else f"on gamma in [{gamma[0]}, {gamma[-1]}]")
        raise QuadratureError(
            f"quadrature achieved abs error {abserr:.3e} > {QUAD_ABS_TOL:.1e} {where}",
            estimate=via_quad, err_bound=abserr)

    gap = np.abs(via_bvn - via_quad)
    if not (gap <= ROUTE_AGREEMENT_TOL).all():
        worst = np.argmax(gap)  # the first NaN, if there is one
        gap, at, estimate = (float(np.ravel(x)[worst]) for x in (gap, gamma, via_quad))
        raise RouteDisagreementError(
            f"bivariate and quadrature routes differ by {gap:.3e} "
            f"at gamma={at}, alpha1 quantile={c1}, alpha={alpha}",
            estimate=estimate, err_bound=gap)
    coverage = (_accept_prob(gamma, c1, cdf) * _pooled_inside_prob(gamma, c, cdf)
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
                                           _cdf, _band, _quad)
    return _clip_prob(via_bvn), _clip_prob(via_quad), abserr


def _coverage_value(gamma: float, alpha: float, c1: float,
                    c: float) -> tuple[float, float]:
    via_bvn, via_quad, abserr, coverage = _routes(gamma, alpha, c1, c,
                                                  _cdf, _band, _quad)
    return _clip_prob(coverage), abserr + abs(via_bvn - via_quad)


def _coverage_grid(gammas: np.ndarray, alpha: float, c1: float,
                   c: float) -> np.ndarray:
    """Coverage at every point of a finite gamma grid, _GRID_BLOCK at a time."""
    # Near the largest floats some terms overflow to inf, as they do on
    # the scalar path; the probabilities built from them are still exact.
    with np.errstate(over="ignore"):
        values = [_routes(gammas[i:i + _GRID_BLOCK], alpha, c1, c,
                          _cdf_array, _band_array, _quad_vec)[3]
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
    steps = _checked_int("steps", steps, 2)
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
    searched: a grid of step 0.01 on [0, 20] (to guard against multiple
    local minima), evaluated as arrays like coverage_curve, then scipy's
    bounded Brent minimizer inside the cell around the best grid point, to
    1e-6 in gamma, on the scalar path of coverage_probability. The best
    grid value is kept if the refinement does not beat it. Beyond
    gamma = 20 both gamma-dependent terms are indistinguishable from their
    limits, so nothing can hide out there.
    """
    alpha1 = _checked_real("alpha1", alpha1, level=True)
    alpha = _checked_real("alpha", alpha, level=True)
    c1 = std_normal_quantile(alpha1)
    c = std_normal_quantile(alpha)

    def f(g: float) -> float:
        return _coverage_value(g, alpha, c1, c)[0]

    grid = np.arange(0.0, _SEARCH_GAMMA_MAX + 0.5 * _SEARCH_GRID_STEP,
                     _SEARCH_GRID_STEP)
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
    """
    n = _checked_int("n", n, 1)
    sigma_e2 = _checked_real("sigma_e2", sigma_e2)
    sigma_s2 = _checked_real("sigma_s2", sigma_s2)
    if sigma_e2 <= 0.0:
        raise DomainError("sigma_e2 must be positive")
    if sigma_s2 < 0.0:
        raise DomainError("sigma_s2 must be nonnegative")
    var_robust = 11.0 * sigma_e2 / (4.0 * n)
    var_randomized = (sigma_e2 + sigma_s2) / (2.0 * n)
    return EfficiencyComparison(
        var_robust=var_robust,
        var_randomized=var_randomized,
        crossover_preferred=sigma_s2 >= 4.5 * sigma_e2,
    )
