"""scipy's ``cython_special`` scalars against its ufuncs, bit for bit.

The scalar bivariate cdf takes Owen's T, and the two-sided quantile takes
``ndtri``, through ``scipy.special.cython_special``; the array paths keep
the ufuncs. The two are meant to run the same C functions. If a scipy
release ever splits them, the scalar and array coverage paths would drift
apart without a word, so these tests fail loudly instead.
"""

import math
import sys

import numpy as np
from scipy import special
from scipy.special import cython_special

TINY = sys.float_info.min  # 2**-1022
H_GRID = [s * h for h in (TINY, 1e-8, 0.5, 8.5, 40.0) for s in (1.0, -1.0)]
A_GRID = [0.0] + [s * a for a in (1e-300, 1e-8, 1.0, 1e8, math.inf) for s in (1.0, -1.0)]


def _bits(values):
    return [float(v).hex() for v in values]


def test_owens_t_on_the_edge_grid():
    pairs = [(h, a) for h in H_GRID for a in A_GRID]
    scalar = [cython_special.owens_t(h, a) for h, a in pairs]
    h, a = np.array(pairs).T
    assert _bits(scalar) == _bits(special.owens_t(h, a))


def test_owens_t_on_random_pairs():
    rng = np.random.default_rng(2011)
    h = rng.normal(0.0, 3.0, 10_000) * 10.0 ** rng.integers(-3, 2, 10_000)
    a = rng.standard_cauchy(10_000)
    scalar = [cython_special.owens_t(float(x), float(y)) for x, y in zip(h, a)]
    assert _bits(scalar) == _bits(special.owens_t(h, a))


def test_ndtri_from_the_smallest_level_to_one_minus_half_ulp():
    rng = np.random.default_rng(2012)
    p = np.concatenate([
        [5e-324, TINY, 1e-300, 1e-12, 0.025, 0.5, 0.975, 1.0 - 2.0**-53],
        10.0 ** rng.uniform(-323.0, 0.0, 5_000),
        rng.uniform(0.0, 1.0, 5_000),
    ])
    p = p[(p > 0.0) & (p < 1.0)]
    scalar = [cython_special.ndtri(float(x)) for x in p]
    assert _bits(scalar) == _bits(special.ndtri(p))
