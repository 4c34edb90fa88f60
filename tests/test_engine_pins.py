"""The analytic engine's results, pinned bit for bit.

Each pin is a ``float.hex`` string, so the test fails if any bit of a
value, an error bound, a route or a minimum moves. A speed-up of the
engine that claims to leave its numbers unchanged is held to these; a
change that means to move them must say which and why. The points span
the headline levels (0.1, 0.05), a near-zero pretest level and levels
near 1, at gamma 0, near the headline minimum and in the flat tail.
"""

import pytest

from crossover_coverage import (
    CoverageQuery,
    coverage_curve,
    coverage_probability,
    min_coverage_table,
    reject_cover_routes,
)

# (gamma, alpha1, alpha) -> (value, err_bound)
QUERY_PINS = {
    (0.0, 0.1, 0.05): ("0x1.d40e6adb4bdc8p-1", "0x1.14ef5783a037dp-40"),
    (1.3784, 0.1, 0.05): ("0x1.e26938590d161p-2", "0x1.5d6697561dcb0p-41"),
    (11.0, 0.1, 0.05): ("0x1.e666666666666p-1", "0x1.0000000000000p-51"),
    (40.0, 0.1, 0.05): ("0x1.e666666666666p-1", "0x1.0000000000000p-51"),
    (0.0, 1e-12, 0.05): ("0x1.e6666666644f5p-1", "0x1.919cfda42b700p-47"),
    (1.3784, 1e-12, 0.05): ("0x1.570d99241a7a1p-3", "0x1.9400000000000p-47"),
    (11.0, 1e-12, 0.05): ("0x1.e666664ef89b9p-1", "0x1.0237e64ac0000p-51"),
    (40.0, 1e-12, 0.05): ("0x1.e666666666666p-1", "0x1.0000000000000p-51"),
    (0.0, 0.999999, 0.999999): ("0x1.0c6f626138e84p-20", "0x1.8fb3811e36ff4p-51"),
    (1.3784, 0.999999, 0.999999): ("0x1.0c6f79eae7305p-20", "0x1.05e9d003c8fbbp-51"),
    (11.0, 0.999999, 0.999999): ("0x1.0c6f7a0b80000p-20", "0x1.2000000000000p-51"),
    (40.0, 0.999999, 0.999999): ("0x1.0c6f7a0b80000p-20", "0x1.2000000000000p-51"),
}

# (gamma, alpha1, alpha) -> (bivariate route, quadrature route, abserr)
ROUTE_PINS = {
    (0.0, 0.1, 0.05): ("0x1.e4bdb7f22e6e8p-5", "0x1.e4bdb7f22e6d0p-5", "0x1.14c35783a037dp-40"),
    (1.3784, 0.1, 0.05): ("0x1.7ad7ac497a071p-2", "0x1.7ad7ac497a070p-2", "0x1.5d1e97561dcb0p-41"),
    (11.0, 0.1, 0.05): ("0x1.e666666666666p-1", "0x1.e666666666666p-1", "0x1.08e4fce5740d7p-242"),
    (40.0, 0.1, 0.05): ("0x1.e666666666666p-1", "0x1.e666666666666p-1", "0x0.0p+0"),
    (0.0, 1e-12, 0.05): ("0x0.0p+0", "0x0.0p+0", "0x1.7c00000000000p-47"),
    (1.3784, 1e-12, 0.05): ("0x0.0p+0", "0x0.0p+0", "0x1.7c00000000000p-47"),
    (11.0, 1e-12, 0.05): ("0x1.e666664ef89b9p-1", "0x1.e666664ef89b9p-1", "0x1.1bf3256000000p-58"),
    (40.0, 1e-12, 0.05): ("0x1.e666666666666p-1", "0x1.e666666666666p-1", "0x0.0p+0"),
    (0.0, 0.999999, 0.999999): ("0x1.0c6f50c880000p-20", "0x1.0c6f50c99f670p-20",
                                "0x1.1e36ff3ae23a7p-75"),
    (1.3784, 0.999999, 0.999999): ("0x1.0c6f79d2a0000p-20", "0x1.0c6f79d2abd3ap-20",
                                   "0x1.e47dd4e129595p-82"),
    (11.0, 0.999999, 0.999999): ("0x1.0c6f7a0bc0000p-20", "0x1.0c6f7a0b80000p-20",
                                 "0x1.ac7400321ccaap-549"),
    (40.0, 0.999999, 0.999999): ("0x1.0c6f7a0bc0000p-20", "0x1.0c6f7a0b80000p-20", "0x0.0p+0"),
}

# The CLI's default table: (alpha1, alpha) -> (gamma_star, min_coverage)
TABLE_PINS = {
    (0.01, 0.01): ("0x1.d59d66a03837dp+0", "0x1.2fec10dbc0a2bp-2"),
    (0.01, 0.05): ("0x1.9f4dd2ca6df26p+0", "0x1.9f6788bec1a98p-3"),
    (0.01, 0.1): ("0x1.86280b3ecf8e9p+0", "0x1.2d593017fc666p-3"),
    (0.05, 0.01): ("0x1.ad067bc46faa4p+0", "0x1.eeed371eb3302p-2"),
    (0.05, 0.05): ("0x1.75981d96a4e9bp+0", "0x1.7cc3f9dc9d2d4p-2"),
    (0.05, 0.1): ("0x1.59b6487d22b27p+0", "0x1.35a9e4daf8342p-2"),
    (0.1, 0.01): ("0x1.98dd4f52c0b3fp+0", "0x1.2b076c7656977p-1"),
    (0.1, 0.05): ("0x1.60de2b5687d5fp+0", "0x1.e269385812c22p-2"),
    (0.1, 0.1): ("0x1.446fc52a4b7c2p+0", "0x1.983f5a3a334abp-2"),
    (0.2, 0.01): ("0x1.82728407c1440p+0", "0x1.636b5e7fc489bp-1"),
    (0.2, 0.05): ("0x1.4921fc4c322e5p+0", "0x1.2c33835fbfda7p-1"),
    (0.2, 0.1): ("0x1.2bdc686289ebbp+0", "0x1.0728b7a6742cfp-1"),
}

# The CLI's default curve, (0.1, 0.05) on [-8, 8] in 801 steps:
# index -> (gamma, coverage)
CURVE_PINS = {
    300: ("-0x1.0000000000000p+1", "0x1.3c51b3011d4cdp-1"),
    400: ("0x0.0p+0", "0x1.d40e6adb4bdc9p-1"),
    469: ("0x1.6147ae147ae18p+0", "0x1.e2699bf858845p-2"),
}


@pytest.mark.parametrize("point", QUERY_PINS)
def test_coverage_probability(point):
    result = coverage_probability(CoverageQuery(*point))
    assert (result.value.hex(), result.err_bound.hex()) == QUERY_PINS[point]


@pytest.mark.parametrize("point", ROUTE_PINS)
def test_reject_cover_routes(point):
    assert tuple(x.hex() for x in reject_cover_routes(*point)) == ROUTE_PINS[point]


def test_default_table():
    reports = min_coverage_table([0.01, 0.05, 0.1, 0.2], [0.01, 0.05, 0.1])
    assert {(r.alpha1, r.alpha): (r.gamma_star.hex(), r.min_coverage.hex())
            for r in reports} == TABLE_PINS


def test_default_curve():
    curve = coverage_curve(0.1, 0.05, -8.0, 8.0, 801)
    assert {i: (curve[i].gamma.hex(), curve[i].coverage.hex())
            for i in CURVE_PINS} == CURVE_PINS
