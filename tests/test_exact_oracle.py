"""The float estimator against the exact estimator on the same samples.

Every other kernel oracle repeats the program's float operations, and the
golden slopes were frozen from the program's output.  Here each float
sample is read as the rational it is, so every V(k, m), C(N, k, m) and L(k)
is exact; only the logarithms and the least-squares fit round, in mpmath at
40 digits.  The float slopes (and the frozen golden ones) must lie within
``BOUND`` of that exact slope, and the float index set, which rests on the
exact zero test of each L(k), must equal the exact one.

Measured with numpy 2.4 on Python 3.11, every frozen golden slope equals
the float result, and the largest distances from the exact slope are
1.06e-15 (noise, N = 60) and 1.05e-15 (claim 10, N = 700), about 2.4 units
in the last place of a slope near 2; claim 8's bumped slope lies 9.2e-16
away, claims 4 and 8's base slopes 2.2e-16 below the exact 2, and the area
route at most 1.8e-16 away.  ``BOUND`` allows about four times the largest.
"""
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from fracdim import (
    Alternating,
    Oscillation,
    PeriodicInterp,
    TimeSeries,
    Weierstrass,
    geometric_hfd,
    hfd,
    perturb,
    sample,
    stability_report,
)
from fracdim.acceptance import golden_values
from fracdim.higuchi import ceil_half
from fracdim.stability import DEMO_ALTERNATING, DEMO_PERIODIC_COEFFS

BOUND = 4e-15
DIGITS = 40
# (N, seed, k_max) of the seeded noise series, also run through the area route
NOISE = ((60, 31, 30), (137, 32, ceil_half(137)), (200, 33, 41))


def exact_averages(values, k_max, weight):
    """Per-stride averages of weight(k) * C(N, k, m) * V(k, m) over the
    offsets m with q = floor((N-m)/k) >= 1, as exact rationals.

    Every float is a multiple of a power of two, so one power of two,
    ``scale``, turns every sample into an integer and every V(k, m) into an
    exact integer sum.
    """
    samples = [Fraction(x) for x in values]
    scale = max(x.denominator for x in samples)
    xs = [int(x * scale) for x in samples]
    n = len(xs)
    out = []
    for k in range(1, k_max + 1):
        terms = []
        for m in range(1, k + 1):
            q = (n - m) // k
            if q < 1:
                continue
            sub = xs[m - 1 : m + q * k : k]
            v = Fraction(sum(abs(b - a) for a, b in zip(sub, sub[1:])), scale)
            terms.append(weight(k) * Fraction(n - 1, q * k) * v)
        out.append(sum(terms, Fraction(0)) / len(terms))
    return out


def exact_fit(values, x_of):
    """The strides with a nonzero value, and the least-squares slope of
    log value on ``x_of(k)`` over them, at ``DIGITS`` digits."""
    index_set = tuple(k for k, v in enumerate(values, 1) if v != 0)
    with mp.workdps(DIGITS):
        x = [x_of(k) for k in index_set]
        y = [mp.log(mp.mpf(values[k - 1].numerator)) - mp.log(values[k - 1].denominator) for k in index_set]
        xbar, ybar = mp.fsum(x) / len(x), mp.fsum(y) / len(y)
        slope = mp.fsum((a - xbar) * (b - ybar) for a, b in zip(x, y)) / mp.fsum((a - xbar) ** 2 for a in x)
    return index_set, slope


def exact_hfd(values, k_max):
    """Index set and dimension of the stride route: log L(k) on log(1/k)."""
    lengths = exact_averages(values, k_max, lambda k: Fraction(1, k))
    return exact_fit(lengths, lambda k: -mp.log(k))


def exact_geometric_hfd(values, k_max):
    """Dimension of the area route: 2 minus the slope of log area on
    log(k/(N-1))."""
    n = len(values)
    areas = exact_averages(values, k_max, lambda k: Fraction(k, n - 1))
    with mp.workdps(DIGITS):
        return 2 - exact_fit(areas, lambda k: mp.log(k) - mp.log(n - 1))[1]


def distance(got: float, exact) -> float:
    with mp.workdps(DIGITS):
        return float(abs(mp.mpf(got) - exact))


def _noise(n, seed):
    return TimeSeries(np.random.default_rng(seed).normal(size=n))


GOLDEN = golden_values()
PERIODIC = sample(PeriodicInterp(DEMO_PERIODIC_COEFFS), 150)
ALTERNATING = sample(Alternating(*DEMO_ALTERNATING), 100)
EPS = 1e-10  # the bump of claims 7 and 8, at j = 1

# name: (series, k_max, bumped at j = 1 by EPS, frozen golden slope or None)
CASES = {
    "claim-4": (sample(Alternating(0.4, 0.6), 100), 50, False, None),
    "claim-7-base": (PERIODIC, 30, False, GOLDEN["periodic_interp"]["base_d"]),
    "claim-7-bumped": (PERIODIC, 30, True, GOLDEN["periodic_interp"]["perturbed_d"]),
    "claim-8-base": (ALTERNATING, 50, False, GOLDEN["alternating"]["base_d"]),
    "claim-8-bumped": (ALTERNATING, 50, True, GOLDEN["alternating"]["perturbed_d"]),
    **{
        f"claim-10-n{n}": (sample(Oscillation(20.0), n), 2, False, GOLDEN["oscillation_sweep_kmax2"][str(n)])
        for n in (100, 300, 700)
    },
    "claim-11": (sample(Weierstrass(5.0, 1.7), 1000), 500, False, GOLDEN["weierstrass_hfd_n1000"]),
    **{f"noise-n{n}": (_noise(n, seed), k_max, False, None) for n, seed, k_max in NOISE},
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    """The float result, the exact index set and slope on the same
    samples, and the golden slope."""
    ts, k_max, bumped, golden = CASES[request.param]
    if bumped:
        result = stability_report(ts, k_max, j=1, eps=EPS).perturbed
        ts = perturb(ts, 1, EPS)
    else:
        result = hfd(ts, k_max)
    return result, exact_hfd(ts.values.tolist(), k_max), golden


def test_index_set_is_exact(case):
    result, (index_set, _), _ = case
    assert result.index_set == index_set


def test_slopes_near_exact(case):
    result, (_, slope), golden = case
    assert distance(result.slope, slope) <= BOUND
    if golden is not None:
        assert distance(golden, slope) <= BOUND


@pytest.mark.parametrize("n", [n for n, _, _ in NOISE])
def test_geometric_hfd_near_exact(n):
    ts, k_max, _, _ = CASES[f"noise-n{n}"]
    values = ts.values.tolist()
    exact = exact_geometric_hfd(values, k_max)
    assert distance(geometric_hfd(ts, k_max), exact) <= BOUND
    # in exact arithmetic the two routes give the same dimension
    with mp.workdps(DIGITS):
        assert abs(exact - exact_hfd(values, k_max)[1]) <= mp.mpf(10) ** (5 - DIGITS)
