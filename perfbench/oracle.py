"""Reference implementations that the benchmark checks the program against.

These are plain copies of the estimator as first released: the (k, m) double
loop with a sequential ``cumsum`` per subseries, the log-log fit, and the
area route.  Every floating-point operation happens in the same order as in
that release, so a faster program must match these results bit for bit.
Box counts and variation traces are plain per-column and per-interval loops
over the signal's values.  The loops are slow on purpose and run outside
the timed region.
"""
from __future__ import annotations

import math

import numpy as np


def variation_sum(values: np.ndarray, k: int, m: int) -> float:
    n = values.size
    q = (n - m) // k
    if q < 1:
        return 0.0
    sub = values[m - 1 : m - 1 + q * k + 1 : k]
    return float(np.cumsum(np.abs(np.diff(sub)))[-1])


def length_tables(values, k_max: int):
    """Per-stride curve lengths L(k) and mesh areas A(k), k = 1..k_max.

    Both averages use the same increment sums V(k, m); the terms are formed
    exactly as the estimator and the area route form them.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    lengths = np.zeros(k_max)
    areas = np.zeros(k_max)
    for k in range(1, k_max + 1):
        l_terms = []
        a_terms = []
        for m in range(1, k + 1):
            q = (n - m) // k
            if q < 1:
                continue
            v = variation_sum(values, k, m)
            c = (n - 1) / (q * k)
            l_terms.append(c * v / k)
            a_terms.append((k / (n - 1)) * c * v)
        lengths[k - 1] = sum(l_terms) / len(l_terms) if l_terms else 0.0
        areas[k - 1] = sum(a_terms) / len(a_terms) if a_terms else 0.0
    return lengths, areas


def regression_slope(points):
    pts = np.asarray(points, dtype=float)
    x = pts[:, 0]
    y = pts[:, 1]
    dx = x - x.mean()
    denom = float(np.sum(dx * dx))
    slope = float(np.sum(dx * (y - y.mean())) / denom)
    intercept = float(y.mean() - slope * x.mean())
    return slope, intercept


def fit_lengths(lengths):
    """(slope, intercept, index_set, points) of log L(k) against log(1/k)."""
    arr = np.asarray(lengths, dtype=float)
    index_set = tuple(k for k in range(1, arr.size + 1) if arr[k - 1] != 0.0)
    points = np.array(
        [(math.log(1.0 / k), math.log(arr[k - 1])) for k in index_set]
    ).reshape(len(index_set), 2)
    if len(index_set) <= 1:
        return 1.0, None, index_set, points
    slope, intercept = regression_slope(points)
    return slope, intercept, index_set, points


def geometric_dimension(areas, n: int) -> float:
    """2 minus the slope of log A(k) against log(k/(n-1))."""
    ks = [k for k in range(1, len(areas) + 1) if areas[k - 1] != 0.0]
    if len(ks) < 2:
        return 1.0
    points = np.array([(math.log(k / (n - 1)), math.log(areas[k - 1])) for k in ks])
    slope, _ = regression_slope(points)
    return 2.0 - slope


def closed_form_length(n: int, kappa: int, eps: float) -> float:
    """Length C(n, kappa, 1) * eps / kappa**2 of a stride resurrected by a
    bump of size eps at the first sample."""
    q = (n - 1) // kappa
    return (n - 1) / (q * kappa) * eps / kappa / kappa


def km_counts(n: int, k_max: int):
    """(k, m) pairs with at least one increment, and the increments they hold."""
    pairs = 0
    increments = 0
    for k in range(1, k_max + 1):
        for m in range(1, k + 1):
            q = (n - m) // k
            if q >= 1:
                pairs += 1
                increments += q
    return pairs, increments


def box_counts(evaluate, deltas, samples_per_column: int):
    """Cells of each delta-mesh met by a graph, column by column.

    Column c spans [c * delta, c * delta + delta], clipped to [0, 1], and is
    sampled at ``samples_per_column`` evenly spaced points, endpoints
    included; every row from the one holding the column's lowest sample to
    the one holding its highest is met.  ``evaluate`` maps an array of
    points to values and is called once per mesh.
    """
    offsets = np.arange(samples_per_column) / (samples_per_column - 1)
    out = []
    for delta in deltas:
        delta = float(delta)
        starts, widths = [], []
        for c in range(math.floor(1.0 / delta) + 1):
            lo = min(c * delta, 1.0)
            starts.append(lo)
            widths.append(min(lo + delta, 1.0) - lo)
        points = np.array(starts)[:, None] + np.array(widths)[:, None] * offsets[None, :]
        values = np.asarray(evaluate(points.ravel()), dtype=float).reshape(points.shape)
        cells = 0
        for low, high in zip(values.min(axis=1).tolist(), values.max(axis=1).tolist()):
            cells += math.floor(high / delta) - math.floor(low / delta) + 1
        out.append(cells)
    return out


def dyadic_variation_trace(evaluate, base_intervals: int, levels: int):
    """Partition sums of |f(t_i) - f(t_{i-1})| on the grids of
    base_intervals * 2**n equal intervals of [0, 1], n = 0..levels-1, each
    accumulated left to right."""
    trace = []
    for level in range(levels):
        intervals = base_intervals * 2**level
        points = np.array([i / intervals for i in range(intervals + 1)])
        values = np.asarray(evaluate(points), dtype=float).tolist()
        total = 0.0
        for a, b in zip(values, values[1:]):
            total += abs(b - a)
        trace.append(total)
    return trace


def weierstrass_reference(lam: float, s: float, points):
    """Weierstrass sum at float points, summed in multi-precision arithmetic
    until the geometric tail bound drops below 1e-25.  The working precision
    covers the largest sine argument lam**J with 30 digits to spare."""
    import mpmath

    ratio = float(lam) ** (float(s) - 2.0)
    terms = 1
    while ratio ** (terms + 1) / (1.0 - ratio) >= 1e-25:
        terms += 1
    digits = 30 + int(terms * math.log10(lam)) + 1
    with mpmath.workdps(digits):
        lam_mp = mpmath.mpf(lam)
        ratio_mp = lam_mp ** (mpmath.mpf(s) - 2)
        out = []
        for t in points:
            t_mp = mpmath.mpf(float(t))
            total = mpmath.fsum(
                ratio_mp**j * mpmath.sin(lam_mp**j * t_mp) for j in range(1, terms + 1)
            )
            out.append(float(total))
    return out
