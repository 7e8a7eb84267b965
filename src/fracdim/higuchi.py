"""Higuchi fractal dimension estimator.

For each stride k and offset m the series X(m), X(m+k), ... contributes a
normalized increment sum; the per-k averages L(k) are regressed on a log-log
scale and the slope is the estimated dimension D.

The number of increments of the (k, m) subseries is q = floor((N-m)/k), used
both as the summation bound and inside the normalization constant
(N-1)/(q*k): a ceiling bound would address samples beyond X(N) whenever k
does not divide N-m.  When k | (N-m) floor and ceiling agree.  Offsets with
q = 0 (possible at k = ceil(N/2) for odd N) are excluded from the per-k
average; offset m = 1 always has an increment at admissible sizes.

The lengths here and the mesh areas of :mod:`fracdim.geometry` are averaged
by :func:`_stride_averages`, in blocks of consecutive strides of at most
``_BLOCK_CELLS`` (k, m) cells cut into runs of strides that share the
full-row count f = (N-k)//k (:func:`_stride_blocks`).  A run's V(k, m) (a
lone stride is a run of one) come from one table, its strides' (f+2, k)
sample tables side by side, read from the series padded with NaN
(:func:`_run_columns`).  A block's terms fill one table with a row per
stride and a column per offset, zero after the stride's last offset; C
takes one of two values per stride, as q is f + 1 or f.

The exact zero test on L(k) and the frozen golden values depend on every
bit, so the summation order is fixed, and it is the same on every
interpreter.  Each V(k, m) adds i = 1..q in ascending order, as
:func:`variation_sum` does, by :func:`_sum_rows`.  Each L(k) adds m = 1, 2,
... in ascending order, by one running sum (``np.add.accumulate``) along
its row of the block's table: the order of Python's ``sum`` up to 3.11,
which is compensated from 3.12 on.  The terms are >= 0, so trailing zeros
change no bit.  A non-finite length or area, which finite values reach only
through overflow, raises :class:`DomainError` naming the stride.

The bump experiments of :mod:`fracdim.stability` run through
:func:`_bumped_results`, which keeps the unperturbed tables of terms.  A
bump at sample j changes one offset per stride, m = (j-1) mod k + 1, so only
that V(k, m) is recomputed per stride and bump size, from samples laid out
once per call.  The new terms of every bump size go into one stacked copy of
each table, averaged at once: bit-identical to :func:`hfd` of the bumped
series.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import AdmissibilityError, DegenerateRegressionError, DomainError, EmptySubseriesError
from .series import TimeSeries, _check_index, _integer, perturb

# Most (k, m) cells whose bookkeeping _stride_averages does in one go; 2**14
# was as fast but raised paper_scale's peak RSS by up to 9% (2**12: 1%).
_BLOCK_CELLS = 2**12


def ceil_half(n: int) -> int:
    return (n + 1) // 2


def _check_admissible(n: int, k_max) -> int:
    """``k_max`` as an int; AdmissibilityError unless it is an integer (not a
    bool) with 1 <= k_max <= ceil(n/2).  A TimeSeries already guarantees
    n >= 2."""
    k_max = _integer(k_max, "k_max", AdmissibilityError)
    if not 1 <= k_max <= ceil_half(n):
        raise AdmissibilityError(f"need 1 <= k_max <= ceil(n/2) = {ceil_half(n)}, got k_max={k_max}")
    return k_max


def _check_stride_offset(n, k, m) -> Tuple[int, int, int]:
    """``(n, k, m)`` as ints; AdmissibilityError unless n is an integer
    >= 2, DomainError unless k and m are integers with 1 <= m <= k."""
    n = _integer(n, "n", AdmissibilityError)
    k, m = _integer(k, "stride k", DomainError), _integer(m, "offset m", DomainError)
    if n < 2:
        raise AdmissibilityError(f"need n >= 2, got n={n}")
    if not 1 <= m <= k:
        raise DomainError(f"need 1 <= m <= k, got m={m}, k={k}")
    return n, k, m


def increments_count(n: int, k: int, m: int) -> int:
    """Number of valid increments q = floor((n-m)/k) of the (k, m) subseries."""
    n, k, m = _check_stride_offset(n, k, m)
    if k > ceil_half(n):
        raise AdmissibilityError(f"need k <= ceil(n/2) = {ceil_half(n)}, got k={k}")
    return (n - m) // k


def _nonempty_count(n: int, k: int, m: int) -> int:
    """:func:`increments_count`; EmptySubseriesError when it is 0."""
    q = increments_count(n, k, m)
    if q == 0:
        raise EmptySubseriesError(f"no increments for n={n}, k={k}, m={m}")
    return q


def normalization_constant(n: int, k: int, m: int) -> float:
    """Rescaling factor (n-1)/(q*k) mapping a subseries span onto [0, 1]."""
    return (n - 1) / (_nonempty_count(n, k, m) * k)


def variation_sum(ts: TimeSeries, k: int, m: int) -> float:
    """Sum of |X(m+ik) - X(m+(i-1)k)| over i = 1..q, accumulated in
    ascending i order; 0 when q = 0."""
    n, k, m = _check_stride_offset(ts.values.size, k, m)
    q = (n - m) // k
    if q < 1:
        return 0.0
    return _partition_sum(ts.values[m - 1 : m - 1 + q * k + 1 : k])


def _partition_sum(values: np.ndarray) -> float:
    """Sum of |v_i - v_{i-1}|, accumulated left to right."""
    return float(np.cumsum(np.abs(np.diff(values)))[-1])


class DetailRow(NamedTuple):
    """One (k, m) evaluation: normalization constant, increment sum, length."""

    k: int
    m: int
    c: float
    v: float
    length: float


def _sum_rows(d: np.ndarray) -> np.ndarray:
    """The column sums of the 2-D table ``d``, each added in ascending row
    order: the one summation order of every V(k, m).

    Reducing over axis 0, the slow axis in memory, numpy adds one row after
    another into the column sums; only a reduction along the fast axis is
    summed pairwise.  A single column is the fast axis, so it is
    accumulated instead.
    """
    if d.shape[1] == 1:
        # a copy: a view of the last row would keep the whole accumulate alive
        return np.add.accumulate(d, axis=0)[-1].copy()
    return np.add.reduce(d, axis=0)


def _finite(means: np.ndarray, what: str) -> np.ndarray:
    """``means`` of the strides 1, 2, ...; DomainError naming the first
    stride whose mean, of the quantity ``what``, is not finite."""
    bad = np.flatnonzero(~np.isfinite(means))
    if bad.size:
        raise DomainError(f"the {what} at stride k={bad[0] + 1} is not finite: the series overflows in floating point")
    return means


def _stride_blocks(n: int, k_max: int):
    """The strides 1..k_max in blocks of at most ``_BLOCK_CELLS`` (k, m)
    cells, or of one stride that alone exceeds it, each a list of runs
    (a, b, f) of the strides a..b-1: a run grows while the next stride shares
    its full-row count f = (n-k)//k, fits in the block and keeps the run's
    stacked (f+2)-row table within ``_BLOCK_CELLS`` entries."""
    a = 1
    while a <= k_max:
        runs, cells = [], 0
        while a <= k_max and (not runs or cells + a <= _BLOCK_CELLS):
            b, f, stacked = a + 1, (n - a) // a, a
            while (b <= k_max and (n - b) // b == f and cells + stacked + b <= _BLOCK_CELLS
                   and (f + 2) * (stacked + b) <= _BLOCK_CELLS):
                stacked += b
                b += 1
            runs.append((a, b, f))
            cells += stacked
            a = b
        yield runs


def _run_columns(padded: np.ndarray, a: int, b: int, f: int) -> np.ndarray:
    """V(k, m) of the strides k = a..b-1, which share the full-row count f,
    in ascending (k, m), from one table: the strides' (f+2, k) sample tables
    side by side, read from the series ``padded`` with NaN.

    Row i+1 less row i holds increment i+1 of every offset.  As (f+1)k <= N,
    only the last difference row can reach beyond X(N), for the offsets with
    only f increments; ``fmax`` turns the padding it reads into +0.0.
    Finite values give finite or infinite differences, never NaN, and a sum
    of absolute values gains no bit from a trailing +0.0.  For f = 0, at
    k = ceil(N/2) for odd N, the last column is an offset without an
    increment, for the caller to drop.
    """
    tables = [padded[: (f + 2) * k].reshape(f + 2, k) for k in range(a, b)]
    t = tables[0] if b == a + 1 else np.concatenate(tables, axis=1)
    d = t[1:] - t[:-1]
    np.abs(d, out=d)
    np.fmax(d[-1], 0.0, out=d[-1])
    return _sum_rows(d)


def _stride_averages(ts: TimeSeries, k_max: int, term, what: str, rows=None, tables=None) -> np.ndarray:
    """Per-stride averages of ``term(k, C, V)`` over the offsets with an
    increment, k = 1..k_max.  Per block of strides, ``term`` is applied to
    the column of strides k and to (stride x offset) tables of C and V, zero
    after each stride's offsets.  Each (k, m) row is appended to ``rows``,
    and each block's (lo, count, table of terms) to ``tables``, when given."""
    k_max = _check_admissible(ts.n, k_max)
    n = ts.n
    padded = np.concatenate([ts.values, np.full(k_max, np.nan)])
    ks = np.arange(1, k_max + 1)
    counts = np.minimum(ks, n - ks)  # the offsets m <= n - k, those with q >= 1
    # q = (n - m) // k is n // k for the offsets m <= n mod k, else n // k - 1,
    # taken as at least 1 so that padding, where q = 0, gets a finite C
    qk = n // ks * ks
    firsts, rests, splits = (n - 1) / qk, (n - 1) / np.maximum(qk - ks, ks), n - qk
    out = []
    with np.errstate(over="ignore"):  # overflow surfaces as a non-finite average
        for runs in _stride_blocks(n, k_max):
            lo, hi = runs[0][0], runs[-1][1]
            s = slice(lo - 1, hi - 1)
            count, m = counts[s], np.arange(counts[s].max())  # m - 1
            cell = m < count[:, None]  # the (k, m) cells, in ascending (k, m)
            v = np.zeros(cell.shape)
            # drops the column of the one offset without an increment (f = 0)
            v[cell] = np.concatenate([_run_columns(padded, *run) for run in runs])[: count.sum()]
            c = np.where(m < splits[s, None], firsts[s, None], rests[s, None])
            t = term(ks[s, None], c, v)
            out.append(np.add.accumulate(t, axis=1)[:, -1] / count)  # each row in ascending m
            if tables is not None:
                tables.append((lo, count, t))
            if rows is not None:
                k, m = np.nonzero(cell)
                cells = (k + lo, m + 1, c[cell], v[cell], t[cell])
                rows.extend(map(DetailRow._make, zip(*(x.tolist() for x in cells))))
    return _finite(np.concatenate(out), what)


def _length_terms(k: np.ndarray, c: np.ndarray, v: np.ndarray) -> np.ndarray:
    return c * v / k


def curve_lengths(ts: TimeSeries, k_max: int) -> np.ndarray:
    """Per-stride lengths L(1..k_max).

    L(k) averages the normalized increment sums (1/k) * C * V over the
    offsets m with at least one increment; it is 0 when every such sum is.
    """
    return _stride_averages(ts, k_max, _length_terms, "length")


def regression_slope(points) -> Tuple[float, float]:
    """Least-squares slope and intercept through a set of (x, y) points.

    slope = sum((x - xbar)(y - ybar)) / sum((x - xbar)^2)

    DomainError for a non-finite point, or for sums that overflow.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise DegenerateRegressionError("need at least two (x, y) points")
    if not np.all(np.isfinite(pts)):
        raise DomainError("regression points must be finite")
    x = pts[:, 0]
    y = pts[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x - x.mean()
        denom = float(np.sum(dx * dx))
        if denom == 0.0:
            raise DegenerateRegressionError("all x coordinates are equal")
        slope = float(np.sum(dx * (y - y.mean())) / denom)
        intercept = float(y.mean() - slope * x.mean())
    if not (math.isfinite(denom) and math.isfinite(slope) and math.isfinite(intercept)):
        raise DomainError("the regression sums overflow in floating point")
    return slope, intercept


def _loglog_fit(values, x_of) -> Tuple[float, Optional[float], Tuple[int, ...], np.ndarray]:
    """Regress log values[k-1] on ``x_of(k)`` over the strides k with a
    nonzero value.

    Returns (slope, intercept, index_set, points).  The zero test is exact:
    tiny nonzero values enter the fit, which is what makes the estimator
    perturbation-sensitive.  With one or zero usable strides the slope falls
    back to 1 and the intercept is None.  DomainError names the first
    stride whose value is negative or not finite.
    """
    vals = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~((vals >= 0.0) & (vals < math.inf)))
    if bad.size:
        raise DomainError(f"the value at stride k={bad[0] + 1} is {float(vals[bad[0]])!r}: need a finite value >= 0")
    nonzero = np.flatnonzero(vals)
    index_set = tuple((nonzero + 1).tolist())
    # math.log, not np.log, which need not round as the C library does
    points = np.column_stack((list(map(x_of, index_set)), list(map(math.log, vals[nonzero].tolist()))))
    if len(index_set) <= 1:
        return 1.0, None, index_set, points
    slope, intercept = regression_slope(points)
    return slope, intercept, index_set, points


def fit_lengths(lengths) -> Tuple[float, Optional[float], Tuple[int, ...], np.ndarray]:
    """Regress log L(k) on log(1/k) over the nonzero-length strides; see
    :func:`_loglog_fit` for the result and the fallback to slope 1."""
    return _loglog_fit(lengths, lambda k: math.log(1.0 / k))


@dataclass(frozen=True)
class HfdResult:
    """Output of the estimator: lengths, usable strides, log-log points,
    regression slope (the dimension) and intercept."""

    n: int
    k_max: int
    lengths: np.ndarray
    index_set: Tuple[int, ...]
    points: np.ndarray
    slope: float
    intercept: Optional[float]
    detail: Optional[Tuple[DetailRow, ...]] = None

    def to_dict(self) -> dict:
        return {
            "N": self.n,
            "k_max": self.k_max,
            "D": self.slope,
            "intercept": self.intercept,
            "I": list(self.index_set),
            "Z": [[float(x), float(y)] for x, y in self.points],
            "L": [float(v) for v in self.lengths],
        }


def hfd(ts: TimeSeries, k_max: int, detail: bool = False) -> HfdResult:
    """Estimate the fractal dimension of a sampled series.

    Parameters
    ----------
    ts : TimeSeries
        The sampled values.
    k_max : int
        Largest stride; (len(ts), k_max) must be admissible.
    detail : bool
        Keep the per-(k, m) table of constants, increment sums and lengths.
    """
    rows = [] if detail else None
    lengths = _stride_averages(ts, k_max, _length_terms, "length", rows)
    return _hfd_result(ts.n, lengths, tuple(rows) if detail else None)


def _hfd_result(n: int, lengths: np.ndarray, detail=None) -> HfdResult:
    """Fit the lengths L(1..k_max) and wrap them in an :class:`HfdResult`."""
    slope, intercept, index_set, points = fit_lengths(lengths)
    return HfdResult(
        n=n,
        k_max=lengths.size,
        lengths=lengths,
        index_set=index_set,
        points=points,
        slope=slope,
        intercept=intercept,
        detail=detail,
    )


def _bumped_results(ts: TimeSeries, k_max, j, eps_values) -> Tuple[HfdResult, List[HfdResult]]:
    """``hfd(ts, k_max)`` and ``hfd(perturb(ts, j, eps), k_max)`` for each
    eps in ``eps_values``, from one table of ``ts``.  ``k_max``, the bump
    index ``j`` and every eps are checked first, in that order, so that a
    refused argument costs no table.  The touched strides, those whose offset
    m = (j-1) mod k + 1 has an increment, are laid out once for every eps.
    """
    k_max = _check_admissible(ts.n, k_max)
    j = _check_index(ts.n, j)
    n = ts.n
    ks = np.arange(1, k_max + 1)
    ms = (j - 1) % ks + 1
    qs = (n - ms) // ks
    keep = qs >= 1
    ks, ms, qs = ks[keep], ms[keep], qs[keep]
    cs = (n - 1) / (qs * ks)  # C(n, k, m) as _stride_averages computes it
    starts = [0, *(np.flatnonzero(np.diff(qs)) + 1).tolist(), ks.size]
    # the samples of the touched subseries: a strided slice for a stride
    # alone, a (q+1)-row index table for a run of strides with an equal q
    layouts = [(slice(ms[a] - 1, ms[a] + qs[a] * ks[a], ks[a]), None) if b == a + 1
               else np.arange(qs[a] + 1)[:, None] * ks[a:b] + (ms[a:b] - 1) for a, b in zip(starts, starts[1:])]
    new_terms = np.empty((len(eps_values), ks.size))
    with np.errstate(over="ignore"):  # overflow surfaces as a non-finite average
        # the touched V(k, m) of each bumped series, before any table: perturb refuses a bad bump
        for e, eps in enumerate(eps_values):
            values = perturb(ts, j, eps).values
            columns = []
            for layout in layouts:
                x = values[layout]
                d = x[1:] - x[:-1]
                np.abs(d, out=d)
                columns.append(_sum_rows(d))
            new_terms[e] = _length_terms(ks, cs, np.concatenate(columns))
        values = None  # the last bumped series is not kept while the table is built
        tables = []
        base = _stride_averages(ts, k_max, _length_terms, "length", tables=tables)
        # each block's tables, one per eps, with the touched cells (k - lo, m - 1) rewritten
        bounds = np.searchsorted(ks, [lo for lo, _, _ in tables] + [k_max + 1]).tolist()
        means = []
        for (lo, count, table), a, b in zip(tables, bounds, bounds[1:]):
            table = np.repeat(table[None], len(new_terms), axis=0)
            table[:, ks[a:b] - lo, ms[a:b] - 1] = new_terms[:, a:b]
            means.append(np.add.accumulate(table, axis=2)[:, :, -1] / count)
    bumped = [_hfd_result(n, _finite(lengths, "length")) for lengths in np.concatenate(means, axis=1)]
    return _hfd_result(n, base), bumped
