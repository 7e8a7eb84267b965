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
by :func:`_stride_averages` from one (k, m, q, C, V) table, in blocks of
consecutive strides of at most ``_BLOCK_CELLS`` (k, m) cells cut into runs
of strides that share the full-row count f = (N-k)//k, both drawn in one
walk over the strides (:func:`_stride_blocks`).  Per block, a few vectorised
calls give every cell's m, q, C and term, and one ``tolist`` hands the terms
to Python.  A run's V columns (a lone stride is a run of one) come from one
table, its strides' (f+2, k) sample tables side by side, read from the
series padded with NaN (:func:`_run_columns`): its row differences hold
every increment and its padding adds +0.0.  At the paper's sizes (N of a few
hundred, k_max = ceil(N/2)) most strides have one to four increments per
offset, and one table per run in place of one per stride saves about 40% of
the V stage (N = 340).

The summation order is fixed, because the exact zero test on L(k) and the
frozen golden values depend on every bit: each V(k, m) is a sequential
column sum over i = 1..q, the order of :func:`variation_sum`, taken by
:func:`_sum_rows`, a reduction along the slow axis of a table with one row
per i (a single column, which is the fast axis, is accumulated instead),
and each per-stride average is the Python ``sum`` of the terms in ascending
m (:func:`_stride_mean`); neither the blocks nor the runs change a bit.
From Python 3.12 on ``sum`` of floats is compensated, so no numpy reduction
could stand in for it on every supported interpreter.  A non-finite length
or area, which finite values reach only through overflow, raises
:class:`DomainError` naming the stride.

The bump experiments of :mod:`fracdim.stability` run through
:func:`_bumped_results`, which builds the unperturbed table once and keeps
every length term.  A bump at sample j changes one offset per stride,
m = (j-1) mod k + 1, so only that column V(k, m) is recomputed per stride.
The samples it reads are laid out once per call, whatever the bump size:
one (q+1)-row index table per run of strides with an equal count q, a
strided slice for a stride alone.  Each bump sums their row differences by
the same :func:`_sum_rows`, and the new term stands in for the old one
while :func:`_stride_mean` averages the stride again: bit-identical to
:func:`hfd` of the bumped series.
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


def _stride_mean(k: int, terms: list, what: str) -> float:
    """Python ``sum`` of stride k's terms, in ascending m, over their count.
    ``what`` names the averaged quantity in the DomainError raised for a
    non-finite average."""
    mean = sum(terms) / len(terms)
    if not math.isfinite(mean):
        raise DomainError(
            f"the {what} at stride k={k} is not finite: the series overflows in floating point"
        )
    return mean


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


def _stride_averages(ts: TimeSeries, k_max: int, term, what: str, rows=None, kept=None) -> np.ndarray:
    """Per-stride averages of ``term(k, C, V)`` over the offsets with an
    increment, k = 1..k_max; each (k, m) row is appended to ``rows`` and
    each stride's list of terms to ``kept`` when given.  ``term`` is applied
    to the per-cell arrays of a whole block of strides at once."""
    k_max = _check_admissible(ts.n, k_max)
    n = ts.n
    padded = np.concatenate([ts.values, np.full(k_max, np.nan)])
    out = []
    with np.errstate(over="ignore"):  # overflow surfaces as a non-finite average
        for runs in _stride_blocks(n, k_max):
            lo, hi = runs[0][0], runs[-1][1]
            ks = np.arange(lo, hi)
            count = np.minimum(ks, n - ks)  # the offsets m <= n - k, those with q >= 1
            ends = np.cumsum(count)
            k = np.repeat(ks, count)
            m = np.arange(1, ends[-1] + 1) - np.repeat(ends - count, count)
            c = (n - 1) / ((n - m) // k * k)
            columns = [_run_columns(padded, a, b, f) for a, b, f in runs]
            # drops the column of the one offset without an increment (f = 0)
            v = np.concatenate(columns)[: ends[-1]]
            terms = term(k, c, v).tolist()
            start = 0
            for s, end in zip(range(lo, hi), ends.tolist()):
                out.append(_stride_mean(s, terms[start:end], what))
                if kept is not None:
                    kept.append(terms[start:end])
                start = end
            if rows is not None:
                rows.extend(map(DetailRow._make, zip(k.tolist(), m.tolist(), c.tolist(), v.tolist(), terms)))
    return np.array(out)


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
    vals = np.asarray(values, dtype=float).tolist()
    for k, value in enumerate(vals, 1):
        if not 0.0 <= value < math.inf:
            raise DomainError(f"the value at stride k={k} is {value!r}: need a finite value >= 0")
    index_set = tuple(k for k, value in enumerate(vals, 1) if value != 0.0)
    points = np.array(
        [(x_of(k), math.log(vals[k - 1])) for k in index_set]
    ).reshape(len(index_set), 2)
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
    eps in ``eps_values``, from one table of ``ts``.  ``k_max`` and the bump
    index ``j`` are checked first, in that order, so that a refused index
    costs no table.  The touched strides, those whose offset
    m = (j-1) mod k + 1 has an increment, are laid out once for every eps.
    """
    k_max = _check_admissible(ts.n, k_max)
    j = _check_index(ts, j)
    n = ts.n
    terms: List[List[float]] = []
    lengths = _stride_averages(ts, k_max, _length_terms, "length", kept=terms)
    ks = np.arange(1, k_max + 1)
    ms = (j - 1) % ks + 1
    qs = (n - ms) // ks
    keep = qs >= 1
    ks, ms, qs = ks[keep], ms[keep], qs[keep]
    cs = (n - 1) / (qs * ks)  # C(n, k, m) as _stride_averages computes it
    cells = list(zip(ks.tolist(), ms.tolist(), qs.tolist()))
    rows = np.arange(n)[:, None]  # stride 1 has the most increments, n - 1
    starts = [0, *(np.flatnonzero(np.diff(qs)) + 1).tolist()]
    layouts = []
    for a, b in zip(starts, starts[1:] + [ks.size]):
        k, m, q = cells[a]
        if b == a + 1:
            layouts.append((slice(m - 1, m + q * k, k), None))
        else:
            layouts.append(rows[: q + 1] * ks[a:b] + (ms[a:b] - 1))
    bumped = []
    for eps in eps_values:
        values = perturb(ts, j, eps).values
        out = lengths.copy()
        with np.errstate(over="ignore"):  # overflow surfaces as a non-finite average
            columns = []
            for t in layouts:
                x = values[t]
                d = x[1:] - x[:-1]
                np.abs(d, out=d)
                columns.append(_sum_rows(d))
            new_terms = _length_terms(ks, cs, np.concatenate(columns))
        for (k, m, _), term in zip(cells, new_terms.tolist()):
            row = terms[k - 1]
            old, row[m - 1] = row[m - 1], term
            out[k - 1] = _stride_mean(k, row, "length")
            row[m - 1] = old
        bumped.append(_hfd_result(n, out))
    return _hfd_result(n, lengths), bumped
