"""Uniformly sampled time series on [0, 1] and single-sample perturbations.

A series of length N holds the values X(1), ..., X(N) of a function sampled
at t = (j-1)/(N-1).  Storage is 0-based; every public argument named ``j``
uses the 1-based convention.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import AdmissibilityError, DomainError

if TYPE_CHECKING:
    from .signals import SignalSpec

SERIES_CSV_HEADER = ("j", "t", "x")
CSV_GRID_TOL = 1e-9
# Most array elements one evaluation may hold in memory: the samples of a
# series, the points x terms of a Weierstrass sum, the columns x samples of
# a box count, the mesh sizes of a box-dimension grid, the points of a
# Higuchi partition and the finest grid of a variation trace.
_EVAL_LIMIT = 50_000_000


def _integer(value, name: str, error) -> int:
    """``value`` as an int; ``error`` naming ``name`` unless it is an integer
    other than a bool (numpy integers pass)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def _check_sample_count(n) -> int:
    """``n`` as an int; AdmissibilityError unless it is an integer (not a
    bool) with 2 <= n <= ``_EVAL_LIMIT``."""
    n = _integer(n, "sample count n", AdmissibilityError)
    if n < 2:
        raise AdmissibilityError(f"need at least 2 samples, got n={n}")
    if n > _EVAL_LIMIT:
        raise AdmissibilityError(f"need at most {_EVAL_LIMIT} samples, got n={n}")
    return n


def sample_grid(n: int) -> np.ndarray:
    """Grid points (j-1)/(n-1) for j = 1..n as an exact integer/integer division."""
    n = _check_sample_count(n)
    return np.arange(n, dtype=float) / (n - 1)


@dataclass(frozen=True)
class TimeSeries:
    """Immutable vector of sampled values X(1..N), N >= 2, all finite."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size < 2:
            raise AdmissibilityError("a time series needs at least 2 values")
        if not np.all(np.isfinite(arr)):
            raise DomainError("time series values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def grid(self) -> np.ndarray:
        return sample_grid(self.n)

    def __len__(self) -> int:
        return self.values.size


def sample(spec: "SignalSpec", n: int) -> TimeSeries:
    """Sample a signal at the n uniform grid points of [0, 1]."""
    n = _check_sample_count(n)
    return TimeSeries(spec.sample_values(n))


def _check_index(n: int, j) -> int:
    """``j`` as an int; DomainError unless it is an integer (not a bool) in
    1..n."""
    j = _integer(j, "index j", DomainError)
    if not 1 <= j <= n:
        raise DomainError(f"index j={j} outside 1..{n}")
    return j


def perturb(ts: TimeSeries, j: int, eps: float) -> TimeSeries:
    """Return a copy of ``ts`` with value j (1-based) increased by ``eps``.

    Every other entry is bit-identical to the input.
    """
    j = _check_index(ts.n, j)
    values = ts.values.copy()
    with np.errstate(over="ignore"):
        values[j - 1] += eps
    if not np.isfinite(values[j - 1]):
        raise DomainError(f"the bumped value X({j}) + {eps!r} is not finite")
    return TimeSeries(values)


def to_csv_text(ts: TimeSeries) -> str:
    """Render as CSV with header ``j,t,x``; floats at 17 significant digits."""
    rows = zip(range(1, ts.n + 1), ts.grid.tolist(), ts.values.tolist())
    body = ("%d,%.17g,%.17g\n" * ts.n) % tuple(itertools.chain.from_iterable(rows))
    return ",".join(SERIES_CSV_HEADER) + "\n" + body


def write_csv(ts: TimeSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(to_csv_text(ts))


def from_csv_text(text: str) -> TimeSeries:
    """Parse ``j,t,x`` CSV as written by :func:`to_csv_text`; blank lines are
    skipped.

    Every other line after the header must hold three numbers, ``j`` must
    run 1..N in order and ``t`` must equal (j-1)/(N-1) within
    ``CSV_GRID_TOL``; otherwise DomainError names the first offending line.
    """
    lines = text.splitlines()
    if not lines or tuple(h.strip() for h in lines[0].split(",")) != SERIES_CSV_HEADER:
        raise DomainError(f"expected header {','.join(SERIES_CSV_HEADER)}")
    body = [line for line in lines[1:] if line]
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2) if body else np.empty((0, 3))
    except ValueError:
        raise _malformed_row(lines) from None
    if table.shape[1] != 3:
        raise _malformed_row(lines)
    j, t, x = table.T
    ts = TimeSeries(x)
    n = ts.n
    bad_j = np.flatnonzero(j != np.arange(1, n + 1))
    bad_t = np.flatnonzero(~(np.abs(t - ts.grid) <= CSV_GRID_TOL))
    if bad_j.size or bad_t.size:
        i = int(bad_j[0] if bad_j.size else bad_t[0])
        expected = f"j = {i + 1}" if bad_j.size else f"t = {i}/{n - 1} within {CSV_GRID_TOL:g}"
        lineno = [no for no, line in enumerate(lines, start=1) if line][i + 1]
        raise DomainError(f"series row at line {lineno}: {body[i]!r}, expected {expected} (N = {n})")
    return ts


def _malformed_row(lines) -> DomainError:
    """The error naming the first body line that is not three numbers."""
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        row = line.split(",")
        try:
            if len(row) != 3:
                raise ValueError
            for cell in row:
                float(cell)
        except ValueError:
            return DomainError(f"malformed series row at line {lineno}: {row!r}")
    return DomainError("malformed series CSV: a value is not a plain decimal number")


def read_csv(path) -> TimeSeries:
    with open(path, "r", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"series file {str(path)!r} is not text: {exc}") from None
    return from_csv_text(text)
