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
# series, the mesh sizes of a box-dimension grid, the points of a Higuchi
# partition and the finest grid of a variation trace.  It also bounds the
# points x terms of one Weierstrass call, which builds its terms a chunk at
# a time, and the columns x samples of a box count, which holds one block.
_EVAL_LIMIT = 50_000_000
# Most points a box count or a variation trace hands the signal at once: a
# mesh is evaluated block by block, so its points, values and column
# extremes do not grow with the mesh.
_BLOCK_POINTS = 2**14
# Most rows a large output (a series CSV, a long JSON list) formats into one
# string: it is written block by block, so its text and the Python objects
# behind it do not grow with the table.
_BLOCK_ROWS = 2**13
# str.splitlines breaks lines at these as well as at \n and \r
_OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e"


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
    with np.errstate(over="ignore"):
        bumped = ts.values[j - 1] + eps
    _check_bumped(j, eps, bumped)  # before the copy
    values = ts.values.copy()
    values[j - 1] = bumped
    return TimeSeries(values)


def _check_bumped(j: int, eps: float, bumped: float) -> None:
    """DomainError unless ``bumped``, the value X(j) + eps, is finite."""
    if not np.isfinite(bumped):
        raise DomainError(f"the bumped value X({j}) + {eps!r} is not finite")


def _format_rows(template: str, columns, sep: str = ""):
    """The text ``sep.join(template % row for row in rows)`` of the rows of
    ``columns``, equal-length arrays, in strings of ``_BLOCK_ROWS`` rows."""
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        cells = [column[lo : lo + _BLOCK_ROWS].tolist() for column in columns]
        text = sep.join([template] * len(cells[0])) % tuple(itertools.chain.from_iterable(zip(*cells)))
        yield sep + text if lo else text


def _csv_blocks(ts: TimeSeries):
    """The text of :func:`to_csv_text`: its header line, then its rows in
    blocks of ``_BLOCK_ROWS``."""
    yield ",".join(SERIES_CSV_HEADER) + "\n"
    yield from _format_rows("%d,%.17g,%.17g\n", (np.arange(1, ts.n + 1), ts.grid, ts.values))


def to_csv_text(ts: TimeSeries) -> str:
    """Render as CSV with header ``j,t,x``; floats at 17 significant digits.
    The text is the join of the blocks that :func:`write_csv` writes."""
    return "".join(_csv_blocks(ts))


def write_csv(ts: TimeSeries, path) -> None:
    """Write :func:`to_csv_text` to ``path`` a block of rows at a time."""
    with open(path, "w", newline="") as fh:
        fh.writelines(_csv_blocks(ts))


def from_csv_text(text: str) -> TimeSeries:
    """Parse ``j,t,x`` CSV as written by :func:`to_csv_text`; blank lines are
    skipped.

    Every other line after the header must hold three numbers, ``j`` must
    run 1..N in order and ``t`` must equal (j-1)/(N-1) within
    ``CSV_GRID_TOL``; otherwise DomainError names the first offending line.
    """
    lines = text.splitlines()
    if not lines or _header(lines[0]) != SERIES_CSV_HEADER:
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
    bad_j, bad_t = _off_grid(j, t, n)
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


def _header(line: str) -> tuple:
    return tuple(h.strip() for h in line.split(","))


def _off_grid(j: np.ndarray, t: np.ndarray, n: int):
    """Indices of the rows whose j is not 1..n in order, and of those whose
    t is not (j-1)/(n-1) within ``CSV_GRID_TOL``."""
    return (np.flatnonzero(j != np.arange(1, n + 1)),
            np.flatnonzero(~(np.abs(t - sample_grid(n)) <= CSV_GRID_TOL)))


def read_csv(path) -> TimeSeries:
    """:func:`from_csv_text` of the file's text.

    A file of plain ASCII lines whose rows all pass is parsed by one
    ``np.loadtxt`` given its path, which reads the file in chunks with no
    copy of its text; its lines are then the lines that
    :func:`from_csv_text` splits.  Any other file is read whole and handed
    to :func:`from_csv_text`, which names its fault.
    """
    try:
        table = _plain_table(path)
    except ValueError:  # bytes that are not ASCII, or a row numpy cannot parse
        table = None
    # sample_grid's range: from_csv_text names the fault of any other length
    if table is not None and table.shape[1:] == (3,) and 2 <= len(table) <= _EVAL_LIMIT:
        j, t, x = table.T
        if not any(bad.size for bad in _off_grid(j, t, len(table))):
            return TimeSeries(x)
    with open(path, "r", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"series file {str(path)!r} is not text: {exc}") from None
    return from_csv_text(text)


def _plain_table(path):
    """The rows of a ``j,t,x`` file, parsed by ``np.loadtxt`` from its path;
    None for a file with a character that is one of ``_OTHER_LINE_BREAKS``,
    another header, or no row.  A character other than ASCII raises
    UnicodeDecodeError."""
    with open(path, "r", encoding="ascii") as fh:
        for chunk in iter(lambda: fh.read(2**16), ""):
            if any(c in chunk for c in _OTHER_LINE_BREAKS):
                return None
        fh.seek(0)
        # the header, then a row past blank lines: numpy warns on no rows
        if _header(fh.readline()) != SERIES_CSV_HEADER or not any(line.rstrip("\r\n") for line in fh):
            return None
    return np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=1, encoding="ascii")
