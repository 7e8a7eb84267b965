"""Command-line front end: generate series, run the estimators, sweep over
sample counts, reproduce the perturbation experiments, and verify the
package against its frozen expectations.

All commands are deterministic: the same invocation produces byte-identical
output files.  Tables go through :func:`_emit`, and the large ones, the
series of ``gen`` and the per-(k, m) table of ``hfd --detail``, are written
a block of rows at a time.  Floats are written in shortest round-trip form,
the series CSV's at 17 significant digits, and a non-finite number is
refused before anything is written.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .errors import DomainError, FracdimError
from .geometry import (
    DEFAULT_DELTA_MAX,
    DEFAULT_DELTA_MIN,
    DEFAULT_LEVELS,
    DEFAULT_SAMPLES_PER_COLUMN,
    box_dim_estimate,
)
from .higuchi import _check_admissible, _check_detail_rows, ceil_half, hfd
from .series import (TimeSeries, _check_bumped, _check_index, _check_sample_count, _csv_blocks, _format_rows,
                     read_csv, sample)
from .signals import (
    Affine,
    Alternating,
    Constant,
    Oscillation,
    PeriodicInterp,
    SignalSpec,
    Weierstrass,
    spec_from_dict,
    spec_to_dict,
)
from .stability import (
    DEFAULT_EPS,
    DEFAULT_INDEX,
    DEMO_ALTERNATING,
    DEMO_PERIODIC_COEFFS,
    _check_eps_grid,
    divergence_trace,
    stability_report,
)
from .variation import TRACE_BASE_INTERVALS, total_variation_estimate, variation_convergence_check

NAMED_SIGNALS = {
    "weierstrass": Weierstrass(5.0, 1.7),
    "oscillation": Oscillation(20.0),
    "affine": Affine(2.0, 1.0),
    "constant": Constant(1.0),
    "alternating": Alternating(*DEMO_ALTERNATING),
    "periodic": PeriodicInterp(DEMO_PERIODIC_COEFFS),
}


def parse_signal(text: str) -> SignalSpec:
    """Accept a named signal, an inline JSON object, or a path to a JSON file."""
    if text in NAMED_SIGNALS:
        return NAMED_SIGNALS[text]
    stripped = text.strip()
    inline = stripped.startswith("{")
    if not inline and not Path(text).is_file():
        raise DomainError(
            f"unknown signal '{text}': expected one of {sorted(NAMED_SIGNALS)}, "
            "an inline JSON object, or a path to a JSON file"
        )
    try:
        data = json.loads(stripped if inline else Path(text).read_text())
    except ValueError as exc:  # malformed JSON or a file that is not text
        raise DomainError(f"signal '{text}' is not valid JSON: {exc}") from None
    return spec_from_dict(data)


# one row of the "detail" list of hfd --detail as json.dumps(..., indent=2) writes it
_DETAIL_ROW = '    {\n      "k": %d,\n      "m": %d,\n      "C": %r,\n      "V": %r,\n      "L_m": %r\n    }'


def _write_output(blocks, out: str | None) -> None:
    """Write the strings ``blocks`` one after another to the file ``out``,
    or to stdout when ``out`` is None or ``-``."""
    if out is None or out == "-":
        sys.stdout.writelines(blocks)
    else:
        with open(out, "w", newline="") as fh:
            fh.writelines(blocks)


def _cell(column: str, value) -> str:
    """One CSV cell: an int as is, a float in shortest round-trip form, and
    None, the marker of a missing value, as ``nan``."""
    if value is None:
        return "nan"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if not math.isfinite(x):
        raise DomainError(f"column {column} holds the non-finite value {x!r}")
    return repr(x)


def _emit(args, header, rows, payload=None) -> None:
    """Write ``rows`` under ``header`` as CSV, or ``payload`` as JSON; without
    a payload the JSON form is one object per row keyed by the header."""
    if args.format == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_cell(c, v) for c, v in zip(header, row)) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        text = _json_text([dict(zip(header, row)) for row in rows] if payload is None else payload) + "\n"
    _write_output([text], args.out)


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2)``; DomainError for a non-finite number."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:  # allow_nan=False refuses a non-finite float
        raise DomainError("the result holds a non-finite number, which JSON cannot represent") from None


def _json_blocks(payload: dict, key: str, template: str, columns):
    """The text of ``json.dumps({**payload, key: items}, indent=2)`` and a
    newline, in blocks, where ``items``, never empty, holds the rows of
    ``columns`` each formatted by ``template`` as ``json.dumps`` would.
    Every number is checked before this returns, so before any is written."""
    if not all(np.isfinite(column).all() for column in columns):
        raise DomainError("the result holds a non-finite number, which JSON cannot represent")
    head = _json_text({**payload, key: []})  # ends in '"key": []\n}'
    return itertools.chain([head[:-3] + "\n"], _format_rows(template, columns, ",\n"), ["\n  ]\n}\n"])


def _load_series(args, index=None, eps=None, detail=False) -> TimeSeries:
    """The series of --input, or of --signal sampled at --n.  Before a signal
    is sampled, --kmax, the rows of a ``detail`` table and a bump ``index``
    are checked against --n, in that order, and then a bump size ``eps``."""
    if args.input:
        if args.signal is not None:
            raise DomainError("pass either --signal or --input, not both")
        return read_csv(args.input)
    if args.signal is None:
        raise DomainError("pass either --signal or --input")
    if args.n is None:
        raise DomainError("--signal needs --n")
    spec = parse_signal(args.signal)
    n = _check_sample_count(args.n)
    _check_admissible(n, _kmax(args, n))
    if detail:
        _check_detail_rows(n, _kmax(args, n))
    if index is not None:
        _check_index(n, index)
    if eps is not None:
        # a finite X(j) plus a non-finite eps is never finite
        _check_bumped(index, eps, eps)
    return sample(spec, n)


def _kmax(args, n: int) -> int:
    """k_max for n samples: --kmax, where ``half`` stands for ceil(n/2)."""
    return ceil_half(n) if args.kmax == "half" else args.kmax


def cmd_gen(args) -> int:
    spec = parse_signal(args.signal)
    ts = sample(spec, args.n)
    if args.format == "csv":
        _write_output(_csv_blocks(ts), args.out)
    else:
        _write_output(_json_blocks({"signal": spec_to_dict(spec), "n": ts.n}, "values", "    %r", [ts.values]), args.out)
    return 0


def cmd_hfd(args) -> int:
    if args.detail and args.format == "csv":
        raise DomainError("the per-(k, m) detail has only a JSON form: pass --format json, or drop --detail")
    ts = _load_series(args, detail=args.detail)
    result = hfd(ts, _kmax(args, ts.n), detail=args.detail)
    if args.detail:
        _write_output(_json_blocks(result.to_dict(), "detail", _DETAIL_ROW, list(result.detail.values())), args.out)
        return 0
    rows = [(k, x, y) for k, (x, y) in zip(result.index_set, result.points)]
    _emit(args, ("k", "log_inv_k", "log_L"), rows, result.to_dict())
    return 0


def cmd_boxdim(args) -> int:
    spec = parse_signal(args.signal)
    result = box_dim_estimate(
        spec,
        delta_min=args.delta_min,
        delta_max=args.delta_max,
        levels=args.levels,
        samples_per_column=args.samples_per_column,
        n_samples=args.n,
    )
    rows = zip(result.deltas, result.counts, result.areas)
    _emit(args, ("delta", "M", "A"), rows, result.to_dict())
    return 0


def cmd_tv(args) -> int:
    spec = parse_signal(args.signal)
    if args.n_grid:
        rows = variation_convergence_check(spec, args.k, args.m, args.n_grid)
        _emit(args, ("N", "V_nkm", "V_PN", "e_N"), rows)
        return 0
    estimate, trace = total_variation_estimate(spec, args.levels)
    rows = [(level, TRACE_BASE_INTERVALS * 2**level, v) for level, v in enumerate(trace)]
    _emit(args, ("level", "intervals", "V"), rows, {"estimate": estimate, "trace": [float(v) for v in trace]})
    return 0


def cmd_stability(args) -> int:
    if args.eps_grid:
        _check_eps_grid(args.eps_grid)
    elif args.format == "csv":
        raise DomainError(
            "the stability report has only a JSON form: pass --format json, or --eps-grid for a CSV trace"
        )
    # --eps is unused in trace mode
    ts = _load_series(args, args.index, None if args.eps_grid else args.eps)
    k_max = _kmax(args, ts.n)
    if args.eps_grid:
        rows = divergence_trace(ts, k_max, args.index, args.eps_grid)
        # NaN marks a trace row without resurrected strides: a missing value
        rows = [(r.eps, r.d_eps, None if math.isnan(r.min_log_new) else r.min_log_new) for r in rows]
        _emit(args, ("eps", "D_eps", "min_log_L"), rows)
        return 0
    _emit(args, (), (), stability_report(ts, k_max, j=args.index, eps=args.eps).to_dict())
    return 0


def cmd_sweep(args) -> int:
    spec = parse_signal(args.signal)
    grid = sorted(set(args.n_grid))
    if not grid:
        raise DomainError("--n-grid holds no N")
    # the grid's extremes (the larger first) and --kmax at every N are refused before any N is sampled
    for n in (grid[-1], grid[0]):
        _check_sample_count(n)
    for n in grid:
        _check_admissible(n, _kmax(args, n))
    rows = [(n, hfd(sample(spec, n), _kmax(args, n)).slope) for n in grid]
    _emit(args, ("N", "D"), rows)
    return 0


def cmd_verify(args) -> int:
    rows = acceptance.run_claims(args.only or None)
    _write_output([acceptance.render_report(rows)], args.out)
    return 0 if acceptance.all_passed(rows) else 1


def _comma_list(convert, what: str):
    """An argparse ``type`` that reads comma-separated values; the empty
    string gives an empty list."""

    def parse(text: str) -> list:
        try:
            return [convert(v) for v in text.split(",")] if text else []
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from None

    return parse


_INT_LIST = _comma_list(int, "integers")
_FLOAT_LIST = _comma_list(float, "numbers")


def _add_signal_source(parser) -> None:
    parser.add_argument("--signal", help="named signal, inline JSON object, or JSON file path")
    parser.add_argument("--input", help="series CSV produced by gen")
    parser.add_argument("--n", type=int, help="number of samples")


def _kmax_value(text: str):
    """An argparse ``type`` for --kmax: an integer, or ``half``."""
    try:
        return text if text == "half" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'half', got {text!r}") from None


def _add_kmax(parser) -> None:
    parser.add_argument("--kmax", type=_kmax_value, required=True, help="largest stride, or 'half' for ceil(N/2)")


def _add_common_output(parser, default_format: str) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default=default_format)
    parser.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracdim",
        description="Fractal dimension estimation for sampled functions on [0, 1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a signal into a series file")
    p.add_argument("--signal", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common_output(p, "csv")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("hfd", help="estimate the dimension of a series")
    _add_signal_source(p)
    _add_kmax(p)
    p.add_argument("--detail", action="store_true", help="include the per-(k, m) table")
    _add_common_output(p, "json")
    p.set_defaults(func=cmd_hfd)

    p = sub.add_parser("boxdim", help="mesh box-counting dimension of a signal graph")
    p.add_argument("--signal", required=True)
    p.add_argument("--n", type=int, help="sample count anchoring grid-defined signals")
    p.add_argument("--delta-min", type=float, default=DEFAULT_DELTA_MIN)
    p.add_argument("--delta-max", type=float, default=DEFAULT_DELTA_MAX)
    p.add_argument("--levels", type=int, default=DEFAULT_LEVELS)
    p.add_argument("--samples-per-column", type=int, default=DEFAULT_SAMPLES_PER_COLUMN)
    _add_common_output(p, "csv")
    p.set_defaults(func=cmd_boxdim)

    p = sub.add_parser("tv", help="total-variation estimate or convergence table")
    p.add_argument("--signal", required=True)
    p.add_argument("--levels", type=int, default=12, help="trace levels (estimate mode)")
    p.add_argument("--n-grid", type=_INT_LIST, help="comma-separated N values (convergence mode)")
    p.add_argument("--k", type=int, default=2, help="stride for convergence mode")
    p.add_argument("--m", type=int, default=1, help="offset for convergence mode")
    _add_common_output(p, "csv")
    p.set_defaults(func=cmd_tv)

    p = sub.add_parser("stability", help="before/after report for a single-sample bump")
    _add_signal_source(p)
    _add_kmax(p)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--index", type=int, default=DEFAULT_INDEX, help="1-based sample to bump")
    p.add_argument("--eps-grid", type=_FLOAT_LIST, help="comma-separated decreasing bump sizes (trace mode)")
    _add_common_output(p, "json")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("sweep", help="dimension estimates over a grid of sample counts")
    p.add_argument("--signal", required=True)
    p.add_argument("--n-grid", type=_INT_LIST, required=True, help="comma-separated N values")
    _add_kmax(p)
    _add_common_output(p, "csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the verification claims and report pass/fail")
    p.add_argument("--only", type=_INT_LIST, help="comma-separated claim ids (default: all)")
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FracdimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
