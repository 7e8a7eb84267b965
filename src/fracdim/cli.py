"""Command-line front end: generate series, run the estimators, sweep over
sample counts, reproduce the perturbation experiments, and verify the
package against its frozen expectations.

All commands are deterministic: the same invocation produces byte-identical
output files.  Every output but the series CSV of ``gen`` goes through
:func:`_emit`, which writes shortest round-trip floats and refuses a
non-finite number before anything is written.
"""
from __future__ import annotations

import argparse
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
from .higuchi import ceil_half, hfd
from .series import TimeSeries, read_csv, sample, to_csv_text
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
    if stripped.startswith("{"):
        return spec_from_dict(json.loads(stripped))
    path = Path(text)
    if path.is_file():
        return spec_from_dict(json.loads(path.read_text()))
    raise DomainError(
        f"unknown signal '{text}': expected one of {sorted(NAMED_SIGNALS)}, "
        "an inline JSON object, or a path to a JSON file"
    )


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


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


def _json_text(payload) -> str:
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:  # allow_nan=False refuses a non-finite float
        raise DomainError("the result holds a non-finite number, which JSON cannot represent") from None


def _emit(args, header, rows, payload=None) -> None:
    """Write ``rows`` under ``header`` as CSV, or ``payload`` as JSON; without
    a payload the JSON form is one object per row keyed by the header."""
    if args.format == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_cell(c, v) for c, v in zip(header, row)) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        text = _json_text([dict(zip(header, row)) for row in rows] if payload is None else payload)
    _write_output(text, args.out)


def _load_series(args) -> tuple[TimeSeries, SignalSpec | None]:
    if getattr(args, "input", None):
        if args.signal is not None:
            raise DomainError("pass either --signal or --input, not both")
        return read_csv(args.input), None
    if args.signal is None:
        raise DomainError("pass either --signal or --input")
    if args.n is None:
        raise DomainError("--signal needs --n")
    spec = parse_signal(args.signal)
    return sample(spec, args.n), spec


def _resolve_kmax(args, n: int) -> int:
    if args.kmax_rule == "half":
        return ceil_half(n)
    if args.kmax is None:
        raise DomainError("pass --kmax or use --kmax-rule half")
    return args.kmax


def cmd_gen(args) -> int:
    spec = parse_signal(args.signal)
    ts = sample(spec, args.n)
    if args.format == "csv":
        _write_output(to_csv_text(ts), args.out)
    else:
        payload = {"signal": spec_to_dict(spec), "n": ts.n, "values": [float(v) for v in ts.values]}
        _write_output(_json_text(payload), args.out)
    return 0


def cmd_hfd(args) -> int:
    if args.detail and args.format == "csv":
        raise DomainError("the per-(k, m) detail has only a JSON form: pass --format json, or drop --detail")
    ts, _ = _load_series(args)
    result = hfd(ts, _resolve_kmax(args, ts.n), detail=args.detail)
    payload = result.to_dict()
    if args.detail:
        payload["detail"] = [
            {"k": r.k, "m": r.m, "C": r.c, "V": r.v, "L_m": r.length} for r in result.detail
        ]
    rows = [(k, x, y) for k, (x, y) in zip(result.index_set, result.points)]
    _emit(args, ("k", "log_inv_k", "log_L"), rows, payload)
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
        grid = [int(v) for v in args.n_grid.split(",")]
        rows = variation_convergence_check(spec, args.k, args.m, grid)
        _emit(args, ("N", "V_nkm", "V_PN", "e_N"), rows)
        return 0
    estimate, trace = total_variation_estimate(spec, args.levels)
    rows = [(level, TRACE_BASE_INTERVALS * 2**level, v) for level, v in enumerate(trace)]
    _emit(args, ("level", "intervals", "V"), rows, {"estimate": estimate, "trace": [float(v) for v in trace]})
    return 0


def cmd_stability(args) -> int:
    ts, _ = _load_series(args)
    k_max = _resolve_kmax(args, ts.n)
    if args.eps_grid:
        grid = [float(v) for v in args.eps_grid.split(",")]
        rows = divergence_trace(ts, k_max, args.index, grid)
        # NaN marks a trace row without resurrected strides: a missing value
        rows = [(r.eps, r.d_eps, None if math.isnan(r.min_log_new) else r.min_log_new) for r in rows]
        _emit(args, ("eps", "D_eps", "min_log_L"), rows)
        return 0
    if args.format == "csv":
        raise DomainError(
            "the stability report has only a JSON form: pass --format json, or --eps-grid for a CSV trace"
        )
    report = stability_report(ts, k_max, j=args.index, eps=args.eps)
    _write_output(_json_text(report.to_dict()), args.out)
    return 0


def cmd_sweep(args) -> int:
    spec = parse_signal(args.signal)
    if args.n_grid:
        grid = sorted({int(v) for v in args.n_grid.split(",")})
    else:
        if args.n_min is None or args.n_max is None:
            raise DomainError("pass --n-grid or both --n-min and --n-max")
        grid = list(range(args.n_min, args.n_max + 1, args.n_step))
    rows = []
    for n in grid:
        k_max = _resolve_kmax(args, n)
        rows.append((n, hfd(sample(spec, n), k_max).slope))
    _emit(args, ("N", "D"), rows)
    return 0


def cmd_verify(args) -> int:
    if args.only:
        ids = [int(v) for v in args.only.split(",")]
    else:
        ids = None
    rows = acceptance.run_claims(ids)
    _write_output(acceptance.render_report(rows), args.out)
    return 0 if acceptance.all_passed(rows) else 1


def _add_signal_source(parser, with_input: bool) -> None:
    parser.add_argument("--signal", help="named signal, inline JSON object, or JSON file path")
    if with_input:
        parser.add_argument("--input", help="series CSV produced by gen")
    parser.add_argument("--n", type=int, help="number of samples")


def _add_kmax(parser) -> None:
    parser.add_argument("--kmax", type=int, help="largest stride")
    parser.add_argument(
        "--kmax-rule",
        choices=("fixed", "half"),
        default="fixed",
        help="'half' derives k_max = ceil(N/2) from the series length",
    )


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
    _add_signal_source(p, with_input=True)
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
    p.add_argument("--n-grid", help="comma-separated N values (convergence mode)")
    p.add_argument("--k", type=int, default=2, help="stride for convergence mode")
    p.add_argument("--m", type=int, default=1, help="offset for convergence mode")
    _add_common_output(p, "csv")
    p.set_defaults(func=cmd_tv)

    p = sub.add_parser("stability", help="before/after report for a single-sample bump")
    _add_signal_source(p, with_input=True)
    _add_kmax(p)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--index", type=int, default=DEFAULT_INDEX, help="1-based sample to bump")
    p.add_argument("--eps-grid", help="comma-separated decreasing bump sizes (trace mode)")
    _add_common_output(p, "json")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("sweep", help="dimension estimates over a range of sample counts")
    p.add_argument("--signal", required=True)
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--n-grid", help="comma-separated N values")
    _add_kmax(p)
    _add_common_output(p, "csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the verification claims and report pass/fail")
    p.add_argument("--only", help="comma-separated claim ids (default: all)")
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FracdimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
