"""Seeded op lists for the three workloads, and the check of every op.

An op is one call into the program that the benchmark times.  Each op knows
how to run itself, how to fingerprint its output (so repeated runs can be
compared cheaply), what its reference is, how to check an output against
that reference, and which work counts its inputs imply.  Inputs are made
from the seed only; the program receives the generated inputs and nothing
else.

Op costs are fixed by each slot's sizes (N, k_max, mesh, levels), which do
not depend on the seed; the seed moves only values, so the work of an op
list and every work count derived from sizes are the same for all seeds.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from fracdim import cli, geometry, higuchi, series, signals, stability, variation
from fracdim.series import TimeSeries

import oracle

SAMPLING_GATE = 1e-2  # catches a wrong formula, not the float precision floor
PARTITION_TOL = 1e-12
CLOSED_FORM_TOL = 1e-15
MP_POINTS = 6


def _bits(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=float).tobytes()).hexdigest()


def _same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_float(a, b) -> bool:
    return (a is None and b is None) or (
        a is not None and b is not None and _same_bits([a], [b])
    )


def _file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _reject_constant(token):
    raise ValueError(f"invalid JSON number {token}")


def strict_json(text: str):
    """Parse JSON, refusing the NaN and Infinity tokens Python would accept."""
    return json.loads(text, parse_constant=_reject_constant)


def _spec_key(spec) -> str:
    """A signal's parameters plus a digest of its values on a fixed grid, so
    a reference built from the signal's values is not reused once the
    program evaluates the signal differently."""
    probe = np.arange(257) / 256
    return f"{json.dumps(signals.spec_to_dict(spec))}:{_bits(spec.evaluate(probe))}"


ORACLE_DIGEST = hashlib.sha256(Path(oracle.__file__).read_bytes()).hexdigest()[:16]


class OracleStore:
    """Reference results cached on disk per workload and seed.

    Keys carry a digest of the input values, so a cached entry can never be
    used for different inputs, even after the program's sampling changes.
    The file name carries a digest of ``oracle.py``, so a changed oracle
    starts a new cache.
    """

    def __init__(self, cache_dir: Optional[str], name: str = ""):
        self.path = os.path.join(cache_dir, f"{name}-{ORACLE_DIGEST}.json") if cache_dir else None
        self.data: Dict[str, object] = {}
        self.dirty = False
        if self.path and os.path.exists(self.path):
            with open(self.path) as fh:
                self.data = json.load(fh)

    def get(self, key: str, compute):
        if key not in self.data:
            self.data[key] = compute()
            self.dirty = True
        return self.data[key]

    def tables(self, values: np.ndarray, k_max: int):
        def compute():
            lengths, areas = oracle.length_tables(values, k_max)
            return {"L": lengths.tolist(), "A": areas.tolist()}

        entry = self.get(f"tables:{_bits(values)}:{k_max}", compute)
        return np.array(entry["L"]), np.array(entry["A"])

    def box_counts(self, spec, deltas) -> List[int]:
        key = f"box:{_spec_key(spec)}:{_bits(deltas)}"
        return self.get(key, lambda: oracle.box_counts(
            spec.evaluate, deltas, geometry.DEFAULT_SAMPLES_PER_COLUMN))

    def variation_trace(self, spec, levels: int) -> np.ndarray:
        key = f"tv:{_spec_key(spec)}:{levels}"
        return np.array(self.get(key, lambda: oracle.dyadic_variation_trace(
            spec.evaluate, variation.TRACE_BASE_INTERVALS, levels)))

    def weierstrass(self, lam: float, s: float, points) -> np.ndarray:
        key = f"mp:{lam!r}:{s!r}:{_bits(points)}"
        return np.array(self.get(key, lambda: oracle.weierstrass_reference(lam, s, points)))

    def save(self) -> None:
        if self.path and self.dirty:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            tmp = self.path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(self.data, fh)
            os.replace(tmp, self.path)
            self.dirty = False


def _hfd_problems(label, lengths, slope, intercept, index_set, expected_lengths) -> List[str]:
    exp_slope, exp_intercept, exp_index, _ = oracle.fit_lengths(expected_lengths)
    problems = []
    if not _same_bits(lengths, expected_lengths):
        problems.append(f"{label}: lengths differ from the reference loop")
    if not _same_float(slope, exp_slope):
        problems.append(f"{label}: slope {slope!r} != reference {exp_slope!r}")
    if not _same_float(intercept, exp_intercept):
        problems.append(f"{label}: intercept {intercept!r} != reference {exp_intercept!r}")
    if tuple(index_set) != exp_index:
        problems.append(f"{label}: usable strides differ from the reference")
    return problems


def _stride_usage(lengths) -> int:
    return int(np.count_nonzero(np.asarray(lengths) != 0.0))


class Op:
    """Base class; subclasses set ``kind`` and implement the hooks."""

    kind = "op"

    def describe(self) -> dict:
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def fingerprint(self, out) -> str:
        raise NotImplementedError

    def reference(self, store: OracleStore):
        return None

    def check(self, out, ref) -> List[str]:
        raise NotImplementedError

    def samples(self):
        """(lam, s, points, values) of Weierstrass samples the op's inputs or
        outputs hold at seeded points, or None.  Called after timing."""
        return None

    def counts(self, ref) -> Dict[str, float]:
        return {}


def sampling_deviation(op: Op, store: OracleStore) -> Optional[float]:
    """Largest |sample - multi-precision reference| over the op's samples."""
    samples = op.samples()
    if samples is None:
        return None
    lam, s, points, values = samples
    return float(np.max(np.abs(np.asarray(values) - store.weierstrass(lam, s, points))))


def _hfd_counts(calls) -> Dict[str, float]:
    """Work implied by estimator calls given as (n, k_max, usable strides)."""
    out = {"higuchi.km_pairs": 0, "higuchi.increments": 0, "higuchi.usable": 0, "higuchi.strides": 0}
    for n, k_max, usable in calls:
        pairs, increments = oracle.km_counts(n, k_max)
        out["higuchi.km_pairs"] += pairs
        out["higuchi.increments"] += increments
        out["higuchi.usable"] += usable
        out["higuchi.strides"] += k_max
    return out


class SeriesInput:
    """A series sampled during set-up, with the seeded points at which its
    Weierstrass samples are compared with the multi-precision reference."""

    def __init__(self, label: str, ts: TimeSeries, weierstrass=None, check_indices=()):
        self.label = label
        self.ts = ts
        self.weierstrass = weierstrass
        self.check_indices = np.asarray(check_indices, dtype=int)

    def samples(self):
        if self.weierstrass is None:
            return None
        n = self.ts.n
        points = np.array([(j - 1) / (n - 1) for j in self.check_indices])
        return (*self.weierstrass, points, self.ts.values[self.check_indices - 1])


class HfdOp(Op):
    kind = "hfd"

    def __init__(self, source: SeriesInput, k_max: int):
        self.source = source
        self.k_max = k_max

    def describe(self):
        return {"kind": self.kind, "series": self.source.label, "n": self.source.ts.n,
                "k_max": self.k_max, "values": _bits(self.source.ts.values)}

    def run(self):
        return higuchi.hfd(self.source.ts, self.k_max)

    def fingerprint(self, out):
        return f"{_bits(out.lengths)}:{out.slope!r}:{out.intercept!r}:{out.index_set}"

    def reference(self, store):
        return store.tables(self.source.ts.values, self.k_max)

    def check(self, out, ref):
        lengths, _ = ref
        return _hfd_problems("hfd", out.lengths, out.slope, out.intercept, out.index_set, lengths)

    def samples(self):
        return self.source.samples()

    def counts(self, ref):
        return _hfd_counts([(self.source.ts.n, self.k_max, _stride_usage(ref[0]))])


class GeometricHfdOp(HfdOp):
    kind = "geometric_hfd"

    def run(self):
        return geometry.geometric_hfd(self.source.ts, self.k_max)

    def fingerprint(self, out):
        return repr(out)

    def reference(self, store):
        _, areas = store.tables(self.source.ts.values, self.k_max)
        return oracle.geometric_dimension(areas, self.source.ts.n)

    def check(self, out, ref):
        if not _same_float(out, ref):
            return [f"geometric_hfd: {out!r} != reference {ref!r}"]
        return []

    def counts(self, ref):
        return {}


def _bumped(values: np.ndarray, eps: float) -> np.ndarray:
    bumped = values.copy()
    bumped[0] += eps
    return bumped


def _resurrection_problems(label, n, base_lengths, pert_lengths, eps_eff) -> List[str]:
    """Every stride that only the bumped series uses must have the closed-form
    length C(n, k, 1) * eps / k**2, to 1e-15 relative.  The form averages
    over all k offsets, so it applies where each offset has an increment
    (n >= 2k); at k = ceil(n/2) for odd n the last offset is excluded."""
    problems = []
    new = [k for k in range(1, len(base_lengths) + 1)
           if base_lengths[k - 1] == 0.0 and pert_lengths[k - 1] != 0.0]
    if not new:
        problems.append(f"{label}: the bump resurrected no stride")
    for k in new:
        if n < 2 * k:
            continue
        predicted = oracle.closed_form_length(n, k, eps_eff)
        rel = abs(pert_lengths[k - 1] - predicted) / predicted
        if not rel <= CLOSED_FORM_TOL:
            problems.append(f"{label}: stride {k} length off the closed form by {rel:.3g}")
    return problems


class StabilityOp(HfdOp):
    """``stability_report`` at j = 1 on a grid-defined series whose period
    leaves exactly-zero strides for the bump to resurrect."""

    kind = "stability_report"

    def __init__(self, source: SeriesInput, k_max: int, eps: float):
        super().__init__(source, k_max)
        self.eps = eps

    def describe(self):
        return {**super().describe(), "eps": self.eps}

    def run(self):
        return stability.stability_report(self.source.ts, self.k_max, j=1, eps=self.eps)

    def fingerprint(self, out):
        return (f"{_bits(out.base.lengths)}:{_bits(out.perturbed.lengths)}:{out.delta_d!r}:"
                f"{_bits(out.new_points)}:{out.vanished}")

    def reference(self, store):
        values = self.source.ts.values
        base, _ = store.tables(values, self.k_max)
        pert, _ = store.tables(_bumped(values, self.eps), self.k_max)
        return base, pert

    def check(self, out, ref):
        base, pert = ref
        values = self.source.ts.values
        problems = _hfd_problems("base", out.base.lengths, out.base.slope, out.base.intercept,
                                 out.base.index_set, base)
        problems += _hfd_problems("perturbed", out.perturbed.lengths, out.perturbed.slope,
                                  out.perturbed.intercept, out.perturbed.index_set, pert)
        b_slope, _, b_index, _ = oracle.fit_lengths(base)
        p_slope, _, p_index, p_points = oracle.fit_lengths(pert)
        if not _same_float(out.delta_d, p_slope - b_slope):
            problems.append("delta_D differs from the reference")
        rows = [i for i, k in enumerate(p_index) if k not in set(b_index)]
        if not _same_bits(out.new_points, p_points[rows].reshape(len(rows), 2)):
            problems.append("new points differ from the reference")
        if tuple(out.vanished) != tuple(k for k in b_index if k not in set(p_index)):
            problems.append("vanished strides differ from the reference")
        eps_eff = (values[0] + self.eps) - values[0]
        problems += _resurrection_problems("report", values.size, base, pert, eps_eff)
        return problems

    def counts(self, ref):
        base, pert = ref
        n = self.source.ts.n
        out = _hfd_counts([(n, self.k_max, _stride_usage(base)), (n, self.k_max, _stride_usage(pert))])
        out["stability.hfd_calls"] = 2
        # a bump at j = 1 can change one cell per stride, offset m = 1
        out["stability.changeable_cells"] = self.k_max
        out["stability.recomputed_cells"] = out["higuchi.km_pairs"]
        return out


class TraceOp(HfdOp):
    """``divergence_trace`` over five decreasing bump sizes."""

    kind = "divergence_trace"

    def __init__(self, source: SeriesInput, k_max: int, eps_grid):
        super().__init__(source, k_max)
        self.eps_grid = list(eps_grid)

    def describe(self):
        return {**super().describe(), "eps_grid": self.eps_grid}

    def run(self):
        return stability.divergence_trace(self.source.ts, self.k_max, 1, self.eps_grid)

    def fingerprint(self, out):
        return repr([tuple(row) for row in out])

    def reference(self, store):
        values = self.source.ts.values
        base, _ = store.tables(values, self.k_max)
        perts = [store.tables(_bumped(values, eps), self.k_max)[0] for eps in self.eps_grid]
        return base, perts

    def check(self, out, ref):
        base, perts = ref
        values = self.source.ts.values
        if len(out) != len(self.eps_grid):
            return [f"trace has {len(out)} rows for {len(self.eps_grid)} bump sizes"]
        problems = []
        for row, eps, pert in zip(out, self.eps_grid, perts):
            slope = oracle.fit_lengths(pert)[0]
            new = [k for k in range(1, self.k_max + 1) if base[k - 1] == 0.0 and pert[k - 1] != 0.0]
            min_log = min(math.log(pert[k - 1]) for k in new) if new else math.nan
            if not (_same_float(row.eps, eps) and _same_float(row.d_eps, slope)
                    and _same_float(row.min_log_new, min_log)):
                problems.append(f"trace row at eps={eps!r} differs from the reference")
            eps_eff = (values[0] + eps) - values[0]
            problems += _resurrection_problems(f"eps={eps!r}", values.size, base, pert, eps_eff)
        return problems

    def counts(self, ref):
        base, perts = ref
        n = self.source.ts.n
        calls = []
        for pert in perts:
            calls += [(n, self.k_max, _stride_usage(base)), (n, self.k_max, _stride_usage(pert))]
        out = _hfd_counts(calls)
        out["stability.hfd_calls"] = len(calls)
        out["stability.changeable_cells"] = len(perts) * self.k_max
        out["stability.recomputed_cells"] = out["higuchi.km_pairs"]
        return out


class CliSeries:
    """A signal sampled by ``fracdim gen`` into a CSV file that the following
    ``fracdim hfd`` ops read.  The expected samples come from the library's
    own sampling, run outside the timed region."""

    def __init__(self, label, spec_dict, n, path, check_indices, k_max_all):
        self.label = label
        self.spec_dict = spec_dict
        self.spec = signals.spec_from_dict(spec_dict)
        self.n = n
        self.path = path
        self.check_indices = np.asarray(check_indices, dtype=int)
        self.k_max_all = k_max_all
        self._expected = None

    def expected(self) -> np.ndarray:
        if self._expected is None:
            self._expected = series.sample(self.spec, self.n).values
        return self._expected

    def tables(self, store):
        return store.tables(self.expected(), self.k_max_all)


def parse_series_csv(text: str, n: int):
    """Strict reader of ``j,t,x`` rows: j must run 1..n in order."""
    lines = text.split("\n")
    if lines[0] != "j,t,x" or lines[-1] != "" or len(lines) != n + 2:
        raise ValueError("series CSV has the wrong header, row count or line ending")
    j = np.empty(n, dtype=np.int64)
    t = np.empty(n)
    x = np.empty(n)
    for i, line in enumerate(lines[1:-1]):
        a, b, c = line.split(",")
        j[i] = int(a)
        t[i] = float(b)
        x[i] = float(c)
    return j, t, x


class CliGenOp(Op):
    kind = "cli_gen"

    def __init__(self, source: CliSeries):
        self.source = source
        self.argv = ["gen", "--signal", json.dumps(source.spec_dict), "--n", str(source.n),
                     "--out", source.path]

    def describe(self):
        return {"kind": self.kind, "argv": self.argv[:5]}

    def run(self):
        return cli.main(self.argv)

    def fingerprint(self, out):
        return f"{out}:{_file_digest(self.source.path)}"

    def check(self, out, ref):
        if out != 0:
            return [f"gen returned {out}"]
        n = self.source.n
        with open(self.source.path) as fh:
            j, t, x = parse_series_csv(fh.read(), n)
        problems = []
        if not np.array_equal(j, np.arange(1, n + 1)):
            problems.append("gen: column j does not run 1..N")
        if not _same_bits(t, [(i - 1) / (n - 1) for i in range(1, n + 1)]):
            problems.append("gen: column t is not the sample grid")
        if not _same_bits(x, self.source.expected()):
            problems.append("gen: CSV values do not round-trip the samples bit for bit")
        return problems

    def samples(self):
        spec = self.source.spec_dict
        if spec["kind"] != "weierstrass":
            return None
        n = self.source.n
        idx = self.source.check_indices
        points = np.array([(j - 1) / (n - 1) for j in idx])
        return spec["lambda"], spec["s"], points, self.source.expected()[idx - 1]

    def counts(self, ref):
        return {"signals.sample_points": self.source.n,
                "cli.output_bytes": os.path.getsize(self.source.path)}


class CliHfdOp(Op):
    kind = "cli_hfd"

    def __init__(self, source: CliSeries, k_max: int, out_path: str):
        self.source = source
        self.k_max = k_max
        self.out_path = out_path
        self.argv = ["hfd", "--input", source.path, "--kmax", str(k_max), "--out", out_path]

    def describe(self):
        return {"kind": self.kind, "series": self.source.label, "k_max": self.k_max}

    def run(self):
        return cli.main(self.argv)

    def fingerprint(self, out):
        return f"{out}:{_file_digest(self.out_path)}"

    def reference(self, store):
        lengths, _ = self.source.tables(store)
        return lengths[: self.k_max]

    def check(self, out, ref):
        if out != 0:
            return [f"hfd returned {out}"]
        with open(self.out_path) as fh:
            payload = strict_json(fh.read())
        problems = []
        if payload.get("N") != self.source.n or payload.get("k_max") != self.k_max:
            problems.append("hfd: N or k_max differ from the input")
        problems += _hfd_problems("cli hfd", payload["L"], payload["D"], payload["intercept"],
                                  payload["I"], ref)
        _, _, _, points = oracle.fit_lengths(ref)
        if not _same_bits(np.array(payload["Z"]).reshape(-1, 2), points):
            problems.append("hfd: log-log points differ from the reference")
        return problems

    def counts(self, ref):
        out = _hfd_counts([(self.source.n, self.k_max, _stride_usage(ref))])
        out["cli.output_bytes"] = os.path.getsize(self.out_path)
        return out


class SpecOp(Op):
    """An op on a continuous signal spec; Weierstrass specs are also
    evaluated at seeded points against the multi-precision reference."""

    def __init__(self, spec, check_points=()):
        self.spec = spec
        self.check_points = np.asarray(check_points, dtype=float)

    def samples(self):
        if not (isinstance(self.spec, signals.Weierstrass) and self.check_points.size):
            return None
        points = self.check_points
        return self.spec.lam, self.spec.s, points, self.spec.evaluate(points)


class BoxDimOp(SpecOp):
    kind = "box_dim"

    def __init__(self, spec, delta_min, check_points=()):
        super().__init__(spec, check_points)
        self.delta_min = delta_min

    def describe(self):
        return {"kind": self.kind, "spec": signals.spec_to_dict(self.spec), "delta_min": self.delta_min}

    def run(self):
        return geometry.box_dim_estimate(self.spec, delta_min=self.delta_min)

    def deltas(self):
        return np.geomspace(self.delta_min, geometry.DEFAULT_DELTA_MAX, geometry.DEFAULT_LEVELS)

    def fingerprint(self, out):
        return f"{_bits(out.deltas)}:{out.counts.tolist()}:{out.dim_estimate!r}:{out.intercept!r}"

    def reference(self, store):
        return store.box_counts(self.spec, self.deltas())

    def check(self, out, ref):
        deltas = self.deltas()
        counts = np.asarray(out.counts)
        problems = []
        if not _same_bits(out.deltas, deltas):
            problems.append("box: mesh sizes differ from the requested grid")
            return problems
        if counts.tolist() != list(ref):
            problems.append("box: cell counts differ from the per-column reference count")
        if not _same_bits(out.areas, deltas * deltas * counts):
            problems.append("box: areas are not delta**2 * M")
        slope, intercept = oracle.regression_slope(
            np.column_stack((np.log(1.0 / deltas), np.log(counts.astype(float))))
        )
        if not (_same_float(out.dim_estimate, slope) and _same_float(out.intercept, intercept)):
            problems.append("box: dimension differs from the reference fit of the counts")
        if not (1.0 <= out.dim_estimate <= 2.0 and out.dim_in_range):
            problems.append(f"box: dimension {out.dim_estimate!r} outside [1, 2]")
        return problems


class TvOp(SpecOp):
    kind = "total_variation"
    levels = 12

    def describe(self):
        return {"kind": self.kind, "spec": signals.spec_to_dict(self.spec), "levels": self.levels}

    def run(self):
        return variation.total_variation_estimate(self.spec, self.levels)

    def fingerprint(self, out):
        return f"{out.estimate!r}:{_bits(out.trace)}"

    def reference(self, store):
        return store.variation_trace(self.spec, self.levels)

    def check(self, out, ref):
        trace = np.asarray(out.trace)
        problems = []
        if trace.shape != (self.levels,) or not np.all(np.isfinite(trace)):
            return [f"tv: trace is not {self.levels} finite values"]
        if not _same_bits(trace, ref):
            problems.append("tv: trace differs from the reference partition sums")
        if not np.all(np.diff(trace) >= 0.0):
            problems.append("tv: trace decreases under refinement")
        if not _same_float(out.estimate, float(trace[-1])):
            problems.append("tv: estimate is not the last trace value")
        return problems


class ConvergenceOp(SpecOp):
    kind = "variation_convergence"

    def __init__(self, spec, n_grid, k=2, m=1, check_points=()):
        super().__init__(spec, check_points)
        self.n_grid = list(n_grid)
        self.k = k
        self.m = m

    def describe(self):
        return {"kind": self.kind, "spec": signals.spec_to_dict(self.spec), "n_grid": self.n_grid,
                "k": self.k, "m": self.m}

    def run(self):
        return variation.variation_convergence_check(self.spec, self.k, self.m, self.n_grid)

    def fingerprint(self, out):
        return repr([tuple(row) for row in out])

    def check(self, out, ref):
        if [row.n for row in out] != self.n_grid:
            return ["convergence: rows do not follow the N grid"]
        problems = []
        for row in out:
            gap = abs(row.v_pn - (row.v_nkm + row.e_n))
            if not gap <= PARTITION_TOL * max(1.0, abs(row.v_pn)):
                problems.append(f"convergence N={row.n}: partition sum off by {gap:.3g}")
            expected = oracle.variation_sum(series.sample(self.spec, row.n).values, self.k, self.m)
            if not _same_float(row.v_nkm, expected):
                problems.append(f"convergence N={row.n}: increment sum differs from the reference")
        return problems

    def counts(self, ref):
        return {"signals.sample_points": sum(self.n_grid)}


def check_outputs(ops, runs, store: OracleStore):
    """Check each op's first output against its reference, then count every
    execution that raised, failed its op's check, or differs from the checked
    output.  ``runs`` are the ``Passes`` of one process, the first untraced.
    Returns (attempted, failed, problems, deviations, counts), where counts
    adds up the work each checked op's inputs imply."""
    attempted = failed = 0
    problems, deviations, counts = [], [], {}
    for i, op in enumerate(ops):
        prints = [fp for passes in runs for fp in passes.prints[i]]
        slot_problems = []
        if prints[0].startswith("raised: "):
            slot_problems.append(prints[0].strip())
        else:
            try:
                ref = op.reference(store)
                slot_problems += op.check(runs[0].first[i], ref)
                dev = sampling_deviation(op, store)
                if dev is not None:
                    deviations.append(dev)
                    if not dev <= SAMPLING_GATE:
                        slot_problems.append(f"sampling deviates from the reference by {dev:.3g}")
                for key, value in op.counts(ref).items():
                    counts[key] = counts.get(key, 0) + value
            except Exception:
                slot_problems.append("check raised: " + traceback.format_exc(limit=2))
        attempted += len(prints)
        if not slot_problems:
            mismatched = sum(fp != prints[0] for fp in prints)
            if mismatched:
                slot_problems.append(f"{mismatched} repeated runs gave other outputs")
            failed += mismatched
        else:
            failed += len(prints)
        if slot_problems:
            problems.append({"op": i, "describe": op.describe(), "problems": slot_problems})
    return attempted, failed, problems, deviations, counts


# ---------------------------------------------------------------- workloads

ROUGH_N = (260, 300, 340, 380, 420)
REPORT_N = (120, 200)
TRACE_N = (100, 150)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def _check_indices(rng, n):
    return np.sort(rng.choice(np.arange(1, n + 1), size=MP_POINTS, replace=False))


def _grid_series(rng, label, n, alternating: bool) -> SeriesInput:
    if alternating:
        spec = signals.Alternating(float(rng.uniform(0.2, 0.5)), float(rng.uniform(0.5, 0.9)))
    else:
        kappa = int(rng.integers(4, 11))
        spec = signals.PeriodicInterp(tuple(float(v) for v in rng.uniform(1.0, 1.5, kappa)))
    return SeriesInput(label, series.sample(spec, n))


def paper_scale(seed: int, workdir: str) -> List[Op]:
    """Estimator runs at k_max = ceil(N/2), and bump experiments on series
    with exactly-zero strides.  Every input is sampled here, in set-up."""
    rng = _rng(seed, 1)
    ops: List[Op] = []
    for i, n in enumerate(ROUGH_N):
        lam, s = float(rng.uniform(3.0, 7.0)), float(rng.uniform(1.5, 1.75))
        w = SeriesInput(f"weierstrass{i}", series.sample(signals.Weierstrass(lam, s), n),
                        (lam, s), _check_indices(rng, n))
        noise = SeriesInput(f"noise{i}", TimeSeries(rng.standard_normal(n)))
        k_max = higuchi.ceil_half(n)
        ops += [HfdOp(w, k_max), GeometricHfdOp(noise, k_max),
                GeometricHfdOp(w, k_max), HfdOp(noise, k_max)]
    for i, n in enumerate(REPORT_N):
        for alternating in (True, False):
            src = _grid_series(rng, f"report{i}{'a' if alternating else 'p'}", n, alternating)
            ops.append(StabilityOp(src, higuchi.ceil_half(n), float(10 ** rng.uniform(-11, -5))))
    for i, n in enumerate(TRACE_N):
        for alternating in (True, False):
            src = _grid_series(rng, f"trace{i}{'a' if alternating else 'p'}", n, alternating)
            grid = [float(10 ** (-5 - 1.5 * e - rng.uniform(0, 1))) for e in range(5)]
            ops.append(TraceOp(src, higuchi.ceil_half(n), grid))
    return ops


LONG_N = 100_000
LONG_KMAX = (64, 128, 256)


def long_series(seed: int, workdir: str) -> List[Op]:
    """The CLI pipeline at N = 1e5: ``gen`` writes a series CSV, then
    ``hfd --input`` reads it at each practical k_max."""
    rng = _rng(seed, 2)
    ops: List[Op] = []
    for i in range(2):
        n = LONG_N
        if i % 2 == 0:
            spec = {"kind": "weierstrass", "lambda": float(rng.uniform(4.8, 5.2)), "s": 1.7}
        else:
            spec = {"kind": "oscillation", "c": float(rng.uniform(10.0, 40.0))}
        src = CliSeries(f"series{i}", spec, n, os.path.join(workdir, f"series{i}.csv"),
                        _check_indices(rng, n), max(LONG_KMAX))
        ops.append(CliGenOp(src))
        for k_max in rng.permutation(LONG_KMAX):
            ops.append(CliHfdOp(src, int(k_max), os.path.join(workdir, f"hfd{i}_{k_max}.json")))
    return ops


def graph_geometry(seed: int, workdir: str) -> List[Op]:
    """Box counting, variation traces and the partition identity on
    continuous signals: Weierstrass, where evaluation dominates, and
    Oscillation on fine meshes, where box counting's own work dominates."""
    rng = _rng(seed, 3)

    def weierstrass():
        return signals.Weierstrass(float(rng.uniform(4.8, 5.2)), 1.7)

    def points():
        return np.sort(rng.uniform(0.0, 1.0, MP_POINTS))

    def oscillation():
        return signals.Oscillation(float(rng.uniform(10.0, 40.0)))

    w_grid = [1000, 2000, 4000, 8000]
    o_grid = [10000, 20000, 40000, 80000]

    ops: List[Op] = [
        TvOp(weierstrass(), points()),
        BoxDimOp(weierstrass(), geometry.DEFAULT_DELTA_MIN, points()),
        ConvergenceOp(weierstrass(), w_grid, check_points=points()),
        ConvergenceOp(weierstrass(), w_grid, check_points=points()),
    ]
    for i in range(12):
        ops.append(BoxDimOp(oscillation(), 5e-5))
        if i < 4:
            ops.append(TvOp(oscillation()))
            ops.append(ConvergenceOp(oscillation(), o_grid))
    return ops


WORKLOADS = {
    "paper_scale": paper_scale,
    "long_series": long_series,
    "graph_geometry": graph_geometry,
}
