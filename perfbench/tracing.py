"""Span recording from outside the program.

A :class:`Tracer` rebinds chosen public functions of the ``fracdim`` modules
to wrappers that record one span per call: name, start, end, parent span,
the op it belongs to, whether it raised, and an optional count taken from
the call.  A function is rebound at every module attribute that holds it, so
calls made through ``from .higuchi import hfd`` in another module are seen
too.  Hot helpers such as ``variation_sum`` are not wrapped; their work shows
as self time of the caller and their counts are computed from op inputs.

Self time is a span's duration minus the durations of its direct children;
the program is single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np


class Span(NamedTuple):
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int
    start: float
    end: float
    child_s: float
    error: bool
    count: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _points(args, kwargs, result) -> int:
    return int(np.size(args[0]))


def _text_bytes(args, kwargs, result) -> int:
    return len(result)


def _result_int(args, kwargs, result) -> int:
    return int(result)


# (module, attribute, span name, count taken from the call)
TARGETS = (
    ("higuchi", "hfd", "higuchi.hfd", None),
    ("higuchi", "fit_lengths", "higuchi.fit_lengths", None),
    ("stability", "stability_report", "stability.stability_report", None),
    ("stability", "divergence_trace", "stability.divergence_trace", None),
    ("series", "sample", "signals.sample", None),
    ("signals", "eval_weierstrass", "signals.evaluate", _points),
    ("signals", "eval_oscillation", "signals.evaluate", _points),
    ("signals", "eval_spline", "signals.evaluate", _points),
    ("series", "to_csv_text", "series.to_csv_text", _text_bytes),
    ("series", "read_csv", "series.read_csv", None),
    ("geometry", "box_count", "geometry.box_count", _result_int),
    ("geometry", "geometric_hfd", "geometry.geometric_hfd", None),
    ("variation", "total_variation_estimate", "variation.total_variation_estimate", None),
    ("variation", "variation_convergence_check", "variation.variation_convergence_check", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Collects spans while installed; restores every rebinding on uninstall."""

    def __init__(self, modules: Dict[str, object]):
        self.modules = modules
        self.spans: List[Span] = []
        self.op = -1
        self._stack: List[list] = []
        self._rebound: List[tuple] = []

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            parent = stack[-1][1] if stack else -1
            index = len(spans)
            spans.append(None)  # reserve the index children point to
            stack.append((frame, index))
            error = True
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0][0] += end - start
                count = counter(args, kwargs, result) if counter and not error else 0
                spans[index] = Span(name, parent, self.op, start, end, frame[0], error, count)

        return wrapper

    def install(self) -> None:
        """Rebind every target at each attribute of the modules that holds it."""
        for module_name, attr, span_name, counter in TARGETS:
            original = getattr(self.modules[module_name], attr)
            wrapper = self._wrap(span_name, original, counter)
            for module in self.modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._rebound.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._rebound):
            setattr(module, key, original)
        self._rebound.clear()

    def layer_totals(self) -> Dict[str, float]:
        """Busy and self seconds, error and count totals per span name.

        ``<name>.outer_s`` and ``<name>.outer_count`` count only spans with
        no ancestor in the same layer, so nested calls (a report inside a
        trace, an evaluation inside a sample) are not counted twice.
        """
        totals: Dict[str, float] = {}

        def add(key, value):
            totals[key] = totals.get(key, 0) + value

        for span in self.spans:
            layer = span.name.split(".")[0]
            add(span.name + ".busy_s", span.duration)
            add(span.name + ".self_s", span.self_s)
            add(span.name + ".count", span.count)
            add(layer + ".errors", int(span.error))
            if not self._inside_layer(span, layer):
                add(span.name + ".outer_s", span.duration)
                add(span.name + ".outer_count", span.count)
        return totals

    def _inside_layer(self, span: Span, layer: str) -> bool:
        parent = span.parent
        while parent >= 0:
            ancestor = self.spans[parent]
            if ancestor.name.split(".")[0] == layer:
                return True
            parent = ancestor.parent
        return False
