"""Span tracing around the public entry points of each layer.

The program is not instrumented: :func:`traced` replaces a fixed list of
public methods with timing wrappers for the length of a ``with`` block
and restores the originals on exit, and :class:`TracedBackend` is a
timing proxy around the resolved kernel backend, handed to the session
as ``backend=``.  Untraced runs install neither.

A span is ``(id, parent, unit, name, start_ns, end_ns)``; spans stay in
memory and are written as JSONL when the run ends.  A span's self time
is its duration minus the time its direct children cover (children on
one thread run one after another, so their durations add).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from repro.engines.base import ParserEngine
from repro.grammar.grammar import CDGGrammar
from repro.kernels.backend import KernelBackend
from repro.network.network import ConstraintNetwork
from repro.pipeline import NetworkTemplate, ParserSession, StreamingParse

#: Marks a wrapper so tests can prove none is left installed.
MARK = "__e2e_traced__"

KERNELS = ("support_any", "and_accumulate", "count_ones", "bmm")


class Tracer:
    """Collects spans from any thread; ``unit`` tags spans with the unit id."""

    def __init__(self):
        self.spans: "list[tuple]" = []
        self.unit = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name: str, fn, *args, **kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, self.unit, name, start, end))

    def reset(self) -> None:
        self.spans.clear()

    def write_jsonl(self, path: Path) -> None:
        keys = ("id", "parent", "unit", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


class TracedBackend(KernelBackend):
    """Timing proxy around a resolved kernel backend (same name, same results)."""

    def __init__(self, inner: KernelBackend, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self._tracer = tracer

    def bmm(self, a_bits, b_bits):
        return self._tracer.call("kernels.bmm", self.inner.bmm, a_bits, b_bits)

    def support_any(self, matrix_words, alive_words, seg_byte_starts, *, out=None):
        return self._tracer.call(
            "kernels.support_any", self.inner.support_any,
            matrix_words, alive_words, seg_byte_starts, out=out,
        )

    def and_accumulate(self, target_words, mask_words):
        return self._tracer.call(
            "kernels.and_accumulate", self.inner.and_accumulate, target_words, mask_words
        )

    def count_ones(self, words):
        return self._tracer.call("kernels.count_ones", self.inner.count_ones, words)

    def dispatch_snapshot(self):
        return self.inner.dispatch_snapshot()


def trace_points(engine_cls: "type[ParserEngine]") -> "list[tuple[type, str, str]]":
    """(owner class, attribute, span name) for every wrapped entry point."""
    return [
        (CDGGrammar, "tokenize", "grammar.tokenize"),
        (ParserSession, "parse", "pipeline.parse"),
        (ParserSession, "template_for", "pipeline.template_for"),
        (NetworkTemplate, "build", "pipeline.template_build"),
        (NetworkTemplate, "extend", "pipeline.template_extend"),
        (NetworkTemplate, "bind", "pipeline.bind"),
        (NetworkTemplate, "vector_masks", "pipeline.masks"),
        (engine_cls, "run", "engines.run"),
        (StreamingParse, "extend", "pipeline.stream_extend"),
        (ConstraintNetwork, "all_domains_nonempty", "network.readout"),
        (ConstraintNetwork, "is_ambiguous", "network.readout"),
    ]


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    setattr(wrapper, MARK, True)
    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer, engine_cls: "type[ParserEngine]"):
    """Install the wrappers for the block; always restore the originals."""
    saved = []
    try:
        for owner, attr, name in trace_points(engine_cls):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(_wrap(tracer, name, original.__func__))
            else:
                patched = _wrap(tracer, name, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, patched)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def installed_wrappers(engine_cls: "type[ParserEngine]") -> "list[str]":
    """Names of trace points that currently hold a wrapper (should be [])."""
    found = []
    for owner, attr, _ in trace_points(engine_cls):
        value = owner.__dict__[attr]
        func = value.__func__ if isinstance(value, classmethod) else value
        if getattr(func, MARK, False):
            found.append(f"{owner.__name__}.{attr}")
    return found


def span_totals(spans: "list[tuple]") -> "dict[str, dict[str, int]]":
    """Per span name: ``count``, total ``ns`` and ``self_ns``."""
    child_ns: "dict[int, int]" = defaultdict(int)
    for _, parent, _, _, start, end in spans:
        if parent:
            child_ns[parent] += end - start
    totals: "dict[str, dict[str, int]]" = defaultdict(lambda: {"count": 0, "ns": 0, "self_ns": 0})
    for span_id, _, _, name, start, end in spans:
        entry = totals[name]
        entry["count"] += 1
        entry["ns"] += end - start
        entry["self_ns"] += end - start - child_ns.get(span_id, 0)
    return dict(totals)


def layer_metrics(spans: "list[tuple]", units: int) -> "dict[str, float]":
    """Per-unit span metrics named as in ``BENCHMARK.json``'s per_layer list."""
    totals = span_totals(spans)
    per = max(units, 1)

    def mean(name: str, key: str, scale: float) -> float:
        return totals.get(name, {}).get(key, 0) / per / scale

    metrics = {
        "grammar.tokenize_us": mean("grammar.tokenize", "ns", 1e3),
        "pipeline.bind_us": mean("pipeline.bind", "ns", 1e3),
        "network.readout_us": mean("network.readout", "ns", 1e3),
        "pipeline.parse_self_us": mean("pipeline.parse", "self_ns", 1e3),
        "pipeline.template_builds_per_unit": (
            totals.get("pipeline.template_build", {}).get("count", 0)
            + totals.get("pipeline.template_extend", {}).get("count", 0)
        ) / per,
        "pipeline.template_build_ms": mean("pipeline.template_build", "ns", 1e6),
        "pipeline.masks_ms": mean("pipeline.masks", "ns", 1e6),
        "pipeline.template_extend_ms": mean("pipeline.template_extend", "ns", 1e6),
        "pipeline.stream_extend_self_ms": mean("pipeline.stream_extend", "self_ns", 1e6),
        "engines.run_ms": mean("engines.run", "ns", 1e6),
        "engines.run_self_ms": mean("engines.run", "self_ns", 1e6),
    }
    for kernel in KERNELS:
        metrics[f"kernels.{kernel}.calls"] = mean(f"kernels.{kernel}", "count", 1.0)
        metrics[f"kernels.{kernel}.ms"] = mean(f"kernels.{kernel}", "ns", 1e6)
    return metrics
