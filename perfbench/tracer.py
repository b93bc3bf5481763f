"""In-memory spans around the calls into each govshapes layer.

The tracer replaces a public function at the place its caller looks the
name up (``govshapes.shacl.evaluate``, ``Graph.match``,
``govshapes.cli.corpus_data.default_registry``, ...) with a wrapper that
records a span: name, start, end, parent span and operation id, plus the
counts read off the call's arguments and result. Nothing under ``src/``
changes; ``uninstall`` puts every original back.

Self time is a span's duration minus the part of it that its child spans
cover. Busy time is the union of a layer's spans, so a layer that calls
itself is not counted twice.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass(slots=True)
class Span:
    name: str
    start: int            # perf_counter_ns
    end: int
    parent: int           # index into the span list, -1 for a root
    op: int
    counts: tuple = ()    # (label, value) pairs read off the call


def _validate_counts(args, kwargs, report) -> tuple:
    return (("violations", len(report.violations)),
            ("diagnostics", len(report.diagnostics)))


def _profile_key(args, kwargs, result) -> tuple:
    # (profile, evidence graph) identifies a validation; graphs stay alive
    # for the whole operation, so id() is unique within it.
    evidence = args[1] if len(args) > 1 else kwargs["evidence"]
    profile = args[2] if len(args) > 2 else kwargs["profile_name"]
    return (("key", f"{profile}@{id(evidence)}"),)


# (span name, places the callers look the name up, attribute, counts)
# A place is "module" or "module:Class".
TARGETS: tuple[tuple[str, tuple[str, ...], str, Callable | None], ...] = (
    ("rdf.match", ("govshapes.rdf:Graph",), "match",
     lambda a, k, r: (("results", len(r)),)),
    ("rdf.parse_turtle", ("govshapes.rdf", "govshapes.cli", "govshapes.corpus"),
     "parse_turtle", lambda a, k, r: (("triples", len(r)),)),
    ("rdf.serialize_turtle", ("govshapes.rdf", "govshapes.cli"), "serialize_turtle",
     lambda a, k, r: (("bytes", len(r.encode("utf-8"))),)),
    ("sparql.parse_sparql", ("govshapes.sparql", "govshapes.shacl", "govshapes.ir"),
     "parse_sparql", None),
    ("sparql.evaluate", ("govshapes.sparql", "govshapes.shacl"), "evaluate",
     lambda a, k, r: (("rows", len(r)),)),
    ("shacl.validate", ("govshapes.shacl", "govshapes.governance"), "validate",
     _validate_counts),
    ("shacl.focus_nodes", ("govshapes.shacl",), "focus_nodes",
     lambda a, k, r: (("count", len(r)),)),
    ("shacl.emit_report_graph", ("govshapes.shacl", "govshapes.cli"),
     "emit_report_graph", None),
    ("ir.parse_ir", ("govshapes.ir", "govshapes.governance", "govshapes.corpus"),
     "parse_ir", lambda a, k, r: (("records", len(r)),)),
    ("ir.compile_block", ("govshapes.ir", "govshapes.governance", "govshapes.cli"),
     "compile_block", None),
    ("governance.compose", ("govshapes.governance", "govshapes.cli"), "compose", None),
    ("governance.validate_profile", ("govshapes.governance:Registry",),
     "validate_profile", _profile_key),
    # cli looks this up as corpus_data.default_registry: the same module object
    ("corpus.default_registry", ("govshapes.corpus",), "default_registry", None),
    ("cli.main", ("govshapes.cli",), "main", None),
)


def _owner(place: str):
    module, _, cls = place.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans while installed; ``op`` tags them with an operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0, 0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, places, attr, counts in TARGETS:
            for place in places:
                owner = _owner(place)
                original = vars(owner)[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counts))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as one JSON document (names interned)."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "fields": ["name", "start_ns", "end_ns", "parent", "op", "counts"],
               "spans": [[index[s.name], s.start, s.end, s.parent, s.op, dict(s.counts)]
                         for s in self.spans]}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")), "utf-8")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [span.end - span.start - covered(children[i], span.start, span.end)
            for i, span in enumerate(spans)]


@dataclass
class LayerTotals:
    """Per-operation sums for one span name."""

    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    counts: Counter = field(default_factory=Counter)
    keys: set = field(default_factory=set)


def layer_totals(spans: list[Span]) -> dict[int, dict[str, LayerTotals]]:
    """op -> span name -> totals.

    Busy time is the union of the name's spans; numeric counts are summed
    and ``key`` counts are collected as a set of distinct keys.
    """
    selfs = self_times(spans)
    totals: dict[int, dict[str, LayerTotals]] = defaultdict(lambda: defaultdict(LayerTotals))
    intervals: dict[tuple[int, str], list[tuple[int, int]]] = defaultdict(list)
    for span, own in zip(spans, selfs):
        t = totals[span.op][span.name]
        t.calls += 1
        t.self_ns += own
        intervals[(span.op, span.name)].append((span.start, span.end))
        for label, value in span.counts:
            if label == "key":
                t.keys.add(value)
            else:
                t.counts[label] += value
    for (op, name), spans_of in intervals.items():
        lo = min(s for s, _ in spans_of)
        hi = max(e for _, e in spans_of)
        totals[op][name].busy_ns = covered(spans_of, lo, hi)
    return totals
