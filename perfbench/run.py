"""Run one govshapes benchmark workload and print its metrics.

    python3 perfbench/run.py --workload evidence_large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; govshapes is imported from ``src/`` next to this
directory, never from an installed copy. Each workload is a closed loop:
one client on one thread, the next operation starting when the last one
ends. Every operation's output is checked against the reference in
``generate.py``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each
operation untraced and then traced for ``--seconds`` (ending early once the
spans reach ``SPAN_BUDGET``), prints the per-layer metrics and the tracing
overhead, and writes the spans to ``perfbench/out/``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import generate
from tracer import Tracer, layer_totals

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("evidence_large", "evidence_small", "refine_corpus", "compile_blocks")

SETUP_PROBES = 9        # fresh processes per run, spread over it; setup_s is their median
WARMUP_SECONDS = 0.5    # warm-up runs at least one operation and this long
SLICES = 100            # ops_per_s is the 90th-percentile rate over up to this many slices
SPAN_BUDGET = 300_000   # a traced run ends early once it holds this many spans

# Operations and set-up are timed in CPU time of the calling thread
# (time.thread_time): govshapes works in memory on one thread and never
# waits, and CPU time leaves out the stretches in which other processes of
# the machine hold the core. Run length is still wall-clock time.
#
# Timings are read off the fast side of each run: the 10th-percentile
# latency and the 90th-percentile slice throughput. The hosts this runs on
# share their cores with other tenants, and for seconds to minutes at a time
# everything runs up to 2x slower, in CPU time too. That moves a run's
# median by 30% and more; the fast side moves far less. A slower program
# moves every quantile.

# (metric, span, quantity, unit): per-operation means over the traced run.
# A quantity is calls, busy_ms, self_ms, distinct or a count the span records.
LAYER_METRICS = (
    ("rdf.match.calls", "rdf.match", "calls", "count"),
    ("rdf.match.self_ms", "rdf.match", "self_ms", "ms"),
    ("rdf.match.results", "rdf.match", "results", "count"),
    ("rdf.parse_turtle.busy_ms", "rdf.parse_turtle", "busy_ms", "ms"),
    ("rdf.parse_turtle.triples", "rdf.parse_turtle", "triples", "count"),
    ("rdf.serialize_turtle.busy_ms", "rdf.serialize_turtle", "busy_ms", "ms"),
    ("rdf.serialize_turtle.bytes", "rdf.serialize_turtle", "bytes", "B"),
    ("shacl.validate.busy_ms", "shacl.validate", "busy_ms", "ms"),
    ("shacl.validate.self_ms", "shacl.validate", "self_ms", "ms"),
    ("shacl.focus_nodes.count", "shacl.focus_nodes", "count", "count"),
    ("shacl.violations", "shacl.validate", "violations", "count"),
    ("shacl.diagnostics", "shacl.validate", "diagnostics", "count"),
    ("shacl.emit_report_graph.busy_ms", "shacl.emit_report_graph", "busy_ms", "ms"),
    ("sparql.evaluate.calls", "sparql.evaluate", "calls", "count"),
    ("sparql.evaluate.self_ms", "sparql.evaluate", "self_ms", "ms"),
    ("sparql.evaluate.rows", "sparql.evaluate", "rows", "count"),
    ("sparql.parse_sparql.calls", "sparql.parse_sparql", "calls", "count"),
    ("sparql.parse_sparql.busy_ms", "sparql.parse_sparql", "busy_ms", "ms"),
    ("ir.parse_ir.busy_ms", "ir.parse_ir", "busy_ms", "ms"),
    ("ir.parse_ir.records", "ir.parse_ir", "records", "count"),
    ("ir.compile_block.busy_ms", "ir.compile_block", "busy_ms", "ms"),
    ("ir.compile_block.self_ms", "ir.compile_block", "self_ms", "ms"),
    ("governance.compose.calls", "governance.compose", "calls", "count"),
    ("governance.compose.busy_ms", "governance.compose", "busy_ms", "ms"),
    ("governance.validate_profile.calls", "governance.validate_profile", "calls", "count"),
    ("governance.validate_profile.distinct", "governance.validate_profile", "distinct",
     "count"),
    ("corpus.default_registry.busy_ms", "corpus.default_registry", "busy_ms", "ms"),
    ("cli.main.self_ms", "cli.main", "self_ms", "ms"),
)


@dataclass
class Phase:
    """One closed-loop measurement: latencies and outcomes of its operations."""

    latencies: list[float] = field(default_factory=list)    # CPU seconds
    ok: list[bool] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def throughput(self) -> float:
        """90th percentile, over equal slices of the run, of correct operations
        per second spent in operations. With fewer than ``SLICES`` operations
        a slice is one operation, and this is 1 / the 10th-percentile latency."""
        n = self.attempted
        bounds = ([round(j * n / SLICES) for j in range(SLICES + 1)] if n >= SLICES
                  else list(range(n + 1)))
        return deciles([sum(self.ok[a:b]) / sum(self.latencies[a:b])
                        for a, b in zip(bounds, bounds[1:])])[1]


def deciles(values: list[float]) -> tuple[float, float]:
    """10th and 90th percentile (a single value is both)."""
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[0], cuts[-1]


def timed_op(workload, i: int, phase: Phase, tracer=None) -> None:
    """Run and check operation ``i``, and record it in ``phase``."""
    if tracer is not None:
        tracer.op = i
    clock = time.thread_time
    t0 = clock()
    try:
        out = workload.run(i)
    except Exception:  # a failed operation is counted, and the loop goes on
        traceback.print_exc()
        out = None
    t1 = clock()
    try:
        ok = out is not None and workload.check(i, out)
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"# operation {i} gave a wrong result", file=sys.stderr)
    phase.latencies.append(t1 - t0)
    phase.ok.append(ok)


def closed_loop(workload, seconds: float, first_op: int, between=()) -> Phase:
    """Run operations back to back for ``seconds`` of wall-clock time, and at least one.

    The calls in ``between`` run one at a time between operations, spread
    evenly over the run, so that they meet the host in the same states as
    the operations do.
    """
    phase = Phase()
    start = time.perf_counter()
    deadline = start + seconds
    pending = list(between)
    i = first_op
    while True:
        timed_op(workload, i, phase)
        i += 1
        now = time.perf_counter()
        if now >= deadline:
            for call in pending:
                call()
            return phase
        if pending and now >= start + seconds * (len(between) - len(pending)) / len(between):
            pending.pop(0)()


def traced_loop(workload, seconds: float, first_op: int,
                tracer: Tracer) -> tuple[Phase, Phase]:
    """Run each operation untraced and then traced, for ``seconds``.

    Pairing the two runs of an operation back to back keeps a change in the
    host's load out of the tracing overhead. Ends early once the spans
    reach ``SPAN_BUDGET``.
    """
    untraced, traced = Phase(), Phase()
    deadline = time.perf_counter() + seconds
    i = first_op
    while True:
        timed_op(workload, i, untraced)
        tracer.install()
        try:
            timed_op(workload, i, traced, tracer)
        finally:
            tracer.uninstall()
        i += 1
        if time.perf_counter() >= deadline or len(tracer.spans) >= SPAN_BUDGET:
            return untraced, traced


def probe_setup(profiles: tuple[str, ...]) -> dict:
    """Set-up times from a fresh interpreter."""
    command = [sys.executable, "-I", str(HERE / "setup_probe.py"), str(SRC), *profiles]
    return json.loads(subprocess.run(command, capture_output=True, text=True, check=True,
                                     timeout=60).stdout.splitlines()[-1])


def end_to_end(phase: Phase, setup: list[dict]) -> dict[str, tuple[float, str]]:
    return {
        "ops_per_s": (phase.throughput(), "1/s"),
        "op_p10_ms": (deciles(phase.latencies)[0] * 1e3, "ms"),
        "setup_s": (statistics.median(sum(p.values()) for p in setup) / 1e3, "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _quantity(t, quantity: str) -> float:
    if quantity == "calls":
        return t.calls
    if quantity == "busy_ms":
        return t.busy_ns / 1e6
    if quantity == "self_ms":
        return t.self_ns / 1e6
    if quantity == "distinct":
        return len(t.keys)
    return t.counts[quantity]


def per_layer(totals, untraced: Phase, traced: Phase,
              setup: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics from ``tracer.layer_totals`` of the traced phase."""
    def per_op(span: str, quantity: str) -> float:
        return sum(_quantity(by_name[span], quantity)
                   for by_name in totals.values() if span in by_name) / traced.attempted

    metrics = {name: (per_op(span, quantity), unit)
               for name, span, quantity, unit in LAYER_METRICS}
    calls = metrics["governance.validate_profile.calls"][0]
    distinct = metrics["governance.validate_profile.distinct"][0]
    # no calls means no redundant calls
    metrics["governance.validate_profile.useful_ratio"] = (
        distinct / calls if calls else 1.0, "ratio")
    for part in ("import", "registry", "compose"):
        metrics[f"setup.{part}_ms"] = (
            statistics.median(p[f"{part}_ms"] for p in setup), "ms")
    pairs = list(zip(untraced.latencies, traced.latencies))
    plain = statistics.median(u for u, _ in pairs) * 1e3
    overhead = statistics.median(t - u for u, t in pairs) * 1e3
    metrics["trace.overhead_ms"] = (overhead, "ms")
    metrics["trace.overhead_pct"] = (100.0 * overhead / plain, "%")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    # govshapes, and workloads that uses it, are imported only once SRC is
    # known to hold the sources, and from there, never from an installed copy.
    sys.path.insert(0, str(SRC))
    import govshapes
    if Path(govshapes.__file__).resolve().parent != SRC / "govshapes":
        raise RuntimeError(f"govshapes imported from {govshapes.__file__}, not {SRC}")
    import workloads

    data = generate.BundledData(SRC / "govshapes" / "data")
    profiles = workloads.PROFILES[name]
    setup: list[dict] = []
    probes = [lambda: setup.append(probe_setup(profiles))] * SETUP_PROBES
    registry = govshapes.corpus.default_registry()
    for profile in profiles:
        registry.composed(profile)
    OUT.mkdir(exist_ok=True)
    workload = workloads.build(name, data, seed, registry, OUT)
    try:
        print(f"# {name} seed {seed}: {workload.describe()}")
        warmup = closed_loop(workload, WARMUP_SECONDS, first_op=0)
        first = warmup.attempted
        if not trace:
            phase = closed_loop(workload, seconds, first_op=first, between=probes)
            phases = [warmup, phase]
            metrics = end_to_end(phase, setup)
        else:
            for probe in probes:  # per-layer figures carry no bound; no need to spread
                probe()
            tracer = Tracer()
            untraced, traced = traced_loop(workload, seconds, first, tracer)
            spans_path = OUT / f"spans-{name}-seed{seed}.json"
            tracer.write(spans_path)
            print(f"# {len(tracer.spans)} spans -> {spans_path}")
            phases = [warmup, untraced, traced]
            metrics = per_layer(layer_totals(tracer.spans), untraced, traced, setup)
    finally:
        workload.close()
    print(f"# {phases[-1].attempted} measured operations, "
          f"{sum(phases[-1].latencies):.2f} s in operations")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process; metric names gain a workload prefix."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "1" if trace else "0"]
        proc = subprocess.run(command, capture_output=True, text=True, check=True,
                              timeout=600)
        one = json.loads(proc.stdout.splitlines()[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = value
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "govshapes" / "__init__.py").is_file():
        print(f"error: no govshapes sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, value in result["metrics"].items():
        print(f"{metric:<48} {value['value']:>14.4f} {value['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
