"""Alternating parent/change runs of evidence validation at large sizes.

Usage::

    python3 tools/scale.py PARENT_SRC CHANGE_SRC [--decisions 1600,6400] [--pairs N] [--seed S]

``PARENT_SRC`` and ``CHANGE_SRC`` are two ``src`` directories, each
holding a ``govshapes`` package. For each size, one document of that many
decisions is built with ``perfbench/generate.py``'s ``evidence_input``
(equal numbers of renamed copies of the four compiler cases, in a seeded
order) and validated against Combined, the profile of ``evidence_large``.

Pair ``i`` runs each side once per size, one side after the other; even
pairs start with the parent, odd pairs with the change. A run is two
fresh interpreters, started in isolated mode with ``src`` alone on the
path and bytecode under a fresh cache directory per side:

- The stages run times each stage in CPU time, with the profile
  composed and its plans built beforehand on a bundled case: parse,
  index build, first validation, warm validation (the same graph again),
  report emit and serialize.
- The CLI run times ``cli.main(["validate", DOC, "--profile", "Combined",
  "--format", "turtle"])`` end to end in CPU time, import excluded.

Each run reports its peak RSS and the collector's share of its CPU time,
measured through ``gc.callbacks``, which leaves the collector's settings
as it finds them. Every report is checked against the golden sum: the
verdict, ``EvidenceInput.violations`` and ``per_copy``. The table is
printed through ``tools/ab.py``'s ``summarise``, one row per size and
metric, so that the 9/10-pairs rule reads as it does for the benchmark;
the exit status is 1 if any run failed its check.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]

import generate  # noqa: E402  (perfbench/generate.py: the inputs and their reference)
from ab import summarise  # noqa: E402

PROFILE = "Combined"

# every metric is better lower; each with the parent's spread, relative to its
# median, beyond which its row is unresolved
METRICS = [
    ("parse_ms", 0.25), ("index_ms", 0.25), ("first_ms", 0.25), ("warm_ms", 0.25),
    ("emit_ms", 0.25), ("serial_ms", 0.25), ("gc_pct", 0.25), ("rss_mb", 0.1),
    ("cli_ms", 0.25), ("cli_gc_pct", 0.25), ("cli_rss_mb", 0.1),
]

# Shared by both children: the collector's CPU time, from gc.callbacks,
# and the result line.
_PRELUDE = """
import gc, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
collecting = [0.0, 0.0]  # CPU time in the collector, start of the current pass

def on_gc(phase, info):
    if phase == "start":
        collecting[1] = time.process_time()
    else:
        collecting[0] += time.process_time() - collecting[1]

def finish(elapsed, result):
    result["gc_pct"] = 100.0 * collecting[0] / elapsed
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
"""

_STAGES = _PRELUDE + """
from govshapes import corpus, rdf, shacl
text = open(sys.argv[2], encoding="utf-8").read()
registry = corpus.default_registry()
registry.validate_profile(rdf.parse_turtle(corpus.case_source("conform")), sys.argv[3])
gc.callbacks.append(on_gc)
marks = [time.process_time()]
graph = rdf.parse_turtle(text)
marks.append(time.process_time())
graph._indexes()
marks.append(time.process_time())
report = registry.validate_profile(graph, sys.argv[3]).report
marks.append(time.process_time())
registry.validate_profile(graph, sys.argv[3])
marks.append(time.process_time())
report_graph = shacl.emit_report_graph(report)
marks.append(time.process_time())
out = rdf.serialize_turtle(report_graph)
marks.append(time.process_time())
gc.callbacks.remove(on_gc)
names = ("parse_ms", "index_ms", "first_ms", "warm_ms", "emit_ms", "serial_ms")
result = {name: 1000.0 * (b - a) for name, a, b in zip(names, marks, marks[1:])}
result["conforms"] = report.conforms
result["focus"] = [getattr(v.focus_node, "value", "") for v in report.violations]
result["text"] = out
finish(marks[-1] - marks[0], result)
"""

_CLI = _PRELUDE + """
import contextlib, io
from govshapes import cli
stdout = io.StringIO()
gc.callbacks.append(on_gc)
start = time.process_time()
with contextlib.redirect_stdout(stdout):
    status = cli.main(["validate", sys.argv[2], "--profile", sys.argv[3],
                       "--format", "turtle"])
elapsed = time.process_time() - start
gc.callbacks.remove(on_gc)
finish(elapsed, {"cli_ms": 1000.0 * elapsed, "status": status, "text": stdout.getvalue()})
"""

# a focus node as the report's Turtle writes it: ex:decision001_1a2b3c4d
_FOCUS_RE = re.compile(r"sh:focusNode (\S+)")


def document(data: generate.BundledData, decisions: int, seed: int) -> generate.EvidenceInput:
    """``decisions`` renamed copies of the compiler cases, a quarter each,
    in an order and with names drawn from ``seed``."""
    rng = random.Random(f"scale:{seed}:{decisions}")
    kinds = [case_id for case_id in generate.COMPILER_CASES
             for _ in range(decisions // len(generate.COMPILER_CASES))]
    rng.shuffle(kinds)
    return generate.evidence_input(data, list(zip(kinds, generate._tags(rng, len(kinds)))),
                                   PROFILE)


def report_matches(doc: generate.EvidenceInput, conforms: bool, focus: list[str],
                   text: str) -> bool:
    """Is a report, given by its verdict, its violations' focus nodes and
    its Turtle text, the one ``doc`` expects?"""
    per_copy = Counter(generate.copy_tag(f) for f in focus)
    verdict = "true" if doc.conforms else "false"
    return (conforms == doc.conforms and len(focus) == doc.violations
            and tuple(sorted(per_copy.items())) == doc.per_copy
            and text.count("a sh:ValidationResult") == doc.violations
            and f"sh:conforms {verdict}" in text)


def run_child(code: str, src: Path, doc_path: Path, cache: Path) -> dict:
    command = [sys.executable, "-I", "-X", f"pycache_prefix={cache}", "-c", code,
               str(src), str(doc_path), PROFILE]
    proc = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_side(src: Path, doc: generate.EvidenceInput, doc_path: Path,
             cache: Path) -> tuple[dict[str, float], bool]:
    """The metrics of one side's stages run and CLI run on one document,
    and whether both reports were the expected ones."""
    stages = run_child(_STAGES, src, doc_path, cache)
    cli = run_child(_CLI, src, doc_path, cache)
    correct = (report_matches(doc, stages["conforms"], stages["focus"], stages["text"])
               and cli["status"] == (0 if doc.conforms else 1)
               and report_matches(doc, cli["status"] == 0, _FOCUS_RE.findall(cli["text"]),
                                  cli["text"]))
    metrics = {name: stages[name] for name, _ in METRICS if name in stages}
    metrics.update(cli_ms=cli["cli_ms"], cli_gc_pct=cli["gc_pct"], cli_rss_mb=cli["rss_mb"])
    return metrics, correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--decisions", default="1600,6400",
                        help="comma-separated document sizes, each a multiple of 4")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the documents")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        sizes = [int(n) for n in args.decisions.split(",")]
    except ValueError:
        parser.error(f"--decisions must list integers, got {args.decisions!r}")
    if any(n < 4 or n % 4 for n in sizes):
        parser.error("each --decisions size must be a positive multiple of 4")
    for src in (args.parent_src, args.change_src):
        if not (src / "govshapes" / "__init__.py").is_file():
            parser.error(f"no govshapes package under {src}")

    data = generate.BundledData(ROOT / "src" / "govshapes" / "data")
    workloads = [f"d{n}" for n in sizes]
    benchmark = {"workloads": [{"name": w} for w in workloads],
                 "end_to_end": [{"name": name, "better": "lower", "bound": bound}
                                for name, bound in METRICS]}
    failures = []
    runs: list[tuple[int, dict, dict]] = []
    with tempfile.TemporaryDirectory(prefix="scale-") as tmp:
        docs = {}
        for workload, n in zip(workloads, sizes):
            doc = docs[workload] = document(data, n, args.seed)
            Path(tmp, f"{workload}.ttl").write_text(doc.text, "utf-8")
        for i in range(args.pairs):
            sides: dict[str, dict] = {"parent": {"metrics": {}}, "change": {"metrics": {}}}
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload, doc in docs.items():
                for side in order:
                    src = args.parent_src if side == "parent" else args.change_src
                    metrics, correct = run_side(src, doc, Path(tmp, f"{workload}.ttl"),
                                                Path(tmp, "pycache", side))
                    if not correct:
                        failures.append(f"pair {i + 1} {workload} {side}: wrong report")
                    sides[side]["metrics"].update(
                        (f"{workload}.{name}", {"value": value})
                        for name, value in metrics.items())
                    print(f"# pair {i + 1}/{args.pairs} {workload}: {side} done", flush=True)
            runs.append((i, sides["parent"], sides["change"]))

    for workload, n in zip(workloads, sizes):
        doc = docs[workload]
        print(f"# {workload}: {n} decisions, {len(doc.text)} bytes, "
              f"{doc.violations} violations expected")
    for failure in failures:
        print(failure)
    print("\n".join(summarise(benchmark, runs)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
