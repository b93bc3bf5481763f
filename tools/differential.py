"""Seeded mutation differential of the Turtle and query front ends.

Usage::

    python3 tools/differential.py PARENT_SRC CHANGE_SRC [--mutations N] [--seed S]

``PARENT_SRC`` and ``CHANGE_SRC`` are the ``src`` directories of two
checkouts. The script mutates the bundled evidence cases and the
constraint queries (the bundled ones, and those ``perfbench/generate.py``
writes for seeds 1-10) ``N`` times each, runs every input through each
side in a fresh interpreter, and prints how many inputs gave the same
outcome on both sides, then each class of differing outcomes with its
count and one example input.

An outcome is either a value or an exception. A Turtle input's value is
a digest of its triples, prefixes and canonical serialization and of
its report graph and diagnostics under every bundled profile. A query's
value is a digest of its parse, of ``hash`` and ``==`` against a second
parse, and of its solutions and diagnostics for every focus node of the
bundled cases. An exception is its class and message; a class of
differing outcomes names both sides, with digits in messages blanked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "govshapes" / "data"
QUERY_SEEDS = range(1, 11)

# What one edit may insert: punctuation, terms, escapes, keywords, layout
# characters either lexer may reject, and runs deep enough to nest past
# any parser limit.
PIECES = (
    " ", ".", ";", ",", "[", "]", "(", ")", "{", "}", '"', '"""', "<", ">",
    "<rel>", "<http://x.example/y>", "ex:", "ex:p", "_:b", "a", "A",
    "@prefix", "@en", "^^", "xsd:decimal", "1", "-", "+", "1.5", "1e3", ".5",
    "\\", "\\r", "\\b", "\\f", "\\'", "\\t", "\\U0001F600", "\\U00110000",
    "\\u0041", "\\q", "#", "\n", "\t", "\f", "\xa0", "٣", "²",
    "?x", "$this", "FILTER(", "BIND(", " AS ", "ABS(", "IF(", "=", "!=", "<=",
    "*", "/", "true", "OPTIONAL", "- " * 150, "(" * 60, "[ ex:p " * 60,
)


def _base_inputs() -> dict[str, list[str]]:
    import yaml

    sys.path.insert(0, str(ROOT / "perfbench"))
    import generate

    cases = [p.read_text("utf-8") for p in sorted((DATA / "cases").glob("*.ttl"))]
    sources = [p.read_text("utf-8") for p in sorted((DATA / "blocks").glob("*.ir.yaml"))]
    sources += [text for seed in QUERY_SEEDS
                for s in generate.obligation_sets(seed) for text in s.texts[:1]]
    queries = []
    for source in sources:
        for record in yaml.safe_load(source) or ():
            if "sparql_text" in record:
                queries.append(record["sparql_text"].replace(
                    "{{threshold}}", record.get("threshold_ref", "")))
    return {"turtle": cases, "sparql": sorted(set(queries))}


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[i + rng.randint(1, 8):]
        elif op == 1:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif op == 2:
            j = min(len(text), i + rng.randint(1, 20))
            text = text[:j] + text[i:j] + text[j:]
        elif text:
            i = min(i, len(text) - 1)
            text = text[:i] + rng.choice(rng.choice(PIECES)) + text[i + 1:]
    return text


def make_inputs(mutations: int, seed: int) -> dict[str, list[str]]:
    rng = random.Random(seed)
    base = _base_inputs()
    return {kind: texts + [_mutate(rng, rng.choice(texts)) for _ in range(mutations)]
            for kind, texts in base.items()}


# ---------------------------------------------------------------------------
# Worker: runs inside the interpreter of one side
# ---------------------------------------------------------------------------

def _digest(parts) -> str:
    return hashlib.sha256("\x00".join(parts).encode("utf-8", "replace")).hexdigest()[:16]


def _outcome(fn, text: str) -> list[str]:
    try:
        return ["ok", _digest(fn(text))]
    except Exception as exc:  # every class is an outcome to compare
        return ["error", f"{type(exc).__name__}: {exc}"]


def work(inputs_path: str, outcomes_path: str) -> None:
    from govshapes import corpus
    from govshapes.rdf import EX, parse_turtle, serialize_turtle
    from govshapes.shacl import emit_report_graph
    from govshapes.sparql import evaluate, parse_sparql

    registry = corpus.default_registry()
    profiles = corpus.COMPILER_PROFILES + corpus.JURISDICTION_PROFILES
    graphs = [graph for _, graph in corpus.full_corpus()]

    def turtle(text):
        g = parse_turtle(text)
        parts = [repr(sorted(g.prefixes.items())), repr(g.sorted_triples()),
                 serialize_turtle(g)]
        for profile in profiles:
            report = registry.validate_profile(g, profile).report
            parts += [serialize_turtle(emit_report_graph(report)),
                      repr(report.diagnostics)]
        return parts

    def sparql(text):
        query, again = parse_sparql(text), parse_sparql(text)
        parts = [repr(query), str(hash(query) == hash(again)), str(query == again)]
        for graph in graphs:
            for focus in graph.subjects_of_type(EX.Decision):
                diagnostics = []
                parts += [repr(evaluate(query, graph, focus, diagnostics)),
                          repr(diagnostics)]
        return parts

    inputs = json.loads(Path(inputs_path).read_text("utf-8"))
    outcomes = {"turtle": [_outcome(turtle, t) for t in inputs["turtle"]],
                "sparql": [_outcome(sparql, t) for t in inputs["sparql"]]}
    Path(outcomes_path).write_text(json.dumps(outcomes), "utf-8")


# ---------------------------------------------------------------------------
# Comparison of the two sides
# ---------------------------------------------------------------------------

def _run_side(src: Path, inputs_path: Path, outcomes_path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, __file__, "--worker", str(inputs_path),
                    str(outcomes_path)], env=env, check=True)
    return json.loads(outcomes_path.read_text("utf-8"))


def _summary(outcome: list[str]) -> str:
    if outcome[0] == "ok":
        return "ok"
    return re.sub(r"\d+", "N", outcome[1])


def compare(inputs: dict, parent: dict, change: dict) -> None:
    for kind, texts in inputs.items():
        same = 0
        classes: Counter = Counter()
        examples: dict[tuple, str] = {}
        for text, a, b in zip(texts, parent[kind], change[kind]):
            if a == b:
                same += 1
                continue
            key = (_summary(a), _summary(b))
            classes[key] += 1
            examples.setdefault(key, text)
        accepted = sum(1 for a, b in zip(parent[kind], change[kind])
                       if a[0] == b[0] == "ok")
        print(f"{kind}: {len(texts)} inputs, {same} same outcome, "
              f"{accepted} accepted by both, {len(texts) - same} differ")
        for (a, b), count in classes.most_common():
            example = examples[a, b]
            print(f"  {count:6d}  parent {a[:100]!r}\n"
                  f"          change {b[:100]!r}\n"
                  f"          e.g. {example[:160]!r}")


def main() -> None:
    if sys.argv[1:2] == ["--worker"]:
        work(sys.argv[2], sys.argv[3])
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--mutations", type=int, default=10_000,
                        help="mutations per input kind (default 10000)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    inputs = make_inputs(args.mutations, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        inputs_path = Path(tmp) / "inputs.json"
        inputs_path.write_text(json.dumps(inputs), "utf-8")
        parent = _run_side(args.parent_src.resolve(), inputs_path, Path(tmp) / "parent.json")
        change = _run_side(args.change_src.resolve(), inputs_path, Path(tmp) / "change.json")
    compare(inputs, parent, change)


if __name__ == "__main__":
    main()
