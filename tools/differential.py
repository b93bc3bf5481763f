"""Seeded mutation differential of the Turtle, query and block-source front ends.

Usage::

    python3 tools/differential.py PARENT_SRC CHANGE_SRC [--mutations N] [--seed S]

``PARENT_SRC`` and ``CHANGE_SRC`` are the ``src`` directories of two
checkouts. The script mutates the bundled evidence cases, a few
documents with blank nodes (shared, cyclic, nested and tied ones, so
that labelling and block order are exercised), and documents of three
bundled cases renamed apart and concatenated (so that a mutation reaches
buckets of several triples, the order of several focus nodes and the
diagnostics of each), the constraint
queries (the bundled ones, and those ``perfbench/generate.py`` writes for
seeds 1-10) and the block sources (the bundled ``.ir.yaml`` files, and the
record files ``perfbench/generate.py`` writes for seed 1) ``N`` times
each, runs every input through each side (one fresh interpreter per
side, the two at once), and prints how many inputs gave the same outcome
on both sides, then each class of differing outcomes with its count and
one example input, then how many block sources each side read without
PyYAML (through ``ir._read_flat``, where the side has it), and last
whether each side read the Turtle inputs through one term table. Where
a side's ``parse_turtle`` takes one (``rdf.TermTable``), that side reads
every Turtle input of the run through the same table, in order, so a
term that leaks from one document into the next shows as a difference
against a side that parses each input alone. The
parent side runs with ``PYTHONHASHSEED=0`` and the change side with
``PYTHONHASHSEED=1``, so an outcome that depends on set or dictionary
order shows up as a difference, and the same seeds reproduce it.

An outcome is either a value or an exception. A Turtle input's value is
a digest of its triples, prefixes and canonical serialization and of
its report graph and diagnostics under every bundled profile. A query's
value is a digest of its parse, of ``hash`` and ``==`` against a second
parse, and of its solutions and diagnostics for every focus node of the
bundled cases. A block source's value is a digest of its parsed records
and of the canonical Turtle of two documents: the block compiled from
them, and its composition with the bundled ``accountability`` and
``fairness_transparency`` blocks.
An exception is its class and message; a class of differing outcomes
names both sides by the first line of each message, with digits
blanked.

Inputs are generated from the seed, not stored: each side and the final
comparison regenerate the same sequence, so a run over large record
files holds one input at a time.
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
from itertools import groupby
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "govshapes" / "data"
QUERY_SEEDS = range(1, 11)
BLOCK_SEED = 1
COMPOSED_BLOCKS = ("accountability", "fairness_transparency")

# What one edit may insert: punctuation, terms, escapes, keywords, layout
# characters either lexer may reject, runs deep enough to nest past any
# parser limit, and texts whose first character opens several token
# kinds (a directive, a language tag or '@'; a blank node or '_'; '^^' or
# '^'; a prefixed name, a keyword or a bad word; a numeral, a dot or a
# sign; an IRI or '<'), where reading a token by its text can go wrong.
PIECES = (
    " ", ".", ";", ",", "[", "]", "(", ")", "{", "}", '"', '"""', "<", ">",
    "<rel>", "<http://x.example/y>", "ex:", "ex:p", "_:b", "a", "A",
    "@prefix", "@en", "^^", "xsd:decimal", "1", "-", "+", "1.5", "1e3", ".5",
    "\\", "\\r", "\\b", "\\f", "\\'", "\\t", "\\U0001F600", "\\U00110000",
    "\\u0041", "\\q", "#", "\n", "\t", "\f", "\xa0", "٣", "²",
    "?x", "$this", "FILTER(", "BIND(", " AS ", "ABS(", "IF(", "=", "!=", "<=",
    "*", "/", "true", "OPTIONAL", "- " * 150, "(" * 60, "[ ex:p " * 60,
    "@base", "@prefixes", "@", "_:", "^", ":a", "ex:a:b", "ex:a.", "12abc", "1e",
    ".5e3", "+.5", "a.b", "true.x", "'", "<abc",
)

# The same for YAML block sources: indicators, tags, anchors, merge keys,
# layout (tabs among it), characters no YAML reader accepts (a lone
# surrogate, NUL), record fields and values, and nesting past any
# recursion limit; then the border of ir._read_flat, the reader of the
# flat layout: other block headers, a CRLF, YAML 1.1's bool, null, octal,
# underscored, sexagesimal and infinite values, a comment after a value
# and trailing spaces.
BLOCK_PIECES = (
    " ", "\n", "\t", " \t", "  ", "- ", ": ", "? ", "[", "]", "{", "}", ",",
    "#", "'", '"', "|", "|-", ">", "&a ", "*a", "<<: ", "!!int ", "!!str ",
    "---\n", "...\n", "%YAML 1.1\n", "\\", "\\x", "\ud800", "\udfff",
    "\x00", "\x85", "\ufeff", "\u2028", "\xa0", "é", "{{threshold}}",
    "ex:", "ex:p", "<rel>", "http://x.example/y", "obligation_id: ",
    "min_count: ", "severity: Warning", "true", "1.5", "-1", "2001-13-01",
    "[" * 600, "{a: " * 600, "- " * 300,
    "|+", "|2", "\r\n", "yes", "No", "~", "null", "07", "1_0", "1:20", ".inf",
    " # c", "  \n",
)

# Turtle documents whose blank nodes take each path of the serializer: a
# shared node, a two-node cycle, [ ] nested three deep, root nodes tied on
# content, two graphs whose labelled and inline nodes tie, a three-node
# cycle entered from two roots, and two shared diamonds below an inline
# node: the last two sit on each side of the memoized content keys.
BNODE_DOCUMENTS = tuple("@prefix ex: <http://example.org/okb#> .\n" + text for text in (
    "ex:d1 a ex:Decision ; ex:hasExplanation _:e .\n"
    "ex:d2 a ex:Decision ; ex:hasExplanation _:e .\n_:e ex:text \"why\" .\n",
    "_:a ex:next _:b ; ex:tag \"one\" .\n_:b ex:next _:a .\n",
    "ex:s ex:p [ ex:p [ ex:p [ ex:q 1 ] ] ] .\n",
    "_:r2 ex:p _:x .\n_:r1 ex:p _:y .\n_:x ex:q ex:o .\n_:y ex:q ex:o .\n"
    "ex:s ex:r _:x, _:y .\n",
    "ex:A ex:A [ ex:A ex:A ], [ ex:A ex:A ], [ ex:A ex:A ], _:x .\n"
    "ex:B ex:B _:x .\n_:x ex:A ex:A .\n",
    "ex:s ex:r _:x, _:y .\nex:t ex:r _:x, _:y .\n_:x ex:q ex:o . _:y ex:q ex:o .\n"
    "_:m ex:p _:x . _:n ex:p _:y .\nex:u ex:v [ ex:p _:x ], [ ex:p _:y ] .\n",
    "_:r1 ex:p _:a .\n_:r2 ex:p _:b .\n_:a ex:p _:b .\n_:b ex:p _:c .\n"
    "_:c ex:p _:a ; ex:q \"x\" .\n",
    "ex:s ex:p [ ex:l _:a ; ex:r _:b ] .\n_:a ex:p _:n .\n_:b ex:p _:n .\n"
    "_:n ex:l _:c ; ex:r _:d .\n_:c ex:p _:m .\n_:d ex:p _:m .\n_:m ex:q 1 .\n",
))


# Three bundled cases per document, each renamed apart by generate.rename:
# decisions that conform, fail a structural check or fail the disparity
# query sit side by side.
MULTI_DECISION_CASES = (
    ("conform", "disparity_exceeds", "missing_explanation"),
    ("missing_model_artifact", "exp1_violate", "disparity_exceeds"),
    ("exp1_conform", "exp1_profile", "conform"),
)


def _base_inputs() -> dict[str, list[str]]:
    import yaml

    sys.path.insert(0, str(ROOT / "perfbench"))
    import generate

    def case(case_id: str) -> str:
        return (DATA / "cases" / f"case_{case_id}.ttl").read_text("utf-8")

    cases = [p.read_text("utf-8") for p in sorted((DATA / "cases").glob("*.ttl"))]
    cases += BNODE_DOCUMENTS
    cases += ["".join(generate.rename(case(case_id), f"m{i}") for i, case_id in enumerate(ids))
              for ids in MULTI_DECISION_CASES]
    blocks = [p.read_text("utf-8") for p in sorted((DATA / "blocks").glob("*.ir.yaml"))]
    sources = blocks + [text for seed in QUERY_SEEDS
                        for s in generate.obligation_sets(seed) for text in s.texts[:1]]
    queries = []
    for source in sources:
        for record in yaml.safe_load(source) or ():
            if "sparql_text" in record:
                queries.append(record["sparql_text"].replace(
                    "{{threshold}}", record.get("threshold_ref", "")))
    blocks += [text for s in generate.obligation_sets(BLOCK_SEED) for text in s.texts]
    return {"turtle": cases, "sparql": sorted(set(queries)), "blocks": blocks}


def mutate(rng: random.Random, text: str, pieces=PIECES) -> str:
    """One to three seeded edits: delete a span, insert a piece, duplicate
    a span, or replace a character with one from a piece."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[i + rng.randint(1, 8):]
        elif op == 1:
            text = text[:i] + rng.choice(pieces) + text[i:]
        elif op == 2:
            j = min(len(text), i + rng.randint(1, 20))
            text = text[:j] + text[i:j] + text[j:]
        elif text:
            i = min(i, len(text) - 1)
            text = text[:i] + rng.choice(rng.choice(pieces)) + text[i + 1:]
    return text


def iter_inputs(mutations: int, seed: int):
    """``(kind, text)`` pairs: each kind's base inputs, then its mutations."""
    rng = random.Random(seed)
    for kind, texts in _base_inputs().items():
        pieces = BLOCK_PIECES if kind == "blocks" else PIECES
        yield from ((kind, text) for text in texts)
        for _ in range(mutations):
            yield kind, mutate(rng, rng.choice(texts), pieces)


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


def work(mutations: int, seed: int, outcomes_path: str) -> None:
    from govshapes import corpus, governance, ir, rdf
    from govshapes.rdf import EX, parse_turtle, serialize_turtle
    from govshapes.shacl import emit_report_graph
    from govshapes.sparql import evaluate, parse_sparql

    registry = corpus.default_registry()
    profiles = corpus.COMPILER_PROFILES + corpus.JURISDICTION_PROFILES
    graphs = [graph for _, graph in corpus.full_corpus()]

    table_class = getattr(rdf, "TermTable", None)  # None where each parse has its own
    terms = None if table_class is None else table_class()

    def turtle(text):
        g = parse_turtle(text) if terms is None else parse_turtle(text, terms)
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

    read_flat = getattr(ir, "_read_flat", None)  # None where PyYAML reads all
    flat_accepted = None if read_flat is None else 0

    bundled = [registry.block(name) for name in COMPOSED_BLOCKS]

    def blocks(text):
        nonlocal flat_accepted
        if read_flat is not None and read_flat(text) is not None:
            flat_accepted += 1
        records = ir.parse_ir(text)
        block = ir.compile_block(records, "mutated")
        composed = governance.compose([block, *bundled])
        return [repr(records), serialize_turtle(block.document_graph()),
                serialize_turtle(composed.document_graph())]

    front_ends = {"turtle": turtle, "sparql": sparql, "blocks": blocks}
    outcomes = [_outcome(front_ends[kind], text)
                for kind, text in iter_inputs(mutations, seed)]
    side = {"outcomes": outcomes, "flat_accepted": flat_accepted,
            "term_table": terms is not None}
    Path(outcomes_path).write_text(json.dumps(side), "utf-8")


# ---------------------------------------------------------------------------
# Comparison of the two sides
# ---------------------------------------------------------------------------

def _start_side(src: Path, hash_seed: int, mutations: int, seed: int,
                outcomes_path: Path):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(hash_seed))
    return subprocess.Popen([sys.executable, __file__, "--worker", str(mutations),
                             str(seed), str(outcomes_path)], env=env)


def _side(process: subprocess.Popen, outcomes_path: Path) -> dict:
    """The side's outcomes, and how many block sources its flat reader
    accepted (None when it has none)."""
    if process.wait() != 0:
        raise SystemExit(f"worker exited with status {process.returncode}")
    return json.loads(outcomes_path.read_text("utf-8"))


def _summary(outcome: list[str]) -> str:
    """``ok``, or the exception's class and the first line of its message:
    a YAML error's later lines only point into the input."""
    if outcome[0] == "ok":
        return "ok"
    return re.sub(r"\d+", "N", outcome[1].split("\n", 1)[0])


def compare(inputs, parent: list, change: list) -> None:
    """Print the table; ``inputs`` yields ``(kind, text)`` in outcome order."""
    rows = zip(inputs, parent, change)
    for kind, group in groupby(rows, key=lambda row: row[0][0]):
        total = same = accepted = 0
        classes: Counter = Counter()
        examples: dict[tuple, str] = {}
        for (_, text), a, b in group:
            total += 1
            accepted += a[0] == b[0] == "ok"
            if a == b:
                same += 1
                continue
            key = (_summary(a), _summary(b))
            classes[key] += 1
            examples.setdefault(key, text)
        print(f"{kind}: {total} inputs, {same} same outcome, "
              f"{accepted} accepted by both, {total - same} differ")
        for (a, b), count in classes.most_common():
            example = examples[a, b]
            print(f"  {count:6d}  parent {a[:100]!r}\n"
                  f"          change {b[:100]!r}\n"
                  f"          e.g. {example[:160]!r}")


def main() -> None:
    if sys.argv[1:2] == ["--worker"]:
        work(int(sys.argv[2]), int(sys.argv[3]), sys.argv[4])
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--mutations", type=int, default=10_000,
                        help="mutations per input kind (default 10000)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp) / "parent.json", Path(tmp) / "change.json"
        processes = [_start_side(src.resolve(), hash_seed, args.mutations, args.seed, path)
                     for hash_seed, src, path in zip((0, 1), (args.parent_src, args.change_src),
                                                     paths)]
        parent, change = [_side(p, path) for p, path in zip(processes, paths)]
    compare(iter_inputs(args.mutations, args.seed), parent["outcomes"], change["outcomes"])
    for name, side in (("parent", parent), ("change", change)):
        flat = side["flat_accepted"]
        print(f"blocks read by the flat reader, {name}: "
              + ("none (no flat reader)" if flat is None else str(flat)))
    for name, side in (("parent", parent), ("change", change)):
        print(f"Turtle inputs read through one term table, {name}: "
              + ("yes" if side.get("term_table") else "no"))


if __name__ == "__main__":
    main()
