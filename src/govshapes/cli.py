"""Command-line surface.

Subcommands:

  compile        obligation records -> canonical shape block
  compose        union several compiled block sources into one document
  validate       evidence graph + profile -> verdict / report graph
  refine         refinement matrix + equivalence sweep over a corpus
  bench          warm validation latency per (profile, case)
  hash-manifest  content hashes of policy artifacts

Exit codes: 0 success (and evidence conforms), 1 evidence does not
conform, 2 any error (bad input, unknown name, schema problem).

Block and profile lookups default to the bundled data; a JSON config
file (``--config``) with ``blocks_dir``, ``profiles_dir`` and
``cases_dir`` switches to external artifact directories.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

from . import corpus as corpus_data
from .errors import GovshapesError, TurtleSyntaxError
from .governance import Registry, compose, parse_profile
from .ir import compile_block, parse_ir
from .rdf import Graph, Iri, Literal, TermTable, parse_turtle, serialize_turtle
from .shacl import emit_report_graph, qname


def _term_str(term) -> str:
    if isinstance(term, Iri):
        return qname(term)
    if isinstance(term, Literal):
        return term.lexical
    return "_:" + term.label


def _sha256(data: bytes) -> str:
    import hashlib  # imported here, not at every CLI start-up
    return hashlib.sha256(data).hexdigest()


def _append_run_record(log_path: str, command: list[str],
                       inputs: dict[str, str], report_hash: str, **counts: int) -> None:
    from datetime import datetime, timezone  # imported here, not at every CLI start-up
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": " ".join(command),
        "inputs": inputs,
        "report_hash": report_hash,
        **counts,
    }
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Registry / corpus resolution
# ---------------------------------------------------------------------------

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    config = json.loads(Path(path).read_text("utf-8"))
    if not isinstance(config, dict):
        raise GovshapesError("config file must hold a JSON object")
    unknown = set(config) - {"blocks_dir", "profiles_dir", "cases_dir"}
    if unknown:
        raise GovshapesError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in config.items():
        if value is not None and not isinstance(value, str):
            raise GovshapesError(f"config key {key!r} must be a directory path")
    # a null or empty value acts like an absent key: Path("") would be "."
    config = {key: value for key, value in config.items() if value}
    if "profiles_dir" in config and "blocks_dir" not in config:
        raise GovshapesError("config key 'profiles_dir' needs 'blocks_dir'")
    return config


def _build_registry(config: dict) -> Registry:
    if "blocks_dir" not in config:
        return corpus_data.default_registry()
    registry = Registry()
    blocks_dir = Path(config["blocks_dir"])
    for path in sorted(blocks_dir.glob("*.ir.yaml")):
        name = path.name[: -len(".ir.yaml")]
        registry.add_block_source(name, path.read_text("utf-8"))
    profiles_dir = Path(config.get("profiles_dir", config["blocks_dir"]))
    for path in sorted(profiles_dir.glob("*.profile")):
        registry.add_profile(parse_profile(path.read_text("utf-8")))
    return registry


def _load_corpus(config: dict, corpus_dir: str | None) -> list[tuple[str, Graph]]:
    directory = corpus_dir or config.get("cases_dir")
    if directory is None:
        return corpus_data.compiler_corpus()
    pairs = []
    files: dict[str, Path] = {}
    terms = TermTable()  # one load's parses share their terms
    for path in sorted(Path(directory).glob("*.ttl")):
        case_id = path.stem
        if case_id.startswith("case_"):
            case_id = case_id[len("case_"):]
        if not case_id:
            raise GovshapesError(f"case file {path} gives an empty case id")
        if case_id in files:
            raise GovshapesError(f"case id {case_id!r} is given by two files: "
                                 f"{files[case_id]} and {path}")
        files[case_id] = path
        try:
            pairs.append((case_id, parse_turtle(path.read_text("utf-8"), terms)))
        except (TurtleSyntaxError, UnicodeDecodeError) as exc:
            raise GovshapesError(f"{path}: {exc}") from exc
    if not pairs:
        raise GovshapesError(f"no .ttl case files under {directory}")
    return pairs


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_compile(args) -> int:
    ir_path = Path(args.ir_file)
    records = parse_ir(ir_path.read_text("utf-8"))
    block = compile_block(records, ir_path.stem.replace(".ir", ""))
    text = serialize_turtle(block.document_graph())
    Path(args.output).write_text(text, "utf-8")
    print(f"{len(block.shapes)} shapes -> {args.output}")
    if args.run_log:
        _append_run_record(args.run_log, args.argv,
                           {str(ir_path): _sha256(ir_path.read_bytes())},
                           _sha256(text.encode("utf-8")))
    return 0


def cmd_compose(args) -> int:
    registry = _build_registry(_load_config(args.config))
    blocks = [registry.block(name) for name in args.blocks]
    composed = compose(blocks)
    text = serialize_turtle(composed.document_graph())
    if args.output:
        Path(args.output).write_text(text, "utf-8")
        print(f"{len(composed.shapes)} shapes ({composed.name}) -> {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_validate(args) -> int:
    registry = _build_registry(_load_config(args.config))
    case_path = Path(args.case_file)
    evidence = parse_turtle(case_path.read_text("utf-8"))
    profile_report = registry.validate_profile(evidence, args.profile,
                                               case_id=case_path.stem)
    report = profile_report.report
    # the report graph is built only for a reader: stdout or the run log
    report_text = (serialize_turtle(emit_report_graph(report))
                   if args.format == "turtle" or args.run_log else None)
    if args.format == "turtle":
        print(report_text, end="")
    else:
        for v in report.violations:
            print(f"{qname(v.source_shape)}\t{_term_str(v.focus_node)}\t{v.message}")
    # a solution a type error eliminated may hide a violation
    for d in report.diagnostics:
        print(f"warning: query clause {d.clause_index} eliminated a solution: "
              f"{d.reason}", file=sys.stderr)
    if args.run_log:
        _append_run_record(args.run_log, args.argv,
                           {str(case_path): _sha256(case_path.read_bytes())},
                           _sha256(report_text.encode("utf-8")),
                           diagnostics=len(report.diagnostics))
    return 0 if report.conforms else 1


def _profiles_over_corpus(args) -> tuple[Registry, list[str], list[tuple[str, Graph]]]:
    """The registry, the profiles named (the compiler trio by default) and
    the corpus that ``refine`` and ``bench`` run over."""
    config = _load_config(args.config)
    registry = _build_registry(config)
    profiles = args.profiles or list(corpus_data.COMPILER_PROFILES)
    return registry, profiles, _load_corpus(config, args.corpus)


def cmd_refine(args) -> int:
    registry, profiles, corpus = _profiles_over_corpus(args)
    verdicts, diagnostics = registry.refinement_sweep(profiles, corpus)
    held = 0
    for v in verdicts:
        if v.holds:
            held += 1
            print(f"{v.p1} refines {v.p2}: holds")
        else:
            case_id, witness = v.counterexamples[0]
            print(f"{v.p1} refines {v.p2}: does not hold "
                  f"({len(v.counterexamples)} counterexample(s), "
                  f"e.g. case {case_id}: {qname(witness.source_shape)})")
    print(f"{held} hold, {len(verdicts) - held} do not hold")

    # a profile always refines itself, so a repeated name is its own equivalent
    holds = {(v.p1, v.p2): v.holds for v in verdicts}
    equivalent_pairs = [(p1, p2) for i, p1 in enumerate(profiles)
                        for p2 in profiles[i + 1:]
                        if p1 == p2 or (holds[p1, p2] and holds[p2, p1])]
    if equivalent_pairs:
        for p1, p2 in equivalent_pairs:
            print(f"equivalent: {p1} == {p2}")
    else:
        print("no equivalent pairs")
    # a solution a type error eliminated may hide a counterexample
    for case_id, d in diagnostics:
        print(f"warning: case {case_id}: query clause {d.clause_index} "
              f"eliminated a solution: {d.reason}", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    if args.samples < 30:
        raise GovshapesError("bench needs at least 30 samples per pair")
    import statistics  # imported here, not at every CLI start-up
    registry, profiles, corpus = _profiles_over_corpus(args)
    if args.cases:
        wanted = set(args.cases)
        corpus = [(cid, g) for cid, g in corpus if cid in wanted]
        missing = wanted - {cid for cid, _ in corpus}
        if missing:
            raise GovshapesError(f"cases not in corpus: {', '.join(sorted(missing))}")

    print(f"# {args.samples} warm samples per pair; graphs parsed and "
          "profiles composed before timing (validation only)")
    print(f"{'profile':<16} {'case':<24} {'samples':>7} "
          f"{'min_ms':>9} {'median_ms':>9} {'max_ms':>9}")
    for profile in profiles:
        for case_id, graph in corpus:
            registry.validate_profile(graph, profile)  # warm: compose + caches
            registry.validate_profile(graph, profile)
            timings = []
            for _ in range(args.samples):
                start = time.perf_counter()
                registry.validate_profile(graph, profile)
                timings.append((time.perf_counter() - start) * 1000.0)
            print(f"{profile:<16} {case_id:<24} {len(timings):>7} "
                  f"{min(timings):>9.3f} {statistics.median(timings):>9.3f} "
                  f"{max(timings):>9.3f}")
    return 0


def cmd_hash_manifest(args) -> int:
    entries = []
    for raw in args.paths:
        path = Path(raw)
        if not path.is_file():
            raise GovshapesError(f"not a file: {raw}")
        entries.append((str(path), _sha256(path.read_bytes())))
    lines = [f"{digest}  {name}" for name, digest in sorted(entries)]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.output:
        Path(args.output).write_text(text, "utf-8")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

#: The collector's gen-0 threshold during one ``main`` call; CPython's
#: default is 700.
GEN0_THRESHOLD = 50_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="govshapes",
        description="Compile obligation records into constraint shapes and "
                    "validate evidence graphs against governance profiles.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("compile", help="compile an .ir.yaml block source")
    p.add_argument("ir_file")
    p.add_argument("-o", "--output", required=True,
                   help="where to write the canonical Turtle block")
    p.add_argument("--run-log", help="append a run record to this JSONL file")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("compose", help="compose blocks into one document")
    p.add_argument("blocks", nargs="+", help="block names")
    p.add_argument("-o", "--output")
    p.add_argument("--config")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("validate", help="validate an evidence graph")
    p.add_argument("case_file")
    p.add_argument("--profile", required=True)
    p.add_argument("--format", choices=("text", "turtle"), default="text")
    p.add_argument("--config")
    p.add_argument("--run-log", help="append a run record to this JSONL file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("refine", help="refinement matrix over a corpus")
    p.add_argument("profiles", nargs="*",
                   help="profiles to compare (default: the compiler trio)")
    p.add_argument("--corpus", help="directory of .ttl case files")
    p.add_argument("--config")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("bench", help="warm validation latency per (profile, case)")
    p.add_argument("--profiles", nargs="*")
    p.add_argument("--cases", nargs="*")
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--corpus", help="directory of .ttl case files")
    p.add_argument("--config")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("hash-manifest", help="sha256 manifest of artifact files")
    p.add_argument("paths", nargs="+")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_hash_manifest)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit status.

    For the length of the call, every subcommand but ``bench`` runs with
    the collector's gen-0 threshold raised to ``GEN0_THRESHOLD``: a run
    builds many long-lived objects (terms, triples, index buckets) and
    frees few, so the default threshold walks them again and again for
    little. ``bench`` keeps the caller's thresholds, since its samples
    time the library as any caller runs it. The caller's thresholds are
    restored however the call ends.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    args.argv = list(argv)
    thresholds = gc.get_threshold()
    if args.subcommand != "bench":
        gc.set_threshold(GEN0_THRESHOLD, *thresholds[1:])
    try:
        return args.func(args)
    except (GovshapesError, OSError, UnicodeDecodeError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON config: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
