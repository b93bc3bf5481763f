"""Seeded benchmark inputs and their reference results.

Everything here works on text: the bundled evidence cases and block sources
are read as files, renamed with regular expressions and written back out as
Turtle, YAML or a directory of ``.ttl`` files. Expected results come from
``goldens.json``. Nothing in this module imports govshapes, so a wrong
answer from the code under test cannot leak into the reference.

The same seed gives the same bytes: every random choice is drawn from a
``random.Random`` seeded with the workload name and the seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

COMPILER_CASES = ("conform", "missing_explanation", "missing_model_artifact",
                  "disparity_exceeds")
JURISDICTION_CASES = ("exp1_conform", "exp1_profile", "exp1_violate")
COMPILER_PROFILES = ("Accountability", "Fairness", "Combined")
JURISDICTION_PROFILES = ("EU", "US", "China", "EU+Fairness")

# The blocks the compile workload composes its generated block with; the
# bundled Combined profile is exactly these two.
COMPOSED_BLOCKS = ("accountability", "fairness_transparency")

# Input sizes. They define the workloads, as BENCHMARK.json describes them.
LARGE_DOCUMENTS = 4     # evidence_large: documents, used in turn
PER_CASE = 25           # copies of each compiler case per large document or corpus
PER_PAIR = 10           # evidence_small: copies of each golden (case, profile) pair
OBLIGATION_SETS = 3     # compile_blocks: record sets, each in two record orders
RECORDS = 200           # records per set
QUERY_SHARE = 0.25      # share of query (SPARQL) records in a set

# Individuals in the bundled cases are ``ex:`` names ending in digits
# (ex:decision001, ex:log001, ...); classes and predicates never are.
_INDIVIDUAL_RE = re.compile(r"\bex:([A-Za-z]+[0-9]+)\b")
_PREFIX_LINE_RE = re.compile(r"^@prefix[^\n]*\n", re.MULTILINE)
_OBLIGATION_ID_RE = re.compile(r"^- obligation_id: (\S+)$", re.MULTILINE)


class BundledData:
    """The package's data directory, read as plain files."""

    def __init__(self, data_dir: Path):
        self.goldens = json.loads((data_dir / "goldens.json").read_text("utf-8"))
        self.cases = {case_id: (data_dir / "cases" / f"case_{case_id}.ttl").read_text("utf-8")
                      for case_id in COMPILER_CASES + JURISDICTION_CASES}
        self.block_ids = {
            name: frozenset(_OBLIGATION_ID_RE.findall(
                (data_dir / "blocks" / f"{name}.ir.yaml").read_text("utf-8")))
            for name in COMPOSED_BLOCKS}

    def golden(self, case_id: str, profile: str) -> tuple[bool, int]:
        matrix = ("jurisdiction_matrix" if case_id in JURISDICTION_CASES
                  else "compiler_matrix")
        cell = self.goldens[matrix][case_id][profile]
        return cell["conforms"], cell["violations"]

    def golden_pairs(self) -> list[tuple[str, str]]:
        """Every (case, profile) pair the goldens cover, in file order."""
        return [(case_id, profile)
                for matrix in ("compiler_matrix", "jurisdiction_matrix")
                for case_id, row in self.goldens[matrix].items()
                for profile in row]


def rename(text: str, tag: str | None) -> str:
    """Suffix every individual's local name with ``_<tag>``."""
    if tag is None:
        return text
    return _INDIVIDUAL_RE.sub(lambda m: f"ex:{m.group(1)}_{tag}", text)


def copy_tag(focus_iri: str) -> str:
    """The copy a renamed individual belongs to ('' when not renamed)."""
    local = focus_iri.rsplit("#", 1)[-1]
    return local.rsplit("_", 1)[1] if "_" in local else ""


def _tags(rng: random.Random, n: int) -> list[str]:
    tags: list[str] = []
    seen: set[str] = set()
    while len(tags) < n:
        tag = f"{rng.getrandbits(32):08x}"
        if tag not in seen:
            seen.add(tag)
            tags.append(tag)
    return tags


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# Evidence validation: evidence_large and evidence_small
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvidenceInput:
    """One evidence document, the profile to run, and the expected report."""

    text: str
    profile: str
    conforms: bool
    violations: int
    per_copy: tuple[tuple[str, int], ...]   # (copy tag, violations), nonzero only


def evidence_input(data: BundledData, copies: list[tuple[str, str | None]],
                   profile: str) -> EvidenceInput:
    """Concatenate renamed copies of bundled cases into one document.

    The expected report sums the golden cells of the copies: copies share
    no individuals, so no violation of one copy depends on another.
    """
    header = "".join(_PREFIX_LINE_RE.findall(data.cases[copies[0][0]]))
    bodies = [rename(_PREFIX_LINE_RE.sub("", data.cases[case_id]), tag)
              for case_id, tag in copies]
    per_copy = []
    conforms = True
    for case_id, tag in copies:
        ok, count = data.golden(case_id, profile)
        conforms = conforms and ok
        if count:
            per_copy.append((tag or "", count))
    return EvidenceInput(header + "".join(bodies), profile, conforms,
                         sum(c for _, c in per_copy), tuple(sorted(per_copy)))


def large_documents(data: BundledData, seed: int) -> list[EvidenceInput]:
    """Documents of ``4 * PER_CASE`` decisions, validated against Combined.

    Every document holds the same number of copies of each compiler case,
    so all seeds give documents of one size; the seed picks the order and
    the names.
    """
    rng = _rng("evidence_large", seed)
    out = []
    for _ in range(LARGE_DOCUMENTS):
        kinds = [case_id for case_id in COMPILER_CASES for _ in range(PER_CASE)]
        rng.shuffle(kinds)
        out.append(evidence_input(data, list(zip(kinds, _tags(rng, len(kinds)))),
                                  "Combined"))
    return out


def small_documents(data: BundledData, seed: int) -> list[EvidenceInput]:
    """Single renamed cases, ``PER_PAIR`` of each golden (case, profile) pair."""
    rng = _rng("evidence_small", seed)
    pairs = [pair for pair in data.golden_pairs() for _ in range(PER_PAIR)]
    rng.shuffle(pairs)
    tags = _tags(rng, len(pairs))
    return [evidence_input(data, [(case_id, tag)], profile)
            for (case_id, profile), tag in zip(pairs, tags)]


# ---------------------------------------------------------------------------
# Refinement over a case directory: refine_corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefineExpectation:
    """One expected ``refine`` line, matched as a regular expression."""

    holds: bool
    pattern: re.Pattern


def refine_cases(data: BundledData, seed: int) -> list[tuple[str, str, str]]:
    """(file name, kind, Turtle) for ``PER_CASE`` copies of each compiler case.

    The file stem is the copy's tag, so the seed decides the order in which
    ``refine`` reads the cases.
    """
    rng = _rng("refine_corpus", seed)
    kinds = [case_id for case_id in COMPILER_CASES for _ in range(PER_CASE)]
    rng.shuffle(kinds)
    return [(f"{tag}.ttl", case_id, rename(data.cases[case_id], tag))
            for case_id, tag in zip(kinds, _tags(rng, len(kinds)))]


def refine_expectation(data: BundledData,
                       cases: list[tuple[str, str]]) -> list[RefineExpectation]:
    """Expected verdicts of ``refine`` (compiler trio) on (case id, kind) pairs.

    ``holds`` comes from the goldens' refinement table. The counterexample
    count comes from the compiler matrix: on every compiler case the
    violations of the profile that finds fewer are among those of the one
    that finds more (Combined is the union of its parts), so P1 misses
    ``max(0, v(P2) - v(P1))`` of P2's violations per case. The two parts
    of the goldens are checked against each other here.
    """
    holds = {(r["p1"], r["p2"]): r["holds"] for r in data.goldens["refinement"]}
    out = []
    for p1 in COMPILER_PROFILES:
        for p2 in COMPILER_PROFILES:
            if p1 == p2:
                continue
            missed = {case_id: max(0, data.golden(kind, p2)[1] - data.golden(kind, p1)[1])
                      for case_id, kind in cases}
            total = sum(missed.values())
            if holds[(p1, p2)] != (total == 0):
                raise ValueError(f"goldens disagree on {p1} refines {p2}")
            head = re.escape(f"{p1} refines {p2}: ")
            if holds[(p1, p2)]:
                pattern = re.compile(head + "holds")
            else:
                witnesses = "|".join(sorted(re.escape(c) for c, n in missed.items() if n))
                pattern = re.compile(
                    head + re.escape(f"does not hold ({total} counterexample(s), e.g. case ")
                    + f"(?:{witnesses}): ex:[A-Z][0-9]+Shape\\)")
            out.append(RefineExpectation(holds[(p1, p2)], pattern))
    return out


def check_refine_output(expected: list[RefineExpectation], stdout: str) -> bool:
    """Does ``refine`` stdout match the expected verdicts line for line?"""
    lines = stdout.splitlines()
    held = sum(e.holds for e in expected)
    want = len(expected) + 2
    return (len(lines) == want
            and all(e.pattern.fullmatch(line) for e, line in zip(expected, lines))
            and lines[-2] == f"{held} hold, {len(expected) - held} do not hold"
            and lines[-1] == "no equivalent pairs")


# ---------------------------------------------------------------------------
# Obligation files: compile_blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObligationSet:
    """One generated record set, written out in two record orders."""

    ids: frozenset[str]
    texts: tuple[str, str]
    query_records: int


_DATATYPES = ("xsd:decimal", "xsd:dateTime", "xsd:string", "xsd:integer")
_SEVERITIES = ("Violation", "Warning", "Info")
# Record kinds, in fixed shares so that every seed compiles the same amount
# of work: plain, datatype and value-class structural records, and the two
# query templates.
_KINDS = ("plain", "datatype", "value_class", "disparity", "two_hop")


def _record(kind: str, n: int, oid: str, rng: random.Random, classes: list[str],
            relations: list[str]) -> list[str]:
    lines = [f"- obligation_id: {oid}",
             f"  target_class: {classes[n % len(classes)]}"]
    if kind in ("plain", "datatype", "value_class"):
        lines += ["  constraint_type: structural",
                  f"  relation: {rng.choice(relations)}"]
        if kind == "datatype":
            lines.append(f"  datatype: {_DATATYPES[n % len(_DATATYPES)]}")
        elif kind == "value_class":
            lines.append(f"  value_class: {rng.choice(classes)}")
        lines += [f"  min_count: {n % 3}",
                  f"  severity: {_SEVERITIES[n % 3]}",
                  f"  message: Generated obligation {oid} must hold."]
        return lines
    a, b, c = rng.sample(relations, 3)
    lines.append("  constraint_type: sparql")
    if kind == "disparity":
        lines.append(f"  threshold_ref: {c}")
        body = [f"$this {a} ?a ;",
                f"      {b} ?b ;",
                "      {{threshold}} ?t .",
                "BIND(IF(?a > ?b, ?a, ?b) AS ?mx)",
                "BIND(IF(?mx = 0, 0, (ABS(?a - ?b) / ?mx)) AS ?ratio)",
                "FILTER(?ratio > ?t)"]
    else:
        body = [f"$this {a} ?x .",
                f"?x {b} ?s .",
                f"FILTER(?s < {n % 100}.5)"]
    lines += [f"  severity: {_SEVERITIES[n % 3]}",
              f"  message: Generated query obligation {oid} must hold.",
              "  sparql_text: |-",
              "    SELECT $this WHERE {"]
    lines += [f"      {line}" for line in body]
    lines.append("    }")
    return lines


def obligation_sets(seed: int) -> list[ObligationSet]:
    """Record files mixing structural and query records.

    Each set is written twice, in two shuffled record orders; compiling
    either must give byte-identical Turtle. Obligation ids start with
    ``G`` so they never collide with the bundled A1-B5.
    """
    rng = _rng("compile_blocks", seed)
    n_query = round(RECORDS * QUERY_SHARE)
    kinds = ([_KINDS[i % 3] for i in range(RECORDS - n_query)]
             + [_KINDS[3 + i % 2] for i in range(n_query)])
    out = []
    for _ in range(OBLIGATION_SETS):
        vocab = _tags(rng, 48)
        classes = [f"ex:Kind_{t}" for t in vocab[:12]]
        relations = [f"ex:rel_{t}" for t in vocab[12:]]
        ids = [f"G{t}" for t in _tags(rng, RECORDS)]
        entries = [_record(kind, n, oid, rng, classes, relations)
                   for n, (kind, oid) in enumerate(zip(kinds, ids))]
        texts = []
        for _ in range(2):
            rng.shuffle(entries)
            texts.append("\n\n".join("\n".join(e) for e in entries) + "\n")
        out.append(ObligationSet(frozenset(ids), (texts[0], texts[1]), n_query))
    return out
