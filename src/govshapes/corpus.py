"""Bundled evidence cases, block sources, profiles, and golden outcomes.

Everything here is static package data under ``govshapes/data``:

  blocks/     obligation record sources, one ``.ir.yaml`` per block
  profiles/   profile manifests, one ``.profile`` file each
  cases/      evidence graphs, ``case_<id>.ttl``
  goldens.json  the expected conformance and refinement verdicts

The seven case ids: ``conform``, ``missing_explanation``,
``missing_model_artifact``, ``disparity_exceeds`` form the compiler
corpus; ``exp1_conform``, ``exp1_profile``, ``exp1_violate`` drive the
jurisdiction sweep.
"""

from __future__ import annotations

import json
from importlib import resources

from ._record import Record
from .errors import UnknownCaseError
from .governance import Registry, parse_profile
from .ir import IrRecord, parse_ir
from .rdf import Graph, TermTable, parse_turtle

COMPILER_CASES = ("conform", "missing_explanation", "missing_model_artifact",
                  "disparity_exceeds")
JURISDICTION_CASES = ("exp1_conform", "exp1_profile", "exp1_violate")
CASE_IDS = COMPILER_CASES + JURISDICTION_CASES

COMPILER_PROFILES = ("Accountability", "Fairness", "Combined")
JURISDICTION_PROFILES = ("EU", "US", "China", "EU+Fairness")

BLOCK_NAMES = ("accountability", "fairness_transparency", "logging",
               "provenance", "transparency", "fairness", "empty")

_CASE_DESCRIPTIONS = {
    "conform": "complete evidence; allocations 120.0/110.0 within the 0.20 threshold",
    "missing_explanation": "no explanation link on the decision",
    "missing_model_artifact": "generating activity never used a model artifact",
    "disparity_exceeds": "allocations 100.0/70.0, disparity 0.30 over the 0.20 threshold",
    "exp1_conform": "jurisdiction sweep: clean evidence, passes every profile",
    "exp1_profile": "jurisdiction sweep: explanation missing, verdict depends on profile",
    "exp1_violate": "jurisdiction sweep: untyped timestamp, no explanation, disparity breach",
}


class EvidenceCase(Record):
    id: str
    graph: Graph
    description: str
    expected: dict[str, tuple[bool, int]]


# the package's data directory, resolved once for every file read from it
_DATA = resources.files("govshapes") / "data"


def _data_text(relative: str) -> str:
    return (_DATA / relative).read_text("utf-8")


def goldens() -> dict:
    return json.loads(_data_text("goldens.json"))


def case_source(case_id: str) -> str:
    if case_id not in CASE_IDS:
        raise UnknownCaseError(f"unknown case {case_id!r} "
                               f"(have: {', '.join(CASE_IDS)})")
    return _data_text(f"cases/case_{case_id}.ttl")


def _golden_row(row: dict) -> dict[str, tuple[bool, int]]:
    return {profile: (cell["conforms"], cell["violations"])
            for profile, cell in row.items()}


def build_case(case_id: str) -> EvidenceCase:
    """Load one bundled case with its golden expectations attached."""
    graph = parse_turtle(case_source(case_id))
    matrix_key = ("jurisdiction_matrix" if case_id in JURISDICTION_CASES
                  else "compiler_matrix")
    expected = _golden_row(goldens()[matrix_key][case_id])
    return EvidenceCase(case_id, graph, _CASE_DESCRIPTIONS[case_id], expected)


def expected_outcomes() -> dict[str, dict[str, tuple[bool, int]]]:
    """Golden (conforms, count) per case per profile, both experiment grids."""
    data = goldens()
    return {case_id: _golden_row(row)
            for matrix in ("compiler_matrix", "jurisdiction_matrix")
            for case_id, row in data[matrix].items()}


def block_source(name: str) -> str:
    return _data_text(f"blocks/{name}.ir.yaml")


def shape_catalog() -> list[IrRecord]:
    """All ten obligation records, A1 through B5."""
    return (parse_ir(block_source("accountability"))
            + parse_ir(block_source("fairness_transparency")))


def default_registry() -> Registry:
    """Registry holding every shipped block and profile."""
    registry = Registry()
    for name in BLOCK_NAMES:
        registry.add_block_source(name, block_source(name))
    for name in COMPILER_PROFILES + JURISDICTION_PROFILES:
        registry.add_profile(parse_profile(_data_text(f"profiles/{name}.profile")))
    return registry


def _parse_cases(case_ids: tuple[str, ...]) -> list[tuple[str, Graph]]:
    terms = TermTable()  # one load's parses share their terms
    return [(case_id, parse_turtle(case_source(case_id), terms)) for case_id in case_ids]


def compiler_corpus() -> list[tuple[str, Graph]]:
    """The four-case corpus refinement verdicts are computed over."""
    return _parse_cases(COMPILER_CASES)


def full_corpus() -> list[tuple[str, Graph]]:
    return _parse_cases(CASE_IDS)
