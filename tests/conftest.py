import importlib.util
import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from govshapes.corpus import (
    COMPILER_CASES,
    case_source,
    compiler_corpus,
    default_registry,
    expected_outcomes,
    full_corpus,
    goldens,
)

settings.register_profile(
    "suite", max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

# filled by the criterion decorator in test_acceptance.py
ACCEPTANCE_VERDICTS: list[tuple[int, str, bool]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One verdict line per executed acceptance criterion.

    Emitted through the reporter after capture has ended, so the lines
    show up whatever capture mode the run used.
    """
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed in sorted(ACCEPTANCE_VERDICTS):
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{word}] criterion {number}: {label}")


@pytest.fixture
def script(monkeypatch):
    """Import a repository script by its path from the root, for this
    test only."""
    root = Path(__file__).resolve().parents[1]

    def load(relative: str):
        spec = importlib.util.spec_from_file_location(Path(relative).stem, root / relative)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
        spec.loader.exec_module(module)
        return module

    return load


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="session")
def golden():
    return goldens()


@pytest.fixture(scope="session")
def expected():
    return expected_outcomes()


@pytest.fixture(scope="session")
def compiler_cases():
    return compiler_corpus()


@pytest.fixture(scope="session")
def all_cases():
    return full_corpus()


def renamed(case_id: str, tag: str) -> str:
    """A bundled case with ``_<tag>`` after every individual's local name."""
    return re.sub(r"\bex:([A-Za-z]+[0-9]+)\b", rf"ex:\1_{tag}", case_source(case_id))


@pytest.fixture(scope="session")
def eight_decisions() -> str:
    """Two renamed copies of each compiler case in one document: 8
    decisions, 124 triples."""
    return "".join(renamed(case_id, f"{copy}{i}") for copy in "xy"
                   for i, case_id in enumerate(COMPILER_CASES))


@pytest.fixture(scope="session")
def cross_product_block() -> str:
    """A block source of one query record whose three patterns share no
    variable, so that they join as a cross product."""
    return ("- obligation_id: X1\n"
            "  target_class: ex:Decision\n"
            "  constraint_type: sparql\n"
            "  message: Cross product.\n"
            "  sparql_text: SELECT $this WHERE { ?a ?p ?b . ?c ?q ?d . ?e ?r ?f }\n")


@pytest.fixture(scope="session")
def score_block() -> str:
    """A block source of two query records that read ``ex:score`` as a
    number."""
    return """\
- obligation_id: Q1
  target_class: ex:Decision
  constraint_type: sparql
  message: Score above one.
  sparql_text: SELECT $this WHERE { $this ex:score ?s . FILTER(?s > 1) }

- obligation_id: Q2
  target_class: ex:Decision
  constraint_type: sparql
  message: Doubled score below zero.
  sparql_text: >-
    SELECT $this WHERE { $this a ex:Decision ; ex:score ?s .
    BIND(?s * 2 AS ?d) FILTER(?d < 0) }
"""


@pytest.fixture(scope="session")
def score_case() -> str:
    """Three decisions, given out of canonical order, each with two scores
    that are no decimals: ``score_block``'s queries eliminate every
    solution."""
    return """\
@prefix ex: <http://example.org/okb#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:d3 a ex:Decision ; ex:score "c2"^^xsd:decimal, "c1"^^xsd:decimal .
ex:d1 a ex:Decision ; ex:score "a2"^^xsd:decimal, "a1"^^xsd:decimal .
ex:d2 a ex:Decision ; ex:score "b1"^^xsd:decimal, "b2"^^xsd:decimal .
"""
