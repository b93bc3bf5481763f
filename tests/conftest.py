import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from govshapes.corpus import (
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
