"""Every bundled CLI run keeps the exit status and stdout its table pins.

``cli_outputs.json`` holds, for a fixed matrix of runs over the bundled
data, the exit status and the sha256 of stdout (and of the file that
``compile`` writes). A deliberate output change shows up as a diff of
that table. Rebuild it with ``PYTHONPATH=src python3 tests/test_cli_outputs.py``.

In a run, ``{data}`` stands for the package data directory and ``{tmp}``
for a temporary directory; ``compile`` prints its output path, which the
table records as ``{tmp}``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import govshapes
from govshapes import corpus
from govshapes.cli import main

DATA = Path(govshapes.__file__).parent / "data"
TABLE = Path(__file__).with_name("cli_outputs.json")
PROFILES = corpus.COMPILER_PROFILES + corpus.JURISDICTION_PROFILES


def runs() -> list[tuple[str, ...]]:
    out = [("compile", f"{{data}}/blocks/{b}.ir.yaml", "-o", f"{{tmp}}/{b}.ttl")
           for b in corpus.BLOCK_NAMES]
    out += [("compose", b) for b in corpus.BLOCK_NAMES]
    out.append(("compose", *corpus.BLOCK_NAMES))
    out += [("validate", f"{{data}}/cases/case_{c}.ttl", "--profile", p, "--format", f)
            for c in corpus.CASE_IDS for p in PROFILES for f in ("text", "turtle")]
    out += [("refine",), ("refine", "--corpus", "{data}/cases"),
            ("refine", *PROFILES, "--corpus", "{data}/cases")]
    return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(run: tuple[str, ...], tmp: Path) -> dict:
    argv = [a.replace("{data}", str(DATA)).replace("{tmp}", str(tmp)) for a in run]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    text = stdout.getvalue().replace(str(tmp), "{tmp}")
    row = {"exit": status, "stdout": _sha256(text.encode("utf-8"))}
    if run[0] == "compile":
        row["file"] = _sha256(Path(argv[-1]).read_bytes())
    return row


def build_table(tmp: Path) -> dict[str, dict]:
    return {" ".join(run): outcome(run, tmp) for run in runs()}


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text("utf-8"))


def test_table_covers_exactly_the_runs(table):
    assert sorted(table) == sorted(" ".join(run) for run in runs())


@pytest.mark.parametrize("run", runs(), ids=" ".join)
def test_cli_output_matches_table(run, table, tmp_path):
    assert outcome(run, tmp_path) == table[" ".join(run)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = build_table(Path(tmp))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"{len(table)} runs -> {TABLE}")
