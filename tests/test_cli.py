"""End-to-end command line behavior, driven in process via main(argv)."""

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from govshapes import corpus
from govshapes.cli import main
from govshapes.governance import serialize_profile
from govshapes.rdf import EX, SH, XSD, Literal, parse_turtle
from govshapes.shacl import load_shapes, read_report


def write_case(tmp_path, case_id, name=None):
    path = tmp_path / (name or f"case_{case_id}.ttl")
    path.write_text(corpus.case_source(case_id), "utf-8")
    return path


def write_block(tmp_path, name):
    path = tmp_path / f"{name}.ir.yaml"
    path.write_text(corpus.block_source(name), "utf-8")
    return path


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------

def test_compile_writes_canonical_block(tmp_path, capsys):
    src = write_block(tmp_path, "fairness")
    out = tmp_path / "fairness.ttl"
    assert main(["compile", str(src), "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"4 shapes -> {out}\n"
    shapes = load_shapes(parse_turtle(out.read_text("utf-8")))
    assert [s.iri for s in shapes] == [EX.B2Shape, EX.B3Shape,
                                       EX.B4Shape, EX.B5Shape]


def test_compile_of_empty_source(tmp_path, capsys):
    src = write_block(tmp_path, "empty")
    out = tmp_path / "empty.ttl"
    assert main(["compile", str(src), "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"0 shapes -> {out}\n"
    assert out.read_text("utf-8") == ""


def test_compile_rejects_duplicate_ids(tmp_path, capsys):
    src = tmp_path / "dup.ir.yaml"
    src.write_text(corpus.block_source("logging")
                   + corpus.block_source("logging"), "utf-8")
    out = tmp_path / "dup.ttl"
    assert main(["compile", str(src), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: duplicate obligation_id 'A1'")
    assert not out.exists()


def test_compile_deeply_nested_query_exits_two(tmp_path, capsys):
    depth = 3000
    src = tmp_path / "deep.ir.yaml"
    src.write_text("- obligation_id: R1\n"
                   "  target_class: ex:Decision\n"
                   "  constraint_type: sparql\n"
                   "  message: Deep.\n"
                   "  sparql_text: SELECT $this WHERE { FILTER("
                   + "(" * depth + "1" + ")" * depth + ") }\n", "utf-8")
    out = tmp_path / "deep.ttl"
    assert main(["compile", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: nesting too deep")
    assert not out.exists()


@pytest.mark.parametrize("name", ["ex:Decision Record", "<rel>"])
def test_compile_rejects_names_the_reader_rejects(tmp_path, capsys, name):
    src = tmp_path / "bad.ir.yaml"
    src.write_text(corpus.block_source("logging").replace("ex:Decision", name, 1),
                   "utf-8")
    out = tmp_path / "bad.ttl"
    assert main(["compile", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: record 'A1' target_class: {name!r} is not a valid absolute IRI\n")
    assert not out.exists()


def test_compile_rejects_an_obligation_id_with_a_trailing_newline(tmp_path, capsys):
    # the identifier would end up inside an IRI that no reader accepts
    src = tmp_path / "newline.ir.yaml"
    src.write_text(corpus.block_source("logging").replace(
        "obligation_id: A1", 'obligation_id: "A1\\n"', 1), "utf-8")
    out = tmp_path / "newline.ttl"
    assert main(["compile", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err == ("error: record 0: obligation_id 'A1\\n' "
                                       "must be a plain identifier\n")
    assert not out.exists()


@pytest.mark.parametrize("tag", ["!!timestamp", "!!bool"])
def test_compile_rejects_an_explicit_tag_the_constructor_cannot_build(
        tmp_path, capsys, tag):
    src = tmp_path / "tagged.ir.yaml"
    src.write_text(corpus.block_source("logging").replace(
        "message: ", f"message: {tag} ", 1), "utf-8")
    out = tmp_path / "tagged.ttl"
    assert main(["compile", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: not parseable as YAML: explicit tag 'tag:yaml.org,2002:")
    assert not out.exists()


def test_compile_missing_input_file(tmp_path, capsys):
    assert main(["compile", str(tmp_path / "nope.ir.yaml"),
                 "-o", str(tmp_path / "out.ttl")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_compile_appends_run_record(tmp_path, capsys):
    src = write_block(tmp_path, "accountability")
    out = tmp_path / "acct.ttl"
    log = tmp_path / "runs.jsonl"
    argv = ["compile", str(src), "-o", str(out), "--run-log", str(log)]
    assert main(argv) == 0
    assert main(argv) == 0  # appends, never truncates
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == 2
    record = records[0]
    assert sorted(record) == ["command", "inputs", "report_hash", "timestamp"]
    assert record["command"] == " ".join(argv)
    assert record["inputs"] == {
        str(src): hashlib.sha256(src.read_bytes()).hexdigest()}
    assert record["report_hash"] == \
        hashlib.sha256(out.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def test_compose_to_stdout_is_parseable_turtle(capsys):
    assert main(["compose", "logging", "provenance"]) == 0
    out = capsys.readouterr().out
    shapes = load_shapes(parse_turtle(out))
    assert [s.iri for s in shapes] == [EX.A1Shape, EX.A2Shape, EX.A3Shape,
                                       EX.A4Shape, EX.A5Shape]


def test_compose_to_file_reports_shape_count(tmp_path, capsys):
    out = tmp_path / "combined.ttl"
    assert main(["compose", "accountability", "fairness_transparency",
                 "-o", str(out)]) == 0
    assert capsys.readouterr().out == \
        f"10 shapes (accountability+fairness_transparency) -> {out}\n"
    assert len(load_shapes(parse_turtle(out.read_text("utf-8")))) == 10


def test_compose_unknown_block(capsys):
    assert main(["compose", "nope"]) == 2
    assert "error: unknown block 'nope'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_conforming_case_exits_zero(tmp_path, capsys):
    case = write_case(tmp_path, "conform")
    assert main(["validate", str(case), "--profile", "Combined"]) == 0
    assert capsys.readouterr().out == ""


def test_validate_text_lines_name_shape_focus_message(tmp_path, capsys):
    case = write_case(tmp_path, "exp1_violate")
    assert main(["validate", str(case), "--profile", "US"]) == 1
    assert capsys.readouterr().out == \
        "ex:A2Shape\tex:log001\tUsage log must carry a dateTime timestamp.\n"


def test_validate_turtle_format_round_trips(tmp_path, capsys):
    case = write_case(tmp_path, "disparity_exceeds")
    assert main(["validate", str(case), "--profile", "Fairness",
                 "--format", "turtle"]) == 1
    report = read_report(parse_turtle(capsys.readouterr().out))
    assert not report.conforms
    (violation,) = report.violations
    assert violation.source_shape == EX.B5Shape
    assert violation.focus_node == EX.decision001


def test_validate_run_log_hashes_the_report_graph(tmp_path, capsys):
    case = write_case(tmp_path, "conform")
    log = tmp_path / "runs.jsonl"
    assert main(["validate", str(case), "--profile", "Fairness",
                 "--format", "turtle", "--run-log", str(log)]) == 0
    report_text = capsys.readouterr().out
    (record,) = [json.loads(line) for line in log.read_text().splitlines()]
    assert record["report_hash"] == \
        hashlib.sha256(report_text.encode("utf-8")).hexdigest()
    assert record["inputs"] == {
        str(case): hashlib.sha256(case.read_bytes()).hexdigest()}
    assert record["command"].startswith("validate ")
    assert record["diagnostics"] == 0


def test_validate_text_mode_without_run_log_builds_no_report_graph(
        tmp_path, capsys, monkeypatch):
    def unused(*args):
        raise AssertionError("the report graph has no reader")
    monkeypatch.setattr("govshapes.cli.emit_report_graph", unused)
    monkeypatch.setattr("govshapes.cli.serialize_turtle", unused)
    case = write_case(tmp_path, "exp1_violate")
    assert main(["validate", str(case), "--profile", "US"]) == 1
    assert capsys.readouterr().out == \
        "ex:A2Shape\tex:log001\tUsage log must carry a dateTime timestamp.\n"


def test_validate_run_log_hash_is_the_same_in_text_and_turtle_mode(tmp_path, capsys):
    case = write_case(tmp_path, "exp1_violate")
    log = tmp_path / "runs.jsonl"
    for fmt in ("text", "turtle"):
        assert main(["validate", str(case), "--profile", "US", "--format", fmt,
                     "--run-log", str(log)]) == 1
    report_text = capsys.readouterr().out.split("\n", 1)[1]
    text_record, turtle_record = [json.loads(line) for line in log.read_text().splitlines()]
    assert text_record["report_hash"] == turtle_record["report_hash"] == \
        hashlib.sha256(report_text.encode("utf-8")).hexdigest()


def test_validate_turtle_report_keeps_a_numeral_with_a_trailing_newline(
        tmp_path, capsys):
    case = tmp_path / "case_newline.ttl"
    case.write_text(corpus.case_source("exp1_violate").replace(
        'ex:timestamp "2025-11-03T14:21:07"', 'ex:timestamp "12\\n"^^xsd:integer'),
        "utf-8")
    assert main(["validate", str(case), "--profile", "US", "--format", "turtle"]) == 1
    (violation,) = read_report(parse_turtle(capsys.readouterr().out)).violations
    assert violation.value == Literal("12\n", XSD.integer)


def test_validate_prints_diagnostics_to_stderr(tmp_path, capsys):
    # "seventy" is no decimal: the disparity query drops the solution
    case = write_case(tmp_path, "disparity_exceeds")
    text = case.read_text("utf-8")
    assert "ex:allocatedGPUHoursGroupB 70.0" in text
    case.write_text(text.replace("ex:allocatedGPUHoursGroupB 70.0",
                                 'ex:allocatedGPUHoursGroupB "seventy"^^xsd:decimal'),
                    "utf-8")
    log = tmp_path / "runs.jsonl"
    assert main(["validate", str(case), "--profile", "Fairness",
                 "--run-log", str(log)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("warning: query clause 3 eliminated a solution: "
                            "literal 'seventy' is not a valid number\n")
    (record,) = [json.loads(line) for line in log.read_text().splitlines()]
    assert record["diagnostics"] == 1


@pytest.mark.parametrize("lexical", ["nan", "inf", "7_0", " 70", "\u0667\u0660"])
def test_validate_warns_of_a_numeral_outside_the_xsd_lexical_space(
        tmp_path, capsys, lexical):
    # float() reads each of these, so the query used to pass the case silently
    case = write_case(tmp_path, "disparity_exceeds")
    case.write_text(case.read_text("utf-8").replace(
        "ex:allocatedGPUHoursGroupB 70.0",
        f'ex:allocatedGPUHoursGroupB "{lexical}"^^xsd:decimal'), "utf-8")
    assert main(["validate", str(case), "--profile", "Fairness"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("warning: query clause 3 eliminated a solution: "
                            f"literal {lexical!r} is not a valid number\n")


def test_validate_unknown_profile(tmp_path, capsys):
    case = write_case(tmp_path, "conform")
    assert main(["validate", str(case), "--profile", "Nope"]) == 2
    assert "error: unknown profile 'Nope'" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    # the document ends right after a numeral, inside a statement
    ("ex:logArtifact001 a ex:LogArtifact .\n", "ex:logArtifact001 ex:n 5"),
    # a superscript two is no digit: a bad number must not read as "conforms"
    ("ex:allocatedGPUHoursGroupB 70.0", "ex:allocatedGPUHoursGroupB 70².0"),
], ids=["ends-in-numeral", "superscript-digit"])
def test_validate_malformed_evidence_exits_two(tmp_path, capsys, old, new):
    case = write_case(tmp_path, "disparity_exceeds")
    text = case.read_text("utf-8")
    assert old in text
    case.write_text(text.replace(old, new), "utf-8")
    assert main(["validate", str(case), "--profile", "Fairness"]) == 2
    assert capsys.readouterr().err.startswith("error: line ")


def test_validate_deeply_nested_evidence_exits_two(tmp_path, capsys):
    case = write_case(tmp_path, "conform")
    depth = 1500
    with case.open("a", encoding="utf-8") as f:
        f.write("ex:deep ex:q " + "[ ex:q " * depth + "ex:o" + " ]" * depth + " .\n")
    assert main(["validate", str(case), "--profile", "Fairness"]) == 2
    assert "nesting too deep" in capsys.readouterr().err


def test_recursion_error_exits_two(tmp_path, capsys, monkeypatch):
    def overflow(text):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr("govshapes.cli.parse_turtle", overflow)
    case = write_case(tmp_path, "conform")
    assert main(["validate", str(case), "--profile", "Fairness"]) == 2
    assert capsys.readouterr().err.startswith("error: maximum recursion depth")


def test_validate_directory_exits_two(tmp_path, capsys):
    assert main(["validate", str(tmp_path), "--profile", "Fairness"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_validate_undecodable_file_exits_two(tmp_path, capsys):
    case = tmp_path / "case_bytes.ttl"
    case.write_bytes(b"\xff\xfe")
    assert main(["validate", str(case), "--profile", "Fairness"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

def test_refine_default_matrix_output(capsys):
    assert main(["refine"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Accountability refines Fairness: does not hold "
        "(2 counterexample(s), e.g. case missing_explanation: ex:B1Shape)",
        "Accountability refines Combined: does not hold "
        "(2 counterexample(s), e.g. case missing_explanation: ex:B1Shape)",
        "Fairness refines Accountability: does not hold "
        "(1 counterexample(s), e.g. case missing_model_artifact: ex:A5Shape)",
        "Fairness refines Combined: does not hold "
        "(1 counterexample(s), e.g. case missing_model_artifact: ex:A5Shape)",
        "Combined refines Accountability: holds",
        "Combined refines Fairness: holds",
        "2 hold, 4 do not hold",
        "no equivalent pairs",
    ]


def test_refine_reports_equivalent_profiles(capsys):
    assert main(["refine", "US", "China"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "US refines China: holds",
        "China refines US: holds",
        "2 hold, 0 do not hold",
        "equivalent: US == China",
    ]


def test_refine_with_external_corpus_directory(tmp_path, capsys):
    # case ids come from the file names, with any case_ prefix stripped
    write_case(tmp_path, "conform")
    write_case(tmp_path, "missing_explanation")
    assert main(["refine", "Combined", "Accountability",
                 "--corpus", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Combined refines Accountability: holds",
        "Accountability refines Combined: does not hold "
        "(1 counterexample(s), e.g. case missing_explanation: ex:B1Shape)",
        "1 hold, 1 do not hold",
        "no equivalent pairs",
    ]


def test_refine_equivalence_is_corpus_relative(tmp_path, capsys):
    # on evidence where only the shared A5 obligation can fire, the two
    # profiles become indistinguishable
    write_case(tmp_path, "missing_model_artifact")
    assert main(["refine", "Combined", "Accountability",
                 "--corpus", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Combined refines Accountability: holds",
        "Accountability refines Combined: holds",
        "2 hold, 0 do not hold",
        "equivalent: Combined == Accountability",
    ]


def test_refine_warns_of_eliminated_solutions_once_per_case_and_shape(tmp_path, capsys):
    # "seventy" is no decimal: the disparity query of Fairness and Combined
    # drops the solution, which hides the B1 counterexample
    write_case(tmp_path, "conform")
    case = write_case(tmp_path, "disparity_exceeds")
    case.write_text(case.read_text("utf-8").replace(
        "ex:allocatedGPUHoursGroupB 70.0",
        'ex:allocatedGPUHoursGroupB "seventy"^^xsd:decimal'), "utf-8")
    assert main(["refine", "--corpus", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "equivalent: Fairness == Combined" in captured.out.splitlines()
    assert captured.err == ("warning: case disparity_exceeds: query clause 3 "
                            "eliminated a solution: literal 'seventy' is not "
                            "a valid number\n")


def test_refine_without_diagnostics_writes_no_stderr(capsys):
    assert main(["refine"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", [["refine"], ["bench", "--samples", "30"]])
def test_corpus_with_a_case_id_given_twice_exits_two(tmp_path, capsys, command):
    # case_ is stripped, so both files would be case "conform"
    first = write_case(tmp_path, "conform")
    second = write_case(tmp_path, "missing_explanation", name="conform.ttl")
    assert main([*command, "--corpus", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: case id 'conform' is given by two files: "
                            f"{first} and {second}\n")


def test_refine_empty_corpus_directory(tmp_path, capsys):
    assert main(["refine", "--corpus", str(tmp_path)]) == 2
    assert "no .ttl case files under" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_rows_and_header(capsys):
    assert main(["bench", "--profiles", "Fairness", "--cases", "conform",
                 "--samples", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("# 30 warm samples per pair; graphs parsed and "
                        "profiles composed before timing (validation only)")
    assert lines[1].split() == ["profile", "case", "samples",
                                "min_ms", "median_ms", "max_ms"]
    (row,) = lines[2:]
    fields = row.split()
    assert fields[:3] == ["Fairness", "conform", "30"]
    low, mid, high = (float(x) for x in fields[3:])
    assert 0.0 <= low <= mid <= high


def test_bench_rejects_too_few_samples(capsys):
    assert main(["bench", "--samples", "29"]) == 2
    assert "at least 30 samples" in capsys.readouterr().err


def test_bench_rejects_unknown_case(capsys):
    assert main(["bench", "--cases", "nope", "--samples", "30"]) == 2
    assert "cases not in corpus: nope" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# hash-manifest
# ---------------------------------------------------------------------------

def test_hash_manifest_is_sorted_and_content_addressed(tmp_path, capsys):
    a = tmp_path / "a.ttl"
    b = tmp_path / "b.ttl"
    a.write_text("x", "utf-8")
    b.write_text("y", "utf-8")
    assert main(["hash-manifest", str(b), str(a)]) == 0
    first = capsys.readouterr().out
    lines = first.splitlines()
    assert lines == sorted(lines, key=lambda ln: ln.split("  ", 1)[1])
    assert lines[0] == f"{hashlib.sha256(b'x').hexdigest()}  {a}"

    a.write_text("x2", "utf-8")
    assert main(["hash-manifest", str(b), str(a)]) == 0
    assert capsys.readouterr().out != first


def test_hash_manifest_to_file_and_directory_error(tmp_path, capsys):
    a = tmp_path / "a.ttl"
    a.write_text("x", "utf-8")
    out = tmp_path / "manifest.txt"
    assert main(["hash-manifest", str(a), "-o", str(out)]) == 0
    assert out.read_text("utf-8").endswith(f"  {a}\n")
    assert main(["hash-manifest", str(tmp_path)]) == 2
    assert "not a file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def setup_external_artifacts(tmp_path):
    blocks = tmp_path / "blocks"
    profiles = tmp_path / "profiles"
    blocks.mkdir()
    profiles.mkdir()
    for name in ("logging", "provenance"):
        (blocks / f"{name}.ir.yaml").write_text(corpus.block_source(name), "utf-8")
    (profiles / "Mini.profile").write_text(
        "profile: Mini\nlogging\nprovenance\n", "utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"blocks_dir": str(blocks),
                                  "profiles_dir": str(profiles)}), "utf-8")
    return config


def test_config_switches_to_external_directories(tmp_path, capsys):
    config = setup_external_artifacts(tmp_path)
    case = write_case(tmp_path, "exp1_violate")
    assert main(["validate", str(case), "--profile", "Mini",
                 "--config", str(config)]) == 1
    assert capsys.readouterr().out.startswith("ex:A2Shape\t")
    # the bundled profiles are gone once a config takes over
    assert main(["validate", str(case), "--profile", "Combined",
                 "--config", str(config)]) == 2


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"blocks_dir": ".", "extra": 1}), "utf-8")
    assert main(["compose", "logging", "--config", str(config)]) == 2
    assert "unknown config keys: extra" in capsys.readouterr().err


@pytest.mark.parametrize("settings, message", [
    ({"profiles_dir": "."}, "config key 'profiles_dir' needs 'blocks_dir'"),
    ({"blocks_dir": 5}, "config key 'blocks_dir' must be a directory path"),
])
def test_config_errors_exit_two(tmp_path, capsys, settings, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings), "utf-8")
    case = write_case(tmp_path, "conform")
    assert main(["validate", str(case), "--profile", "Fairness",
                 "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_must_hold_a_json_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(["blocks_dir"]), "utf-8")
    case = write_case(tmp_path, "conform")
    assert main(["validate", str(case), "--profile", "Fairness",
                 "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: config file must hold a JSON object\n"


def test_config_null_value_acts_like_an_absent_key(tmp_path, monkeypatch, capsys):
    artifacts = tmp_path / "artifacts"
    artifacts.mkdir()
    for name in ("logging", "provenance"):
        write_block(artifacts, name)
    (artifacts / "Mini.profile").write_text("profile: Mini\nlogging\nprovenance\n",
                                            "utf-8")
    case = write_case(tmp_path, "exp1_violate")
    # an empty value must not read as the current directory and its cases
    write_case(tmp_path, "conform")
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"

    def outcomes(document, commands):
        config.write_text(json.dumps(document), "utf-8")
        return [(main([*argv, "--config", str(config)]), capsys.readouterr())
                for argv in commands]

    commands = [["validate", str(case), "--profile", "Mini"],
                ["refine", "Mini", "Mini"], ["compose", "logging"]]
    absent = outcomes({"blocks_dir": str(artifacts)}, commands)
    assert [code for code, _ in absent] == [1, 0, 0]
    for empty in (None, ""):
        assert outcomes({"blocks_dir": str(artifacts), "profiles_dir": empty,
                         "cases_dir": empty}, commands) == absent
    bundled = outcomes({}, [["refine"]])
    assert "does not hold" in bundled[0][1].out
    for empty in (None, ""):
        assert outcomes({"blocks_dir": empty, "profiles_dir": empty,
                         "cases_dir": empty}, [["refine"]]) == bundled


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory, registry):
    """A directory with copies of the bundled blocks, profiles and compiler cases."""
    root = tmp_path_factory.mktemp("config_fuzz")
    bundled = root / "bundled"
    bundled.mkdir()
    for name in corpus.BLOCK_NAMES:
        write_block(bundled, name)
    for name in registry.profile_names:
        (bundled / f"{name}.profile").write_text(
            serialize_profile(registry.profile(name)), "utf-8")
    for case_id in corpus.COMPILER_CASES:
        write_case(bundled, case_id)
    return root


def config_value(root, kind):
    bundled = root / "bundled"
    return {"null": None, "empty": "", "bundled": str(bundled),
            "missing": str(root / "missing"), "file": str(bundled / "Fairness.profile"),
            "number": 7, "list": [str(bundled)]}[kind]


@settings(max_examples=40)
@given(st.dictionaries(st.sampled_from(["blocks_dir", "profiles_dir", "cases_dir", "extra"]),
                       st.sampled_from(["null", "empty", "bundled", "missing", "file",
                                        "number", "list"])))
@example({"blocks_dir": "bundled", "profiles_dir": "null"})  # was Path(None)
def test_config_documents_exit_with_a_status_not_a_traceback(fuzz_root, document):
    config = fuzz_root / "config.json"
    config.write_text(json.dumps({key: config_value(fuzz_root, kind)
                                  for key, kind in document.items()}), "utf-8")
    case = str(fuzz_root / "bundled" / "case_disparity_exceeds.ttl")
    for argv in (["validate", case, "--profile", "Fairness"], ["refine"],
                 ["compose", "logging"]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main([*argv, "--config", str(config)]) in (0, 1, 2)


def test_config_rejects_bad_json(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{not json", "utf-8")
    assert main(["compose", "logging", "--config", str(config)]) == 2
    assert "bad JSON config" in capsys.readouterr().err


def test_config_cases_dir_feeds_refine(tmp_path, capsys):
    write_case(tmp_path, "missing_model_artifact")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cases_dir": str(tmp_path)}), "utf-8")
    assert main(["refine", "Combined", "Fairness", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Combined refines Fairness: holds"
    assert lines[1] == ("Fairness refines Combined: does not hold "
                        "(1 counterexample(s), e.g. case "
                        "missing_model_artifact: ex:A5Shape)")


# ---------------------------------------------------------------------------
# argparse surface and the installed script
# ---------------------------------------------------------------------------

def test_missing_subcommand_and_missing_output_flag(capsys):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["compile", "x.ir.yaml"])  # -o is required


def test_installed_script_smoke(tmp_path):
    src = write_block(tmp_path, "fairness")
    out = tmp_path / "fairness.ttl"
    script = shutil.which("govshapes")
    cmd = ([script] if script else [sys.executable, "-m", "govshapes.cli"])
    result = subprocess.run([*cmd, "compile", str(src), "-o", str(out)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert result.stdout == f"4 shapes -> {out}\n"
    assert out.exists()
