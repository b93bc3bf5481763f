"""Self-tests of the benchmark: generator, reference, span arithmetic.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import generate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from govshapes import cli, corpus, rdf  # noqa: E402

DATA = generate.BundledData(HERE.parent / "src" / "govshapes" / "data")


# -- generator ---------------------------------------------------------------

def _all_inputs(seed: int) -> list[str]:
    return ([d.text for d in generate.large_documents(DATA, seed)]
            + [d.text for d in generate.small_documents(DATA, seed)]
            + [name + text for name, _, text in generate.refine_cases(DATA, seed)]
            + [t for s in generate.obligation_sets(seed) for t in s.texts])


def test_generator_is_deterministic():
    assert _all_inputs(7) == _all_inputs(7)
    first, other = _all_inputs(7), _all_inputs(8)
    assert all(a != b for a, b in zip(first, other))


def test_large_documents_have_one_size_for_every_seed():
    sizes = {len(rdf.parse_turtle(d.text))
             for seed in (1, 2) for d in generate.large_documents(DATA, seed)}
    assert sizes == {1550}


def test_record_orders_differ_but_hold_the_same_records():
    for s in generate.obligation_sets(3):
        a, b = s.texts
        assert a != b
        assert sorted(a.rstrip().split("\n\n")) == sorted(b.rstrip().split("\n\n"))


# -- reference ---------------------------------------------------------------

@pytest.mark.parametrize("case_id, profile", DATA.golden_pairs())
def test_reference_matches_goldens_on_bundled_cases(case_id, profile):
    doc = generate.evidence_input(DATA, [(case_id, None)], profile)
    assert doc.text == DATA.cases[case_id]
    assert (doc.conforms, doc.violations) == DATA.golden(case_id, profile)
    work = workloads.EvidenceWorkload([doc], corpus.default_registry())
    assert work.check(0, work.run(0))


def test_reference_rejects_a_wrong_report():
    doc = generate.evidence_input(DATA, [("missing_explanation", None)], "Combined")
    clean = generate.evidence_input(DATA, [("conform", None)], "Combined")
    work = workloads.EvidenceWorkload([doc], corpus.default_registry())
    assert not work.check(0, workloads.EvidenceWorkload(
        [clean], corpus.default_registry()).run(0))


def test_refine_reference_matches_bundled_corpus():
    expected = generate.refine_expectation(
        DATA, [(case_id, case_id) for case_id in generate.COMPILER_CASES])
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert cli.main(["refine"]) == 0
    assert generate.check_refine_output(expected, stdout.getvalue())
    assert not generate.check_refine_output(expected[1:], stdout.getvalue())


def test_bundled_obligation_ids_match_the_registry():
    registry = corpus.default_registry()
    for name, ids in DATA.block_ids.items():
        assert registry.block(name).obligations == ids


def test_renamed_copies_report_per_copy():
    copies = [("missing_explanation", "aa"), ("conform", "bb"),
              ("missing_model_artifact", "cc")]
    doc = generate.evidence_input(DATA, copies, "Combined")
    assert doc.per_copy == (("aa", 1), ("cc", 1))
    work = workloads.EvidenceWorkload([doc], corpus.default_registry())
    assert work.check(0, work.run(0))


# -- span arithmetic -----------------------------------------------------------

def _span(name, start, end, parent, op=0):
    return tracer.Span(name, start, end, parent, op)


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span("a", 0, 100, -1),      # 0
        _span("b", 10, 30, 0),       # 1
        _span("e", 12, 18, 1),       # 2: grandchild, covered only by b
        _span("c", 40, 50, 0),       # 3
        _span("d", 60, 70, 0),       # 4
        _span("d", 62, 65, 4),       # 5: d calling itself
    ]
    assert tracer.self_times(spans) == [60, 14, 6, 10, 7, 3]
    totals = tracer.layer_totals(spans)[0]
    assert (totals["a"].calls, totals["a"].busy_ns, totals["a"].self_ns) == (1, 100, 60)
    assert (totals["d"].calls, totals["d"].busy_ns, totals["d"].self_ns) == (2, 10, 10)


def test_coverage_merges_overlaps_and_clips_to_the_parent():
    assert tracer.covered([(10, 30), (20, 50), (90, 120)], 0, 100) == 50
    assert tracer.covered([], 0, 100) == 0


def test_tracer_restores_every_wrapped_function():
    originals = {(place, attr): vars(tracer._owner(place))[attr]
                 for _, places, attr, _ in tracer.TARGETS for place in places}
    t = tracer.Tracer()
    t.install()
    try:
        t.op = 3
        rdf.parse_turtle(DATA.cases["conform"]).match()
    finally:
        t.uninstall()
    assert {(place, attr): vars(tracer._owner(place))[attr]
            for place, attr in originals} == originals
    assert [s.name for s in t.spans] == ["rdf.parse_turtle", "rdf.match"]
    assert t.spans[0].counts == (("triples", 16),) and t.spans[1].op == 3


# -- the contract with BENCHMARK.json ------------------------------------------

@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, key):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert run.main(["--workload", "evidence_small", "--seed", "1",
                         "--seconds", "0.2", "--trace", str(trace)]) == 0
    result = json.loads(stdout.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in declared[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
