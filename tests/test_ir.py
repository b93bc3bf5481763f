"""Obligation record parsing and block compilation."""

import json
import random
import subprocess
import sys
from pathlib import Path
from textwrap import dedent
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings

import strategies as gen
from govshapes import ir
from govshapes.corpus import BLOCK_NAMES, block_source
from govshapes.errors import (DuplicateIdError, GovshapesError, SchemaError,
                              SparqlSyntaxError, UnknownPrefixError)
from govshapes.ir import (IrRecord, KnowledgeBlock, compile_block, empty_block,
                          merge_severity, parse_ir)
from govshapes.rdf import EX, PROV, RDF, RDFS, XSD, Iri, serialize_turtle
from govshapes.shacl import (Datatype, MinCount, QualifiedMinCountClass,
                             Severity, SparqlConstraint, load_shapes)
from govshapes.sparql import parse_sparql


def records(text):
    return parse_ir(dedent(text))


MINIMAL = """
    - obligation_id: R1
      target_class: ex:Decision
      constraint_type: structural
      relation: ex:hasUsageLog
      message: Needs a log.
"""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_shipped_fairness_block():
    recs = parse_ir(block_source("fairness"))
    assert [r.obligation_id for r in recs] == ["B2", "B3", "B4", "B5"]
    b2, b5 = recs[0], recs[3]
    assert b2.target_class == EX.Decision
    assert b2.datatype == XSD.decimal
    assert b5.constraint_type == "sparql"
    assert b5.threshold_ref == EX.fairnessThreshold
    assert "{{" not in b5.sparql_text
    assert "ex:fairnessThreshold" in b5.sparql_text


def test_parse_shipped_accountability_block():
    recs = parse_ir(block_source("accountability"))
    assert [r.obligation_id for r in recs] == ["A1", "A2", "A3", "A4", "A5"]
    a5 = recs[4]
    assert a5.relation == PROV.used
    assert a5.value_class == EX.ModelArtifact


def test_parse_defaults():
    (rec,) = records(MINIMAL)
    assert rec.min_count == 1
    assert rec.severity is Severity.VIOLATION
    assert rec.datatype is None and rec.value_class is None


def test_parse_severity_name():
    (rec,) = records("""
        - obligation_id: R1
          target_class: ex:T
          constraint_type: structural
          relation: ex:p
          severity: Warning
          message: M.
    """)
    assert rec.severity is Severity.WARNING


def test_parse_accepts_absolute_iris():
    (rec,) = records("""
        - obligation_id: R1
          target_class: <http://other.test/K>
          constraint_type: structural
          relation: http://other.test/p
          message: M.
    """)
    assert rec.target_class == Iri("http://other.test/K")
    assert rec.relation == Iri("http://other.test/p")


def test_parse_empty_and_comment_only_sources():
    assert parse_ir("") == []
    assert parse_ir("# nothing yet\n") == []


def test_threshold_placeholder_substitution_keeps_query_parseable():
    (rec,) = records("""
        - obligation_id: R1
          target_class: ex:T
          constraint_type: sparql
          threshold_ref: prov:bound
          message: M.
          sparql_text: |-
            SELECT $this WHERE { $this {{threshold}} ?t . FILTER(?t > 0) }
    """)
    assert "prov:bound" in rec.sparql_text


def test_threshold_ref_outside_standard_prefixes_inlines_the_iri():
    (rec,) = records("""
        - obligation_id: R1
          target_class: ex:T
          constraint_type: sparql
          threshold_ref: <http://other.test/t>
          message: M.
          sparql_text: |-
            SELECT $this WHERE { $this {{threshold}} ?t . FILTER(?t > 0) }
    """)
    assert "<http://other.test/t>" in rec.sparql_text


def test_threshold_ref_without_a_whole_local_name_is_written_as_an_iri():
    # "ex:fairnessThreshold." is no prefixed name the query lexer reads:
    # the final dot would end the triple pattern
    (rec,) = records("""
        - obligation_id: R1
          target_class: ex:T
          constraint_type: sparql
          threshold_ref: ex:fairnessThreshold.
          message: M.
          sparql_text: |-
            SELECT $this WHERE { $this {{threshold}} ?t . FILTER(?t > 0) }
    """)
    threshold = Iri(EX.base + "fairnessThreshold.")
    assert rec.threshold_ref == threshold
    assert f"<{threshold.value}>" in rec.sparql_text
    assert rec.query.clauses[0].predicate == threshold


@pytest.mark.parametrize("source, fragment", [
    ("obligation_id: A1", "sequence of records"),
    ("- 3", "record 0: expected a mapping"),
    ("- obligation_id: R1\n  bogus: x", "unknown field 'bogus'"),
    ("- obligation_id: R1\n  message:\n    - a", "field 'message' must be a scalar"),
    ("- obligation_id: R1\n  min_count: true", "field 'min_count' must be a scalar"),
    ("- target_class: ex:T", "field 'obligation_id' must be a non-empty string"),
    ("- obligation_id: 12", "field 'obligation_id' must be a non-empty string"),
    ("- obligation_id: not an id", "must be a plain identifier"),
    (MINIMAL.replace("structural", "regex"), "must be 'structural' or 'sparql'"),
    (MINIMAL + "      severity: Fatal\n", "must be Violation, Warning or Info"),
    (MINIMAL + "      sparql_text: x\n", "does not apply to structural records"),
    (MINIMAL + "      min_count: -1\n", "must be a non-negative integer"),
    (MINIMAL + "      min_count: 1.5\n", "must be a non-negative integer"),
    (MINIMAL.replace("ex:Decision", "Decision"), "not a prefixed name or IRI"),
    (MINIMAL.replace("ex:Decision", "ex:Decision Record"), "not a valid absolute IRI"),
    (MINIMAL.replace("ex:Decision", "<rel>"), "not a valid absolute IRI"),
    (MINIMAL.replace("ex:Decision", "http://a.test/x>y"), "not a valid absolute IRI"),
    ("""
     - obligation_id: R1
       target_class: ex:T
       constraint_type: sparql
       relation: ex:p
       message: M.
       sparql_text: SELECT $this WHERE { $this ex:p ?v }
     """, "does not apply to sparql records"),
    # the first wrong field by name, whatever the string hash seed
    (MINIMAL + "      threshold_ref: ex:t\n      sparql_text: x\n",
     "field 'sparql_text' does not apply to structural records"),
    ("""
     - obligation_id: R1
       target_class: ex:T
       constraint_type: sparql
       message: M.
       sparql_text: SELECT $this WHERE { $this {{threshold}} ?t . FILTER(?t > 0) }
     """, "no threshold_ref is given"),
])
def test_parse_rejects_bad_records(source, fragment):
    with pytest.raises(SchemaError, match=fragment):
        records(source)


def test_parse_rejects_unknown_prefix():
    with pytest.raises(UnknownPrefixError, match="unknown prefix 'foo'"):
        records(MINIMAL.replace("ex:Decision", "foo:Decision"))


def test_parse_rejects_unparseable_yaml():
    with pytest.raises(SchemaError, match="not parseable as YAML"):
        parse_ir("- foo: [unclosed")


@pytest.mark.parametrize("source", [
    "- message: lone \ud800 surrogate",
    "- message: !!int x",
    "- message: 2001-13-01",
    "- message: !!timestamp x",
    "- message: !!bool x",
])
def test_parse_rejects_values_yaml_cannot_build(source):
    with pytest.raises(SchemaError, match="not parseable as YAML"):
        parse_ir(source)


@pytest.mark.parametrize("depth", [600, 5000])
def test_parse_deep_nesting_is_a_schema_error(depth):
    with pytest.raises(SchemaError):
        parse_ir("[" * depth + "]" * depth)


def test_parse_merge_keys_nested_too_deep():
    # SafeConstructor flattens merge keys recursively, whichever parser
    # built the nodes
    depth = 5000
    with pytest.raises(SchemaError, match="nesting too deep"):
        parse_ir("- <<: " + "{<<: " * depth + "{a: 1}" + "}" * depth)


def test_parse_rejects_duplicate_ids():
    with pytest.raises(DuplicateIdError,
                       match=r"duplicate obligation_id 'R1' \(records 0 and 1\)"):
        records(MINIMAL + MINIMAL.lstrip("\n"))


def test_bad_embedded_query_propagates():
    with pytest.raises(SparqlSyntaxError, match="unterminated group"):
        records("""
            - obligation_id: R1
              target_class: ex:T
              constraint_type: sparql
              message: M.
              sparql_text: SELECT $this WHERE { $this ex:p ?v
        """)
    with pytest.raises(SparqlSyntaxError, match="must project"):
        records("""
            - obligation_id: R1
              target_class: ex:T
              constraint_type: sparql
              message: M.
              sparql_text: SELECT ?v WHERE { $this ex:p ?v }
        """)
    depth = 3000
    with pytest.raises(SparqlSyntaxError, match="nesting too deep"):
        records(f"""
            - obligation_id: R1
              target_class: ex:T
              constraint_type: sparql
              message: M.
              sparql_text: SELECT $this WHERE {{ FILTER({"(" * depth}1{")" * depth}) }}
        """)


def test_each_query_is_parsed_once(monkeypatch):
    calls = []

    def counting_parse(text, prefixes=None):
        calls.append(text)
        return parse_sparql(text, prefixes)

    monkeypatch.setattr("govshapes.ir.parse_sparql", counting_parse)
    recs = parse_ir(block_source("fairness_transparency"))
    queries = [r.sparql_text for r in recs if r.constraint_type == "sparql"]
    assert queries and calls == queries
    compile_block(recs, "fairness_transparency")
    assert calls == queries
    assert [r.query for r in recs if r.query] == [parse_sparql(t) for t in queries]


# ---------------------------------------------------------------------------
# Loader parity: libyaml's parser against PyYAML's own, the reference
# ---------------------------------------------------------------------------

libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                             reason="PyYAML was built without libyaml")


def _parse_with_each_loader(monkeypatch, text: str) -> list:
    """``parse_ir``'s records, or its GovshapesError: read by PyYAML's own
    parser, by libyaml's, and as ``parse_ir`` reads it by default (the
    flat reader first); any other exception fails the test."""
    outcomes = []
    for loader in (yaml.SafeLoader, yaml.CSafeLoader, None):
        with monkeypatch.context() as patch:
            if loader is not None:
                patch.setattr("govshapes.ir._LOADER", loader)
                patch.setattr("govshapes.ir._read_flat", lambda text: None)
            try:
                outcomes.append(parse_ir(text))
            except GovshapesError as exc:
                outcomes.append(exc)
    return outcomes


def _same_outcome(a, b) -> bool:
    """Equal records, or errors of one class with one message."""
    if isinstance(a, list) or isinstance(b, list):
        return a == b
    return (type(a), str(a)) == (type(b), str(b))


@libyaml
def test_loaders_build_equal_records(script, monkeypatch):
    generate = script("perfbench/generate.py")
    sources = [block_source(name) for name in BLOCK_NAMES]
    sources += [text for s in generate.obligation_sets(1) for text in s.texts]
    for text in sources:
        reference, fast, default = _parse_with_each_loader(monkeypatch, text)
        assert isinstance(reference, list) and fast == reference
        assert default == reference
        assert ir._read_flat(text) is not None  # read without PyYAML


@libyaml
def test_loaders_agree_on_mutated_sources(script, monkeypatch):
    differential = script("tools/differential.py")
    rng = random.Random(5)
    bases = [block_source(name) for name in BLOCK_NAMES]
    fairness = block_source("fairness")
    inputs = [fairness.replace("Decision", "Deci\ud800sion"),
              fairness.replace("message: ", "message:\t"),
              fairness.replace(" ex:Decision", " ex:Deci\tsion"),
              "[" * 600 + "]" * 600]
    inputs += [differential.mutate(rng, rng.choice(bases), differential.BLOCK_PIECES)
               for _ in range(300)]
    both_accept = 0
    for text in inputs:
        reference, fast, default = _parse_with_each_loader(monkeypatch, text)
        if isinstance(reference, list) and isinstance(fast, list):
            assert fast == reference
            both_accept += 1
        assert _same_outcome(default, fast)
    assert both_accept > 50


@libyaml
@pytest.mark.parametrize("source, accepted", [
    ("- message: !!timestamp x", False),
    ("- message: !!bool x", False),
    ("- message: !!set x", False),
    ("- !!omap [message: x]", False),
    ("- message: !!bool 'true'", False),
    # a tag the value resolves to anyway, or one of the three scalar tags,
    # reaches the record checks
    ("- message: !!timestamp 2001-12-01", True),
    ("- !!map {message: !!str 5}", True),
    ("- &a [*a]", True),
])
def test_explicit_tags_are_stopped_before_construction(monkeypatch, source, accepted):
    for outcome in _parse_with_each_loader(monkeypatch, source):
        assert isinstance(outcome, SchemaError)
        assert ("explicit tag" not in str(outcome)) == accepted


# ---------------------------------------------------------------------------
# The flat reader: the shipped layout without PyYAML, the same records
# ---------------------------------------------------------------------------

def _typed(doc):
    """A loaded document with each record value's type beside it, so that
    ``1`` and ``True`` or ``"1"`` differ."""
    if not isinstance(doc, list):
        return type(doc), doc
    return [[(key, type(value), value) for key, value in item.items()]
            if isinstance(item, dict) else (type(item), item) for item in doc]


@libyaml
@settings(max_examples=300)
@given(gen.flat_sources())
def test_flat_reader_builds_what_libyaml_builds(text):
    flat = ir._read_flat(text)
    if flat is not None:
        assert _typed(flat) == _typed(yaml.load(text, Loader=yaml.CSafeLoader))


@given(gen.flat_sources())
def test_parse_ir_outcome_does_not_depend_on_the_flat_reader(text):
    def outcome():
        try:
            return parse_ir(text)
        except GovshapesError as exc:
            return exc

    with_reader = outcome()
    with mock.patch("govshapes.ir._read_flat", lambda text: None):
        assert _same_outcome(with_reader, outcome())


@pytest.mark.parametrize("text, expected", [
    ("[]\n", []),
    ("# c\n- min_count: 0\n  message: yES\n\n- obligation_id: nULL",
     [{"min_count": 0, "message": "yES"}, {"obligation_id": "nULL"}]),
    # empty lines inside a block stay, trailing ones go; a comment from
    # column 0 ends the block
    ("- sparql_text: |-\n    a\n\n      b #c\n\n\n# c\n  message: ex:m",
     [{"sparql_text": "a\n\n  b #c", "message": "ex:m"}]),
    ("- message: |-\n   x: y\n- message: a#b", [{"message": "x: y"}, {"message": "a#b"}]),
])
def test_flat_reader_reads_the_flat_layout(text, expected):
    assert _typed(ir._read_flat(text)) == _typed(expected)
    assert _typed(yaml.load(text, Loader=yaml.SafeLoader)) == _typed(expected)


@pytest.mark.parametrize("text", [
    # YAML 1.1 bool and null words, and numerals other than plain decimals
    "- message: yes", "- message: No", "- message: TRUE", "- message: off",
    "- message: On", "- message: null", "- message: Null", "- message: ~",
    "- min_count: 01", "- min_count: 07", "- min_count: 1_0", "- min_count: 1:20",
    "- min_count: .5", "- min_count: 1.5", "- message: .inf", "- min_count: -1",
    # a value that is no plain word: a trailing space, a comment, a key
    "- message: a ", "- message: a # c", "- message: a: b", "- message: x:",
    "- message: ", "- message:", "- message: 'a'", "- message: [a]",
    # characters other than printable ASCII and the newline
    "- message: a\tb", "- message: a\r\n", "- message: é", "- message: a\x85",
    "\ufeff- message: a", "- message: a\u2028b", "- message: a\x7f",
    # other block headers, and blocks without a first line of their own
    "- message: |\n    a", "- message: |+\n    a", "- message: |2-\n    a",
    "- message: >-\n    a", "- message: |- # c\n    a", "- message: |-",
    "- message: |-\n", "- message: |-\n\n    a", "- message: |-\n  a",
    "- message: |-\n    a\n  \n    b", "- message: |-\n    a\n    ",
    # layout: indented comments, duplicate or unknown keys, a lone
    # continuation, a list that is not the only content, no records at all
    "- message: a\n  # c", "- message: a\n  message: b", "  message: a",
    "- bogus: a", "[]\n- message: a", "- message: a\n[]", "[]\n[]", "",
    "# only a comment\n", "---\n- message: a", "-  message: a", "- message: a\n   b",
])
def test_flat_reader_declines_border_spellings(text):
    assert ir._read_flat(text) is None


_FRESH_INTERPRETER = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from govshapes import cli, corpus, ir

{body}
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "yaml")))
"""


def _yaml_modules_after(body: str) -> list[str]:
    """The PyYAML modules loaded once ``body`` has run in a fresh
    interpreter that ignores the environment and user site."""
    src = Path(ir.__file__).parents[1]
    script = _FRESH_INTERPRETER.format(body=dedent(body))
    result = subprocess.run([sys.executable, "-I", "-c", script, str(src)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_bundled_runs_never_import_yaml():
    assert _yaml_modules_after("""
        registry = corpus.default_registry()
        for profile in corpus.COMPILER_PROFILES + corpus.JURISDICTION_PROFILES:
            registry.composed(profile)
        data = Path(corpus.__file__).parent / "data"
        with tempfile.TemporaryDirectory() as tmp, \\
                contextlib.redirect_stdout(io.StringIO()):
            statuses = [cli.main(argv) for argv in (
                ["validate", f"{data}/cases/case_conform.ttl", "--profile", "Combined"],
                ["refine"],
                ["compose", *corpus.BLOCK_NAMES],
                ["compile", f"{data}/blocks/fairness.ir.yaml", "-o", f"{tmp}/f.ttl"])]
        assert statuses == [0, 0, 0, 0], statuses
    """) == []


def test_other_spellings_import_yaml_and_give_the_same_records():
    assert "yaml" in _yaml_modules_after("""
        flat = ir.parse_ir("- obligation_id: X1\\n  target_class: ex:T\\n"
                           "  constraint_type: structural\\n  relation: ex:p\\n"
                           "  message: M.\\n")
        assert "yaml" not in sys.modules
        flow = ir.parse_ir("[{obligation_id: X1, target_class: ex:T, "
                           "constraint_type: structural, relation: ex:p, message: M.}]")
        assert flow == flat and len(flow) == 1, (flow, flat)
    """)


# ---------------------------------------------------------------------------
# Severity merging
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a, b, expected", [
    (Severity.VIOLATION, Severity.WARNING, Severity.VIOLATION),
    (Severity.WARNING, Severity.VIOLATION, Severity.VIOLATION),
    (Severity.WARNING, Severity.INFO, Severity.WARNING),
    (Severity.INFO, Severity.WARNING, Severity.WARNING),
    (Severity.INFO, Severity.INFO, Severity.INFO),
])
def test_merge_severity_takes_the_stricter(a, b, expected):
    assert merge_severity(a, b) is expected


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def test_compile_one_shape_per_record_sorted_by_id():
    recs = parse_ir(block_source("fairness"))
    block = compile_block(recs, "fairness")
    assert isinstance(block, KnowledgeBlock)
    assert block.name == "fairness"
    assert [s.iri for s in block.shapes] == [
        EX.B2Shape, EX.B3Shape, EX.B4Shape, EX.B5Shape]
    assert block.obligations == frozenset({"B2", "B3", "B4", "B5"})


def test_compile_structural_constraint_layout():
    block = compile_block(parse_ir(block_source("fairness")), "fairness")
    b2 = block.shapes[0]
    assert b2.target_class == EX.Decision
    assert b2.constraints == (
        Datatype(EX.fairnessThreshold, XSD.decimal),
        MinCount(EX.fairnessThreshold, 1),
    )
    assert b2.message == "Decision must declare a decimal fairness threshold."


def test_compile_value_class_adds_qualified_constraint():
    block = compile_block(parse_ir(block_source("accountability")), "acct")
    a5 = [s for s in block.shapes if s.iri == EX.A5Shape][0]
    assert a5.constraints == (
        MinCount(PROV.used, 1),
        QualifiedMinCountClass(PROV.used, EX.ModelArtifact, 1),
    )


def test_compile_query_record_embeds_parsed_constraint():
    block = compile_block(parse_ir(block_source("fairness")), "fairness")
    b5 = block.shapes[3]
    (constraint,) = b5.constraints
    assert isinstance(constraint, SparqlConstraint)
    assert constraint.query.select_vars == ("this",)
    assert constraint.message is None  # record message lives on the shape
    assert b5.message == "Fairness disparity exceeds threshold."


def test_compile_concepts_declare_every_mentioned_term():
    block = compile_block(parse_ir(block_source("fairness")), "fairness")
    classes = {t.subject for t in block.concepts.match(None, RDF.type,
                                                       RDFS.term("Class"))}
    predicates = {t.subject for t in block.concepts.match(None, RDF.type,
                                                          RDF.Property)}
    assert classes == {EX.Decision}
    assert predicates == {EX.fairnessThreshold, EX.allocatedGPUHoursGroupA,
                          EX.allocatedGPUHoursGroupB}
    acct = compile_block(parse_ir(block_source("accountability")), "acct")
    acct_classes = {t.subject for t in acct.concepts.match(None, RDF.type,
                                                           RDFS.term("Class"))}
    assert EX.ModelArtifact in acct_classes  # value classes are declared too


def test_compile_evidence_requirements_cover_query_reads():
    block = compile_block(parse_ir(block_source("fairness")), "fairness")
    assert block.evidence_requirements == frozenset({
        (EX.Decision, EX.fairnessThreshold),
        (EX.Decision, EX.allocatedGPUHoursGroupA),
        (EX.Decision, EX.allocatedGPUHoursGroupB),
    })


def test_compile_family_merge_on_reads_that_do_not_overlap():
    # In the bundled blocks every predicate a query reads off the focus node
    # is also some structural record's relation; here none is.
    structural = IrRecord("S1", EX.Activity, "structural", "Needs a model.",
                          relation=PROV.used, value_class=EX.ModelArtifact)
    query = IrRecord("Q1", EX.Decision, "sparql", "Score too high.",
                     sparql_text="SELECT $this WHERE { $this ex:cites ?d . "
                                 "?d ex:score ?s . FILTER(?s > 1) }")
    block = compile_block([query, structural], "b")
    classes = {t.subject for t in block.concepts.match(None, RDF.type,
                                                       RDFS.term("Class"))}
    predicates = {t.subject for t in block.concepts.match(None, RDF.type,
                                                          RDF.Property)}
    assert classes == {EX.Activity, EX.ModelArtifact, EX.Decision}
    assert predicates == {PROV.used, EX.cites, EX.score}
    # ex:score is read off ?d, not off the focus node: no requirement
    assert block.evidence_requirements == frozenset({(EX.Activity, PROV.used),
                                                     (EX.Decision, EX.cites)})
    assert block.provenance_links == frozenset({PROV.used})


def test_compile_collects_provenance_predicates_only():
    acct = compile_block(parse_ir(block_source("accountability")), "acct")
    assert acct.provenance_links == frozenset({PROV.used,
                                               PROV.term("wasGeneratedBy")})
    fair = compile_block(parse_ir(block_source("fairness")), "fairness")
    assert fair.provenance_links == frozenset()


def test_compile_is_input_order_independent():
    recs = parse_ir(block_source("accountability"))
    forward = compile_block(recs, "acct")
    backward = compile_block(list(reversed(recs)), "acct")
    assert forward == backward
    assert serialize_turtle(forward.document_graph()) == \
        serialize_turtle(backward.document_graph())


def test_compile_twice_is_byte_identical():
    for name in ("accountability", "fairness", "logging"):
        recs = parse_ir(block_source(name))
        first = serialize_turtle(compile_block(recs, name).document_graph())
        second = serialize_turtle(compile_block(recs, name).document_graph())
        assert first == second


def test_compile_of_nothing_is_the_empty_block():
    block = compile_block([], "void")
    assert block.shapes == ()
    assert block.obligations == frozenset()
    assert len(block.concepts) == 0
    assert serialize_turtle(block.document_graph()) == ""
    stock = empty_block()
    assert stock.name == "empty"
    assert serialize_turtle(stock.document_graph()) == ""


def test_shapes_graph_round_trips_through_loader():
    for name in ("accountability", "fairness"):
        block = compile_block(parse_ir(block_source(name)), name)
        assert load_shapes(block.shapes_graph()) == list(block.shapes)


def test_min_count_zero_compiles_to_vacuous_min():
    (rec,) = records(MINIMAL + "      min_count: 0\n")
    block = compile_block([rec], "b")
    assert block.shapes[0].constraints == (MinCount(EX.hasUsageLog, 0),)


def test_record_construction_is_direct_dataclass():
    rec = IrRecord("X1", EX.T, "structural", "msg", relation=EX.p)
    block = compile_block([rec], "b")
    assert block.shapes[0].iri == EX.term("X1Shape")
