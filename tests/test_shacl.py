"""Shape loading, validation semantics, and report graphs."""

import pickle
import time

import pytest

import oracle
from govshapes import corpus
from govshapes.errors import (MalformedShapeError, TooManySolutionsError,
                              UnsupportedConstraintError)
from govshapes.ir import compile_block, parse_ir
from govshapes.rdf import (
    EX,
    RDF,
    SH,
    XSD,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    parse_turtle,
    serialize_turtle,
)
from govshapes.shacl import (
    ClassConstraint,
    Datatype,
    MaxCount,
    MinCount,
    NodeKindIri,
    NodeShape,
    QualifiedMinCountClass,
    Severity,
    SparqlConstraint,
    Violation,
    emit_report_graph,
    emit_shapes_graph,
    focus_nodes,
    load_shapes,
    qname,
    read_report,
    validate,
)
from govshapes.sparql import parse_sparql


def shape_graph(body):
    return parse_turtle(
        "@prefix ex: <http://example.org/okb#> .\n"
        "@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n" + body)


def min_count_shape(count=1):
    return NodeShape(EX.S, EX.Decision,
                     (MinCount(EX.hasUsageLog, count),))


# ---------------------------------------------------------------------------
# Vocabulary helpers
# ---------------------------------------------------------------------------

def test_qname_uses_standard_prefixes():
    assert qname(EX.B5Shape) == "ex:B5Shape"
    assert qname(SH.ValidationReport) == "sh:ValidationReport"
    assert qname(Iri("http://other.test/x")) == "<http://other.test/x>"


def test_severity_ordering_and_iris():
    assert Severity.INFO < Severity.WARNING < Severity.VIOLATION
    assert Severity.VIOLATION.iri == SH.Violation
    assert Severity.from_iri(SH.Warning) is Severity.WARNING
    assert Severity.from_name("info") is Severity.INFO
    with pytest.raises(MalformedShapeError):
        Severity.from_iri(EX.Fatal)
    with pytest.raises(MalformedShapeError):
        Severity.from_name("severe")


def test_violation_identity_ignores_path_value_severity():
    a = Violation(EX.S, EX.d, "m", Severity.VIOLATION, EX.p, Literal("1"))
    b = Violation(EX.S, EX.d, "m", Severity.WARNING)
    assert a.identity == b.identity
    c = Violation(EX.S, EX.d, "other")
    assert a.identity != c.identity


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def test_load_structural_shape():
    g = shape_graph("""
        ex:S a sh:NodeShape ;
            sh:targetClass ex:UsageLog ;
            sh:message "Needs a typed timestamp." ;
            sh:property [
                sh:path ex:timestamp ;
                sh:minCount 1 ;
                sh:maxCount 3 ;
                sh:datatype xsd:dateTime ;
            ] .
    """)
    (shape,) = load_shapes(g)
    assert shape.iri == EX.S
    assert shape.target_class == EX.UsageLog
    assert shape.message == "Needs a typed timestamp."
    assert shape.severity is Severity.VIOLATION
    assert shape.constraints == (
        Datatype(EX.timestamp, XSD.dateTime),
        MaxCount(EX.timestamp, 3),
        MinCount(EX.timestamp, 1),
    )


def test_load_qualified_and_nodekind_and_class():
    g = shape_graph("""
        ex:S a sh:NodeShape ;
            sh:targetClass ex:Activity ;
            sh:property [
                sh:path ex:used ;
                sh:nodeKind sh:IRI ;
                sh:class ex:Artifact ;
                sh:qualifiedValueShape [ sh:class ex:ModelArtifact ] ;
                sh:qualifiedMinCount 2 ;
            ] .
    """)
    (shape,) = load_shapes(g)
    assert set(shape.constraints) == {
        NodeKindIri(EX.used),
        ClassConstraint(EX.used, EX.Artifact),
        QualifiedMinCountClass(EX.used, EX.ModelArtifact, 2),
    }


def test_load_sparql_shape_parses_query():
    g = shape_graph("""
        ex:S a sh:NodeShape ;
            sh:targetClass ex:Decision ;
            sh:sparql [
                a sh:SPARQLConstraint ;
                sh:message "Disparity." ;
                sh:select "SELECT $this WHERE { $this ex:p ?v . FILTER(?v > 1) }" ;
            ] .
    """)
    (shape,) = load_shapes(g)
    (constraint,) = shape.constraints
    assert isinstance(constraint, SparqlConstraint)
    assert constraint.message == "Disparity."
    assert constraint.query.select_vars == ("this",)


def test_load_severity_and_sorted_shapes():
    g = shape_graph("""
        ex:Zed a sh:NodeShape ; sh:targetClass ex:T ;
            sh:property [ sh:path ex:p ; sh:minCount 1 ] .
        ex:Abc a sh:NodeShape ; sh:targetClass ex:T ;
            sh:severity sh:Warning ;
            sh:property [ sh:path ex:p ; sh:minCount 1 ] .
    """)
    shapes = load_shapes(g)
    assert [s.iri for s in shapes] == [EX.Abc, EX.Zed]
    assert shapes[0].severity is Severity.WARNING


@pytest.mark.parametrize("body, error, fragment", [
    ("ex:S a sh:NodeShape ; sh:property [ sh:path ex:p ; sh:minCount 1 ] .",
     MalformedShapeError, "sh:targetClass is missing"),
    ("ex:S a sh:NodeShape ; sh:targetClass ex:T .",
     MalformedShapeError, "declares no constraints"),
    ("ex:S a sh:NodeShape ; sh:targetClass ex:T ; sh:closed true ;"
     " sh:property [ sh:path ex:p ; sh:minCount 1 ] .",
     UnsupportedConstraintError, "unsupported shape facet"),
    ("ex:S a sh:NodeShape ; sh:targetClass ex:T ;"
     " sh:property [ sh:path ex:p ; sh:pattern \"x\" ] .",
     UnsupportedConstraintError, "unsupported property facet"),
    ("ex:S a sh:NodeShape ; sh:targetClass ex:T ;"
     " sh:property [ sh:path ex:p ; sh:nodeKind sh:Literal ] .",
     UnsupportedConstraintError, "only sh:IRI"),
    ("ex:S a sh:NodeShape ; sh:targetClass ex:T ;"
     " sh:property [ sh:path ex:p ; sh:qualifiedMinCount 1 ] .",
     MalformedShapeError, "go together"),
    ("ex:S a sh:NodeShape ; sh:targetClass ex:T ;"
     " sh:property [ sh:path ex:p ;"
     " sh:qualifiedValueShape [ sh:minCount 1 ] ; sh:qualifiedMinCount 1 ] .",
     UnsupportedConstraintError, "sh:class only"),
    ("ex:S a sh:NodeShape ; sh:targetClass ex:T ;"
     " sh:property [ sh:path ex:p ] .",
     MalformedShapeError, "declares no constraint"),
    ("ex:S a sh:NodeShape ; sh:targetClass ex:T ;"
     " sh:property [ sh:path ex:p ; sh:minCount 1.5 ] .",
     MalformedShapeError, "must be an integer"),
    *[("ex:S a sh:NodeShape ; sh:targetClass ex:T ;"
       f" sh:property [ sh:path ex:p ; sh:minCount \"{lexical}\"^^xsd:integer ] .",
       MalformedShapeError, "must be an integer")
      for lexical in ("1_0", " 1", "1 ", "\u0661", "+", "")],
    ("ex:S a sh:NodeShape ; sh:targetClass ex:T ; sh:targetClass ex:U ;"
     " sh:property [ sh:path ex:p ; sh:minCount 1 ] .",
     MalformedShapeError, "expected one"),
    ("ex:S a sh:NodeShape ; sh:targetClass ex:T ;"
     " sh:sparql [ sh:select \"SELECT $this WHERE { $this ex:p ?v }\" ] .",
     MalformedShapeError, "must be a sh:SPARQLConstraint"),
    ("ex:S a sh:NodeShape ; sh:targetClass ex:T ;"
     " sh:sparql [ a sh:SPARQLConstraint ; sh:select \"x\" ;"
     " sh:prefixes ex:ns ] .",
     UnsupportedConstraintError, "unsupported query facet"),
    ("[ sh:targetClass ex:T ; sh:property [ sh:path ex:p ; sh:minCount 1 ] ]"
     " a sh:NodeShape .",
     MalformedShapeError, "named by an IRI"),
    # a message that is a number or an IRI, on a shape, property and query node
    *[(body.replace("MESSAGE", f"sh:message {value}"), MalformedShapeError,
       "sh:message must be a string literal")
      for value in ("5", "ex:x")
      for body in (
          "ex:S a sh:NodeShape ; sh:targetClass ex:T ; MESSAGE ;"
          " sh:property [ sh:path ex:p ; sh:minCount 1 ] .",
          "ex:S a sh:NodeShape ; sh:targetClass ex:T ;"
          " sh:property [ sh:path ex:p ; sh:minCount 1 ; MESSAGE ] .",
          "ex:S a sh:NodeShape ; sh:targetClass ex:T ; sh:sparql [ a sh:SPARQLConstraint ;"
          " sh:select \"SELECT $this WHERE { $this ex:p ?v }\" ; MESSAGE ] .")],
])
def test_load_rejects_bad_shapes(body, error, fragment):
    with pytest.raises(error, match=fragment):
        load_shapes(shape_graph(body))


def test_load_ignores_non_shape_subjects():
    g = shape_graph("""
        ex:Decision a <http://www.w3.org/2000/01/rdf-schema#Class> .
        ex:S a sh:NodeShape ; sh:targetClass ex:Decision ;
            sh:property [ sh:path ex:p ; sh:minCount 1 ] .
    """)
    assert len(load_shapes(g)) == 1


# ---------------------------------------------------------------------------
# Validation semantics
# ---------------------------------------------------------------------------

def evidence(*triples):
    return Graph(triples)


def test_focus_nodes_sorted_and_typed_only():
    g = evidence(
        Triple(EX.d2, RDF.type, EX.Decision),
        Triple(EX.d1, RDF.type, EX.Decision),
        Triple(EX.other, RDF.type, EX.UsageLog),
    )
    assert focus_nodes(g, min_count_shape()) == [EX.d1, EX.d2]


def test_min_count_violation_and_pass():
    shape = min_count_shape()
    g = evidence(Triple(EX.d, RDF.type, EX.Decision))
    report = validate([shape], g)
    assert not report.conforms
    (v,) = report.violations
    assert v.source_shape == EX.S
    assert v.focus_node == EX.d
    assert v.path == EX.hasUsageLog
    g.add(Triple(EX.d, EX.hasUsageLog, EX.log))
    assert validate([shape], g).conforms


def test_max_count():
    shape = NodeShape(EX.S, EX.Decision, (MaxCount(EX.p, 1),))
    g = evidence(
        Triple(EX.d, RDF.type, EX.Decision),
        Triple(EX.d, EX.p, EX.a),
        Triple(EX.d, EX.p, EX.b),
    )
    assert not validate([shape], g).conforms
    g2 = evidence(Triple(EX.d, RDF.type, EX.Decision), Triple(EX.d, EX.p, EX.a))
    assert validate([shape], g2).conforms


def test_datatype_checks_every_value():
    shape = NodeShape(EX.S, EX.UsageLog, (Datatype(EX.ts, XSD.dateTime),))
    g = evidence(
        Triple(EX.log, RDF.type, EX.UsageLog),
        Triple(EX.log, EX.ts, Literal("2025-11-03T14:21:07Z", XSD.dateTime)),
        Triple(EX.log, EX.ts, Literal("2025-11-03T14:21:07")),
        Triple(EX.log, EX.ts, EX.notALiteral),
    )
    report = validate([shape], g)
    assert len(report.violations) == 2
    assert {v.value for v in report.violations} == {
        Literal("2025-11-03T14:21:07"), EX.notALiteral}


def test_datatype_rejects_language_tagged_strings():
    shape = NodeShape(EX.S, EX.T, (Datatype(EX.p, XSD.string),))
    g = evidence(
        Triple(EX.x, RDF.type, EX.T),
        Triple(EX.x, EX.p, Literal("ok")),
        Triple(EX.x, EX.p, Literal("nein", language="de")),
    )
    report = validate([shape], g)
    (v,) = report.violations
    assert v.value == Literal("nein", language="de")


def test_datatype_passes_with_no_values():
    # datatype constrains present values only; absence is minCount's job
    shape = NodeShape(EX.S, EX.T, (Datatype(EX.p, XSD.integer),))
    g = evidence(Triple(EX.x, RDF.type, EX.T))
    assert validate([shape], g).conforms


def test_class_constraint_requires_explicit_typing():
    shape = NodeShape(EX.S, EX.Activity, (ClassConstraint(EX.used, EX.Artifact),))
    g = evidence(
        Triple(EX.a, RDF.type, EX.Activity),
        Triple(EX.a, EX.used, EX.m1),
        Triple(EX.m1, RDF.type, EX.Artifact),
        Triple(EX.a, EX.used, EX.m2),
    )
    report = validate([shape], g)
    (v,) = report.violations
    assert v.value == EX.m2


def test_class_constraint_rejects_literal_values():
    shape = NodeShape(EX.S, EX.T, (ClassConstraint(EX.p, EX.K),))
    g = evidence(Triple(EX.x, RDF.type, EX.T), Triple(EX.x, EX.p, Literal("v")))
    assert not validate([shape], g).conforms


def test_node_kind_iri():
    shape = NodeShape(EX.S, EX.T, (NodeKindIri(EX.p),))
    g = evidence(
        Triple(EX.x, RDF.type, EX.T),
        Triple(EX.x, EX.p, EX.ok),
        Triple(EX.x, EX.p, Literal("bad")),
        Triple(EX.x, EX.p, BlankNode("alsoBad")),
    )
    report = validate([shape], g)
    assert len(report.violations) == 2


def test_qualified_min_count_counts_typed_values():
    shape = NodeShape(EX.S, EX.Activity,
                      (QualifiedMinCountClass(EX.used, EX.ModelArtifact, 1),))
    g = evidence(
        Triple(EX.a, RDF.type, EX.Activity),
        Triple(EX.a, EX.used, EX.log1),
        Triple(EX.log1, RDF.type, EX.LogArtifact),
    )
    report = validate([shape], g)
    (v,) = report.violations
    assert v.path == EX.used
    g.add(Triple(EX.a, EX.used, EX.m))
    g.add(Triple(EX.m, RDF.type, EX.ModelArtifact))
    assert validate([shape], g).conforms


def test_sparql_constraint_reports_solutions():
    text = "SELECT $this WHERE { $this ex:p ?v . FILTER(?v > 10) }"
    shape = NodeShape(EX.S, EX.T,
                      (SparqlConstraint(text, parse_sparql(text), "Too big."),))
    g = evidence(
        Triple(EX.x, RDF.type, EX.T),
        Triple(EX.x, EX.p, Literal("50", XSD.integer)),
        Triple(EX.y, RDF.type, EX.T),
        Triple(EX.y, EX.p, Literal("5", XSD.integer)),
    )
    report = validate([shape], g)
    (v,) = report.violations
    assert v.focus_node == EX.x
    assert v.message == "Too big."
    assert v.path is None


def test_sparql_constraint_reports_each_solution_of_one_projected_row():
    # two solutions, one per value of ?v, project to the same $this
    text = "SELECT $this WHERE { $this ex:p ?v }"
    shape = NodeShape(EX.S, EX.T, (SparqlConstraint(text, parse_sparql(text), "Has p."),))
    g = evidence(
        Triple(EX.x, RDF.type, EX.T),
        Triple(EX.x, EX.p, EX.a),
        Triple(EX.x, EX.p, EX.b),
    )
    report = validate([shape], g)
    assert report.violations == (Violation(EX.S, EX.x, "Has p."),) * 2
    assert len({v.identity for v in report.violations}) == 1


def test_sparql_constraint_surfaces_eval_diagnostics():
    text = "SELECT $this WHERE { $this ex:p ?v . FILTER(?v > 10) }"
    shape = NodeShape(EX.S, EX.T, (SparqlConstraint(text, parse_sparql(text)),))
    g = evidence(
        Triple(EX.x, RDF.type, EX.T),
        Triple(EX.x, EX.p, Literal("plain")),
    )
    report = validate([shape], g)
    assert report.conforms
    assert len(report.diagnostics) == 1


def test_warning_severity_does_not_block_conformance():
    shape = NodeShape(EX.S, EX.Decision, (MinCount(EX.p, 1),),
                      severity=Severity.WARNING)
    g = evidence(Triple(EX.d, RDF.type, EX.Decision))
    report = validate([shape], g)
    assert report.conforms
    (v,) = report.violations
    assert v.severity is Severity.WARNING
    assert report.count(Severity.WARNING) == 1
    assert report.count(Severity.VIOLATION) == 0
    assert report.count() == 1


def test_message_precedence_constraint_shape_default():
    with_const = NodeShape(EX.S, EX.T, (MinCount(EX.p, 1, "from constraint"),),
                           message="from shape")
    with_shape = NodeShape(EX.S, EX.T, (MinCount(EX.p, 1),), message="from shape")
    bare = NodeShape(EX.S, EX.T, (MinCount(EX.p, 1),))
    g = evidence(Triple(EX.x, RDF.type, EX.T))
    assert validate([with_const], g).violations[0].message == "from constraint"
    assert validate([with_shape], g).violations[0].message == "from shape"
    assert validate([bare], g).violations[0].message == \
        "Missing required value for ex:p"


def test_default_messages_are_specific():
    g = evidence(Triple(EX.x, RDF.type, EX.T), Triple(EX.x, EX.p, Literal("s")))
    checks = [
        (MinCount(EX.p, 2), "Requires at least 2 values for ex:p"),
        (MaxCount(EX.p, 0), "More than 0 values for ex:p"),
        (Datatype(EX.p, XSD.integer),
         "Value of ex:p must have datatype xsd:integer"),
        (ClassConstraint(EX.p, EX.K), "Value of ex:p must be a ex:K"),
        (NodeKindIri(EX.p), "Value of ex:p must be an IRI"),
        (QualifiedMinCountClass(EX.p, EX.K, 1), "Requires a ex:K value on ex:p"),
    ]
    for constraint, message in checks:
        report = validate([NodeShape(EX.S, EX.T, (constraint,))], g)
        assert report.violations[0].message == message


def test_report_is_deterministically_sorted():
    shapes = [
        NodeShape(EX.B, EX.T, (MinCount(EX.p, 1),)),
        NodeShape(EX.A, EX.T, (MinCount(EX.q, 1), MinCount(EX.p, 1))),
    ]
    g = evidence(Triple(EX.x2, RDF.type, EX.T), Triple(EX.x1, RDF.type, EX.T))
    report = validate(shapes, g)
    keys = [(v.source_shape.value, v.focus_node.value, v.path.value)
            for v in report.violations]
    assert keys == sorted(keys)
    assert len(report.violations) == 6


def test_validation_is_a_pure_function_of_inputs():
    shapes = [min_count_shape()]
    g = evidence(Triple(EX.d, RDF.type, EX.Decision))
    first = validate(shapes, g)
    second = validate(shapes, g)
    assert first == second  # elapsed_ms and diagnostics excluded from equality
    assert first.elapsed_ms >= 0.0


# ---------------------------------------------------------------------------
# Emission round trips
# ---------------------------------------------------------------------------

def full_shape_set():
    text = ("SELECT $this WHERE { $this ex:a ?a ; ex:b ?b . "
            "BIND(ABS(?a - ?b) AS ?d) FILTER(?d > 1) }")
    return [
        NodeShape(EX.A1Shape, EX.Decision,
                  (MinCount(EX.hasUsageLog, 1),), message="Log required."),
        NodeShape(EX.A2Shape, EX.UsageLog,
                  (Datatype(EX.ts, XSD.dateTime), MinCount(EX.ts, 1)),
                  message="Timestamp required."),
        NodeShape(EX.A5Shape, EX.Activity,
                  (MinCount(EX.used, 1),
                   QualifiedMinCountClass(EX.used, EX.ModelArtifact, 1)),
                  severity=Severity.WARNING, message="Model artifact."),
        NodeShape(EX.B5Shape, EX.Decision,
                  (SparqlConstraint(text, parse_sparql(text)),),
                  message="Disparity."),
    ]


def test_emit_load_round_trip_preserves_shapes():
    shapes = full_shape_set()
    g = emit_shapes_graph(shapes)
    loaded = load_shapes(g)
    assert loaded == sorted(shapes, key=lambda s: s.iri.value)


def test_emit_is_stable_under_reload():
    g1 = emit_shapes_graph(full_shape_set())
    text1 = serialize_turtle(g1)
    g2 = emit_shapes_graph(load_shapes(g1))
    assert serialize_turtle(g2) == text1


def test_emit_load_round_trip_of_node_messages_and_node_kind():
    text = "SELECT $this WHERE { $this ex:a ?a . FILTER(?a > 1) }"
    other = "SELECT $this WHERE { $this ex:b ?b . FILTER(?b > 1) }"
    # in the order both producers sort constraints: structural by path and
    # class name, then queries by their text
    shape = NodeShape(EX.S, EX.T, (
        MinCount(EX.p, 1, "Needs an IRI."),
        NodeKindIri(EX.p, "Needs an IRI."),
        Datatype(EX.q, XSD.integer),
        SparqlConstraint(text, parse_sparql(text), "Too large."),
        SparqlConstraint(other, parse_sparql(other)),
    ))
    g = emit_shapes_graph([shape])
    assert g.match(None, SH.nodeKind, SH.IRI)
    assert load_shapes(g) == [shape]


def test_emit_groups_same_path_constraints_into_one_property_node():
    shapes = [NodeShape(EX.S, EX.T,
                        (MinCount(EX.p, 1), Datatype(EX.p, XSD.integer)))]
    g = emit_shapes_graph(shapes)
    assert len(g.match(None, SH.property)) == 1


def test_emit_omits_default_severity():
    g = emit_shapes_graph([min_count_shape()])
    assert g.match(None, SH.severity) == []
    warn = NodeShape(EX.S, EX.T, (MinCount(EX.p, 1),), severity=Severity.WARNING)
    g2 = emit_shapes_graph([warn])
    assert g2.match(None, SH.severity, SH.Warning)


def test_conforming_report_graph_is_two_triples():
    report = validate([min_count_shape()],
                      evidence(Triple(EX.d, RDF.type, EX.Decision),
                               Triple(EX.d, EX.hasUsageLog, EX.log)))
    assert report.conforms
    g = emit_report_graph(report)
    assert len(g) == 2
    assert g.match(None, RDF.type, SH.ValidationReport)
    assert g.match(None, SH.conforms, Literal("true", XSD.boolean))


def test_report_graph_round_trip():
    shapes = full_shape_set()
    g = evidence(
        Triple(EX.d, RDF.type, EX.Decision),
        Triple(EX.log, RDF.type, EX.UsageLog),
        Triple(EX.log, EX.ts, Literal("not typed")),
        Triple(EX.act, RDF.type, EX.Activity),
        Triple(EX.d, EX.a, Literal("10", XSD.integer)),
        Triple(EX.d, EX.b, Literal("2", XSD.integer)),
    )
    report = validate(shapes, g)
    assert not report.conforms
    assert report.violations  # carries paths, values, and a query violation
    recovered = read_report(parse_turtle(serialize_turtle(emit_report_graph(report))))
    assert recovered.conforms == report.conforms
    assert recovered.violations == report.violations


def test_read_report_rejects_wrong_root_count():
    with pytest.raises(MalformedShapeError, match="expected one report node"):
        read_report(Graph())


def test_oracle_agrees_on_reference_query_inside_validation():
    # the fairness disparity check end to end: 100 vs 70 over a 0.20 threshold
    text = oracle.REFERENCE_QUERY
    shape = NodeShape(EX.B5Shape, EX.Decision,
                      (SparqlConstraint(text, parse_sparql(text), "Disparity."),))
    g = evidence(
        Triple(EX.d, RDF.type, EX.Decision),
        Triple(EX.d, EX.allocatedGPUHoursGroupA, Literal("100.0", XSD.decimal)),
        Triple(EX.d, EX.allocatedGPUHoursGroupB, Literal("70.0", XSD.decimal)),
        Triple(EX.d, EX.fairnessThreshold, Literal("0.20", XSD.decimal)),
    )
    report = validate([shape], g)
    rows, _ = oracle.brute_force(shape.constraints[0].query, g, EX.d)
    assert len(report.violations) == len(rows) == 1


def test_read_report_rejects_a_non_boolean_conforms():
    text = ("@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
            "_:r a sh:ValidationReport ; sh:conforms \"yes\" .")
    with pytest.raises(MalformedShapeError) as info:
        read_report(parse_turtle(text))
    assert str(info.value) == "sh:conforms must be a boolean literal"

# ---------------------------------------------------------------------------
# Reader messages and the order in which they are raised
# ---------------------------------------------------------------------------

def load_error(body):
    with pytest.raises((MalformedShapeError, UnsupportedConstraintError)) as info:
        load_shapes(shape_graph(body))
    return type(info.value), str(info.value)


def test_qualified_shape_with_an_extra_facet_names_no_facet():
    assert load_error(
        "ex:S a sh:NodeShape ; sh:targetClass ex:T ; sh:property [ sh:path ex:p ;"
        " sh:qualifiedValueShape [ sh:class ex:C ; sh:minCount 1 ] ;"
        " sh:qualifiedMinCount 1 ] .") == (
        UnsupportedConstraintError, "ex:S: qualified value shapes support sh:class only")


def test_qualified_min_count_is_paired_before_it_is_converted():
    assert load_error(
        "ex:S a sh:NodeShape ; sh:targetClass ex:T ;"
        " sh:property [ sh:path ex:p ; sh:qualifiedMinCount \"x\" ] .") == (
        MalformedShapeError,
        "ex:S: sh:qualifiedValueShape and sh:qualifiedMinCount go together")


def test_query_node_type_is_checked_before_its_facets():
    assert load_error(
        "ex:S a sh:NodeShape ; sh:targetClass ex:T ;"
        " sh:sparql [ sh:select \"SELECT $this WHERE { $this ex:p ?v }\" ;"
        " sh:prefixes ex:ns ] .") == (
        MalformedShapeError, "ex:S: sh:sparql node must be a sh:SPARQLConstraint")


def test_target_class_must_be_an_iri():
    assert load_error(
        "ex:S a sh:NodeShape ; sh:targetClass \"x\" ;"
        " sh:property [ sh:path ex:p ; sh:minCount 1 ] .") == (
        MalformedShapeError, "ex:S sh:targetClass must be an IRI")


def test_property_node_with_a_path_alone_is_rejected():
    assert load_error(
        "ex:S a sh:NodeShape ; sh:targetClass ex:T ;"
        " sh:property [ sh:path ex:p ], [ sh:path ex:q ; sh:minCount 1 ] .") == (
        MalformedShapeError, "ex:S: property node declares no constraint")


def test_query_may_use_a_prefix_the_shapes_graph_binds():
    (shape,) = load_shapes(shape_graph(
        "@prefix my: <http://my.test/> .\n"
        "ex:S a sh:NodeShape ; sh:targetClass ex:T ; sh:sparql [ a sh:SPARQLConstraint ;"
        " sh:select \"SELECT $this WHERE { $this my:p ?v }\" ] ."))
    (constraint,) = shape.constraints
    assert constraint.query.clauses[0].predicate == Iri("http://my.test/p")


_PROPERTY = "sh:path ex:p ; sh:minCount 1"
_QUERY = "a sh:SPARQLConstraint ; sh:select \"SELECT $this WHERE { $this ex:p ?v }\""


@pytest.mark.parametrize("body, what", [
    ("sh:targetClass ex:T, ex:U ; sh:property [ %s ]" % _PROPERTY, "sh:targetClass"),
    ("sh:targetClass ex:T ; sh:message \"a\", \"b\" ; sh:property [ %s ]" % _PROPERTY,
     "sh:message"),
    ("sh:targetClass ex:T ; sh:severity sh:Info, sh:Warning ; sh:property [ %s ]"
     % _PROPERTY, "sh:severity"),
    ("sh:targetClass ex:T ; sh:property [ sh:path ex:p, ex:q ; sh:minCount 1 ]",
     "sh:path"),
    ("sh:targetClass ex:T ; sh:property [ %s ; sh:message \"a\", \"b\" ]" % _PROPERTY,
     "sh:message"),
    *[("sh:targetClass ex:T ; sh:property [ sh:path ex:p ; %s ]" % facets, what)
      for facets, what in (("sh:minCount 1, 2", "sh:minCount"),
                           ("sh:maxCount 1, 2", "sh:maxCount"),
                           ("sh:datatype xsd:string, xsd:integer", "sh:datatype"),
                           ("sh:class ex:C, ex:D", "sh:class"),
                           ("sh:nodeKind sh:IRI, sh:Literal", "sh:nodeKind"),
                           ("sh:qualifiedValueShape [ sh:class ex:C ], [ sh:class ex:D ] ;"
                            " sh:qualifiedMinCount 1", "sh:qualifiedValueShape"),
                           ("sh:qualifiedValueShape [ sh:class ex:C ] ;"
                            " sh:qualifiedMinCount 1, 2", "sh:qualifiedMinCount"),
                           ("sh:qualifiedValueShape [ sh:class ex:C, ex:D ] ;"
                            " sh:qualifiedMinCount 1", "qualified sh:class"))],
    ("sh:targetClass ex:T ; sh:sparql [ %s, \"SELECT $this WHERE { }\" ]" % _QUERY,
     "sh:select"),
    ("sh:targetClass ex:T ; sh:sparql [ %s ; sh:message \"a\", \"b\" ]" % _QUERY,
     "sh:message"),
])
def test_shape_readers_reject_a_duplicated_facet(body, what):
    assert load_error(f"ex:S a sh:NodeShape ; {body} .") == (
        MalformedShapeError, f"ex:S {what} has 2 values, expected one")


_RESULT = {"sh:focusNode": "ex:d", "sh:sourceShape": "ex:S",
           "sh:resultSeverity": "sh:Violation", "sh:resultMessage": "\"m\"",
           "sh:resultPath": "ex:p", "sh:value": "ex:v"}
_SECOND = {"sh:focusNode": "ex:e", "sh:sourceShape": "ex:T",
           "sh:resultSeverity": "sh:Warning", "sh:resultMessage": "\"n\"",
           "sh:resultPath": "ex:q", "sh:value": "ex:w"}


@pytest.mark.parametrize("predicate", ["sh:conforms", *_RESULT])
def test_report_reader_rejects_a_duplicated_facet(predicate):
    conforms = "false, true" if predicate == "sh:conforms" else "false"
    result = " ; ".join(f"{p} {o}, {_SECOND[p]}" if p == predicate else f"{p} {o}"
                        for p, o in _RESULT.items())
    text = ("@prefix ex: <http://example.org/okb#> .\n"
            "@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
            f"_:r a sh:ValidationReport ; sh:conforms {conforms} ;"
            f" sh:result [ a sh:ValidationResult ; {result} ] .")
    with pytest.raises(MalformedShapeError) as info:
        read_report(parse_turtle(text))
    assert str(info.value) == f"{predicate} has 2 values, expected one"


# ---------------------------------------------------------------------------
# Shape plans, diagnostics order and the solution bound
# ---------------------------------------------------------------------------

def _block_shapes(source: str):
    return list(compile_block(parse_ir(source), "test").shapes)


def test_validated_shapes_keep_their_equality_hash_repr_and_pickle():
    used = _block_shapes(corpus.block_source("fairness"))
    fresh = _block_shapes(corpus.block_source("fairness"))
    graph = parse_turtle(corpus.case_source("disparity_exceeds"))
    report = validate(used, graph)
    assert report.count() == 1
    for shape, other in zip(used, fresh, strict=True):
        assert shape == other and hash(shape) == hash(other) and repr(shape) == repr(other)
        again = pickle.loads(pickle.dumps(shape))
        assert again == shape and hash(again) == hash(shape) and repr(again) == repr(shape)
    assert validate([pickle.loads(pickle.dumps(s)) for s in used], graph) == report


def test_diagnostics_come_by_shape_then_focus_node_then_solution(score_block, score_case):
    report = validate(_block_shapes(score_block), parse_turtle(score_case))
    assert report.conforms and report.violations == ()
    assert [(d.clause_index, d.reason) for d in report.diagnostics] == [
        (clause, f"literal '{score}' is not a valid number")
        for clause in (1, 2) for score in ("a1", "a2", "b1", "b2", "c1", "c2")]


def test_a_shape_whose_query_passes_the_solution_bound_is_named(
        eight_decisions, cross_product_block):
    shapes = _block_shapes(cross_product_block)
    start = time.perf_counter()
    with pytest.raises(TooManySolutionsError) as info:
        validate(shapes, parse_turtle(eight_decisions))
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == ("shape <http://example.org/okb#X1Shape>: "
                               "query clause 2 builds more than 100000 solutions")
