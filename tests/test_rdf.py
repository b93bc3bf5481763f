"""Term model, graph operations, and the Turtle codec."""

import itertools
import logging
import random
import re
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import strategies as gen
from govshapes import corpus, rdf, sparql
from govshapes.errors import TurtleSyntaxError
from govshapes.rdf import (
    EX,
    RDF,
    XSD,
    BlankNode,
    Graph,
    Iri,
    Literal,
    TermTable,
    Triple,
    is_numeric_literal,
    parse_turtle,
    serialize_turtle,
    term_sort_key,
    triple_sort_key,
    union,
)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

def test_plain_literal_defaults_to_string():
    assert Literal("x").datatype == XSD.string
    assert Literal("x").language is None


def test_language_tagged_literal_gets_langstring():
    lit = Literal("hello", language="en")
    assert lit.datatype == RDF.langString
    assert lit.language == "en"


def test_typed_literal_keeps_datatype():
    assert Literal("5", XSD.integer).datatype == XSD.integer


def test_triple_rejects_literal_subject():
    with pytest.raises(ValueError):
        Triple(Literal("x"), EX.p, EX.o)


def test_triple_rejects_non_iri_predicate():
    with pytest.raises(ValueError):
        Triple(EX.s, BlankNode("b"), EX.o)
    with pytest.raises(ValueError):
        Triple(EX.s, Literal("p"), EX.o)


def test_term_sort_key_groups_iri_literal_bnode():
    keys = [term_sort_key(t) for t in
            (Iri("http://a"), Literal("a"), BlankNode("a"))]
    assert keys == sorted(keys)
    assert keys[0][0] == 0 and keys[1][0] == 1 and keys[2][0] == 2


def test_is_numeric_literal():
    assert is_numeric_literal(Literal("1", XSD.integer))
    assert is_numeric_literal(Literal("1.5", XSD.decimal))
    assert is_numeric_literal(Literal("1E0", XSD.double))
    assert not is_numeric_literal(Literal("1"))
    assert not is_numeric_literal(Literal("true", XSD.boolean))
    assert not is_numeric_literal(EX.one)


def test_namespace_builds_iris():
    assert EX.Decision == Iri("http://example.org/okb#Decision")
    assert EX.term("a-b.c") == Iri("http://example.org/okb#a-b.c")


def test_namespace_attribute_iris_are_built_once():
    assert EX.Decision is EX.Decision
    assert EX.term("Decision") == EX.Decision


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

def test_graph_has_set_semantics():
    t = Triple(EX.s, EX.p, EX.o)
    g = Graph()
    g.add(t)
    g.add(t)
    assert len(g) == 1
    assert t in g


def test_graph_match_positions():
    g = Graph([
        Triple(EX.s1, EX.p, EX.o1),
        Triple(EX.s1, EX.q, EX.o2),
        Triple(EX.s2, EX.p, EX.o1),
    ])
    assert len(g.match(EX.s1)) == 2
    assert len(g.match(None, EX.p)) == 2
    assert len(g.match(None, None, EX.o1)) == 2
    assert g.match(EX.s2, EX.p, EX.o1) == [Triple(EX.s2, EX.p, EX.o1)]
    assert g.match(EX.s2, EX.q) == []
    assert len(g.match()) == 3


def test_graph_match_is_canonically_ordered():
    triples = [Triple(EX.term(f"s{i}"), EX.p, EX.o) for i in range(5)]
    g = Graph(reversed(triples))
    assert g.match(None, EX.p) == triples


def _scan(g, s, p, o):
    return [t for t in g.sorted_triples()
            if (s is None or t.subject == s) and (p is None or t.predicate == p)
            and (o is None or t.object == o)]


@given(gen.bnode_graphs(), st.data())
def test_match_agrees_with_a_linear_scan(g, data):
    triples = g.sorted_triples()
    terms = [x for t in triples for x in (t.subject, t.predicate, t.object)]
    # mostly terms of the graph, one of its triples as a base, some strangers
    probe = st.sampled_from(terms) | gen.ground_terms if terms else gen.ground_terms
    base = data.draw(st.sampled_from(triples)) if triples else Triple(EX.s, EX.p, EX.o)
    spo = [data.draw(st.just(term) | probe)
           for term in (base.subject, base.predicate, base.object)]
    for mask in itertools.product((False, True), repeat=3):
        args = [term if bound else None for term, bound in zip(spo, mask)]
        assert g.match(*args) == _scan(g, *args)


def test_match_sees_triples_added_after_a_read():
    first, second = Triple(EX.s, EX.p, EX.o1), Triple(EX.s, EX.p, EX.o2)
    g = Graph([first])
    assert g.match(EX.s, EX.p) == [first]
    assert g.match(None, None, EX.o2) == []
    g.add(second)
    assert g.match(EX.s, EX.p) == [first, second]
    assert g.match(None, None, EX.o2) == [second]
    assert g.match() == [first, second]


def test_match_result_is_a_fresh_list():
    g = Graph([Triple(EX.s, EX.p, EX.o)])
    g.match(EX.s).clear()
    g.match().clear()
    assert g.match(EX.s) == g.match() == [Triple(EX.s, EX.p, EX.o)]


def _sorted_scan(triples, s, p, o):
    """``_scan`` over a plain list: the triples agreeing with every given
    position, in canonical order, from a sort of their own."""
    return [t for t in sorted(triples, key=triple_sort_key)
            if (s is None or t.subject == s) and (p is None or t.predicate == p)
            and (o is None or t.object == o)]


@given(gen.bnode_graphs(), st.randoms(use_true_random=False), st.data())
def test_match_sorts_buckets_on_first_read_in_any_read_order(g, rng, data):
    triples = list(g._triples)
    rng.shuffle(triples)
    shuffled = Graph(triples)
    terms = [x for t in triples for x in (t.subject, t.predicate, t.object)]
    probe = st.sampled_from(terms) | gen.ground_terms if terms else gen.ground_terms
    base = data.draw(st.sampled_from(triples)) if triples else Triple(EX.s, EX.p, EX.o)
    spo = [data.draw(st.just(term) | probe)
           for term in (base.subject, base.predicate, base.object)]
    # a triple beside the base, so that the add refills buckets already read
    extra = Triple(base.subject, base.predicate, data.draw(gen.ground_terms))
    masks = list(itertools.product((False, True), repeat=3))
    for expected in (triples, {*triples, extra}):
        rng.shuffle(masks)  # match() alone, which sorts every triple, comes anywhere
        for mask in masks:
            args = [term if bound else None for term, bound in zip(spo, mask)]
            assert shuffled.match(*args) == _sorted_scan(expected, *args)
        shuffled.add(extra)


def test_match_by_subject_lists_its_predicates_in_canonical_order():
    # rdf:type sorts by its IRI here, unlike in the serializer
    triples = [Triple(EX.s, p, o) for p in (EX.z, RDF.type, EX.a, EX.m)
               for o in (EX.o2, EX.o1)]
    g = Graph(reversed(triples))
    assert g.match(EX.s, EX.m) == [Triple(EX.s, EX.m, EX.o1), Triple(EX.s, EX.m, EX.o2)]
    assert g.match(EX.s) == sorted(triples, key=triple_sort_key)
    assert [t.predicate for t in g.match(EX.s, None, EX.o1)] == [EX.a, EX.m, EX.z, RDF.type]
    assert g._sorted is None


def test_validation_sorts_no_more_than_the_buckets_it_reads():
    for case_id in corpus.COMPILER_CASES:
        graph = parse_turtle(corpus.case_source(case_id))
        corpus.default_registry().validate_profile(graph, "Combined")
        assert graph._sorted is None, case_id


def test_subjects_of_type():
    g = Graph([
        Triple(EX.d1, RDF.type, EX.Decision),
        Triple(EX.d2, RDF.type, EX.Decision),
        Triple(EX.x, RDF.type, EX.Other),
    ])
    assert g.subjects_of_type(EX.Decision) == [EX.d1, EX.d2]


def test_graph_equality_ignores_prefixes():
    a = Graph([Triple(EX.s, EX.p, EX.o)], prefixes={"ex": EX.base})
    b = Graph([Triple(EX.s, EX.p, EX.o)])
    assert a == b
    b.add(Triple(EX.s, EX.p, EX.o2))
    assert a != b


def test_graph_is_not_hashable():
    with pytest.raises(TypeError):
        hash(Graph())


def test_union_merges_triples_and_prefixes():
    a = Graph([Triple(EX.s, EX.p, EX.o)], prefixes={"ex": EX.base})
    b = Graph([Triple(EX.s, EX.q, EX.o)], prefixes={"xsd": XSD.base})
    u = union(a, b)
    assert len(u) == 2
    assert u.prefixes == {"ex": EX.base, "xsd": XSD.base}


def test_union_graph_answers_match():
    a = Graph([Triple(EX.s, EX.p, EX.o1)])
    b = Graph([Triple(EX.s, EX.p, EX.o2), Triple(EX.t, EX.q, EX.o1)])
    a.match(EX.s)
    b.match(EX.s)
    u = union(a, b)
    assert u.match(EX.s, EX.p) == [Triple(EX.s, EX.p, EX.o1), Triple(EX.s, EX.p, EX.o2)]
    assert u.match(None, None, EX.o1) == [Triple(EX.s, EX.p, EX.o1),
                                          Triple(EX.t, EX.q, EX.o1)]
    assert u.match(EX.t, EX.p) == []


def test_union_prefix_conflict_keeps_left_and_warns(caplog):
    a = Graph(prefixes={"n": "http://left/"})
    b = Graph(prefixes={"n": "http://right/"})
    with caplog.at_level(logging.WARNING, logger="govshapes.rdf"):
        u = union(a, b)
    assert u.prefixes["n"] == "http://left/"
    assert any("prefix conflict" in r.getMessage() for r in caplog.records)


# ---------------------------------------------------------------------------
# Turtle parsing
# ---------------------------------------------------------------------------

def test_parse_basic_document():
    g = parse_turtle("""
        @prefix ex: <http://example.org/okb#> .
        ex:d a ex:Decision ;
            ex:hasUsageLog ex:log1 , ex:log2 .
    """)
    assert Triple(EX.d, RDF.type, EX.Decision) in g
    assert Triple(EX.d, EX.hasUsageLog, EX.log1) in g
    assert Triple(EX.d, EX.hasUsageLog, EX.log2) in g
    assert len(g) == 3
    assert g.prefixes == {"ex": EX.base}


def test_parse_numeric_and_boolean_shorthand():
    g = parse_turtle("""
        @prefix ex: <http://example.org/okb#> .
        ex:s ex:i 42 ; ex:n -7 ; ex:p +3 ;
             ex:d 3.14 ; ex:e 1.2E3 ; ex:f 5e-2 ;
             ex:t true ; ex:u false .
    """)
    objects = {t.predicate.value.split("#")[1]: t.object for t in g}
    assert objects["i"] == Literal("42", XSD.integer)
    assert objects["n"] == Literal("-7", XSD.integer)
    assert objects["p"] == Literal("+3", XSD.integer)
    assert objects["d"] == Literal("3.14", XSD.decimal)
    assert objects["e"] == Literal("1.2E3", XSD.double)
    assert objects["f"] == Literal("5e-2", XSD.double)
    assert objects["t"] == Literal("true", XSD.boolean)
    assert objects["u"] == Literal("false", XSD.boolean)


def test_parse_leading_dot_needs_a_sign():
    g = parse_turtle("@prefix ex: <http://example.org/okb#> .\n"
                     "ex:s ex:p +.5 , -.25 .")
    assert {t.object for t in g} == {Literal("+.5", XSD.decimal),
                                     Literal("-.25", XSD.decimal)}
    # unsigned, the dot ends the statement and 5 starts the next one
    with pytest.raises(TurtleSyntaxError, match="expected subject, found integer"):
        parse_turtle("<http://s.test/s> <http://p.test/p> <http://o.test/o> .5 .")


def test_parse_string_escapes():
    g = parse_turtle(r"""
        @prefix ex: <http://example.org/okb#> .
        ex:s ex:p "line\nbreak\ttab\"quote\\slashA" .
    """)
    (t,) = list(g)
    assert t.object == Literal('line\nbreak\ttab"quote\\slashA')


def test_w3c_string_escapes_round_trip():
    g = parse_turtle("@prefix ex: <http://example.org/okb#> .\n"
                     r'ex:s ex:p "cr\rbs\bff\f\'q\U0001F600\u0041" .')
    (t,) = list(g)
    assert t.object == Literal("cr\rbs\bff\f'q\U0001F600A")
    text = serialize_turtle(g)
    assert r'"cr\u000Dbs' in text  # CR is still written as \u000D
    assert parse_turtle(text) == g


def test_parse_long_string_spans_lines():
    g = parse_turtle('@prefix ex: <http://example.org/okb#> .\n'
                     'ex:s ex:p """first\nsecond "quoted" third""" .')
    (t,) = list(g)
    assert t.object == Literal('first\nsecond "quoted" third')


def test_parse_typed_and_language_literals():
    g = parse_turtle("""
        @prefix ex: <http://example.org/okb#> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        ex:s ex:when "2025-11-03T14:21:07Z"^^xsd:dateTime ;
             ex:label "hello"@EN-GB, "p"@prefixes .
    """)
    objs = {t.object for t in g}
    assert Literal("2025-11-03T14:21:07Z", XSD.dateTime) in objs
    # language tags fold to lowercase
    assert Literal("hello", language="en-gb") in objs
    assert Literal("p", language="prefixes") in objs  # not the directive


def test_parse_bnode_property_lists():
    g = parse_turtle("""
        @prefix ex: <http://example.org/okb#> .
        ex:s ex:p [ ex:q [ ex:r 1 ] ; ex:t 2 ] .
    """)
    (outer,) = [t.object for t in g.match(EX.s, EX.p)]
    assert isinstance(outer, BlankNode)
    (inner,) = [t.object for t in g.match(outer, EX.q)]
    assert g.match(inner, EX.r)
    assert len(g) == 4


def test_parse_empty_bnode_and_bnode_subject():
    g = parse_turtle("""
        @prefix ex: <http://example.org/okb#> .
        [ ex:p ex:o ] ex:q [] .
    """)
    assert len(g) == 2
    subjects = {t.subject for t in g}
    assert all(isinstance(s, BlankNode) for s in subjects)


@pytest.mark.parametrize("source, pairs", [
    ("[ ex:p ex:o ] .", {(EX.p, EX.o)}),
    ("[ ex:p ex:o ; ex:q ex:r ; ] .", {(EX.p, EX.o), (EX.q, EX.r)}),
    ("[ ex:p ex:o ] ex:q ex:r .", {(EX.p, EX.o), (EX.q, EX.r)}),
])
def test_parse_blank_node_property_list_as_a_statement(source, pairs):
    # triples ::= blankNodePropertyList predicateObjectList?
    g = parse_turtle(EX_PREFIX + source)
    assert {(t.predicate, t.object) for t in g} == pairs
    assert len({t.subject for t in g}) == 1


def test_parse_nested_blank_node_property_list_as_a_statement():
    g = parse_turtle(EX_PREFIX + "[ ex:p [ ex:q ex:r ] ] .\n[ ex:s ex:t ] .")
    assert len(g) == 3
    (outer,) = g.match(None, EX.p)
    assert g.match(outer.object, EX.q, EX.r)
    assert serialize_turtle(parse_turtle(serialize_turtle(g))) == serialize_turtle(g)


@pytest.mark.parametrize("source, message", [
    ("[] .", "line 2, col 4: expected predicate, found dot"),
    ("[ ex:p ex:o ]", "expected predicate, found eof"),
    ("[ ex:p ex:o ] ; .", "expected predicate, found semi"),
    ("[ ex:p ex:o ] ex:q .", "expected object, found dot"),
])
def test_parse_blank_node_statement_errors(source, message):
    with pytest.raises(TurtleSyntaxError, match=message):
        parse_turtle(EX_PREFIX + source)


def test_parse_prefix_rebinding_gives_distinct_iris():
    g = parse_turtle("@prefix ex: <http://a.test/> .\nex:x ex:p 1 .\n"
                     "@prefix ex: <http://b.test/> .\nex:x ex:p 2 .")
    assert {t.subject for t in g} == {Iri("http://a.test/x"), Iri("http://b.test/x")}
    assert {t.predicate for t in g} == {Iri("http://a.test/p"), Iri("http://b.test/p")}


def test_parse_equal_iris_are_one_object():
    g = parse_turtle("@prefix ex: <http://a.test/> .\n"
                     "ex:x ex:p <http://a.test/x> .\n<http://a.test/x> ex:p ex:x .")
    terms = [term for t in g for term in (t.subject, t.predicate, t.object)]
    assert {t.subject for t in g} == {Iri("http://a.test/x")}
    assert len({id(term) for term in terms}) == 2  # one x and one p
    (typed,) = parse_turtle("<http://a.test/s> a <http://a.test/C> ; "
                            "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
                            "<http://a.test/D> .").match(None, None, Iri("http://a.test/D"))
    assert typed.predicate is RDF.type


def test_parse_labelled_bnodes_share_identity():
    g = parse_turtle("""
        @prefix ex: <http://example.org/okb#> .
        _:x ex:p ex:a .
        _:x ex:q _:y .
        ex:s ex:r _:y .
    """)
    (px,) = g.match(None, EX.p)
    (qx,) = g.match(None, EX.q)
    assert px.subject == qx.subject
    (ry,) = g.match(EX.s, EX.r)
    assert ry.object == qx.object
    assert px.subject != ry.object


def test_parse_fresh_labels_per_document():
    a = parse_turtle("@prefix ex: <http://example.org/okb#> . _:n ex:p ex:o .")
    b = parse_turtle("@prefix ex: <http://example.org/okb#> . _:n ex:q ex:o .")
    # same document label, distinct graphs: no shared identity is implied,
    # both parsers just start their counters fresh
    (ta,) = list(a)
    (tb,) = list(b)
    assert isinstance(ta.subject, BlankNode) and isinstance(tb.subject, BlankNode)


# ---------------------------------------------------------------------------
# One term table across documents
# ---------------------------------------------------------------------------

def _outcome(text: str, terms: TermTable | None = None):
    """The graph and prefix map ``text`` parses to, or its error's class,
    message and position."""
    try:
        g = parse_turtle(text, terms)
    except TurtleSyntaxError as err:
        return err.__class__, str(err), err.line, err.column
    return g, g.prefixes


def _outcomes_agree(texts: list[str]) -> None:
    terms = TermTable()
    for text in texts:
        assert _outcome(text, terms) == _outcome(text)


_CASE_TEXTS = [corpus.case_source(case_id) for case_id in corpus.CASE_IDS]
_PREFIX_LINE_RE = re.compile(r"^@prefix [^\n]*\n", re.M)
_NAMESPACES = ["http://example.org/okb#", "http://www.w3.org/ns/prov#",
               "http://www.w3.org/2001/XMLSchema#", "http://other.test/ns#"]


@st.composite
def _documents(draw):
    """A bundled case, a renamed copy, a blank-node document, or a copy
    with one prefix line deleted or bound to another namespace."""
    kind = draw(st.sampled_from(["case", "renamed", "bnodes", "deleted", "rebound"]))
    if kind == "bnodes":
        return serialize_turtle(draw(gen.bnode_graphs(max_triples=6)))
    text = draw(st.sampled_from(_CASE_TEXTS))
    if kind == "renamed":
        return text.replace("001", draw(st.sampled_from(["002", "_x", "9"])))
    if kind == "case":
        return text
    line = draw(st.sampled_from(_PREFIX_LINE_RE.findall(text)))
    if kind == "deleted":
        return text.replace(line, "")
    rebound = f"@prefix {line.split()[1]} <{draw(st.sampled_from(_NAMESPACES))}> .\n"
    if draw(st.booleans()):
        return text.replace(line, rebound)
    spot = text.rindex("\n\n") + 1  # bound again before the last statement
    return text[:spot] + rebound + text[spot:]


@given(st.lists(_documents(), min_size=2, max_size=6))
def test_parse_through_one_table_gives_what_each_parse_alone_gives(texts):
    _outcomes_agree(texts)


def test_parse_prefix_declared_only_by_an_earlier_document_is_undefined():
    declares = ("@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
                '<http://a.test/s> <http://a.test/p> "1"^^xsd:integer .\n')
    uses = '<http://a.test/s> <http://a.test/p> "1"^^xsd:integer .\n'
    terms = TermTable()
    assert len(parse_turtle(declares, terms)) == 1
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle(uses, terms)
    assert str(err.value) == "line 1, col 42: undefined prefix 'xsd:'"
    assert (err.value.line, err.value.column) == (1, 42)
    _outcomes_agree([declares, uses, declares, uses])


def test_parse_one_label_bound_to_two_namespaces_in_two_documents():
    a = "@prefix ex: <http://a.test/> .\nex:x ex:p ex:y .\n"
    b = "@prefix ex: <http://b.test/> .\nex:x ex:p ex:y .\n"
    terms = TermTable()
    ga, gb = parse_turtle(a, terms), parse_turtle(b, terms)
    assert {t.subject for t in ga} == {Iri("http://a.test/x")}
    assert {t.subject for t in gb} == {Iri("http://b.test/x")}
    assert gb.prefixes == {"ex": "http://b.test/"}
    _outcomes_agree([a, b, a, b])


def test_parse_prefix_rebinding_through_a_shared_table_gives_distinct_iris():
    text = ("@prefix ex: <http://a.test/> .\nex:x ex:p 1 .\n"
            "@prefix ex: <http://b.test/> .\nex:x ex:p 2 .")
    terms = TermTable()
    parse_turtle("@prefix ex: <http://b.test/> .\nex:x ex:p 0 .", terms)
    for _ in range(2):
        g = parse_turtle(text, terms)
        assert {t.subject for t in g} == {Iri("http://a.test/x"), Iri("http://b.test/x")}
        assert {t.predicate for t in g} == {Iri("http://a.test/p"), Iri("http://b.test/p")}


def test_parse_blank_node_labels_start_afresh_in_each_document():
    terms = TermTable()
    for text in ("_:b <http://a.test/p> [ <http://a.test/q> 1 ] .",
                 "[ <http://a.test/q> 2 ] <http://a.test/p> _:b .") * 2:
        g = parse_turtle(text, terms)
        assert {b.label for t in g for b in (t.subject, t.object)
                if isinstance(b, BlankNode)} == {"b000", "b001"}


def test_parse_shares_iris_across_the_documents_of_one_table():
    terms = TermTable()
    a = parse_turtle(corpus.case_source("conform"), terms)
    b = parse_turtle(corpus.case_source("missing_explanation"), terms)
    (ta,) = a.match(EX.decision001, EX.hasUsageLog)
    (tb,) = b.match(EX.decision001, EX.hasUsageLog)
    assert ta.predicate is tb.predicate and ta.object is tb.object
    assert ta.object is not parse_turtle(corpus.case_source("conform")).match(
        EX.decision001, EX.hasUsageLog)[0].object


@pytest.mark.parametrize("rebound", [False, True])
def test_parse_time_is_linear_in_prefix_directives(rebound):
    # 10,000 distinct labels, or one label rebound 10,000 times between
    # statements; a memo keyed by the whole prefix map costs time
    # quadratic in the distinct labels
    if rebound:
        text = "".join(f"@prefix ex: <http://p.test/{i % 3}/> .\nex:s ex:p ex:o{i} .\n"
                       for i in range(10_000))
    else:
        text = "".join(f"@prefix p{i}: <http://p.test/{i}/> .\n"
                       for i in range(10_000)) + "p1:a p2:b p3:c .\n"
    terms = TermTable()
    for table in (None, terms, terms):
        start = time.perf_counter()
        g = parse_turtle(text, table)
        assert time.perf_counter() - start < 1.0
        assert len(g) == (10_000 if rebound else 1)


def test_parse_comments_and_trailing_semicolon():
    g = parse_turtle("""
        @prefix ex: <http://example.org/okb#> .  # binds ex
        # a full-line comment
        ex:s ex:p ex:o ;  # trailing comment
             .
    """)
    assert len(g) == 1
    assert len(parse_turtle("<http://s.test/s> <http://p.test/p> 1 . # no newline")) == 1


EX_PREFIX = "@prefix ex: <http://example.org/okb#> .\n"


@pytest.mark.parametrize("source", [
    "ex:s ex:p ex:o ; .",
    "ex:s ex:p [ ex:q ex:o ; ] .",
    "[ ex:q ex:o ; ] ex:p ex:o ; .",
])
def test_parse_dangling_semicolon_before_each_end_token(source):
    g = parse_turtle(EX_PREFIX + source)
    assert EX.o in {t.object for t in g}


def test_parse_run_of_semicolons_before_a_verb():
    g = parse_turtle(EX_PREFIX + "ex:s ex:p ex:o ;; ex:q ex:r ; ;\n ; ex:t ex:u .")
    assert {(t.predicate, t.object) for t in g} == {
        (EX.p, EX.o), (EX.q, EX.r), (EX.t, EX.u)}


@pytest.mark.parametrize("source", [
    "ex:s ex:p ex:o ; ; .",
    "ex:s ex:p [ ex:q ex:o ; ; ] .",
    "[ ex:q ex:o ;; ] ex:p ex:o ; ; ; .",
])
def test_parse_run_of_semicolons_before_each_end_token(source):
    g = parse_turtle(EX_PREFIX + source)
    assert EX.o in {t.object for t in g}


def test_parse_strings_spelled_as_punctuation_are_objects():
    g = parse_turtle(EX_PREFIX + 'ex:s ex:p ",", ";" ; ex:q ".", "]" .')
    assert {(t.predicate, t.object.lexical) for t in g} == {
        (EX.p, ","), (EX.p, ";"), (EX.q, "."), (EX.q, "]")}


@pytest.mark.parametrize("source, fragment", [
    ('ex:s ex:p "a" "," "b" .', "expected dot, found string"),
    ('ex:s ex:p "a" ";" ex:q "b" .', "expected dot, found string"),
    ('ex:s ex:p "a" ; "." .', "expected predicate, found string"),
    ('ex:s ex:p [ ex:q "a" ; "]" .', "expected predicate, found string"),
])
def test_parse_string_never_stands_for_punctuation(source, fragment):
    with pytest.raises(TurtleSyntaxError, match=fragment):
        parse_turtle(EX_PREFIX + source)


def test_parse_absolute_iriref():
    g = parse_turtle("<http://a.test/s> <http://a.test/p> <urn:x:1> .")
    assert Triple(Iri("http://a.test/s"), Iri("http://a.test/p"),
                  Iri("urn:x:1")) in g


@pytest.mark.parametrize("source, fragment", [
    ("ex:s ex:p ex:o .", "undefined prefix"),
    ("<rel/ative> <http://p.test/p> <http://o.test/o> .", "relative IRI"),
    ("@prefix ex: <nope> .", "relative IRI"),
    ("@base <http://b.test/> .", "@base is not supported"),
    ("<http://s.test/s> <http://p.test/p> (1 2) .", "collections"),
    ('<http://s.test/s> <http://p.test/p> "open .', "unterminated string"),
    ("<http://s.test/s> <http://p.test/p> <http://o", "unterminated IRI"),
    (r'<http://s.test/s> <http://p.test/p> "bad\qescape" .', "unsupported escape"),
    (r'<http://s.test/s> <http://p.test/p> "bad\u00zz" .', "bad \\u escape"),
    (r'<http://s.test/s> <http://p.test/p> "\U0001F6" .', "bad \\U escape"),
    (r'<http://s.test/s> <http://p.test/p> "\U00110000" .', "bad \\U escape"),
    ("<http://s.test/s> <http://p.test/p> 12abc .", "malformed numeric"),
    ("<http://s.test/s> <http://p.test/p> 1e .", "malformed numeric"),
    ("<http://s.test/s> <http://p.test/p> _: .", "blank node label expected"),
    ("<http://s.test/s> <http://p.test/p> %x .", "unexpected character"),
    ("<http://s.test/s> <http://p.test/p> <http://o.test/o>", "expected dot"),
    ('"literal" <http://p.test/p> <http://o.test/o> .', "expected subject"),
    ("<http://s.test/s> 42 <http://o.test/o> .", "expected predicate"),
    ("<http://s.test/s> <http://p.test/p> ; .", "expected object"),
    ("@prefix ex: <http://example.org/okb#> .\nex:s ex:p ex:o", "expected dot"),
    ("<http://s.test/s> <http://p.test/p> 5", "expected dot"),
    ("<http://s.test/s> <http://p.test/p> +.", "unexpected character '+'"),
    ("<http://s.test/s> <http://p.test/p> 70².0 .", "malformed numeric"),
    ("<http://s.test/s> <http://p.test/p> 7\u0663 .", "malformed numeric"),
    ('<http://s.test/s> <http://p.test/p> "x"^^ .', "expected IRI"),
    ('@prefix a: <http://a.test/> .\n<http://s.test/s> <http://p.test/p> "x"^^"ab" .',
     "expected IRI"),
    ('<http://s.test/s> <http://p.test/p> " .', "unterminated string"),
    # after a string, only a whole language tag or '^^' continues the literal
    ('<http://s.test/s> <http://p.test/p> "x"@ .', "language tag after '@'"),
    ('<http://s.test/s> <http://p.test/p> "x"@base .', "@base is not supported"),
    ('<http://s.test/s> <http://p.test/p> "x"@prefix .', "expected dot, found at_prefix"),
    ('<http://s.test/s> <http://p.test/p> "x"^<http://t.test/T> .', "expected '^^'"),
])
def test_parse_errors(source, fragment):
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle(source)
    assert fragment in str(err.value)
    assert err.value.line >= 1
    assert err.value.column >= 1


def test_parse_error_reports_position():
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle("@prefix ex: <http://example.org/okb#> .\nex:s foo:p ex:o .")
    assert err.value.line == 2
    assert "foo" in str(err.value)


# a bad token of each lexer error class, standing where an object belongs
_BAD_TOKENS = {
    "bad_name": ("foo .", "unexpected token 'foo'"),
    "at_base": ("@base <http://b.test/> .", "@base is not supported"),
    "unterminated_iri": ("<http://o.test/o", "unterminated IRI"),
    "bad_iri": ("<http://o.test/ o> .", "illegal character in IRI"),
    "collection": ("(1) .", "collections '( )' are not supported"),
    "bad_at": ("@ .", "expected directive or language tag after '@'"),
    "bad_blank": ("_: .", "blank node label expected after '_:'"),
    "bad_caret": ("^x .", "expected '^^'"),
    "bad_string": ('"open .', "unterminated string"),
    "bad_char": ("%x .", "unexpected character '%'"),
}
_STATEMENT_HEAD = "<http://s.test/s> <http://p.test/p>"  # 35 characters


@pytest.mark.parametrize("layout, line, column", [
    ("   ", 1, 39),
    ("\t", 1, 37),
    (" # comment\n", 2, 1),
    (" # comment\n\t  ", 2, 4),
])
@pytest.mark.parametrize("kind", sorted(_BAD_TOKENS))
def test_lexer_error_position_after_layout(kind, layout, line, column):
    bad, message = _BAD_TOKENS[kind]
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle(_STATEMENT_HEAD + layout + bad)
    assert message in str(err.value)
    assert (err.value.line, err.value.column) == (line, column)


def test_every_lexer_error_class_has_a_position_test():
    from govshapes.rdf import _ERRORS
    assert set(_BAD_TOKENS) == set(_ERRORS)


def test_lexer_error_wins_over_an_earlier_parser_error():
    # line 1 lacks its object, line 2 never closes its string
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle(EX_PREFIX.strip() + ' ex:s ex:p .\nex:t ex:q "open .')
    assert str(err.value) == "line 2, col 11: unterminated string"


@pytest.mark.parametrize("kind", sorted(_BAD_TOKENS))
def test_every_lexer_error_class_wins_over_an_earlier_parser_error(kind):
    bad, message = _BAD_TOKENS[kind]
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle(_STATEMENT_HEAD + " .\n" + _STATEMENT_HEAD + " " + bad)
    assert message in str(err.value)
    assert (err.value.line, err.value.column) == (2, 37)


@pytest.mark.parametrize("language", ["turtle", "sparql"])
def test_scan_form_cuts_as_the_named_grammar(script, monkeypatch, language):
    """``findall`` over the scan form and ``finditer`` over the named grammar
    give the same token texts, each end of text included."""
    script("perfbench/generate.py")  # the differential imports it by name
    differential = script("tools/differential.py")
    monkeypatch.setattr(sys, "path", list(sys.path))  # which it extends
    bases = differential._base_inputs()[language]
    rng = random.Random(13)
    texts = bases + [differential.mutate(rng, rng.choice(bases)) for _ in range(500)]
    module = rdf if language == "turtle" else sparql
    named = re.compile(module._TOKEN_RE, re.VERBOSE)
    for text in texts:
        assert module._SCAN_RE.findall(text) == [
            text[m.end(1):m.end()] for m in named.finditer(text)], text


@pytest.mark.parametrize("source, message, line, column", [
    # the end of text stands after the comment that ends it
    (_STATEMENT_HEAD + " <http://o.test/o> # no newline", "expected dot, found eof", 1, 67),
    (_STATEMENT_HEAD + " # c\n\t; .", "expected object, found semi", 2, 2),
    (_STATEMENT_HEAD + "\n  # c1\n# c2\n   .", "expected object, found dot", 4, 4),
])
def test_parser_error_position_after_layout(source, message, line, column):
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle(source)
    assert message in str(err.value)
    assert (err.value.line, err.value.column) == (line, column)


_TURTLE_PIECES = st.sampled_from(
    list(' \n.;,[]()<>"\\@^_:#+-eE07a²') + [
        '"""', "\\u00e9", "ex:", "@prefix ex: <http://example.org/okb#> .",
        "true", "<http://s.test/s>", "_:b"])


@given(st.lists(_TURTLE_PIECES, max_size=16).map("".join))
def test_parse_returns_graph_or_syntax_error(text):
    try:
        graph = parse_turtle(text)
    except TurtleSyntaxError as err:
        assert err.line >= 1 and err.column >= 1
    else:
        assert isinstance(graph, Graph)


def test_parse_deep_nesting_is_a_syntax_error():
    depth = 1500
    source = ("@prefix ex: <http://example.org/okb#> .\nex:s ex:q "
              + "[ ex:q " * depth + "ex:o" + " ]" * depth + " .")
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle(source)
    assert "nesting too deep" in str(err.value)
    assert err.value.line == 2


def test_parse_short_string_rejects_raw_newline():
    with pytest.raises(TurtleSyntaxError):
        parse_turtle('<http://s.test/s> <http://p.test/p> "a\nb" .')


def test_parse_empty_document():
    assert len(parse_turtle("")) == 0
    assert len(parse_turtle("  # only a comment\n")) == 0
    for source in ("# no newline", "#", "  \t# c\n# d", "\n\n"):
        assert len(parse_turtle(source)) == 0


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

def test_serialize_empty_graph_is_empty():
    assert serialize_turtle(Graph()) == ""
    assert serialize_turtle(Graph(prefixes={"ex": EX.base})) == ""


def test_serialize_basic_shape():
    g = Graph([
        Triple(EX.d, EX.hasUsageLog, EX.log1),
        Triple(EX.d, RDF.type, EX.Decision),
    ], prefixes={"ex": EX.base})
    assert serialize_turtle(g) == (
        "@prefix ex: <http://example.org/okb#> .\n"
        "\n"
        "ex:d a ex:Decision ;\n"
        "    ex:hasUsageLog ex:log1 .\n"
    )


def test_serialize_orders_predicates_and_objects():
    g = Graph([
        Triple(EX.s, EX.b, EX.o2),
        Triple(EX.s, EX.b, EX.o1),
        Triple(EX.s, EX.a, Literal("z")),
        Triple(EX.s, RDF.type, EX.K),
    ], prefixes={"ex": EX.base})
    text = serialize_turtle(g)
    body = text.split("\n\n", 1)[1]
    assert body == ('ex:s a ex:K ;\n'
                    '    ex:a "z" ;\n'
                    '    ex:b ex:o1, ex:o2 .\n')


def test_serialize_unused_prefixes_dropped():
    g = Graph([Triple(EX.s, EX.p, EX.o)],
              prefixes={"ex": EX.base, "xsd": XSD.base})
    text = serialize_turtle(g)
    assert "@prefix ex:" in text
    assert "xsd" not in text


def test_numeric_shorthand_only_for_valid_lexicals():
    g = Graph([
        Triple(EX.s, EX.a, Literal("42", XSD.integer)),
        Triple(EX.s, EX.b, Literal("12.", XSD.decimal)),
        Triple(EX.s, EX.c, Literal("1e5", XSD.integer)),
        Triple(EX.s, EX.d, Literal("NaN", XSD.double)),
        Triple(EX.s, EX.e, Literal("yes", XSD.boolean)),
    ], prefixes={"ex": EX.base, "xsd": XSD.base})
    text = serialize_turtle(g)
    assert "ex:a 42" in text
    assert 'ex:b "12."^^xsd:decimal' in text
    assert 'ex:c "1e5"^^xsd:integer' in text
    assert 'ex:d "NaN"^^xsd:double' in text
    assert 'ex:e "yes"^^xsd:boolean' in text


def test_bare_doubles_round_trip():
    # every double the serializer writes bare must read back as a double
    g = Graph([Triple(EX.s, EX.term(f"p{i}"), Literal(lexical, XSD.double))
               for i, lexical in enumerate(["1.e5", ".5e3", "-.5E-3", "2.5e0"])],
              prefixes={"ex": EX.base})
    text = serialize_turtle(g)
    assert "ex:p0 1.e5 ;" in text and "ex:p1 .5e3 ;" in text
    assert parse_turtle(text) == g


_NUMERAL_FORMS = ["".join(chars) for n in range(1, 5)
                  for chars in itertools.product("0+-.e", repeat=n)]


@pytest.mark.parametrize("datatype", [XSD.integer, XSD.decimal, XSD.double])
def test_every_short_numeral_round_trips(datatype):
    # 780 lexical forms per datatype, written bare or quoted
    g = Graph([Triple(EX.s, EX.term(f"p{i}"), Literal(lexical, datatype))
               for i, lexical in enumerate(_NUMERAL_FORMS)],
              prefixes={"ex": EX.base, "xsd": XSD.base})
    assert len(g) == 780
    assert parse_turtle(serialize_turtle(g)) == g


def test_signed_decimal_without_leading_digit_is_written_bare():
    g = Graph([Triple(EX.s, EX.p, Literal("+.5", XSD.decimal)),
               Triple(EX.s, EX.q, Literal(".5", XSD.decimal))],
              prefixes={"ex": EX.base, "xsd": XSD.base})
    text = serialize_turtle(g)
    assert "ex:p +.5 ;" in text and 'ex:q ".5"^^xsd:decimal .' in text
    assert parse_turtle(text) == g


@pytest.mark.parametrize("lexical, datatype", [
    ("12\n", XSD.integer), ("1.5\n", XSD.decimal), ("1e3\n", XSD.double)])
def test_numeral_with_a_trailing_newline_round_trips(lexical, datatype):
    g = Graph([Triple(EX.s, EX.p, Literal(lexical, datatype))],
              prefixes={"ex": EX.base, "xsd": XSD.base})
    text = serialize_turtle(g)
    assert f'"""{lexical}"""^^xsd:' in text
    assert parse_turtle(text) == g


def test_serialize_single_parent_bnode_inline():
    b = BlankNode("whatever")
    g = Graph([
        Triple(EX.s, EX.p, b),
        Triple(b, EX.q, Literal("1", XSD.integer)),
    ], prefixes={"ex": EX.base})
    assert serialize_turtle(g) == (
        "@prefix ex: <http://example.org/okb#> .\n"
        "\n"
        "ex:s ex:p [ ex:q 1 ] .\n"
    )


def test_serialize_shared_bnode_gets_stable_label():
    b = BlankNode("shared")
    g = Graph([
        Triple(EX.s1, EX.p, b),
        Triple(EX.s2, EX.p, b),
        Triple(b, EX.q, EX.o),
    ], prefixes={"ex": EX.base})
    text = serialize_turtle(g)
    assert "_:c0" in text
    assert text.count("_:c0") == 3
    assert "[" not in text


def test_serialize_cyclic_bnodes_round_trip():
    b1, b2 = BlankNode("u"), BlankNode("v")
    g = Graph([
        Triple(b1, EX.next, b2),
        Triple(b2, EX.next, b1),
        Triple(b1, EX.tag, Literal("one")),
    ], prefixes={"ex": EX.base})
    text = serialize_turtle(g)
    reparsed = parse_turtle(text)
    assert len(reparsed) == 3
    assert serialize_turtle(reparsed) == text


def test_serialize_keys_of_nodes_reaching_a_cycle_do_not_depend_on_labels():
    # the cycle a -> b -> c -> a, entered from two roots at a and at b: a
    # key kept for a node that reaches the cycle would carry the ~cycle~
    # marker from where its first caller stood
    texts = set()
    for labels in itertools.permutations(["n0", "n1", "n2", "n3", "n4"]):
        a, b, c, r1, r2 = map(BlankNode, labels)
        texts.add(serialize_turtle(Graph([
            Triple(a, EX.p, b), Triple(b, EX.p, c), Triple(c, EX.p, a),
            Triple(r1, EX.p, a), Triple(r2, EX.p, b), Triple(c, EX.q, Literal("x")),
        ], prefixes={"ex": EX.base})))
    assert len(texts) == 1


def test_serialize_diamond_chain_builds_each_key_once():
    # each n(i+1) is shared by a(i) and b(i): without memoized keys a
    # node's key is rebuilt once per path to it, which doubles per level
    depth = 14
    n = [BlankNode(f"n{i}") for i in range(depth + 1)]
    triples = [Triple(EX.s, EX.p, n[0]), Triple(n[depth], EX.q, Literal("end"))]
    for i in range(depth):
        a, b = BlankNode(f"a{i}"), BlankNode(f"b{i}")
        triples += [Triple(n[i], EX.l, a), Triple(n[i], EX.r, b),
                    Triple(a, EX.p, n[i + 1]), Triple(b, EX.p, n[i + 1])]
    g = Graph(triples, prefixes={"ex": EX.base})
    start = time.perf_counter()
    text = serialize_turtle(g)
    assert time.perf_counter() - start < 0.5
    assert serialize_turtle(parse_turtle(text)) == text


def test_serialize_long_inline_chain_round_trips():
    # 150 nested [ ] stay below the parser's nesting limit; labels follow
    # the order in which the parser names them
    b = [BlankNode(f"b{i:03d}") for i in range(150)]
    g = Graph([Triple(EX.s, EX.p, b[0])]
              + [Triple(b[i], EX.p, b[i + 1]) for i in range(len(b) - 1)],
              prefixes={"ex": EX.base})
    start = time.perf_counter()
    text = serialize_turtle(g)
    assert time.perf_counter() - start < 0.1
    assert text.count("[") == 150
    assert parse_turtle(text) == g


def test_serialize_orders_labelled_and_inline_bnodes_by_label():
    # an inline [ ex:A ex:A ] and the labelled _:x have equal content keys
    statements = ["ex:A ex:A [ ex:A ex:A ], [ ex:A ex:A ], [ ex:A ex:A ], _:x .",
                  "ex:B ex:B _:x .", "_:x ex:A ex:A ."]
    texts = {serialize_turtle(parse_turtle(
                 "@prefix ex: <http://example.org/> .\n" + "\n".join(order)))
             for order in itertools.permutations(statements)}
    assert texts == {"@prefix ex: <http://example.org/> .\n\n"
                     "ex:A ex:A [ ex:A ex:A ], [ ex:A ex:A ], [ ex:A ex:A ], _:c0 .\n\n"
                     "ex:B ex:B _:c0 .\n\n"
                     "_:c0 ex:A ex:A .\n"}


def test_serialize_block_order():
    # IRI subjects first; then root nodes by content key and input label;
    # then labelled nodes by label text, so _:c10 precedes _:c2
    shared = [BlankNode(f"n{i:02d}") for i in range(12)]
    u, v, w = BlankNode("u"), BlankNode("v"), BlankNode("w")
    triples = [Triple(s, EX.r, b) for s in (EX.t, EX.s) for b in shared]
    triples += [Triple(b, EX.q, EX.o) for b in shared]
    # two root nodes tie on content key: their input labels order them
    triples += [Triple(BlankNode("rb"), EX.p, shared[7]),
                Triple(BlankNode("ra"), EX.p, shared[3])]
    # u is referenced by nothing but reaches the cycle v -> w -> v
    triples += [Triple(u, EX.p, v), Triple(v, EX.p, w), Triple(w, EX.p, v)]
    objects = ", ".join(f"_:c{i}" for i in (10, 11, 12, 13, 14, 3, 4, 5, 6, 7, 8, 9))
    shared_blocks = "".join(f"_:c{i} ex:q ex:o .\n\n" for i in (10, 11, 12, 13, 14))
    shared_blocks += "_:c2 ex:p _:c1 .\n\n"
    shared_blocks += "\n".join(f"_:c{i} ex:q ex:o .\n" for i in range(3, 10))
    assert serialize_turtle(Graph(triples, prefixes={"ex": EX.base})) == (
        "@prefix ex: <http://example.org/okb#> .\n\n"
        f"ex:s ex:r {objects} .\n\n"
        f"ex:t ex:r {objects} .\n\n"
        "[] ex:p _:c6 .\n\n"
        "[] ex:p _:c10 .\n\n"
        "_:c0 ex:p _:c1 .\n\n"
        "_:c1 ex:p _:c2 .\n\n"
        + shared_blocks)


@pytest.mark.parametrize("prefixes", [{"n": "http://n.test/"}, None],
                         ids=["unused", "none"])
def test_serialize_without_header_starts_at_the_first_subject(prefixes):
    g = Graph([Triple(EX.s, EX.p, EX.o)], prefixes=prefixes)
    assert serialize_turtle(g) == ("<http://example.org/okb#s> <http://example.org/okb#p> "
                                   "<http://example.org/okb#o> .\n")


# Serializes, in one interpreter, the document graph of every bundled
# block, the report graph of every bundled case under Combined, every
# statement order of two graphs whose blank nodes tie on their content
# keys, and prints the texts.
_HASH_SEED_SCRIPT = """
import itertools, sys
sys.path.insert(0, sys.argv[1])
from govshapes import corpus, rdf, shacl
registry = corpus.default_registry()
texts = [rdf.serialize_turtle(registry.block(name).document_graph())
         for name in corpus.BLOCK_NAMES]
texts += [rdf.serialize_turtle(shacl.emit_report_graph(
              registry.validate_profile(graph, "Combined").report))
          for _, graph in corpus.full_corpus()]
tie_graphs = (
    ["ex:A ex:A [ ex:A ex:A ], [ ex:A ex:A ], [ ex:A ex:A ], _:x .",
     "ex:B ex:B _:x .", "_:x ex:A ex:A ."],
    # labelled _:x and _:y, and the root and inline nodes naming them, tie
    ["ex:s ex:r _:x, _:y .", "ex:t ex:r _:x, _:y .", "_:x ex:q ex:o . _:y ex:q ex:o .",
     "_:m ex:p _:x . _:n ex:p _:y .", "ex:u ex:v [ ex:p _:x ], [ ex:p _:y ] ."],
)
for statements in tie_graphs:
    texts += [rdf.serialize_turtle(rdf.parse_turtle(
                  "@prefix ex: <http://example.org/> .\\n" + "\\n".join(order)))
              for order in itertools.permutations(statements)]
print(len(texts))
print("\\n~~~\\n".join(texts))
"""


def test_serialization_does_not_depend_on_the_hash_seed():
    import subprocess
    import sys
    from pathlib import Path

    import govshapes
    src = str(Path(govshapes.__file__).resolve().parents[1])
    outputs = set()
    for seed in range(4):
        env = {"PYTHONHASHSEED": str(seed), "PATH": ""}
        outputs.add(subprocess.run([sys.executable, "-c", _HASH_SEED_SCRIPT, src], env=env,
                                   capture_output=True, text=True, check=True).stdout)
    (output,) = outputs
    assert output.startswith("140\n")  # 7 blocks, 7 cases, 6 + 120 orders


def test_serialize_renders_iris_per_graph_prefixes():
    triple = Triple(Iri("http://n.test/a"), EX.p, Iri("http://n.test/a"))
    one = Graph([triple], prefixes={"ex": EX.base, "n": "http://n.test/"})
    two = Graph([triple], prefixes={"ex": EX.base})
    assert serialize_turtle(one).endswith("n:a ex:p n:a .\n")
    assert serialize_turtle(two).endswith("<http://n.test/a> ex:p <http://n.test/a> .\n")
    assert "@prefix n:" not in serialize_turtle(two)


def test_serialize_root_bnode_uses_bracket_head():
    b = BlankNode("root")
    g = Graph([Triple(b, EX.p, EX.o)], prefixes={"ex": EX.base})
    assert serialize_turtle(g) == (
        "@prefix ex: <http://example.org/okb#> .\n\n[] ex:p ex:o .\n")


def test_serialize_longest_namespace_wins():
    g = Graph([Triple(Iri("http://n.test/sub#k"), EX.p, EX.o)],
              prefixes={"ex": EX.base, "outer": "http://n.test/",
                        "inner": "http://n.test/sub#"})
    assert "inner:k" in serialize_turtle(g)


def test_serialize_falls_back_to_iriref_for_bad_locals():
    g = Graph([
        Triple(EX.term("trailing."), EX.p, EX.term("")),
    ], prefixes={"ex": EX.base})
    text = serialize_turtle(g)
    assert "<http://example.org/okb#trailing.>" in text
    assert "<http://example.org/okb#>" in text


def test_serialize_string_edge_cases_round_trip():
    tricky = [
        'quote " inside',
        "back\\slash",
        "tab\there",
        "carriage\rreturn",
        "multi\nline with \"quotes\" and \\slashes\\",
        "",
        'ends with quote"',
    ]
    g = Graph([Triple(EX.s, EX.term(f"p{i}"), Literal(s))
               for i, s in enumerate(tricky)], prefixes={"ex": EX.base})
    assert parse_turtle(serialize_turtle(g)) == g


@given(gen.ground_graphs())
def test_round_trip_ground_graphs(g):
    assert parse_turtle(serialize_turtle(g)) == g


@given(gen.ground_graphs(), st.randoms())
def test_canonical_output_ignores_insertion_order(g, rng):
    triples = list(g)
    rng.shuffle(triples)
    shuffled = Graph(triples, prefixes=g.prefixes)
    assert serialize_turtle(shuffled) == serialize_turtle(g)


@given(gen.bnode_graphs())
def test_serialization_fixpoint_with_bnodes(g):
    text = serialize_turtle(g)
    reparsed = parse_turtle(text)
    assert len(reparsed) == len(g)
    assert serialize_turtle(reparsed) == text


def _buckets(g: Graph) -> list:
    """Every bucket of ``g``'s subject-predicate and object indexes."""
    by_sp, by_o = g._index
    return [*(b for by_pred in by_sp.values() for b in by_pred.values()), *by_o.values()]


@given(gen.bnode_graphs())
def test_serialize_reads_the_graph_indexes_and_leaves_them_as_found(g):
    fresh = Graph(g._triples, prefixes=g.prefixes)
    text = serialize_turtle(fresh)
    assert fresh._sorted is None
    assert all(b.__class__ is list for b in _buckets(fresh))
    read = Graph(g._triples, prefixes=g.prefixes)
    read.match()  # builds the indexes, even with no triple to read below
    for t in g._triples:
        for mask in itertools.product((False, True), repeat=3):
            read.match(*(term if bound else None
                         for term, bound in zip((t.subject, t.predicate, t.object), mask)))
    index, buckets = read._index, _buckets(read)
    assert all(b.__class__ is tuple for b in buckets)
    assert serialize_turtle(read) == text
    assert read._index is index
    assert all(b is before for b, before in zip(_buckets(read), buckets, strict=True))


@given(gen.ground_graphs(), gen.ground_graphs())
def test_union_is_commutative_on_triples(a, b):
    assert set(union(a, b)) == set(union(b, a))
    assert len(union(a, b)) == len(set(a) | set(b))
