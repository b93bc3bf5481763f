"""Query parsing, scope checking, and evaluation semantics."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from govshapes.errors import GovshapesError, SparqlSyntaxError, UnboundVariableError
from govshapes.rdf import EX, RDF, XSD, BlankNode, Graph, Iri, Literal, Triple
from govshapes.sparql import (
    Arith,
    BindClause,
    Compare,
    FilterClause,
    NumConst,
    SparqlQuery,
    TriplePattern,
    Var,
    VarRef,
    eval_expression,
    evaluate,
    parse_sparql,
)


def q(text):
    return parse_sparql(text)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_reference_query_structure():
    query = q(oracle.REFERENCE_QUERY)
    assert query.select_vars == ("this",)
    patterns = [c for c in query.clauses if isinstance(c, TriplePattern)]
    binds = [c for c in query.clauses if isinstance(c, BindClause)]
    filters = [c for c in query.clauses if isinstance(c, FilterClause)]
    assert len(patterns) == 3
    assert [b.var for b in binds] == ["mx", "ratio"]
    assert len(filters) == 1
    assert query.text == oracle.REFERENCE_QUERY
    assert patterns[0].subject == Var("this")
    assert patterns[0].predicate == EX.allocatedGPUHoursGroupA
    assert patterns[2].predicate == EX.fairnessThreshold


def test_parse_a_keyword_and_literals():
    query = q('SELECT $this WHERE { $this a ex:Decision ; '
              'ex:label "x" ; ex:count 3 ; ex:rate 0.5 ; ex:big 1E3 ; ex:on true ; '
              r'ex:esc "\u0041\t\"" ; ex:w3c "\r\b\f\'\U0001F600" ; '
              'ex:long """a "b"' '\n' 'c""" ; '
              'ex:next ex:Decision. }')
    patterns = [c for c in query.clauses if isinstance(c, TriplePattern)]
    assert patterns[0].predicate == RDF.type
    assert patterns[0].object == EX.Decision
    objects = [p.object for p in patterns[1:]]
    # the dot after the last prefixed name ends the statement, not the name
    assert objects == [Literal("x"), Literal("3", XSD.integer),
                       Literal("0.5", XSD.decimal), Literal("1E3", XSD.double),
                       Literal("true", XSD.boolean), Literal('A\t"'),
                       Literal("\r\b\f'\U0001F600"),
                       Literal('a "b"\nc'), EX.Decision]


@pytest.mark.parametrize("group", [
    "$this ex:p ?v ; . FILTER(?v = 1)", "$this ex:p ?v ; ", "$this ex:p ?v ;"])
def test_parse_dangling_semicolon_before_each_end_token(group):
    query = q("SELECT $this WHERE { " + group + "}")
    assert query.clauses[0] == TriplePattern(Var("this"), EX.p, Var("v"))


def test_parse_run_of_semicolons_before_a_verb():
    query = q("SELECT $this WHERE { $this ex:p ?v ;; ex:q ?w ; ; ex:r ?x }")
    assert query.clauses == (TriplePattern(Var("this"), EX.p, Var("v")),
                             TriplePattern(Var("this"), EX.q, Var("w")),
                             TriplePattern(Var("this"), EX.r, Var("x")))


@pytest.mark.parametrize("group", [
    "$this ex:p ?v ; ; . FILTER(?v = 1)", "$this ex:p ?v ; ; ", "$this ex:p ?v ;;"])
def test_parse_run_of_semicolons_before_each_end_token(group):
    query = q("SELECT $this WHERE { " + group + "}")
    assert query.clauses[0] == TriplePattern(Var("this"), EX.p, Var("v"))


def test_parse_strings_spelled_as_punctuation_are_objects():
    query = q('SELECT $this WHERE { $this ex:p ",", ";" ; ex:q ".", "]", "}" . }')
    assert [(c.predicate, c.object.lexical) for c in query.clauses] == [
        (EX.p, ","), (EX.p, ";"), (EX.q, "."), (EX.q, "]"), (EX.q, "}")]


@pytest.mark.parametrize("group, fragment", [
    ('$this ex:p "a" "," "b"', "expected subject term, found ','"),
    ('$this ex:p "a" ";" ex:q "b"', "expected subject term, found ';'"),
    ('$this ex:p "a" ; "." ', "expected predicate term, found '.'"),
    ('$this ex:p "a" ; "}" ', "expected predicate term, found '}'"),
])
def test_parse_string_never_stands_for_punctuation(group, fragment):
    with pytest.raises(SparqlSyntaxError, match=fragment):
        q("SELECT $this WHERE { " + group + "}")


@pytest.mark.parametrize("group, found", [
    ("$this ex:p ?x ?x ex:q ?y", "'?x'"),
    ("$this ex:p ?x ex:s ex:q ?y", "'ex:s'"),
    ("$this ex:p ?x <http://o.test/s> ex:q ?y", "'http://o.test/s'"),
    ("$this ex:p ?x, ?z ; ex:r ?w $this ex:q ?y", "'$this'"),
])
def test_parse_triple_patterns_need_a_dot_between_them(group, found):
    # SPARQL 1.1 TriplesBlock: TriplesSameSubjectPath ( '.' TriplesBlock? )?
    with pytest.raises(SparqlSyntaxError) as err:
        q("SELECT $this WHERE { " + group + " }")
    assert str(err.value) == f"expected '.' before the next triple pattern, found {found}"


@pytest.mark.parametrize("group, kinds", [
    ("$this ex:p ?x BIND(?x + 1 AS ?y)", [TriplePattern, BindClause]),
    ("$this ex:p ?x FILTER(?x > 1)", [TriplePattern, FilterClause]),
    ("$this ex:p ?x", [TriplePattern]),
    ("$this ex:p ?x FILTER(?x > 1) $this ex:q ?y",
     [TriplePattern, FilterClause, TriplePattern]),
    ("$this ex:p ?x BIND(?x + 1 AS ?y) ?x ex:q ?z",
     [TriplePattern, BindClause, TriplePattern]),
])
def test_parse_pattern_neighbours_that_need_no_dot(group, kinds):
    # a pattern may run straight into BIND, FILTER or '}', and BIND or
    # FILTER straight into a pattern
    query = q("SELECT $this WHERE { " + group + " }")
    assert [type(c) for c in query.clauses] == kinds


def test_parse_same_name_twice_resolves_alike():
    query = q("SELECT $this WHERE { $this ex:p ?x . ?x ex:p <http://example.org/okb#p> }")
    first, second = query.clauses
    assert first.predicate == second.predicate == second.object == EX.p
    assert first.predicate is second.predicate is second.object


def test_parse_iriref_and_var_positions():
    query = q("SELECT $this ?p WHERE { $this ?p <http://o.test/v> }")
    (pattern,) = [c for c in query.clauses if isinstance(c, TriplePattern)]
    assert pattern.predicate == Var("p")
    assert pattern.object == Iri("http://o.test/v")


def test_parse_precedence_multiplication_binds_tighter():
    query = q("SELECT $this WHERE { FILTER(1 + 2 * 3 = 7) }")
    (f,) = query.clauses
    compare = f.expression
    assert isinstance(compare, Compare)
    assert isinstance(compare.left, Arith) and compare.left.op == "+"
    assert isinstance(compare.left.right, Arith) and compare.left.right.op == "*"
    assert compare.right == NumConst(7.0)


def test_parse_parenthesized_expression():
    query = q("SELECT $this WHERE { FILTER((1 + 2) * 3 = 9) }")
    (f,) = query.clauses
    assert f.expression.left.op == "*"
    assert f.expression.left.left.op == "+"


@pytest.mark.parametrize("keyword", [
    "OPTIONAL", "UNION", "MINUS", "GRAPH", "VALUES", "EXISTS", "DISTINCT",
    "GROUP", "ORDER", "LIMIT", "REGEX", "STR", "BOUND", "COUNT",
])
def test_unsupported_keywords_rejected_by_name(keyword):
    with pytest.raises(SparqlSyntaxError, match=f"{keyword} is not supported"):
        q(f"SELECT $this WHERE {{ $this ex:p ?x . {keyword} ")


def test_unsupported_keyword_case_insensitive():
    with pytest.raises(SparqlSyntaxError, match="OPTIONAL is not supported"):
        q("SELECT $this WHERE { optional { $this ex:p ?x } }")


@pytest.mark.parametrize("text, fragment", [
    ("SELECT WHERE { $this ex:p ?x }", "at least one variable"),
    ("SELECT $this WHERE { $this ex:p ?x } extra", "trailing content"),
    ("SELECT $this WHERE { $this ex:p ?x", "unterminated group"),
    ("SELECT $this WHERE { $this ex:p ?x # no newline", "unterminated group"),
    ("  # only a comment", "expected SELECT, found ''"),
    ("SELECT $this WHERE { BIND(1 ?x) }", "expected AS"),
    ("SELECT $this WHERE { $this unknown:p ?x }", "undefined prefix"),
    ("SELECT $this WHERE { FILTER(1 < 2 < 3) }", "expected"),
    ("SELECT $this WHERE { FILTER() }", "expected expression"),
    ("SELECT $this WHERE { $this ex:p @ }", "unexpected character"),
    (r'SELECT $this WHERE { $this ex:p "a\qb" }', "unsupported escape"),
    (r'SELECT $this WHERE { $this ex:p "\u00zz" }', r"bad \\u escape"),
    (r'SELECT $this WHERE { $this ex:p "\U00110000" }', r"bad \\U escape"),
    ('SELECT $this WHERE { $this ex:p "open }', "unterminated string"),
    ("SELECT $this WHERE { FILTER($this = ٣) }", "unexpected character"),
    ("SELECT $this WHERE { FILTER($this = 7٣) }", "malformed numeric"),
    # '?' alone is no variable, and '"' alone no string
    ("SELECT $this ? WHERE { $this ex:p ? }", r"unexpected character '\?' at offset 13"),
    ('SELECT $this WHERE { $this ex:p " }', "unterminated string at offset 32"),
    # a numeral running on into a name that would read on as a keyword or a term
    ("SELECT $this WHERE { BIND(1AS ?x) }", "malformed numeric literal '1A' at offset 26"),
    ("SELECT $this WHERE { $this ex:p 1ex:q ?y ?z }",
     "malformed numeric literal '1e' at offset 32"),
    ("SELECT $this WHERE { $this ex:p <rel> }", "relative IRI"),
    ("SELECT $this WHERE { $this A ex:T }", "expected predicate term"),
    # 600 signs used to parse, and then hash() and == overflowed the stack
    ("SELECT $this WHERE { FILTER(" + "- " * 600 + "1 = 1) }",
     "nesting too deep at offset 230"),
])
def test_syntax_errors(text, fragment):
    with pytest.raises(SparqlSyntaxError, match=fragment):
        q(text)


@pytest.mark.parametrize("text, message", [
    # 17 characters of layout and 32 of query come before the '%'
    ("  \t# leading\n    SELECT $this WHERE { $this ex:p % }",
     "unexpected character '%' at offset 49"),
    ("  \t# leading\n    SELECT $this WHERE { $this un:p ?x }",
     "undefined prefix 'un:' at offset 44"),
    ("SELECT $this WHERE { $this ex:p ?x }  # c\n  %", "unexpected character '%' at offset 44"),
])
def test_syntax_error_offset_after_layout(text, message):
    with pytest.raises(SparqlSyntaxError) as err:
        q(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    # the pattern lacks its object at ';', the string is never closed
    ('SELECT $this WHERE { $this ex:p ; ex:q "open }', "unterminated string at offset 39"),
    ('SELECT $this WHERE { $this un:p ?x . $this ex:q "open }',
     "unterminated string at offset 48"),
    ('SELECT $this WHERE { FILTER(' + "- " * 600 + '1 = "open) }',
     "unterminated string at offset 1232"),
])
def test_lexer_error_wins_over_an_earlier_parser_error(text, message):
    with pytest.raises(SparqlSyntaxError) as err:
        q(text)
    assert str(err.value) == message


def test_query_ending_in_a_comment_without_newline():
    assert q("SELECT $this WHERE { $this ex:p ?x } # done").clauses == q(
        "SELECT $this WHERE { $this ex:p ?x }").clauses


def test_deep_nesting_is_a_syntax_error():
    depth = 3000
    with pytest.raises(SparqlSyntaxError, match="nesting too deep at offset"):
        q("SELECT $this WHERE { FILTER(" + "(" * depth + "1" + ")" * depth + ") }")


def test_expression_at_the_nesting_bound_hashes_compares_and_evaluates():
    # fifty signs and fifty parentheses make one hundred levels
    text = "SELECT $this WHERE { FILTER(" + "-(" * 50 + "1" + ")" * 50 + " = 1) }"
    query = q(text)
    assert hash(query) == hash(q(text))
    assert query == q(text)
    assert evaluate(query, Graph(), EX.d) == [{"this": EX.d}]
    with pytest.raises(SparqlSyntaxError, match="nesting too deep"):
        q(text.replace("1)", "- 1)", 1))


@pytest.mark.parametrize("text, fragment", [
    ("SELECT ?x WHERE { $this ex:p ?x }", "must project \\$this"),
    ("SELECT $this WHERE { FILTER(?nope > 1) $this ex:p ?nope }", "unbound variable \\?nope"),
    ("SELECT $this WHERE { BIND(?nope + 1 AS ?y) }", "unbound variable \\?nope"),
    ("SELECT $this ?ghost WHERE { $this ex:p ?x }", "unbound variable \\?ghost"),
])
def test_scope_errors(text, fragment):
    with pytest.raises((UnboundVariableError, SparqlSyntaxError), match=fragment):
        q(text)


@pytest.mark.parametrize("expression", ["ABS(?u)", "IF(true, 1, ?u)", "-?u"])
def test_unbound_variable_inside_an_operand_is_rejected(expression):
    with pytest.raises(UnboundVariableError) as info:
        q(f"SELECT $this WHERE {{ BIND({expression} AS ?v) }}")
    assert str(info.value) == "BIND at clause 0 uses unbound variable ?u"


@pytest.mark.parametrize("text, message", [
    ("SELECT $this WHERE $this ex:p ?x }", "expected '{', found '$this'"),
    ("SELECT $this WHERE { BIND(1 AS v) }", "expected variable after AS, found 'v'"),
])
def test_syntax_error_messages(text, message):
    with pytest.raises(SparqlSyntaxError) as info:
        q(text)
    assert str(info.value) == message


_QUERY_PIECES = st.sampled_from(
    list(' {}().;,<>"\\?$:#+-eE07²') + [
        '"""', "\\u00e9", "ex:", "SELECT $this WHERE {", "FILTER(", "BIND("])


@given(st.lists(_QUERY_PIECES, max_size=24).map("".join))
def test_parse_returns_query_or_govshapes_error(text):
    try:
        query = q(text)
    except GovshapesError:
        return
    assert isinstance(query, SparqlQuery)


def test_bind_target_must_be_fresh():
    with pytest.raises(SparqlSyntaxError, match="already bound"):
        q("SELECT $this WHERE { $this ex:p ?x . BIND(1 AS ?x) }")
    with pytest.raises(SparqlSyntaxError, match="already bound"):
        q("SELECT $this WHERE { BIND(1 AS ?this) }")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def n(lex, dt=XSD.integer):
    return Literal(lex, dt)


def graph_of(*triples):
    return Graph(triples)


def test_join_across_patterns():
    g = graph_of(
        Triple(EX.d, EX.a, n("1")),
        Triple(EX.d, EX.b, n("2")),
        Triple(EX.e, EX.a, n("3")),
    )
    rows = evaluate(q("SELECT $this ?x ?y WHERE { $this ex:a ?x ; ex:b ?y }"),
                    g, EX.d)
    assert rows == [{"this": EX.d, "x": n("1"), "y": n("2")}]
    assert evaluate(q("SELECT $this ?x ?y WHERE { $this ex:a ?x ; ex:b ?y }"),
                    g, EX.e) == []


def test_repeated_variable_must_unify():
    g = graph_of(
        Triple(EX.d, EX.p, EX.d),
        Triple(EX.e, EX.p, EX.f),
    )
    rows = evaluate(q("SELECT $this WHERE { $this ex:p $this }"), g, EX.d)
    assert rows == [{"this": EX.d}]
    assert evaluate(q("SELECT $this WHERE { $this ex:p $this }"), g, EX.e) == []


def test_variable_twice_in_one_pattern_matches_self_loops_only():
    g = graph_of(
        Triple(EX.a, EX.q, EX.a),
        Triple(EX.b, EX.q, EX.c),
        Triple(EX.c, EX.q, EX.c),
    )
    rows = evaluate(q("SELECT $this ?x WHERE { ?x ex:q ?x }"), g, EX.d)
    assert rows == [{"this": EX.d, "x": EX.a}, {"this": EX.d, "x": EX.c}]


def test_solutions_follow_canonical_match_order():
    g = graph_of(
        Triple(EX.d, EX.p, EX.z),
        Triple(EX.d, EX.p, EX.a),
        Triple(EX.d, EX.p, EX.m),
    )
    rows = evaluate(q("SELECT $this ?v WHERE { $this ex:p ?v }"), g, EX.d)
    assert [r["v"] for r in rows] == [EX.a, EX.m, EX.z]


def test_bind_wraps_numbers_as_doubles():
    g = graph_of(Triple(EX.d, EX.a, n("70")))
    rows = evaluate(q("SELECT $this ?y WHERE { $this ex:a ?x . BIND(?x + 1 AS ?y) }"),
                    g, EX.d)
    assert rows == [{"this": EX.d, "y": Literal("71.0", XSD.double)}]


def test_bind_wraps_booleans():
    g = graph_of(Triple(EX.d, EX.a, n("70")))
    rows = evaluate(q("SELECT $this ?y WHERE { $this ex:a ?x . BIND(?x > 1 AS ?y) }"),
                    g, EX.d)
    assert rows[0]["y"] == Literal("true", XSD.boolean)


def test_bind_passes_terms_through():
    g = graph_of(Triple(EX.d, EX.a, EX.other))
    rows = evaluate(q("SELECT $this ?y WHERE { $this ex:a ?x . BIND(?x AS ?y) }"),
                    g, EX.d)
    assert rows[0]["y"] == EX.other


def test_filter_requires_strict_boolean():
    g = graph_of(Triple(EX.d, EX.a, n("70")))
    diags = []
    rows = evaluate(q("SELECT $this WHERE { $this ex:a ?x . FILTER(?x) }"),
                    g, EX.d, diags)
    assert rows == []
    assert len(diags) == 1
    assert "not boolean" in diags[0].reason


def test_filter_keeps_true_drops_false_without_diagnostics():
    g = graph_of(
        Triple(EX.d, EX.a, Literal("true", XSD.boolean)),
        Triple(EX.e, EX.a, Literal("false", XSD.boolean)),
    )
    diags = []
    query = q("SELECT $this WHERE { $this ex:a ?x . FILTER(?x) }")
    assert evaluate(query, g, EX.d, diags) == [{"this": EX.d}]
    assert evaluate(query, g, EX.e, diags) == []
    assert diags == []


def test_type_mismatch_eliminates_solution_not_query():
    g = graph_of(
        Triple(EX.d, EX.a, n("10")),
        Triple(EX.d, EX.a, Literal("plain")),
    )
    diags = []
    rows = evaluate(q("SELECT $this ?x WHERE { $this ex:a ?x . FILTER(?x > 5) }"),
                    g, EX.d, diags)
    assert rows == [{"this": EX.d, "x": n("10")}]
    assert len(diags) == 1
    assert diags[0].clause_index == 1


def test_unparseable_numeric_literal_is_a_type_error():
    g = graph_of(Triple(EX.d, EX.a, Literal("twelve", XSD.integer)))
    diags = []
    rows = evaluate(q("SELECT $this WHERE { $this ex:a ?x . FILTER(?x > 5) }"),
                    g, EX.d, diags)
    assert rows == []
    assert "not a valid number" in diags[0].reason


def test_division_by_zero_eliminates():
    g = graph_of(Triple(EX.d, EX.a, n("0")))
    diags = []
    rows = evaluate(q("SELECT $this ?y WHERE { $this ex:a ?x . BIND(1 / ?x AS ?y) }"),
                    g, EX.d, diags)
    assert rows == []
    assert "division by zero" in diags[0].reason


def test_if_short_circuits_past_division_by_zero():
    g = graph_of(Triple(EX.d, EX.a, n("0")))
    diags = []
    rows = evaluate(
        q("SELECT $this ?y WHERE { $this ex:a ?x . "
          "BIND(IF(?x = 0, 0, 1 / ?x) AS ?y) }"), g, EX.d, diags)
    assert rows == [{"this": EX.d, "y": Literal("0.0", XSD.double)}]
    assert diags == []


def test_if_condition_must_be_boolean():
    g = graph_of(Triple(EX.d, EX.a, n("3")))
    diags = []
    rows = evaluate(q("SELECT $this ?y WHERE { $this ex:a ?x . "
                      "BIND(IF(?x, 1, 2) AS ?y) }"), g, EX.d, diags)
    assert rows == []
    assert "IF condition" in diags[0].reason


def test_abs_and_unary_minus():
    g = graph_of(Triple(EX.d, EX.a, n("3")), Triple(EX.d, EX.b, n("8")))
    rows = evaluate(q("SELECT $this ?y WHERE { $this ex:a ?x ; ex:b ?z . "
                      "BIND(ABS(?x - ?z) AS ?y) }"), g, EX.d)
    assert rows[0]["y"] == Literal("5.0", XSD.double)
    rows = evaluate(q("SELECT $this ?y WHERE { $this ex:a ?x . BIND(-?x AS ?y) }"),
                    g, EX.d)
    assert rows[0]["y"] == Literal("-3.0", XSD.double)


def test_arithmetic_rejects_booleans():
    g = graph_of(Triple(EX.d, EX.a, Literal("true", XSD.boolean)))
    diags = []
    rows = evaluate(q("SELECT $this ?y WHERE { $this ex:a ?x . BIND(?x + 1 AS ?y) }"),
                    g, EX.d, diags)
    assert rows == []
    assert "expected a number" in diags[0].reason


@pytest.mark.parametrize("op, expected", [
    ("=", [False, True, False, False]), ("!=", [True, False, True, True]),
    ("<", [True, False, False, False]), (">", [False, False, True, False]),
    ("<=", [True, True, False, False]), (">=", [False, True, True, False]),
])
def test_numeric_comparisons_nan_included(op, expected):
    pairs = [(1.0, 2.0), (2.0, 2.0), (3.0, 2.0), (float("nan"), 2.0)]
    assert [eval_expression(Compare(op, NumConst(a), NumConst(b)), {})
            for a, b in pairs] == expected


def test_term_equality_comparisons():
    g = graph_of(
        Triple(EX.d, EX.a, EX.one),
        Triple(EX.d, EX.b, EX.one),
        Triple(EX.d, EX.c, Literal("x")),
    )
    query = q("SELECT $this WHERE { $this ex:a ?x ; ex:b ?y . FILTER(?x = ?y) }")
    assert evaluate(query, g, EX.d) == [{"this": EX.d}]
    query = q("SELECT $this WHERE { $this ex:a ?x ; ex:c ?y . FILTER(?x != ?y) }")
    assert evaluate(query, g, EX.d) == [{"this": EX.d}]


def test_terms_do_not_order():
    g = graph_of(Triple(EX.d, EX.a, EX.one), Triple(EX.d, EX.b, EX.two))
    diags = []
    rows = evaluate(q("SELECT $this WHERE { $this ex:a ?x ; ex:b ?y . "
                      "FILTER(?x < ?y) }"), g, EX.d, diags)
    assert rows == []
    assert "cannot order" in diags[0].reason


def test_blank_nodes_do_not_compare():
    g = graph_of(
        Triple(EX.d, EX.a, BlankNode("m")),
        Triple(EX.d, EX.b, BlankNode("n")),
    )
    diags = []
    rows = evaluate(q("SELECT $this WHERE { $this ex:a ?x ; ex:b ?y . "
                      "FILTER(?x = ?y) }"), g, EX.d, diags)
    assert rows == []
    assert len(diags) == 1


def test_booleans_do_not_order():
    diags = []
    rows = evaluate(q("SELECT $this WHERE { FILTER(true < false) }"), Graph(), EX.d, diags)
    assert rows == []
    assert [d.reason for d in diags] == ["booleans are not ordered"]


def test_eval_of_an_unbound_variable_raises():
    with pytest.raises(UnboundVariableError, match=r"variable \?x is unbound"):
        eval_expression(VarRef("x"), {})


def test_mixed_comparison_is_a_type_error():
    g = graph_of(Triple(EX.d, EX.a, n("5")), Triple(EX.d, EX.b, EX.thing))
    diags = []
    rows = evaluate(q("SELECT $this WHERE { $this ex:a ?x ; ex:b ?y . "
                      "FILTER(?x = ?y) }"), g, EX.d, diags)
    assert rows == []
    assert len(diags) == 1


def test_numeric_datatypes_mix_in_comparisons():
    g = graph_of(
        Triple(EX.d, EX.a, Literal("70", XSD.integer)),
        Triple(EX.d, EX.b, Literal("70.0", XSD.decimal)),
    )
    rows = evaluate(q("SELECT $this WHERE { $this ex:a ?x ; ex:b ?y . "
                      "FILTER(?x = ?y) }"), g, EX.d)
    assert rows == [{"this": EX.d}]


def test_projection_keeps_duplicates():
    g = graph_of(
        Triple(EX.d, EX.p, EX.o1),
        Triple(EX.d, EX.p, EX.o2),
    )
    rows = evaluate(q("SELECT $this WHERE { $this ex:p ?v }"), g, EX.d)
    assert rows == [{"this": EX.d}, {"this": EX.d}]


def test_filter_only_query_checks_focus():
    query = q("SELECT $this WHERE { FILTER($this = ex:a) }")
    assert evaluate(query, Graph(), EX.a) == [{"this": EX.a}]
    assert evaluate(query, Graph(), EX.b) == []


def test_reference_query_flags_disparity():
    g = graph_of(
        Triple(EX.d, RDF.type, EX.Decision),
        Triple(EX.d, EX.allocatedGPUHoursGroupA, Literal("100.0", XSD.decimal)),
        Triple(EX.d, EX.allocatedGPUHoursGroupB, Literal("70.0", XSD.decimal)),
        Triple(EX.d, EX.fairnessThreshold, Literal("0.20", XSD.decimal)),
    )
    assert evaluate(q(oracle.REFERENCE_QUERY), g, EX.d) == [{"this": EX.d}]


def test_reference_query_passes_within_threshold():
    g = graph_of(
        Triple(EX.d, EX.allocatedGPUHoursGroupA, Literal("120.0", XSD.decimal)),
        Triple(EX.d, EX.allocatedGPUHoursGroupB, Literal("110.0", XSD.decimal)),
        Triple(EX.d, EX.fairnessThreshold, Literal("0.20", XSD.decimal)),
    )
    assert evaluate(q(oracle.REFERENCE_QUERY), g, EX.d) == []


def test_reference_query_zero_allocations_guarded():
    g = graph_of(
        Triple(EX.d, EX.allocatedGPUHoursGroupA, n("0")),
        Triple(EX.d, EX.allocatedGPUHoursGroupB, n("0")),
        Triple(EX.d, EX.fairnessThreshold, Literal("0.20", XSD.decimal)),
    )
    diags = []
    assert evaluate(q(oracle.REFERENCE_QUERY), g, EX.d, diags) == []
    assert diags == []


# ---------------------------------------------------------------------------
# Cross-check against the brute-force oracle
# ---------------------------------------------------------------------------

def _assert_engine_matches_oracle(query, graph, focus):
    diags = []
    engine_rows = [tuple(row[v] for v in query.select_vars)
                   for row in evaluate(query, graph, focus, diags)]
    oracle_rows, oracle_eliminated = oracle.brute_force(query, graph, focus)
    assert oracle.sorted_rows(engine_rows) == oracle.sorted_rows(oracle_rows)
    assert len(diags) == oracle_eliminated


# lexical forms float() or int() accept that XSD rejects, and XSD forms
# at the edges of the lexical spaces
NUMERALS = ["nan", "inf", "-Infinity", "7_0", " 70", "70 ", "\u0667\u0660", "1e2",
            "1.", ".5", "+.5", ".", "-", "1.2.3", "1e", "1E+2", "INF", "+INF", "-INF",
            "NaN"]


def numeral_graphs():
    """n0 with each numeral as its group A hours, under each numeric datatype."""
    for lexical in NUMERALS:
        for datatype in (XSD.integer, XSD.decimal, XSD.double):
            yield Graph([Triple(EX.n0, RDF.type, EX.Decision),
                         Triple(EX.n0, EX.allocatedGPUHoursGroupA, Literal(lexical, datatype)),
                         Triple(EX.n0, EX.allocatedGPUHoursGroupB, Literal("70", XSD.integer)),
                         Triple(EX.n0, EX.fairnessThreshold, Literal("0.2", XSD.decimal))])


def test_engine_agrees_with_oracle_on_seeded_graphs():
    rng = random.Random(20251103)
    queries = [q(oracle.REFERENCE_QUERY)] + [q(v) for v in oracle.QUERY_VARIANTS[:4]]
    for _ in range(25):
        g = oracle.random_graph(rng, max_triples=30)
        for focus in (EX.n0, EX.n3):
            for query in queries:
                _assert_engine_matches_oracle(query, g, focus)
    every_query = [q(v) for v in [oracle.REFERENCE_QUERY, *oracle.QUERY_VARIANTS]]
    for g in numeral_graphs():
        for query in every_query:
            _assert_engine_matches_oracle(query, g, EX.n0)


@given(st.integers(0, 2**32 - 1))
def test_engine_agrees_with_oracle_property(seed):
    rng = random.Random(seed)
    g = oracle.random_graph(rng, max_triples=24)
    query = q(rng.choice([oracle.REFERENCE_QUERY] + oracle.QUERY_VARIANTS))
    _assert_engine_matches_oracle(query, g, EX.n0)
