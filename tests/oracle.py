"""Brute-force reference evaluator used to cross-check the query engine.

The engine runs nested-loop joins over indexed graph lookups and a typed
expression walker. This module answers the same question a slower, simpler
way: unify every pattern directly against the raw triple list, then apply
BIND and FILTER with a separate interpreter over tagged values. The two
implementations share only the parsed query structure, so agreement on
randomized inputs is meaningful evidence.

Semantics mirrored here:

  - solutions start from {this: focus} and clauses apply in order
  - a numeric literal surfaces as a float, xsd:boolean "true" as True,
    anything else stays a graph term
  - arithmetic wants numbers, division by zero is an error, IF wants a
    strict boolean condition and only evaluates the chosen branch
  - numbers order fully, booleans and terms only support = and !=, and
    blank nodes do not even support those
  - an expression error eliminates the solution instead of aborting
  - a numeric literal outside its datatype's XSD lexical space ("nan",
    "7_0", " 70", non-ASCII digits, an exponent on a decimal) is an error
  - BIND stores floats back as xsd:double, finite ones via repr and the
    others as INF, -INF and NaN, bools as xsd:boolean
"""

from __future__ import annotations

from govshapes.rdf import XSD, BlankNode, Graph, Iri, Literal, Term, term_sort_key
from govshapes.sparql import (
    AbsCall,
    Arith,
    BindClause,
    BoolConst,
    Compare,
    FilterClause,
    IfCall,
    Neg,
    NumConst,
    SparqlQuery,
    TermConst,
    TriplePattern,
    Var,
    VarRef,
)

_NUMERIC = {XSD.integer, XSD.decimal, XSD.double}
_DIGITS = set("0123456789")

# tagged values: ("num", float) | ("bool", bool) | ("term", Term)


class Eliminated(Exception):
    """A type error that removes the current solution."""


def _unsigned(text: str) -> str:
    return text[1:] if text[:1] in ("+", "-") else text


def _is_xsd_numeral(text: str, datatype: Iri) -> bool:
    if datatype == XSD.double:
        if text in ("INF", "+INF", "-INF", "NaN"):
            return True
        text, marker, exponent = text.replace("E", "e").partition("e")
        unsigned = _unsigned(exponent)
        if marker and not (unsigned and set(unsigned) <= _DIGITS):
            return False
    whole, point, fraction = _unsigned(text).partition(".")
    if datatype == XSD.integer and point:
        return False
    return bool(whole or fraction) and set(whole + fraction) <= _DIGITS


def _value_of_term(term: Term):
    if isinstance(term, Literal):
        if term.datatype in _NUMERIC:
            if not _is_xsd_numeral(term.lexical, term.datatype):
                raise Eliminated("unparseable numeric literal")
            return ("num", float(term.lexical))
        if term.datatype == XSD.boolean:
            return ("bool", term.lexical == "true")
    return ("term", term)


def _num(value) -> float:
    if value[0] != "num":
        raise Eliminated("not a number")
    return value[1]


_ORDERED = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


def _eval(expr, binding: dict):
    if isinstance(expr, NumConst):
        return ("num", expr.value)
    if isinstance(expr, BoolConst):
        return ("bool", expr.value)
    if isinstance(expr, TermConst):
        # constants stay terms; only variable lookups coerce
        return ("term", expr.term)
    if isinstance(expr, VarRef):
        return _value_of_term(binding[expr.name])
    if isinstance(expr, Neg):
        return ("num", -_num(_eval(expr.arg, binding)))
    if isinstance(expr, AbsCall):
        return ("num", abs(_num(_eval(expr.arg, binding))))
    if isinstance(expr, Arith):
        a = _num(_eval(expr.left, binding))
        b = _num(_eval(expr.right, binding))
        if expr.op == "+":
            return ("num", a + b)
        if expr.op == "-":
            return ("num", a - b)
        if expr.op == "*":
            return ("num", a * b)
        if b == 0.0:
            raise Eliminated("division by zero")
        return ("num", a / b)
    if isinstance(expr, IfCall):
        cond = _eval(expr.cond, binding)
        if cond[0] != "bool":
            raise Eliminated("non-boolean IF condition")
        return _eval(expr.then if cond[1] else expr.els, binding)
    if isinstance(expr, Compare):
        return _compare(expr.op, _eval(expr.left, binding), _eval(expr.right, binding))
    raise Eliminated(f"unknown expression {type(expr).__name__}")


def _compare(op: str, a, b):
    if a[0] == "num" and b[0] == "num":
        return ("bool", _ORDERED[op](a[1], b[1]))
    if a[0] == "bool" and b[0] == "bool":
        if op == "=":
            return ("bool", a[1] == b[1])
        if op == "!=":
            return ("bool", a[1] != b[1])
        raise Eliminated("ordering booleans")
    if a[0] == "term" and b[0] == "term":
        ta, tb = a[1], b[1]
        if isinstance(ta, (Iri, Literal)) and isinstance(tb, (Iri, Literal)):
            if op == "=":
                return ("bool", ta == tb)
            if op == "!=":
                return ("bool", ta != tb)
        raise Eliminated("unorderable terms")
    raise Eliminated("mixed comparison")


def _store(value) -> Term:
    if value[0] == "bool":
        return Literal("true" if value[1] else "false", XSD.boolean)
    if value[0] == "num":
        number = value[1]
        if number != number:
            return Literal("NaN", XSD.double)
        if number in (float("inf"), float("-inf")):
            return Literal("INF" if number > 0 else "-INF", XSD.double)
        return Literal(repr(number), XSD.double)
    return value[1]


def _unify(pattern: TriplePattern, triple, binding: dict):
    ext = dict(binding)
    for got, want in ((triple.subject, pattern.subject),
                      (triple.predicate, pattern.predicate),
                      (triple.object, pattern.object)):
        if isinstance(want, Var):
            seen = ext.get(want.name)
            if seen is None:
                ext[want.name] = got
            elif seen != got:
                return None
        elif want != got:
            return None
    return ext


def brute_force(query: SparqlQuery, graph: Graph, this: Term):
    """Evaluate by exhaustive unification.

    Returns (projected solutions, eliminated count). Projected solutions
    are rows of terms in select_vars order, unsorted.
    """
    triples = list(graph)
    by_predicate: dict[Iri, list] = {}
    for t in triples:
        by_predicate.setdefault(t.predicate, []).append(t)

    solutions: list[dict] = [{"this": this}]
    eliminated = 0
    for clause in query.clauses:
        if isinstance(clause, TriplePattern):
            if isinstance(clause.predicate, Iri):
                candidates = by_predicate.get(clause.predicate, [])
            else:
                candidates = triples
            next_solutions = []
            for sol in solutions:
                for triple in candidates:
                    ext = _unify(clause, triple, sol)
                    if ext is not None:
                        next_solutions.append(ext)
            solutions = next_solutions
        elif isinstance(clause, BindClause):
            kept = []
            for sol in solutions:
                try:
                    value = _eval(clause.expression, sol)
                except Eliminated:
                    eliminated += 1
                    continue
                ext = dict(sol)
                ext[clause.var] = _store(value)
                kept.append(ext)
            solutions = kept
        elif isinstance(clause, FilterClause):
            kept = []
            for sol in solutions:
                try:
                    value = _eval(clause.expression, sol)
                except Eliminated:
                    eliminated += 1
                    continue
                if value[0] != "bool":
                    eliminated += 1
                    continue
                if value[1]:
                    kept.append(sol)
            solutions = kept
        if not solutions:
            break
    rows = [tuple(sol[name] for name in query.select_vars) for sol in solutions]
    return rows, eliminated


def row_key(row: tuple) -> tuple:
    return tuple(term_sort_key(term) for term in row)


def sorted_rows(rows: list[tuple]) -> list[tuple]:
    return sorted(rows, key=row_key)


# ---------------------------------------------------------------------------
# Randomized inputs shared by the evaluator cross-check tests
# ---------------------------------------------------------------------------

def random_graph(rng, max_triples: int = 50) -> Graph:
    """A small graph biased toward the vocabulary the queries touch."""
    from govshapes.rdf import EX, RDF, Triple

    subjects = [EX.term(f"n{i}") for i in range(6)] + [BlankNode("x0"), BlankNode("x1")]
    predicates = [
        EX.allocatedGPUHoursGroupA,
        EX.allocatedGPUHoursGroupB,
        EX.fairnessThreshold,
        EX.relatesTo,
        RDF.type,
    ]
    objects: list[Term] = [
        Literal("0", XSD.integer),
        Literal("2", XSD.integer),
        Literal("70", XSD.integer),
        Literal("-5", XSD.integer),
        Literal("0.20", XSD.decimal),
        Literal("0.5", XSD.decimal),
        Literal("100.0", XSD.decimal),
        Literal("110.0", XSD.decimal),
        Literal("120.0", XSD.decimal),
        Literal("1.2E2", XSD.double),
        Literal("twelve", XSD.integer),  # numeric datatype, broken lexical
        Literal("true", XSD.boolean),
        Literal("false", XSD.boolean),
        Literal("plain"),
        EX.Decision,
        EX.term("n0"),
        EX.term("n3"),
        BlankNode("x0"),
    ]
    g = Graph()
    for _ in range(rng.randrange(max_triples + 1)):
        s = rng.choice(subjects)
        p = rng.choice(predicates)
        o = EX.Decision if p == RDF.type and rng.random() < 0.7 else rng.choice(objects)
        g.add(Triple(s, p, o))
    return g


REFERENCE_QUERY = """SELECT $this WHERE {
      $this ex:allocatedGPUHoursGroupA ?a ;
            ex:allocatedGPUHoursGroupB ?b ;
            ex:fairnessThreshold       ?t .
      BIND(IF(?a > ?b, ?a, ?b) AS ?mx)
      BIND(IF(?mx = 0, 0, (ABS(?a - ?b) / ?mx)) AS ?ratio)
      FILTER(?ratio > ?t)
    }"""

QUERY_VARIANTS = [
    "SELECT $this WHERE { $this ex:allocatedGPUHoursGroupA ?a . FILTER(?a > 100) }",
    "SELECT $this ?b WHERE { $this ex:allocatedGPUHoursGroupB ?b }",
    "SELECT $this WHERE { $this ex:allocatedGPUHoursGroupA ?a ;"
    " ex:allocatedGPUHoursGroupB ?b . FILTER(?a = ?b) }",
    "SELECT $this ?d WHERE { $this ex:allocatedGPUHoursGroupA ?a ;"
    " ex:allocatedGPUHoursGroupB ?b . BIND(?a - ?b AS ?d) FILTER(ABS(?d) >= 10) }",
    "SELECT $this WHERE { $this a ex:Decision ; ex:relatesTo ?x ."
    " ?x ex:fairnessThreshold ?t . FILTER(?t < 0.5) }",
    "SELECT $this ?r WHERE { $this ex:allocatedGPUHoursGroupA ?a ."
    " BIND(IF(?a > 100, ?a / 100, -?a) AS ?r) }",
    "SELECT $this WHERE { $this ex:relatesTo ?x , ?y . FILTER(?x != ?y) }",
    "SELECT $this WHERE { $this ?p ?v . FILTER(?v = true) }",
    "SELECT $this ?t WHERE { $this ex:fairnessThreshold ?t ."
    " FILTER(IF(?t >= 0.20, true, false)) }",
    "SELECT $this ?mx WHERE { $this ex:allocatedGPUHoursGroupA ?a ;"
    " ex:allocatedGPUHoursGroupB ?b . BIND(IF(?a > ?b, ?a, ?b) AS ?mx)"
    " BIND(IF(?mx = 0, 0, ABS(?a - ?b) / ?mx) AS ?ratio) FILTER(?ratio > 0.05) }",
]
