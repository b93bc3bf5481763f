"""Restricted SPARQL SELECT fragment for constraint queries.

The fragment covers exactly what data-dependent constraints need:

  - ``SELECT $this ?x ...`` projection (``$this`` is pre-bound to the
    focus node and must be projected)
  - basic graph patterns with ``;`` predicate lists and ``,`` object
    lists, the ``a`` keyword, variables in any position
  - ``BIND(expr AS ?v)`` with arithmetic, comparisons, ``ABS``, ``IF``
  - ``FILTER(expr)`` with strict boolean semantics

Everything else (OPTIONAL, UNION, subqueries, aggregates, property
paths, ...) is rejected at parse time by name, so a query either runs
under these semantics or fails loudly.

Terms are lexed exactly as in Turtle: the query grammar is built by
``rdf._token_grammar`` from the Turtle term fragments plus variables,
names and operators, and ``rdf._Parser`` reads the token texts its scan
form cuts. So IRIs are absolute, prefixed names have no final ``.`` in
their local part, strings are short or long with the Turtle escapes, and
numerals are written in ASCII digits.

Evaluation uses nested-loop joins over ``Graph.match``. A type error
inside an expression does not abort the query: the offending solution
is eliminated and a diagnostic entry records why, mirroring the
error-elimination behavior validators rely on.
"""

from __future__ import annotations

import math
import operator

from ._record import Record
from .errors import SparqlSyntaxError, TypeMismatchError, UnboundVariableError
from .rdf import (RDF, STANDARD_PREFIXES, XSD, Graph, Iri, Literal, Term, _Parser, _Stop,
                  _token_grammar, in_lexical_space, is_numeric_literal)

Binding = dict[str, Term]

_UNSUPPORTED = {
    "OPTIONAL", "UNION", "MINUS", "GRAPH", "SERVICE", "VALUES", "EXISTS",
    "NOT", "DISTINCT", "REDUCED", "GROUP", "HAVING", "ORDER", "LIMIT",
    "OFFSET", "PREFIX", "BASE", "ASK", "CONSTRUCT", "DESCRIBE", "INSERT",
    "DELETE", "REGEX", "STR", "LANG", "DATATYPE", "BOUND", "COALESCE",
    "CONCAT", "COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE",
}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Var(Record):
    name: str


class Expression(Record):
    pass


class NumConst(Expression):
    value: float


class BoolConst(Expression):
    value: bool


class TermConst(Expression):
    term: Term


class VarRef(Expression):
    name: str


class Arith(Expression):
    op: str  # + - * /
    left: Expression
    right: Expression


class Neg(Expression):
    arg: Expression


class Compare(Expression):
    op: str  # = != < > <= >=
    left: Expression
    right: Expression


class AbsCall(Expression):
    arg: Expression


class IfCall(Expression):
    cond: Expression
    then: Expression
    els: Expression


class ClauseItem(Record):
    pass


class TriplePattern(ClauseItem):
    subject: Term | Var
    predicate: Term | Var
    object: Term | Var


class BindClause(ClauseItem):
    expression: Expression
    var: str


class FilterClause(ClauseItem):
    expression: Expression


class SparqlQuery(Record):
    select_vars: tuple[str, ...]
    clauses: tuple[ClauseItem, ...]
    text: str


class EvalDiagnostic(Record):
    """Why a solution was eliminated by a type error."""
    clause_index: int
    reason: str


# ---------------------------------------------------------------------------
# Lexer: the Turtle lexer's term fragments plus variables, names and operators
# ---------------------------------------------------------------------------

_TOKEN_RE, _SCAN_RE = _token_grammar(r"""
  | (?P<var>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|[{}().;,=<>+\-*/])
""")


def _syntax_error(text: str, pos: int, message: str) -> SparqlSyntaxError:
    return SparqlSyntaxError(f"{message} at offset {pos}")


def _is_var(t: str) -> bool:
    """Is ``t`` the text of a variable (``?`` or ``$`` alone is not)?"""
    return t[:1] in ("?", "$") and len(t) > 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# the expression node for each kind of value a literal token evaluates to
_CONSTANTS = {float: NumConst, bool: BoolConst}

# binary operators by precedence, loosest first: (operators, node, chains)
_BINARY = (({"=", "!=", "<", ">", "<=", ">="}, Compare, False),
           ({"+", "-"}, Arith, True),
           ({"*", "/"}, Arith, True))

# The deepest an expression may nest; each sign, parenthesis and ABS/IF
# argument list is one level. A parsed query is hashed, compared and
# evaluated recursively, so this bound keeps all three within the stack.
_MAX_NESTING = 100


class _QueryParser(_Parser):
    scan_re, token_re, error = _SCAN_RE, _TOKEN_RE, staticmethod(_syntax_error)

    def __init__(self, text: str, prefixes: dict[str, str]):
        super().__init__(text, prefixes)
        self.depth = 0  # expression levels around the next operand

    def _fail(self, message: str) -> _Stop:
        """``SparqlSyntaxError(message)``, with no offset."""
        return _Stop(lambda tok: SparqlSyntaxError(message))

    def _expected(self, what: str) -> _Stop:
        """"expected ``what``, found" the value of the cursor's token."""
        return _Stop(lambda tok: SparqlSyntaxError(f"expected {what}, found {tok.value!r}"))

    def _expect_op(self, op: str) -> None:
        if self.tokens[self.idx] != op:
            raise self._expected(repr(op))
        self.idx += 1

    def _keyword(self, t: str) -> str:
        """The token text ``t`` upper-cased, to compare with keywords, which
        match in any case. Only a bare word reads as one: every other
        token holds a quote, colon, sign, digit or bracket, or is one
        character, and no character upper-cases to a keyword."""
        upper = t.upper()
        if upper in _UNSUPPORTED:
            raise self._fail(f"{upper} is not supported in constraint queries")
        return upper

    def _expect_keyword(self, kw: str) -> None:
        if self._keyword(self.tokens[self.idx]) != kw:
            raise self._expected(kw)
        self.idx += 1

    # -- entry ---------------------------------------------------------------

    def parse(self) -> SparqlQuery:
        tokens = self.tokens
        self._expect_keyword("SELECT")
        select_vars = []
        while _is_var(tokens[self.idx]):
            select_vars.append(tokens[self.idx][1:])
            self.idx += 1
        if not select_vars:
            raise self._fail("SELECT needs at least one variable")
        self._expect_keyword("WHERE")
        self._expect_op("{")
        clauses = self._group()
        self._expect_op("}")
        if tokens[self.idx]:
            raise _Stop(lambda tok: SparqlSyntaxError(
                f"trailing content after '}}': {tok.value!r}"))
        query = SparqlQuery(tuple(select_vars), tuple(clauses), self.text)
        _check_variable_scope(query)
        return query

    def _group(self) -> list[ClauseItem]:
        tokens = self.tokens
        clauses: list[ClauseItem] = []
        while True:
            t = tokens[self.idx]
            if t == "}":
                return clauses
            if not t:
                raise self._fail("unterminated group, expected '}'")
            kw = self._keyword(t)
            if kw == "BIND":
                self.idx += 1
                clauses.append(self._bind())
            elif kw == "FILTER":
                self.idx += 1
                clauses.append(FilterClause(*self._arguments(1)))
            else:
                self._predicate_object_list(
                    self._pattern_term("subject"), self._pattern_verb,
                    lambda: self._pattern_term("object"), TriplePattern, clauses.append,
                    (".", "}"))
                # SPARQL 1.1's TriplesBlock: a '.' before the next pattern
                # (BIND, FILTER and '}' may follow directly)
                t = tokens[self.idx]
                if _is_var(t) or isinstance(self._term(t), Iri):
                    raise self._expected("'.' before the next triple pattern")
            # statement separator is optional before '}' and after BIND/FILTER
            if tokens[self.idx] == ".":
                self.idx += 1

    # -- triple patterns -------------------------------------------------

    def _pattern_verb(self) -> Term | Var:
        if self.tokens[self.idx] == "a":
            self.idx += 1
            return RDF.type
        return self._pattern_term(position="predicate")

    def _pattern_term(self, position: str) -> Term | Var:
        t = self.tokens[self.idx]
        if _is_var(t):
            self.idx += 1
            return Var(t[1:])
        term = self._term(t)
        if isinstance(term, Iri) or (term is not None and position == "object"):
            self.idx += 1
            return term
        self._keyword(t)  # raises for unsupported keywords
        raise self._expected(f"{position} term")

    # -- BIND / FILTER ----------------------------------------------------

    def _bind(self) -> BindClause:
        self._expect_op("(")
        expr = self._expression()
        self._expect_keyword("AS")
        t = self.tokens[self.idx]
        if not _is_var(t):
            raise self._expected("variable after AS")
        self.idx += 1
        self._expect_op(")")
        return BindClause(expr, t[1:])

    def _arguments(self, count: int) -> list[Expression]:
        """``( expr (, expr)* )`` with ``count`` expressions."""
        self._expect_op("(")
        args = [self._expression()]
        for _ in range(count - 1):
            self._expect_op(",")
            args.append(self._expression())
        self._expect_op(")")
        return args

    # -- expressions ---------------------------------------------------------
    # precedence: the _BINARY levels < unary < primary

    def _expression(self, level: int = 0) -> Expression:
        """Operands of the next level joined by the operators of ``level``."""
        ops, node, chains = _BINARY[level]
        deeper = level + 1 < len(_BINARY)
        left = self._expression(level + 1) if deeper else self._unary()
        while True:
            op = self.tokens[self.idx]
            if op not in ops:
                return left
            self.idx += 1
            right = self._expression(level + 1) if deeper else self._unary()
            left = node(op, left, right)
            if not chains:
                return left

    def _unary(self) -> Expression:
        if self.depth > _MAX_NESTING:
            raise self._error("nesting too deep")
        self.depth += 1
        sign = self.tokens[self.idx]
        if sign == "-" or sign == "+":
            self.idx += 1
            expr = self._unary()
            if sign == "-":
                expr = Neg(expr)
        else:
            expr = self._primary()
        self.depth -= 1
        return expr

    def _primary(self) -> Expression:
        t = self.tokens[self.idx]
        if t == "(":
            return self._arguments(1)[0]
        if _is_var(t):
            self.idx += 1
            return VarRef(t[1:])
        term = self._term(t)
        if term is not None:
            self.idx += 1
            value = _term_value(term)
            return _CONSTANTS.get(type(value), TermConst)(value)
        kw = self._keyword(t)
        if kw in ("ABS", "IF"):
            self.idx += 1
            return AbsCall(*self._arguments(1)) if kw == "ABS" else IfCall(*self._arguments(3))
        raise self._expected("expression")


def _expr_vars(expr: Expression) -> set[str]:
    if isinstance(expr, VarRef):
        return {expr.name}
    if isinstance(expr, (Arith, Compare)):
        return _expr_vars(expr.left) | _expr_vars(expr.right)
    if isinstance(expr, (Neg, AbsCall)):
        return _expr_vars(expr.arg)
    if isinstance(expr, IfCall):
        return _expr_vars(expr.cond) | _expr_vars(expr.then) | _expr_vars(expr.els)
    return set()


def _check_variable_scope(query: SparqlQuery) -> None:
    """Static scope check: every use must follow a bind, ``this`` is free."""
    if "this" not in query.select_vars:
        raise SparqlSyntaxError("constraint queries must project $this")
    bound = {"this"}
    for i, clause in enumerate(query.clauses):
        if isinstance(clause, TriplePattern):
            for part in (clause.subject, clause.predicate, clause.object):
                if isinstance(part, Var):
                    bound.add(part.name)
            continue
        kind = "BIND" if isinstance(clause, BindClause) else "FILTER"
        missing = _expr_vars(clause.expression) - bound
        if missing:
            raise UnboundVariableError(
                f"{kind} at clause {i} uses unbound variable ?{sorted(missing)[0]}")
        if kind == "BIND":
            if clause.var in bound:
                raise SparqlSyntaxError(
                    f"BIND target ?{clause.var} is already bound")
            bound.add(clause.var)
    unbound_selects = set(query.select_vars) - bound
    if unbound_selects:
        raise UnboundVariableError(
            f"SELECT projects unbound variable ?{sorted(unbound_selects)[0]}")


def parse_sparql(text: str, prefixes: dict[str, str] | None = None) -> SparqlQuery:
    """Parse a constraint query.

    ``prefixes`` supplies the prefix bindings in scope (queries carry no
    PREFIX headers of their own); defaults to the standard bundle.
    """
    return _QueryParser(text, STANDARD_PREFIXES if prefixes is None else prefixes).run()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _numeric_value(lit: Literal) -> float:
    if not in_lexical_space(lit):
        raise TypeMismatchError(f"literal {lit.lexical!r} is not a valid number")
    return float(lit.lexical)


def _term_value(term: Term) -> float | bool | Term:
    """A term as expressions see it: numbers as floats, booleans as bools."""
    if is_numeric_literal(term):
        return _numeric_value(term)
    if isinstance(term, Literal) and term.datatype == XSD.boolean:
        return term.lexical == "true"
    return term


def eval_expression(expr: Expression, binding: Binding) -> float | bool | Term:
    """Evaluate under a binding.

    Numeric literals surface as floats, boolean literals as bools, and
    everything else stays a graph term. Raises TypeMismatchError when an
    operator meets operands outside its domain (including division by
    zero), UnboundVariableError for a variable missing from the binding.
    """
    if isinstance(expr, NumConst):
        return expr.value
    if isinstance(expr, BoolConst):
        return expr.value
    if isinstance(expr, TermConst):
        return expr.term
    if isinstance(expr, VarRef):
        if expr.name not in binding:
            raise UnboundVariableError(f"variable ?{expr.name} is unbound")
        return _term_value(binding[expr.name])
    if isinstance(expr, Neg):
        return -_as_number(eval_expression(expr.arg, binding))
    if isinstance(expr, AbsCall):
        return abs(_as_number(eval_expression(expr.arg, binding)))
    if isinstance(expr, Arith):
        left = _as_number(eval_expression(expr.left, binding))
        right = _as_number(eval_expression(expr.right, binding))
        if expr.op == "/" and right == 0.0:
            raise TypeMismatchError("division by zero")
        return _ARITHMETIC[expr.op](left, right)
    if isinstance(expr, IfCall):
        cond = eval_expression(expr.cond, binding)
        if not isinstance(cond, bool):
            raise TypeMismatchError("IF condition must be boolean")
        return eval_expression(expr.then if cond else expr.els, binding)
    if isinstance(expr, Compare):
        return _compare(expr.op,
                        eval_expression(expr.left, binding),
                        eval_expression(expr.right, binding))
    raise TypeMismatchError(f"cannot evaluate {type(expr).__name__}")


def _as_number(value: float | bool | Term) -> float:
    # bool is an int subtype; arithmetic on booleans is still a type error
    if isinstance(value, float) and not isinstance(value, bool):
        return value
    raise TypeMismatchError(f"expected a number, got {_describe(value)}")


def _describe(value) -> str:
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, float):
        return "a number"
    if isinstance(value, Iri):
        return f"IRI <{value.value}>"
    if isinstance(value, Literal):
        return f"literal {value.lexical!r}"
    return type(value).__name__


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}
_COMPARISONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
                ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def _compare(op: str, left, right) -> bool:
    if isinstance(left, float) and isinstance(right, float) \
            and not isinstance(left, bool) and not isinstance(right, bool):
        return _COMPARISONS[op](left, right)
    if isinstance(left, bool) and isinstance(right, bool):
        if op in ("=", "!="):
            return _COMPARISONS[op](left, right)
        raise TypeMismatchError("booleans are not ordered")
    if isinstance(left, (Iri, Literal)) and isinstance(right, (Iri, Literal)):
        if op in ("=", "!="):
            return _COMPARISONS[op](left, right)
        raise TypeMismatchError(
            f"cannot order {_describe(left)} against {_describe(right)}")
    raise TypeMismatchError(
        f"cannot compare {_describe(left)} with {_describe(right)}")


def _bind_term(value: float | bool | Term) -> Term:
    if isinstance(value, bool):
        return Literal("true" if value else "false", XSD.boolean)
    if isinstance(value, float):
        if math.isnan(value):
            return Literal("NaN", XSD.double)
        if math.isinf(value):
            return Literal("INF" if value > 0 else "-INF", XSD.double)
        return Literal(repr(value), XSD.double)
    return value


def _resolve(part: Term | Var, sol: Binding) -> Term | None:
    if isinstance(part, Var):
        return sol.get(part.name)
    return part


def evaluate(query: SparqlQuery, graph: Graph, this: Term,
             diagnostics: list[EvalDiagnostic] | None = None) -> list[Binding]:
    """Run a constraint query with ``$this`` pre-bound to ``this``.

    Returns the projected solution sequence in deterministic order. A
    solution hitting a type error in a BIND or FILTER is eliminated, and
    when ``diagnostics`` is given the elimination is recorded there.
    """
    solutions: list[Binding] = [{"this": this}]
    for index, clause in enumerate(query.clauses):
        if isinstance(clause, TriplePattern):
            solutions = _join_pattern(clause, solutions, graph)
        else:
            kept: list[Binding] = []
            for sol in solutions:
                try:
                    value = eval_expression(clause.expression, sol)
                    if isinstance(clause, FilterClause) and not isinstance(value, bool):
                        raise TypeMismatchError(
                            f"FILTER value is {_describe(value)}, not boolean")
                except TypeMismatchError as exc:
                    if diagnostics is not None:
                        diagnostics.append(EvalDiagnostic(index, str(exc)))
                    continue
                if isinstance(clause, BindClause):
                    kept.append({**sol, clause.var: _bind_term(value)})
                elif value:
                    kept.append(sol)
            solutions = kept
        if not solutions:
            break
    return [{name: sol[name] for name in query.select_vars} for sol in solutions]


def _join_pattern(pattern: TriplePattern, solutions: list[Binding],
                  graph: Graph) -> list[Binding]:
    out: list[Binding] = []
    for sol in solutions:
        s = _resolve(pattern.subject, sol)
        p = _resolve(pattern.predicate, sol)
        o = _resolve(pattern.object, sol)
        for triple in graph.match(s, p, o):
            ext = dict(sol)
            consistent = True
            for got, want in ((triple.subject, pattern.subject),
                              (triple.predicate, pattern.predicate),
                              (triple.object, pattern.object)):
                if isinstance(want, Var):
                    if want.name in ext and ext[want.name] != got:
                        consistent = False
                        break
                    ext[want.name] = got
            if consistent:
                out.append(ext)
    return out
