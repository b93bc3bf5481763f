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

A query runs through its plan, compiled the first time ``evaluate`` runs
it and kept on the ``SparqlQuery`` (out of ``==``, ``hash``, ``repr``
and pickles), after T. Neumann, "Efficiently Compiling Efficient Query
Plans for Modern Hardware" (VLDB 2011). Compiling numbers the variables
and gives each clause one step: a triple pattern knows which of its
positions are bound before it and calls ``Graph.match`` once per
solution with those; an expression is a tree of closures, its node
kinds dispatched once; a solution is a list of cells, and each literal
in it is converted to a number at most once. ``eval_expression``
compiles the expression it is given the same way.

A type error inside an expression does not abort the query: the
offending solution is eliminated and a diagnostic entry records why,
mirroring the error-elimination behavior validators rely on. A triple
pattern that builds more than ``_MAX_SOLUTIONS`` solutions for one
focus node (a cross product, say) raises TooManySolutionsError naming
its clause, so that no query can hold the engine for long.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from functools import cached_property

from ._record import Record
from .errors import (SparqlSyntaxError, TooManySolutionsError, TypeMismatchError,
                     UnboundVariableError)
from .rdf import (RDF, STANDARD_PREFIXES, XSD, Graph, Iri, Literal, Term, TermTable, _Parser,
                  _Stop, _token_grammar, in_lexical_space, is_numeric_literal)

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

    @cached_property
    def _plan(self) -> Callable:
        """How ``evaluate`` runs this query, compiled on first use and kept
        beside the fields, out of ``==``, ``hash``, ``repr`` and pickles."""
        return _compile_query(self)


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
# argument list is one level. A parsed query is hashed, compared, compiled
# and evaluated recursively, so this bound keeps all four within the stack.
_MAX_NESTING = 100


class _QueryParser(_Parser):
    scan_re, token_re, error = _SCAN_RE, _TOKEN_RE, staticmethod(_syntax_error)

    def __init__(self, text: str, prefixes: dict[str, str]):
        super().__init__(text, prefixes, TermTable())
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
    """The variables ``expr`` reads, found through the fields of each node
    that hold an operand."""
    if isinstance(expr, VarRef):
        return {expr.name}
    return set().union(*(_expr_vars(value) for value in expr.__dict__.values()
                         if isinstance(value, Expression)))


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


# A solution is a list of 2n cells for a query's n variables, numbered in
# the order the clauses bind them, ``this`` first: cell i holds variable
# i's term and cell n + i its value as expressions see it. A pattern sets
# the term and leaves the value _UNREAD, for the first expression that
# reads it to convert; a BIND sets the value, and the term only where the
# projection or a later pattern reads it. Each solution owns its list, so
# both are written in place.
_UNREAD = object()

# The most solutions one triple pattern may build for one focus node. A
# pattern that shares no variable with the clauses before it joins as a
# cross product, and a chain of patterns through a hub node multiplies its
# degrees, so without a bound a query over a few hundred triples can hold
# millions of solutions.
_MAX_SOLUTIONS = 100_000

# an expression as a function of a solution
Compiled = Callable[[list], "float | bool | Term"]


def _reader(term_cell: int, value_cell: int) -> Compiled:
    """A variable's value in a solution, converted from its term once."""
    def read(sol: list):
        value = sol[value_cell]
        if value is _UNREAD:
            value = sol[value_cell] = _term_value(sol[term_cell])
        return value
    return read


def _compile(expr: Expression, reads: dict[str, Compiled]) -> Compiled:
    """``expr`` as a function of a solution, its node kinds dispatched
    here once; ``reads`` gives the reader of each variable in scope.

    The functions evaluate operands left to right and raise what
    ``eval_expression`` documents, at the same points.
    """
    if isinstance(expr, (NumConst, BoolConst, TermConst)):
        value = expr.term if isinstance(expr, TermConst) else expr.value
        return lambda sol: value
    if isinstance(expr, VarRef):
        read = reads.get(expr.name)
        if read is None:
            return _raising(UnboundVariableError(f"variable ?{expr.name} is unbound"))
        return read
    if isinstance(expr, (Neg, AbsCall)):
        arg = _compile(expr.arg, reads)
        if isinstance(expr, Neg):
            return lambda sol: -_as_number(arg(sol))
        return lambda sol: abs(_as_number(arg(sol)))
    if isinstance(expr, Arith):
        left, right = _compile(expr.left, reads), _compile(expr.right, reads)
        if expr.op == "/":
            def divide(sol: list) -> float:
                dividend, divisor = _as_number(left(sol)), _as_number(right(sol))
                if divisor == 0.0:
                    raise TypeMismatchError("division by zero")
                return dividend / divisor
            return divide
        apply = _ARITHMETIC[expr.op]
        return lambda sol: apply(_as_number(left(sol)), _as_number(right(sol)))
    if isinstance(expr, IfCall):
        cond, then, els = (_compile(e, reads) for e in (expr.cond, expr.then, expr.els))

        def choose(sol: list):
            chosen = cond(sol)
            if not isinstance(chosen, bool):
                raise TypeMismatchError("IF condition must be boolean")
            return then(sol) if chosen else els(sol)
        return choose
    if isinstance(expr, Compare):
        left, right, op = _compile(expr.left, reads), _compile(expr.right, reads), expr.op
        return lambda sol: _compare(op, left(sol), right(sol))
    return _raising(TypeMismatchError(f"cannot evaluate {type(expr).__name__}"))


def _raising(error: Exception) -> Compiled:
    """A function that raises ``error`` whenever it is evaluated."""
    def fail(sol: list):
        raise error
    return fail


def eval_expression(expr: Expression, binding: Binding) -> float | bool | Term:
    """Evaluate under a binding.

    Numeric literals surface as floats, boolean literals as bools, and
    everything else stays a graph term. Raises TypeMismatchError when an
    operator meets operands outside its domain (including division by
    zero), UnboundVariableError for a variable missing from the binding.
    """
    n = len(binding)
    reads = {name: _reader(i, n + i) for i, name in enumerate(binding)}
    return _compile(expr, reads)([*binding.values(), *[_UNREAD] * n])


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


# A step maps the solutions before a clause to those after it. It takes
# (solutions, match, diagnostics), ``match`` being the graph's.
Step = Callable[[list, Callable, "list[EvalDiagnostic] | None"], list]
_POSITIONS = tuple(operator.attrgetter(name) for name in ("subject", "predicate", "object"))


def _pattern_step(pattern: TriplePattern, index: int, slots: dict[str, int]) -> Step:
    """The join of a triple pattern. Each position is a constant, a
    variable bound before (both passed to ``match``), or a variable the
    pattern binds; a variable the pattern binds twice must match the same
    term in both places. New variables get the next slots."""
    bound_before = len(slots)
    given: list[tuple[Term | None, int | None]] = []  # (constant, cell) per position
    binds: list[tuple[int, Callable]] = []  # (cell, position) per new variable
    repeats: list[tuple[Callable, Callable]] = []  # positions that must agree
    first: dict[str, Callable] = {}
    for part, position in zip((pattern.subject, pattern.predicate, pattern.object),
                              _POSITIONS):
        if not isinstance(part, Var):
            given.append((part, None))
        elif slots.get(part.name, bound_before) < bound_before:
            given.append((None, slots[part.name]))
        else:
            given.append((None, None))
            if part.name in first:
                repeats.append((first[part.name], position))
            else:
                first[part.name] = position
                binds.append((slots.setdefault(part.name, len(slots)), position))
    (s, s_cell), (p, p_cell), (o, o_cell) = given

    def step(solutions: list, match, diagnostics) -> list:
        out = []
        for sol in solutions:
            for t in match(s if s_cell is None else sol[s_cell],
                           p if p_cell is None else sol[p_cell],
                           o if o_cell is None else sol[o_cell]):
                if repeats and any(a(t) != b(t) for a, b in repeats):
                    continue
                ext = sol.copy()
                for cell, position in binds:
                    ext[cell] = position(t)
                out.append(ext)
            if len(out) > _MAX_SOLUTIONS:
                raise TooManySolutionsError(
                    f"query clause {index} builds more than {_MAX_SOLUTIONS} solutions")
        return out
    return step


def _expression_step(index: int, compiled: Compiled, value_cell: int | None,
                     term_cell: int | None) -> Step:
    """A BIND, which sets ``value_cell`` and, if given, ``term_cell``, or
    a FILTER (``value_cell`` None), which keeps a solution when its value
    is true. A solution whose expression raises a type error is
    eliminated, and ``diagnostics`` records why."""
    def step(solutions: list, match, diagnostics) -> list:
        kept = []
        for sol in solutions:
            try:
                value = compiled(sol)
                if value_cell is None and not isinstance(value, bool):
                    raise TypeMismatchError(
                        f"FILTER value is {_describe(value)}, not boolean")
            except TypeMismatchError as exc:
                if diagnostics is not None:
                    diagnostics.append(EvalDiagnostic(index, str(exc)))
                continue
            if value_cell is not None:
                sol[value_cell] = value
                if term_cell is not None:
                    sol[term_cell] = _bind_term(value)
            elif not value:
                continue
            kept.append(sol)
        return kept
    return step


def _compile_query(query: SparqlQuery) -> Callable:
    """The plan of ``query``: ``run(graph, this, diagnostics)``, which
    ``evaluate`` calls. Each variable gets its slot, each expression its
    function and each clause its step here, once."""
    pattern_vars = {part.name for c in query.clauses if isinstance(c, TriplePattern)
                    for part in (c.subject, c.predicate, c.object) if isinstance(part, Var)}
    bind_vars = {c.var for c in query.clauses if isinstance(c, BindClause)}
    n = len({"this"} | pattern_vars | bind_vars)
    slots = {"this": 0}
    reads = {"this": _reader(0, n)}
    steps: list[Step] = []
    for index, clause in enumerate(query.clauses):
        if isinstance(clause, TriplePattern):
            known = len(slots)
            steps.append(_pattern_step(clause, index, slots))
            reads.update((name, _reader(cell, n + cell))
                         for name, cell in slots.items() if cell >= known)
            continue
        compiled = _compile(clause.expression, reads)
        if isinstance(clause, FilterClause):
            steps.append(_expression_step(index, compiled, None, None))
            continue
        # a BIND's term is made only where the projection or a pattern reads it
        cell = slots.setdefault(clause.var, len(slots))
        term_read = clause.var in query.select_vars or clause.var in pattern_vars
        steps.append(_expression_step(index, compiled, n + cell,
                                      cell if term_read else None))
        reads[clause.var] = operator.itemgetter(n + cell)
    projection = [(name, slots[name]) for name in query.select_vars]
    blank = [None] * n + [_UNREAD] * n

    def run(graph: Graph, this: Term, diagnostics) -> list[Binding]:
        solutions = [blank.copy()]
        solutions[0][0] = this
        match = graph.match
        for step in steps:
            solutions = step(solutions, match, diagnostics)
            if not solutions:
                break
        return [{name: sol[cell] for name, cell in projection} for sol in solutions]
    return run


def evaluate(query: SparqlQuery, graph: Graph, this: Term,
             diagnostics: list[EvalDiagnostic] | None = None) -> list[Binding]:
    """Run a constraint query with ``$this`` pre-bound to ``this``.

    Returns the projected solution sequence in deterministic order, a row
    per solution, so duplicates stay. A type error in a BIND or FILTER
    eliminates its solution, and when ``diagnostics`` is given the
    elimination is recorded there. A triple pattern that builds more than
    ``_MAX_SOLUTIONS`` solutions raises TooManySolutionsError.
    """
    return query._plan(graph, this, diagnostics)
