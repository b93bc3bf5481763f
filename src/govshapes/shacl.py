"""Shape loading and evidence-graph validation.

Shapes are node shapes with a single target class. Two constraint
families are supported:

  structural  cardinality (min/max), datatype, value class, IRI node
              kind, and class-qualified minimum cardinality, all over a
              single predicate path
  query       a SELECT constraint whose solutions denote violating
              focus nodes (the restricted fragment in ``sparql``), one
              result per solution, as W3C SHACL §5.3 has it

Validation walks shapes in IRI order and their target instances in
canonical term order, and runs each shape's plan on every instance: one
check per constraint, in the shape's constraint order, with its family
dispatched and its message resolved when the shape is first validated.
The plan is kept on the ``NodeShape``, out of ``==``, ``hash``,
``repr`` and pickles, as are the triples the shape is emitted as.
Diagnostics come shape by shape, focus node by focus node and solution
by solution; results are reported sorted on a stable key, so a report
is a pure function of (shapes, data). No inference is applied:
instances must be explicitly typed with the target class.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property
from itertools import chain

from ._record import Record
from .errors import (ConflictingShapeBodiesError, MalformedShapeError,
                     TooManySolutionsError, UnsupportedConstraintError)
from .rdf import (RDF, SH, STANDARD_PREFIXES, XSD, BlankNode, Graph, Iri,
                  Literal, Term, Triple, in_lexical_space, term_sort_key)
from .sparql import EvalDiagnostic, SparqlQuery, evaluate, parse_sparql


def qname(iri: Iri) -> str:
    """Compact rendering for messages and reports, standard prefixes only."""
    for label, ns in STANDARD_PREFIXES.items():
        if iri.value.startswith(ns):
            return f"{label}:{iri.value[len(ns):]}"
    return f"<{iri.value}>"


class Severity(enum.Enum):
    """Result severity, ordered as declared: Info < Warning < Violation."""

    INFO = "Info"
    WARNING = "Warning"
    VIOLATION = "Violation"

    @property
    def iri(self) -> Iri:
        return SH.term(self.value)

    @classmethod
    def from_iri(cls, iri: Iri) -> "Severity":
        for sev in cls:
            if sev.iri == iri:
                return sev
        raise MalformedShapeError(f"unknown severity {iri.value}")

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        for sev in cls:
            if sev.value.lower() == name.lower():
                return sev
        raise MalformedShapeError(f"unknown severity {name!r}")

    def __lt__(self, other: "Severity") -> bool:
        return _SEVERITY_RANKS[self.value] < _SEVERITY_RANKS[other.value]


_SEVERITY_RANKS = {sev.value: rank for rank, sev in enumerate(Severity)}


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

class Constraint(Record):
    pass


class MinCount(Constraint):
    path: Iri
    count: int
    message: str | None = None


class MaxCount(Constraint):
    path: Iri
    count: int
    message: str | None = None


class Datatype(Constraint):
    path: Iri
    datatype: Iri
    message: str | None = None


class ClassConstraint(Constraint):
    path: Iri
    cls: Iri
    message: str | None = None


class NodeKindIri(Constraint):
    path: Iri
    message: str | None = None


class QualifiedMinCountClass(Constraint):
    path: Iri
    cls: Iri
    count: int
    message: str | None = None


class SparqlConstraint(Constraint, uncompared=("query",)):
    select: str
    query: SparqlQuery
    message: str | None = None


def _default_message(c: Constraint) -> str:
    if isinstance(c, MinCount):
        if c.count == 1:
            return f"Missing required value for {qname(c.path)}"
        return f"Requires at least {c.count} values for {qname(c.path)}"
    if isinstance(c, MaxCount):
        return f"More than {c.count} values for {qname(c.path)}"
    if isinstance(c, Datatype):
        return f"Value of {qname(c.path)} must have datatype {qname(c.datatype)}"
    if isinstance(c, ClassConstraint):
        return f"Value of {qname(c.path)} must be a {qname(c.cls)}"
    if isinstance(c, NodeKindIri):
        return f"Value of {qname(c.path)} must be an IRI"
    if isinstance(c, QualifiedMinCountClass):
        if c.count == 1:
            return f"Requires a {qname(c.cls)} value on {qname(c.path)}"
        return f"Requires at least {c.count} {qname(c.cls)} values on {qname(c.path)}"
    return "Constraint violated"


class NodeShape(Record):
    """A node shape: its IRI, target class, constraints in the order both
    producers sort them, severity and shape-level message.

    Two things are built from the fields on first use and kept beside
    them, out of ``==``, ``hash``, ``repr`` and pickles: ``_plan``, the
    checks validation runs, and ``_triples``, the triples
    ``emit_shapes_graph`` renders the shape as. Their blank nodes are
    labelled from the shape IRI and a constraint index, so a shapes graph
    holds each body of an IRI once and must not be given two. Fields are
    frozen: a shape with another severity, as ``compose`` may raise it,
    is a new ``NodeShape`` and builds both of its own.
    """

    iri: Iri
    target_class: Iri
    constraints: tuple[Constraint, ...]
    severity: Severity = Severity.VIOLATION
    message: str | None = None

    def constraint_message(self, c: Constraint) -> str:
        if c.message is not None:
            return c.message
        if self.message is not None:
            return self.message
        return _default_message(c)

    @cached_property
    def _plan(self) -> tuple[Check, ...]:
        """One check per constraint, in order, built on first use and kept
        beside the fields, out of ``==``, ``hash``, ``repr`` and pickles."""
        return tuple(_constraint_check(self, c) for c in self.constraints)

    @cached_property
    def _triples(self) -> tuple[Triple, ...]:
        """The triples ``emit_shapes_graph`` renders the shape as, built
        on first use and kept like the plan."""
        return tuple(_emitted_triples(self))


class Violation(Record):
    source_shape: Iri
    focus_node: Term
    message: str
    severity: Severity = Severity.VIOLATION
    path: Iri | None = None
    value: Term | None = None

    @property
    def identity(self) -> tuple:
        """The key under which two reports consider results the same."""
        return (self.source_shape.value, term_sort_key(self.focus_node), self.message)


def _violation_sort_key(v: Violation) -> tuple:
    return (v.source_shape.value,
            term_sort_key(v.focus_node),
            term_sort_key(v.path) if v.path is not None else (),
            v.message,
            term_sort_key(v.value) if v.value is not None else ())


def _in_report_order(violations) -> list[Violation]:
    """Violations sorted by (shape, focus, path, message, value), the
    order of every report."""
    return sorted(violations, key=_violation_sort_key)


class ValidationReport(Record, uncompared=("elapsed_ms", "diagnostics")):
    conforms: bool
    violations: tuple[Violation, ...]
    elapsed_ms: float = 0.0
    diagnostics: tuple[EvalDiagnostic, ...] = ()

    def count(self, severity: Severity | None = None) -> int:
        if severity is None:
            return len(self.violations)
        return sum(1 for v in self.violations if v.severity is severity)


# ---------------------------------------------------------------------------
# Shape loading
# ---------------------------------------------------------------------------

_SH_CLASS = SH.term("class")
# The facets that each give one constraint its one value, in the order the
# loader reads them: (facet, constraint class, the field holding the value)
_FACETS = ((SH.minCount, MinCount, "count"), (SH.maxCount, MaxCount, "count"),
           (SH.datatype, Datatype, "datatype"), (_SH_CLASS, ClassConstraint, "cls"))
_FACET_OF = {cls: (facet, field) for facet, cls, field in _FACETS}
_SHAPE_PREDICATES = {RDF.type, SH.targetClass, SH.message, SH.severity,
                     SH.property, SH.sparql}
_PROPERTY_PREDICATES = {SH.path, SH.nodeKind, SH.message, SH.qualifiedValueShape,
                        SH.qualifiedMinCount} | {facet for facet, _, _ in _FACETS}


def _facets(graph: Graph, node: Term) -> dict[Iri, list[Term]]:
    """Each predicate of ``node`` with its objects, in canonical order,
    from one ``match``."""
    facets: dict[Iri, list[Term]] = {}
    for t in graph.match(node):
        facets.setdefault(t.predicate, []).append(t.object)
    return facets


def _supported(facets: dict[Iri, list[Term]], allowed, unsupported) -> None:
    """Raise UnsupportedConstraintError(unsupported(p)) for the first
    predicate ``p`` of ``facets`` outside ``allowed``."""
    for predicate in facets:
        if predicate not in allowed:
            raise UnsupportedConstraintError(unsupported(predicate))


def _single(facets: dict[Iri, list[Term]], predicate: Iri, what: str,
            convert=None, required: bool = True):
    """The one value of ``predicate``, passed through ``convert(value,
    what)`` when given; None when it is absent and not ``required``."""
    values = facets.get(predicate, ())
    if len(values) > 1:
        raise MalformedShapeError(f"{what} has {len(values)} values, expected one")
    if not values:
        if required:
            raise MalformedShapeError(f"{what} is missing")
        return None
    return values[0] if convert is None else convert(values[0], what)


def _message(facets: dict[Iri, list[Term]], label: str) -> str | None:
    """The sh:message a shape, property or query node may carry."""
    return _single(facets, SH.message, f"{label} sh:message", _as_string, required=False)


def _as_int(term: Term, what: str) -> int:
    if not (isinstance(term, Literal) and term.datatype == XSD.integer
            and in_lexical_space(term)):
        raise MalformedShapeError(f"{what} must be an integer literal")
    return int(term.lexical)


def _as_iri(term: Term, what: str) -> Iri:
    if not isinstance(term, Iri):
        raise MalformedShapeError(f"{what} must be an IRI")
    return term


def _as_severity(term: Term, what: str) -> Severity:
    return Severity.from_iri(_as_iri(term, what))


def _as_string(term: Term, what: str) -> str:
    if not isinstance(term, Literal) or term.datatype != XSD.string:
        raise MalformedShapeError(f"{what} must be a string literal")
    return term.lexical


def load_shapes(graph: Graph) -> list[NodeShape]:
    """Extract every node shape from a shapes graph, sorted by IRI.

    Unknown shape or property facets raise UnsupportedConstraintError so
    misspelled vocabulary never silently validates everything.
    """
    shapes = []
    for subject in graph.subjects_of_type(SH.NodeShape):
        if not isinstance(subject, Iri):
            raise MalformedShapeError("node shapes must be named by an IRI")
        shapes.append(_load_shape(graph, subject))
    return shapes


def _load_shape(graph: Graph, iri: Iri) -> NodeShape:
    label = qname(iri)
    facets = _facets(graph, iri)
    _supported(facets, _SHAPE_PREDICATES,
               lambda p: f"{label}: unsupported shape facet {qname(p)}")
    target = _single(facets, SH.targetClass, f"{label} sh:targetClass", _as_iri)
    message = _message(facets, label)
    severity = _single(facets, SH.severity, f"{label} sh:severity", _as_severity,
                       required=False)

    constraints: list[Constraint] = []
    for node in facets.get(SH.property, ()):
        constraints.extend(_load_property(graph, node, label))
    for node in facets.get(SH.sparql, ()):
        constraints.append(_load_sparql(graph, node, label))
    if not constraints:
        raise MalformedShapeError(f"{label} declares no constraints")
    constraints.sort(key=_constraint_sort_key)
    return NodeShape(iri, target, tuple(constraints), severity or Severity.VIOLATION,
                     message)


def _constraint_sort_key(c: Constraint) -> tuple:
    if isinstance(c, SparqlConstraint):
        return (1, "", c.select)
    return (0, c.path.value, type(c).__name__)


def _load_property(graph: Graph, node: Term, label: str) -> list[Constraint]:
    facets = _facets(graph, node)
    _supported(facets, _PROPERTY_PREDICATES,
               lambda p: f"{label}: unsupported property facet {qname(p)}")
    path = _single(facets, SH.path, f"{label} sh:path", _as_iri)
    message = _message(facets, label)

    out: list[Constraint] = []
    for facet, cls, field in _FACETS:
        value = _single(facets, facet, f"{label} {qname(facet)}",
                        _as_int if field == "count" else _as_iri, required=False)
        if value is not None:
            out.append(cls(path, value, message))
    kind = _single(facets, SH.nodeKind, f"{label} sh:nodeKind", required=False)
    if kind is not None:
        if kind != SH.IRI:
            raise UnsupportedConstraintError(
                f"{label}: only sh:IRI node kind is supported")
        out.append(NodeKindIri(path, message))
    qvs = _single(facets, SH.qualifiedValueShape,
                  f"{label} sh:qualifiedValueShape", required=False)
    qmin = _single(facets, SH.qualifiedMinCount,
                   f"{label} sh:qualifiedMinCount", required=False)
    if (qvs is None) != (qmin is None):
        raise MalformedShapeError(
            f"{label}: sh:qualifiedValueShape and sh:qualifiedMinCount go together")
    if qvs is not None:
        qualified = _facets(graph, qvs)
        _supported(qualified, (_SH_CLASS,),
                   lambda p: f"{label}: qualified value shapes support sh:class only")
        cls = _single(qualified, _SH_CLASS, f"{label} qualified sh:class", _as_iri)
        out.append(QualifiedMinCountClass(
            path, cls, _as_int(qmin, f"{label} sh:qualifiedMinCount"), message))
    if not out:
        raise MalformedShapeError(f"{label}: property node declares no constraint")
    return out


def _load_sparql(graph: Graph, node: Term, label: str) -> SparqlConstraint:
    facets = _facets(graph, node)
    if SH.SPARQLConstraint not in facets.get(RDF.type, ()):
        raise MalformedShapeError(f"{label}: sh:sparql node must be a sh:SPARQLConstraint")
    _supported(facets, (RDF.type, SH.select, SH.message),
               lambda p: f"{label}: unsupported query facet {qname(p)}")
    select = _single(facets, SH.select, f"{label} sh:select", _as_string)
    message = _message(facets, label)
    prefixes = dict(STANDARD_PREFIXES)
    prefixes.update(graph.prefixes)
    query = parse_sparql(select, prefixes)
    return SparqlConstraint(select, query, message)


# ---------------------------------------------------------------------------
# Shape emission
# ---------------------------------------------------------------------------

def emit_shapes_graph(shapes: list[NodeShape]) -> Graph:
    """Inverse of load_shapes: render shapes as a graph, one set built
    from each shape's kept triples (``NodeShape._triples``).

    A shape whose IRI the list names again with an equal body is emitted
    once; with an unequal body, ConflictingShapeBodiesError is raised, as
    ``compose`` does, since the two bodies would otherwise share their
    IRI's blank nodes and merge.
    """
    return Graph(_shape_triples(shapes), prefixes=dict(STANDARD_PREFIXES))


def _shape_triples(shapes: Iterable[NodeShape]) -> Iterator[Triple]:
    """The kept triples of each distinct shape of ``shapes``, after the
    check that no IRI is given two bodies (see emit_shapes_graph)."""
    by_iri: dict[str, NodeShape] = {}
    for shape in shapes:
        first = by_iri.setdefault(shape.iri.value, shape)
        if first is not shape and first != shape:
            raise ConflictingShapeBodiesError(
                f"shape {shape.iri.value} is given twice with different bodies")
    return chain.from_iterable(shape._triples for shape in by_iri.values())


def _emitted_triples(shape: NodeShape) -> Iterator[Triple]:
    """The triples of one shape in a shapes graph.

    Nodes follow the order of the shape's constraints, which both
    producers sort. Structural constraints sharing a path and message
    collapse into one property node, the grouping the loader splits
    apart, so that emit(load(emit(x))) is stable. A node is labelled by
    the shape IRI and the index of its first constraint: ``<iri>#p003``
    for a property node (``<iri>#p003q`` for its qualified value shape)
    and ``<iri>#q004`` for a query node, so equal shapes give equal
    triples wherever they stand. The default severity is left implicit
    rather than asserted.
    """
    iri = shape.iri
    yield Triple(iri, RDF.type, SH.NodeShape)
    yield Triple(iri, SH.targetClass, shape.target_class)
    if shape.message is not None:
        yield Triple(iri, SH.message, Literal(shape.message))
    if shape.severity is not Severity.VIOLATION:
        yield Triple(iri, SH.severity, shape.severity.iri)
    # (path, message) -> the property node of the constraints sharing them
    nodes: dict[tuple, BlankNode] = {}
    for j, c in enumerate(shape.constraints):
        if isinstance(c, SparqlConstraint):
            node = BlankNode(f"<{iri.value}>#q{j:03d}")
            yield Triple(iri, SH.sparql, node)
            yield Triple(node, RDF.type, SH.SPARQLConstraint)
            yield Triple(node, SH.select, Literal(c.select))
        elif (c.path.value, c.message) in nodes:
            node = nodes[c.path.value, c.message]
        else:
            node = nodes[c.path.value, c.message] = BlankNode(f"<{iri.value}>#p{j:03d}")
            yield Triple(iri, SH.property, node)
            yield Triple(node, SH.path, c.path)
        if c.message is not None:
            yield Triple(node, SH.message, Literal(c.message))
        if type(c) in _FACET_OF:
            facet, field = _FACET_OF[type(c)]
            value = getattr(c, field)
            yield Triple(node, facet, Literal(str(value), XSD.integer)
                         if field == "count" else value)
        elif isinstance(c, NodeKindIri):
            yield Triple(node, SH.nodeKind, SH.IRI)
        elif isinstance(c, QualifiedMinCountClass):
            qvs = BlankNode(f"{node.label}q")
            yield Triple(node, SH.qualifiedValueShape, qvs)
            yield Triple(qvs, _SH_CLASS, c.cls)
            yield Triple(node, SH.qualifiedMinCount, Literal(str(c.count), XSD.integer))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def focus_nodes(graph: Graph, shape: NodeShape) -> list[Term]:
    """Instances of the shape's target class, canonical order."""
    return graph.subjects_of_type(shape.target_class)


def _is_instance(graph: Graph, value: Term, cls: Iri) -> bool:
    return not isinstance(value, Literal) and bool(graph.match(value, RDF.type, cls))


# A check appends a constraint's violations on one focus node to a list:
# check(graph, focus, diagnostics, out).
Check = Callable[[Graph, Term, "list[EvalDiagnostic]", "list[Violation]"], None]


def _constraint_check(shape: NodeShape, c: Constraint) -> Check:
    """The check of constraint ``c`` of ``shape``, with its family
    dispatched and its message resolved here, once.

    A query constraint reports each solution of its query, even two that
    project to one row (W3C SHACL §5.3). A count constraint reads the
    focus node's path triples and reports the node once, with no value;
    any other structural constraint reports each value of the path that
    fails its test.
    """
    iri, severity, message = shape.iri, shape.severity, shape.constraint_message(c)
    if isinstance(c, SparqlConstraint):
        query = c.query

        def check_query(graph, focus, diagnostics, out):
            for row in evaluate(query, graph, focus, diagnostics):
                out.append(Violation(iri, row["this"], message, severity, None,
                                     row.get("value")))
        return check_query
    path = c.path
    if isinstance(c, (Datatype, ClassConstraint, NodeKindIri)):
        if isinstance(c, Datatype):
            datatype = c.datatype

            def accepts(graph, value):
                return (isinstance(value, Literal) and value.datatype == datatype
                        and value.language is None)
        elif isinstance(c, ClassConstraint):
            cls = c.cls

            def accepts(graph, value):
                return _is_instance(graph, value, cls)
        else:
            def accepts(graph, value):
                return isinstance(value, Iri)

        def check_values(graph, focus, diagnostics, out):
            for t in graph.match(focus, path):
                if not accepts(graph, t.object):
                    out.append(Violation(iri, focus, message, severity, path, t.object))
        return check_values
    count = c.count
    if isinstance(c, MinCount):
        def fails(graph, triples):
            return len(triples) < count
    elif isinstance(c, MaxCount):
        def fails(graph, triples):
            return len(triples) > count
    else:  # QualifiedMinCountClass
        cls = c.cls

        def fails(graph, triples):
            return sum(_is_instance(graph, t.object, cls) for t in triples) < count

    def check_count(graph, focus, diagnostics, out):
        if fails(graph, graph.match(focus, path)):
            out.append(Violation(iri, focus, message, severity, path, None))
    return check_count


def shape_violations(shape: NodeShape, graph: Graph,
                     diagnostics: list[EvalDiagnostic]) -> list[Violation]:
    """One shape's violations, focus node by focus node and constraint by
    constraint, unsorted; each solution a type error eliminated is
    appended to ``diagnostics``. A query that builds too many solutions
    raises TooManySolutionsError naming the shape."""
    checks = shape._plan
    found: list[Violation] = []
    try:
        for focus in focus_nodes(graph, shape):
            for check in checks:
                check(graph, focus, diagnostics, found)
    except TooManySolutionsError as exc:
        raise TooManySolutionsError(f"shape <{shape.iri.value}>: {exc}") from None
    return found


def validate(shapes: list[NodeShape], graph: Graph) -> ValidationReport:
    """Validate an evidence graph against shapes.

    Deterministic: results come back sorted by (shape, focus, path,
    message, value). Conformance follows the usual rule: warnings and
    infos do not block it, violations do.
    """
    start = time.perf_counter()
    diagnostics: list[EvalDiagnostic] = []
    violations = _in_report_order(v for shape in shapes
                                  for v in shape_violations(shape, graph, diagnostics))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    conforms = not any(v.severity is Severity.VIOLATION for v in violations)
    return ValidationReport(conforms, tuple(violations), elapsed_ms, tuple(diagnostics))


# ---------------------------------------------------------------------------
# Report graphs
# ---------------------------------------------------------------------------

def emit_report_graph(report: ValidationReport) -> Graph:
    """Render a report as a graph using the standard report vocabulary.

    A conforming report is exactly two triples. Blank node labels are
    local to the produced graph.
    """
    root = BlankNode("report")
    triples = [Triple(root, RDF.type, SH.ValidationReport),
               Triple(root, SH.conforms,
                      Literal("true" if report.conforms else "false", XSD.boolean))]
    for i, v in enumerate(report.violations):
        node = BlankNode(f"result{i:03d}")
        triples += (Triple(root, SH.result, node),
                    Triple(node, RDF.type, SH.ValidationResult),
                    Triple(node, SH.focusNode, v.focus_node),
                    Triple(node, SH.sourceShape, v.source_shape),
                    Triple(node, SH.resultSeverity, v.severity.iri),
                    Triple(node, SH.resultMessage, Literal(v.message)))
        if v.path is not None:
            triples.append(Triple(node, SH.resultPath, v.path))
        if v.value is not None:
            triples.append(Triple(node, SH.value, v.value))
    return Graph(triples, prefixes=STANDARD_PREFIXES)


def read_report(graph: Graph) -> ValidationReport:
    """Inverse of emit_report_graph, up to elapsed time and diagnostics."""
    roots = graph.subjects_of_type(SH.ValidationReport)
    if len(roots) != 1:
        raise MalformedShapeError(f"expected one report node, found {len(roots)}")
    root = _facets(graph, roots[0])
    conforms_term = _single(root, SH.conforms, "sh:conforms")
    if not (isinstance(conforms_term, Literal)
            and conforms_term.datatype == XSD.boolean):
        raise MalformedShapeError("sh:conforms must be a boolean literal")
    violations = []
    for node in root.get(SH.result, ()):
        facets = _facets(graph, node)
        focus = _single(facets, SH.focusNode, "sh:focusNode")
        source = _single(facets, SH.sourceShape, "sh:sourceShape", _as_iri)
        severity = _single(facets, SH.resultSeverity, "sh:resultSeverity", _as_severity)
        message = _single(facets, SH.resultMessage, "sh:resultMessage", _as_string)
        path = _single(facets, SH.resultPath, "sh:resultPath", required=False)
        value = _single(facets, SH.value, "sh:value", required=False)
        violations.append(Violation(
            source, focus, message, severity,
            None if path is None else _as_iri(path, "sh:resultPath"), value))
    return ValidationReport(conforms_term.lexical == "true",
                            tuple(_in_report_order(violations)))
