"""Shape loading and evidence-graph validation.

Shapes are node shapes with a single target class. Two constraint
families are supported:

  structural  cardinality (min/max), datatype, value class, IRI node
              kind, and class-qualified minimum cardinality, all over a
              single predicate path
  query       a SELECT constraint whose solutions denote violating
              focus nodes (the restricted fragment in ``sparql``)

Validation walks shapes in IRI order, their target instances in
canonical term order, and reports results sorted on a stable key, so a
report is a pure function of (shapes, data). No inference is applied:
instances must be explicitly typed with the target class.
"""

from __future__ import annotations

import enum
import time

from ._record import Record
from .errors import MalformedShapeError, UnsupportedConstraintError
from .rdf import (RDF, SH, STANDARD_PREFIXES, XSD, BlankNode, Graph, Iri,
                  Literal, Term, Triple, in_lexical_space, term_sort_key)
from .sparql import EvalDiagnostic, SparqlQuery, evaluate, parse_sparql


def qname(iri: Iri) -> str:
    """Compact rendering for messages and reports, standard prefixes only."""
    for label, ns in STANDARD_PREFIXES.items():
        if iri.value.startswith(ns):
            return f"{label}:{iri.value[len(ns):]}"
    return f"<{iri.value}>"


_SEVERITY_RANKS = {"Info": 0, "Warning": 1, "Violation": 2}


class Severity(enum.Enum):
    """Result severity, ordered Info < Warning < Violation."""

    INFO = "Info"
    WARNING = "Warning"
    VIOLATION = "Violation"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANKS[self.value]

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
        return self.rank < other.rank


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


def _single(graph: Graph, subject: Term, predicate: Iri, what: str,
            required: bool = True) -> Term | None:
    values = [t.object for t in graph.match(subject, predicate)]
    if len(values) > 1:
        raise MalformedShapeError(f"{what} has {len(values)} values, expected one")
    if not values:
        if required:
            raise MalformedShapeError(f"{what} is missing")
        return None
    return values[0]


def _as_int(term: Term, what: str) -> int:
    if not (isinstance(term, Literal) and term.datatype == XSD.integer
            and in_lexical_space(term)):
        raise MalformedShapeError(f"{what} must be an integer literal")
    return int(term.lexical)


def _as_iri(term: Term | None, what: str) -> Iri:
    if not isinstance(term, Iri):
        raise MalformedShapeError(f"{what} must be an IRI")
    return term


def _as_string(term: Term | None, what: str) -> str:
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
    for t in graph.match(iri):
        if t.predicate not in _SHAPE_PREDICATES:
            raise UnsupportedConstraintError(
                f"{label}: unsupported shape facet {qname(t.predicate)}")
    target = _as_iri(_single(graph, iri, SH.targetClass, f"{label} sh:targetClass"),
                     f"{label} sh:targetClass")
    message_term = _single(graph, iri, SH.message, f"{label} sh:message", required=False)
    message = _as_string(message_term, f"{label} sh:message") if message_term else None
    sev_term = _single(graph, iri, SH.severity, f"{label} sh:severity", required=False)
    severity = Severity.from_iri(_as_iri(sev_term, f"{label} sh:severity")) \
        if sev_term else Severity.VIOLATION

    constraints: list[Constraint] = []
    for t in graph.match(iri, SH.property):
        constraints.extend(_load_property(graph, t.object, label))
    for t in graph.match(iri, SH.sparql):
        constraints.append(_load_sparql(graph, t.object, label))
    if not constraints:
        raise MalformedShapeError(f"{label} declares no constraints")
    constraints.sort(key=_constraint_sort_key)
    return NodeShape(iri, target, tuple(constraints), severity, message)


def _constraint_sort_key(c: Constraint) -> tuple:
    if isinstance(c, SparqlConstraint):
        return (1, "", c.select)
    return (0, c.path.value, type(c).__name__)


def _load_property(graph: Graph, node: Term, label: str) -> list[Constraint]:
    for t in graph.match(node):
        if t.predicate not in _PROPERTY_PREDICATES:
            raise UnsupportedConstraintError(
                f"{label}: unsupported property facet {qname(t.predicate)}")
    path = _as_iri(_single(graph, node, SH.path, f"{label} sh:path"),
                   f"{label} sh:path")
    msg_term = _single(graph, node, SH.message, f"{label} sh:message", required=False)
    message = _as_string(msg_term, f"{label} sh:message") if msg_term else None

    out: list[Constraint] = []
    for facet, cls, field in _FACETS:
        what = f"{label} {qname(facet)}"
        term = _single(graph, node, facet, what, required=False)
        if term is not None:
            value = _as_int(term, what) if field == "count" else _as_iri(term, what)
            out.append(cls(path, value, message))
    term = _single(graph, node, SH.nodeKind, f"{label} sh:nodeKind", required=False)
    if term is not None:
        if term != SH.IRI:
            raise UnsupportedConstraintError(
                f"{label}: only sh:IRI node kind is supported")
        out.append(NodeKindIri(path, message))
    qvs = _single(graph, node, SH.qualifiedValueShape,
                  f"{label} sh:qualifiedValueShape", required=False)
    qmin = _single(graph, node, SH.qualifiedMinCount,
                   f"{label} sh:qualifiedMinCount", required=False)
    if (qvs is None) != (qmin is None):
        raise MalformedShapeError(
            f"{label}: sh:qualifiedValueShape and sh:qualifiedMinCount go together")
    if qvs is not None:
        for t in graph.match(qvs):
            if t.predicate != _SH_CLASS:
                raise UnsupportedConstraintError(
                    f"{label}: qualified value shapes support sh:class only")
        cls = _as_iri(_single(graph, qvs, _SH_CLASS, f"{label} qualified sh:class"),
                      f"{label} qualified sh:class")
        out.append(QualifiedMinCountClass(
            path, cls, _as_int(qmin, f"{label} sh:qualifiedMinCount"), message))
    if not out:
        raise MalformedShapeError(f"{label}: property node declares no constraint")
    return out


def _load_sparql(graph: Graph, node: Term, label: str) -> SparqlConstraint:
    types = [t.object for t in graph.match(node, RDF.type)]
    if SH.SPARQLConstraint not in types:
        raise MalformedShapeError(f"{label}: sh:sparql node must be a sh:SPARQLConstraint")
    for t in graph.match(node):
        if t.predicate not in (RDF.type, SH.select, SH.message):
            raise UnsupportedConstraintError(
                f"{label}: unsupported query facet {qname(t.predicate)}")
    select = _as_string(_single(graph, node, SH.select, f"{label} sh:select"),
                        f"{label} sh:select")
    msg_term = _single(graph, node, SH.message, f"{label} sh:message", required=False)
    message = _as_string(msg_term, f"{label} sh:message") if msg_term else None
    prefixes = dict(STANDARD_PREFIXES)
    prefixes.update(graph.prefixes)
    query = parse_sparql(select, prefixes)
    return SparqlConstraint(select, query, message)


# ---------------------------------------------------------------------------
# Shape emission
# ---------------------------------------------------------------------------

def emit_shapes_graph(shapes: list[NodeShape],
                      prefixes: dict[str, str] | None = None) -> Graph:
    """Inverse of load_shapes: render shapes as a graph.

    Structural constraints sharing a path and message collapse into one
    property node, the grouping the loader splits apart, so that
    emit(load(emit(x))) is stable. The default severity is left implicit
    rather than asserted.
    """
    g = Graph(prefixes=dict(prefixes or STANDARD_PREFIXES))
    for i, shape in enumerate(shapes):
        g.add(Triple(shape.iri, RDF.type, SH.NodeShape))
        g.add(Triple(shape.iri, SH.targetClass, shape.target_class))
        if shape.message is not None:
            g.add(Triple(shape.iri, SH.message, Literal(shape.message)))
        if shape.severity is not Severity.VIOLATION:
            g.add(Triple(shape.iri, SH.severity, shape.severity.iri))
        groups: dict[tuple, list[Constraint]] = {}
        queries: list[SparqlConstraint] = []
        for c in shape.constraints:
            if isinstance(c, SparqlConstraint):
                queries.append(c)
            else:
                groups.setdefault((c.path.value, c.message), []).append(c)
        for j, key in enumerate(sorted(groups, key=lambda k: (k[0], k[1] or ""))):
            node = BlankNode(f"s{i:03d}p{j:03d}")
            g.add(Triple(shape.iri, SH.property, node))
            members = groups[key]
            g.add(Triple(node, SH.path, members[0].path))
            if members[0].message is not None:
                g.add(Triple(node, SH.message, Literal(members[0].message)))
            for c in members:
                if type(c) in _FACET_OF:
                    facet, field = _FACET_OF[type(c)]
                    value = getattr(c, field)
                    g.add(Triple(node, facet, Literal(str(value), XSD.integer)
                                 if field == "count" else value))
                elif isinstance(c, NodeKindIri):
                    g.add(Triple(node, SH.nodeKind, SH.IRI))
                elif isinstance(c, QualifiedMinCountClass):
                    qvs = BlankNode(f"s{i:03d}p{j:03d}q")
                    g.add(Triple(node, SH.qualifiedValueShape, qvs))
                    g.add(Triple(qvs, _SH_CLASS, c.cls))
                    g.add(Triple(node, SH.qualifiedMinCount,
                                 Literal(str(c.count), XSD.integer)))
        for j, c in enumerate(sorted(queries, key=lambda q: q.select)):
            node = BlankNode(f"s{i:03d}q{j:03d}")
            g.add(Triple(shape.iri, SH.sparql, node))
            g.add(Triple(node, RDF.type, SH.SPARQLConstraint))
            g.add(Triple(node, SH.select, Literal(c.select)))
            if c.message is not None:
                g.add(Triple(node, SH.message, Literal(c.message)))
    return g


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def focus_nodes(graph: Graph, shape: NodeShape) -> list[Term]:
    """Instances of the shape's target class, canonical order."""
    return graph.subjects_of_type(shape.target_class)


def _is_instance(graph: Graph, value: Term, cls: Iri) -> bool:
    return not isinstance(value, Literal) and bool(graph.match(value, RDF.type, cls))


def _failures(constraint: Constraint, graph: Graph, focus: Term,
              triples: list[Triple]) -> list[tuple[Term, Iri, Term | None]]:
    """(focus, path, value) for each way a structural constraint fails on
    the focus node's path triples; the value is None where a count fails."""
    path = constraint.path
    if isinstance(constraint, MinCount):
        failed = len(triples) < constraint.count
    elif isinstance(constraint, MaxCount):
        failed = len(triples) > constraint.count
    elif isinstance(constraint, QualifiedMinCountClass):
        failed = sum(_is_instance(graph, t.object, constraint.cls)
                     for t in triples) < constraint.count
    elif isinstance(constraint, Datatype):
        return [(focus, path, t.object) for t in triples
                if not (isinstance(t.object, Literal)
                        and t.object.datatype == constraint.datatype
                        and t.object.language is None)]
    elif isinstance(constraint, ClassConstraint):
        return [(focus, path, t.object) for t in triples
                if not _is_instance(graph, t.object, constraint.cls)]
    else:  # NodeKindIri
        return [(focus, path, t.object) for t in triples if not isinstance(t.object, Iri)]
    return [(focus, path, None)] if failed else []


def _check(constraint: Constraint, shape: NodeShape, graph: Graph, focus: Term,
           diagnostics: list[EvalDiagnostic]) -> list[Violation]:
    if isinstance(constraint, SparqlConstraint):
        found = [(row["this"], None, row.get("value"))
                 for row in evaluate(constraint.query, graph, focus, diagnostics)]
    else:
        found = _failures(constraint, graph, focus, graph.match(focus, constraint.path))
    if not found:
        return []
    message = shape.constraint_message(constraint)
    return [Violation(shape.iri, node, message, shape.severity, path, value)
            for node, path, value in found]


def _unsorted_violations(shape: NodeShape, graph: Graph,
                         diagnostics: list[EvalDiagnostic]):
    """One shape's violations, focus node by focus node; the callers sort."""
    for focus in focus_nodes(graph, shape):
        for constraint in shape.constraints:
            yield from _check(constraint, shape, graph, focus, diagnostics)


def shape_violations(shape: NodeShape, graph: Graph,
                     diagnostics: list[EvalDiagnostic]) -> list[Violation]:
    """One shape's violations in ``validate``'s order; each solution a
    type error eliminated is appended to ``diagnostics``."""
    return sorted(_unsorted_violations(shape, graph, diagnostics),
                  key=_violation_sort_key)


def validate(shapes: list[NodeShape], graph: Graph) -> ValidationReport:
    """Validate an evidence graph against shapes.

    Deterministic: results come back sorted by (shape, focus, path,
    message, value). Conformance follows the usual rule: warnings and
    infos do not block it, violations do.
    """
    start = time.perf_counter()
    violations: list[Violation] = []
    diagnostics: list[EvalDiagnostic] = []
    for shape in shapes:
        violations.extend(_unsorted_violations(shape, graph, diagnostics))
    violations.sort(key=_violation_sort_key)
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
    g = Graph(prefixes=dict(STANDARD_PREFIXES))
    root = BlankNode("report")
    g.add(Triple(root, RDF.type, SH.ValidationReport))
    g.add(Triple(root, SH.conforms,
                 Literal("true" if report.conforms else "false", XSD.boolean)))
    for i, v in enumerate(report.violations):
        node = BlankNode(f"result{i:03d}")
        g.add(Triple(root, SH.result, node))
        g.add(Triple(node, RDF.type, SH.ValidationResult))
        g.add(Triple(node, SH.focusNode, v.focus_node))
        g.add(Triple(node, SH.sourceShape, v.source_shape))
        g.add(Triple(node, SH.resultSeverity, v.severity.iri))
        g.add(Triple(node, SH.resultMessage, Literal(v.message)))
        if v.path is not None:
            g.add(Triple(node, SH.resultPath, v.path))
        if v.value is not None:
            g.add(Triple(node, SH.value, v.value))
    return g


def read_report(graph: Graph) -> ValidationReport:
    """Inverse of emit_report_graph, up to elapsed time and diagnostics."""
    roots = graph.subjects_of_type(SH.ValidationReport)
    if len(roots) != 1:
        raise MalformedShapeError(f"expected one report node, found {len(roots)}")
    root = roots[0]
    conforms_term = _single(graph, root, SH.conforms, "sh:conforms")
    if not (isinstance(conforms_term, Literal)
            and conforms_term.datatype == XSD.boolean):
        raise MalformedShapeError("sh:conforms must be a boolean literal")
    violations = []
    for t in graph.match(root, SH.result):
        node = t.object
        focus = _single(graph, node, SH.focusNode, "sh:focusNode")
        source = _as_iri(_single(graph, node, SH.sourceShape, "sh:sourceShape"),
                         "sh:sourceShape")
        sev = Severity.from_iri(_as_iri(
            _single(graph, node, SH.resultSeverity, "sh:resultSeverity"),
            "sh:resultSeverity"))
        message = _as_string(_single(graph, node, SH.resultMessage, "sh:resultMessage"),
                             "sh:resultMessage")
        path_term = _single(graph, node, SH.resultPath, "sh:resultPath", required=False)
        value_term = _single(graph, node, SH.value, "sh:value", required=False)
        violations.append(Violation(
            source, focus, message, sev,
            _as_iri(path_term, "sh:resultPath") if path_term is not None else None,
            value_term))
    violations.sort(key=_violation_sort_key)
    return ValidationReport(conforms_term.lexical == "true", tuple(violations))
