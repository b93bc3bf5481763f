"""Obligation records and their deterministic compilation into shapes.

A block source file is a YAML sequence of flat obligation records. Each
record names a target class and describes one constraint, either
structural (a required relation, optionally refined by a datatype or a
required value class) or a query (an embedded SELECT constraint). The
compiler maps every record to exactly one node shape and assembles the
block five-tuple: obligation ids, a concept schema, the shapes, the
evidence requirements they induce, and the provenance predicates they
touch.

Compilation is a pure function: the same records produce byte-identical
canonical output, whatever their input order.

The layout the bundled blocks use is read directly, without PyYAML:
records opened by ``- key: value`` and continued by ``  key: value``,
whose values are plain words or numbers, or query texts in ``key: |-``
literal blocks (``_read_flat`` gives the exact rules). A source spelled
any other way is read by PyYAML, imported on first use, and gives the
same records it always did.
"""

from __future__ import annotations

import re

from ._record import Record
from .errors import DuplicateIdError, SchemaError, UnknownPrefixError
from .rdf import (_IRIREF_RE, _SCHEME_RE, EX, PROV, RDF, RDFS, STANDARD_PREFIXES,
                  Graph, Iri, Triple, _iri_text, union)
from .shacl import (Constraint, Datatype, MinCount, NodeShape,
                    QualifiedMinCountClass, Severity, SparqlConstraint,
                    _constraint_sort_key, emit_shapes_graph)
from .sparql import SparqlQuery, TriplePattern, Var, parse_sparql

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_THRESHOLD_PLACEHOLDER = "{{threshold}}"

_FIELDS = {
    "obligation_id", "target_class", "constraint_type", "relation",
    "datatype", "value_class", "min_count", "sparql_text", "threshold_ref",
    "severity", "message",
}
_STRUCTURAL_ONLY = {"relation", "datatype", "value_class", "min_count"}
_SPARQL_ONLY = {"sparql_text", "threshold_ref"}

# PyYAML's loader class for the sources _read_flat declines; None stands
# for libyaml's parser when PyYAML was built with it, PyYAML's own
# otherwise. Both construct through SafeConstructor with the same
# resolver; libyaml also takes the tabs YAML 1.1 allows inside plain
# scalars, which PyYAML's own scanner rejects.
_LOADER = None


def merge_severity(a: Severity, b: Severity) -> Severity:
    """The stricter of two severities (Violation > Warning > Info)."""
    return max(a, b)


class IrRecord(Record):
    """One obligation: a target class plus a single constraint description.

    ``sparql_text`` is stored post-substitution, so it always parses on
    its own. The attribute ``query`` is that parse, made once when the
    record is built (None when there is no text); it is not a field, so
    ``==``, ``hash`` and ``repr`` leave it out.
    """

    obligation_id: str
    target_class: Iri
    constraint_type: str  # structural | sparql
    message: str
    severity: Severity = Severity.VIOLATION
    relation: Iri | None = None
    datatype: Iri | None = None
    value_class: Iri | None = None
    min_count: int = 1
    sparql_text: str | None = None
    threshold_ref: Iri | None = None

    def __post_init__(self):
        # syntax and scope errors propagate
        query = None if self.sparql_text is None else parse_sparql(self.sparql_text)
        object.__setattr__(self, "query", query)


def _resolve_name(value: str, where: str) -> Iri:
    """Resolve a prefixed name or absolute IRI reference.

    The result must be an IRI the Turtle reader accepts between ``<`` and
    ``>``, so that compiled blocks always read back.
    """
    if value.startswith("<") and value.endswith(">"):
        iri = value[1:-1]
    elif ":" not in value:
        raise SchemaError(f"{where}: {value!r} is not a prefixed name or IRI")
    elif _SCHEME_RE.match(value) and value.split(":", 1)[1].startswith("//"):
        iri = value  # already an absolute IRI like http://...
    else:
        prefix, local = value.split(":", 1)
        if prefix not in STANDARD_PREFIXES:
            raise UnknownPrefixError(f"{where}: unknown prefix {prefix!r} in {value!r}")
        iri = STANDARD_PREFIXES[prefix] + local
    if not (_SCHEME_RE.match(iri) and _IRIREF_RE.fullmatch(iri)):
        raise SchemaError(f"{where}: {value!r} is not a valid absolute IRI")
    return Iri(iri)


def _need_str(item: dict, key: str, where: str) -> str:
    value = item.get(key)
    if not isinstance(value, str) or not value.strip():
        raise SchemaError(f"{where}: field {key!r} must be a non-empty string")
    return value


def _name(item: dict, key: str, where: str, required: bool = True) -> Iri | None:
    """The IRI that field ``key`` names; None when it is absent and not
    ``required``."""
    if not required and key not in item:
        return None
    return _resolve_name(_need_str(item, key, where), f"{where} {key}")


# The flat layout _read_flat reads: a field line, and the plain values
# YAML 1.1 resolves to a bool or a null rather than a string
# (https://yaml.org/type/bool.html, https://yaml.org/type/null.html).
_FLAT_LINE_RE = re.compile(r"(- |  )(\w+): (.*)")
_DECIMAL_RE = re.compile(r"0|[1-9][0-9]*")
_YAML_WORDS = {form for word in ("yes", "no", "true", "false", "on", "off", "null")
               for form in (word, word.title(), word.upper())}


def _read_flat(text: str) -> list[dict] | None:
    """The records of a source in the flat layout the bundled blocks use,
    equal in value and type to those PyYAML builds from it; None when the
    text leaves that layout anywhere, so PyYAML must read it.

    The text holds only newlines and printable ASCII. Each line is empty,
    a comment from column 0, ``[]`` alone (the empty list, and the only
    content of its text), or a field: ``- key: value`` opens a record and
    ``  key: value`` continues it, with each key one of ``_FIELDS`` and
    once per record. A value is an int when it is a decimal numeral with
    no sign or leading zero. Otherwise it is a string when it starts with
    a letter, is none of YAML 1.1's bool and null words, holds no ``": "``
    or ``" #"`` and ends in neither ``:`` nor a space. ``key: |-`` opens a
    literal block of lines indented as deep as its first, which is not
    blank, and at least three spaces: it keeps its empty lines but the
    trailing ones and ends at the first non-empty line indented less. A
    line of spaces alone is read nowhere.
    """
    lines = text.split("\n")
    if not (text.isascii() and all(map(str.isprintable, lines))):
        return None
    records: list[dict] = []
    empty_list = False
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line or line[0] == "#":
            continue
        if line == "[]" and not (records or empty_list):
            empty_list = True
            continue
        match = _FLAT_LINE_RE.fullmatch(line)
        if match is None or empty_list:
            return None
        lead, key, value = match.groups()
        if lead == "- ":
            records.append({})
        elif not records:
            return None
        record = records[-1]
        if key not in _FIELDS or key in record:
            return None
        if value == "|-":
            first = lines[i] if i < len(lines) else ""
            indent = len(first) - len(first.lstrip(" "))
            if indent < 3 or indent == len(first):
                return None
            pad, body = first[:indent], []
            while i < len(lines) and (not lines[i] or lines[i].startswith(pad)):
                if lines[i].isspace():
                    return None
                body.append(lines[i][indent:])
                i += 1
            while not body[-1]:
                body.pop()
            value = "\n".join(body)
        elif _DECIMAL_RE.fullmatch(value):
            value = int(value)
        elif not (value[:1].isalpha() and value not in _YAML_WORDS
                  and ": " not in value and " #" not in value and value[-1] not in ": "):
            return None
        record[key] = value
    return records if records or empty_list else None


_TAG = "tag:yaml.org,2002:"
_EXPLICIT_TAGS = {_TAG + "str", _TAG + "int", _TAG + "float"}
_COLLECTION_TAGS = {_TAG + "seq", _TAG + "map"}


def _reject_explicit_tags(loader, root) -> None:
    """Stop explicit tags other than !!str, !!int and !!float before
    construction: SafeConstructor crashes on values such as
    ``!!timestamp x`` or ``!!bool x``. A tag that restates the one the
    value resolves to anyway changes nothing and passes."""
    import yaml

    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, yaml.ScalarNode):
            # plain style is None under PyYAML's parser and "" under libyaml's
            allowed = node.tag in _EXPLICIT_TAGS or (
                not node.style
                and node.tag == loader.resolve(yaml.ScalarNode, node.value, (True, False)))
        elif id(node) in seen:  # an alias, possibly of an enclosing node
            continue
        else:
            seen.add(id(node))
            allowed = node.tag in _COLLECTION_TAGS
            stack.extend(node.value if isinstance(node, yaml.SequenceNode)
                         else (n for pair in node.value for n in pair))
        if not allowed:
            raise SchemaError(f"not parseable as YAML: explicit tag {node.tag!r} "
                              f"on line {node.start_mark.line + 1} is not allowed")


def _load(text: str):
    """``yaml.load`` with the tags checked between composing and
    constructing, for the sources ``_read_flat`` declines. PyYAML is
    imported here, so a run that reads only the flat layout never loads
    it."""
    import yaml

    loader_class = _LOADER or (yaml.CSafeLoader if yaml.__with_libyaml__
                               else yaml.SafeLoader)
    try:
        loader = loader_class(text)
        try:
            node = loader.get_single_node()
            if node is None:  # an empty document
                return None
            _reject_explicit_tags(loader, node)
            return loader.construct_document(node)
        finally:
            loader.dispose()
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: libyaml cannot encode a lone surrogate, and
        # SafeConstructor rejects values such as a 13th month this way
        raise SchemaError(f"not parseable as YAML: {exc}") from exc
    except RecursionError:
        raise SchemaError("not parseable as YAML: nesting too deep") from None


def parse_ir(text: str) -> list[IrRecord]:
    """Parse a block source into records, in file order.

    The accepted YAML is deliberately flat: a top-level sequence of
    mappings whose values are scalars (multi-line query text via a
    literal block scalar). Anything else is a schema error, as is a
    duplicated obligation id. ``_read_flat`` reads the layout the bundled
    blocks use, and PyYAML every other spelling.
    """
    doc = _read_flat(text)
    if doc is None:
        doc = _load(text)
    if doc is None:
        return []
    if not isinstance(doc, list):
        raise SchemaError("block source must be a sequence of records")
    records: list[IrRecord] = []
    seen: dict[str, int] = {}
    for index, item in enumerate(doc):
        where = f"record {index}"
        if not isinstance(item, dict):
            raise SchemaError(f"{where}: expected a mapping")
        for key, value in item.items():
            if key not in _FIELDS:
                raise SchemaError(f"{where}: unknown field {key!r}")
            if not isinstance(value, (str, int, float)) or isinstance(value, bool):
                raise SchemaError(f"{where}: field {key!r} must be a scalar")
        record = _build_record(item, where)
        if record.obligation_id in seen:
            raise DuplicateIdError(
                f"duplicate obligation_id {record.obligation_id!r} "
                f"(records {seen[record.obligation_id]} and {index})")
        seen[record.obligation_id] = index
        records.append(record)
    return records


def _build_record(item: dict, where: str) -> IrRecord:
    obligation_id = _need_str(item, "obligation_id", where)
    if not _ID_RE.fullmatch(obligation_id):
        raise SchemaError(f"{where}: obligation_id {obligation_id!r} "
                          "must be a plain identifier")
    where = f"record {obligation_id!r}"
    target_class = _name(item, "target_class", where)
    constraint_type = _need_str(item, "constraint_type", where)
    if constraint_type not in ("structural", "sparql"):
        raise SchemaError(f"{where}: constraint_type must be "
                          f"'structural' or 'sparql', got {constraint_type!r}")
    message = _need_str(item, "message", where)
    severity = Severity.VIOLATION
    if "severity" in item:
        name = _need_str(item, "severity", where)
        if name not in ("Violation", "Warning", "Info"):
            raise SchemaError(f"{where}: severity must be Violation, "
                              f"Warning or Info, got {name!r}")
        severity = Severity.from_name(name)

    wrong_family = (_SPARQL_ONLY if constraint_type == "structural"
                    else _STRUCTURAL_ONLY)
    for key in sorted(wrong_family & set(item)):
        raise SchemaError(f"{where}: field {key!r} does not apply to "
                          f"{constraint_type} records")

    if constraint_type == "structural":
        relation = _name(item, "relation", where)
        datatype = _name(item, "datatype", where, required=False)
        value_class = _name(item, "value_class", where, required=False)
        min_count = 1
        if "min_count" in item:
            if not isinstance(item["min_count"], int) or item["min_count"] < 0:
                raise SchemaError(f"{where}: min_count must be a "
                                  "non-negative integer")
            min_count = item["min_count"]
        return IrRecord(obligation_id, target_class, "structural", message,
                        severity, relation=relation, datatype=datatype,
                        value_class=value_class, min_count=min_count)

    sparql_text = _need_str(item, "sparql_text", where)
    threshold_ref = _name(item, "threshold_ref", where, required=False)
    if _THRESHOLD_PLACEHOLDER in sparql_text:
        if threshold_ref is None:
            raise SchemaError(f"{where}: query uses {_THRESHOLD_PLACEHOLDER} "
                              "but no threshold_ref is given")
        # the standard namespaces do not nest, so their order does not matter
        text, _ = _iri_text(threshold_ref.value, STANDARD_PREFIXES.items())
        sparql_text = sparql_text.replace(_THRESHOLD_PLACEHOLDER, text)
    return IrRecord(obligation_id, target_class, "sparql", message, severity,
                    sparql_text=sparql_text, threshold_ref=threshold_ref)


# ---------------------------------------------------------------------------
# Knowledge blocks
# ---------------------------------------------------------------------------

class KnowledgeBlock(Record):
    """⟨obligations, concepts, shapes, evidence requirements, provenance⟩.

    Unhashable, because its concept ``Graph`` is."""

    name: str
    obligations: frozenset[str]
    concepts: Graph
    shapes: tuple[NodeShape, ...]
    evidence_requirements: frozenset[tuple[Iri, Iri]]
    provenance_links: frozenset[Iri]

    def shapes_graph(self) -> Graph:
        return emit_shapes_graph(list(self.shapes))

    def document_graph(self) -> Graph:
        """Shapes plus concept declarations, the on-disk block content."""
        return union(self.shapes_graph(), self.concepts)


def empty_block(name: str = "empty") -> KnowledgeBlock:
    return KnowledgeBlock(name, frozenset(), Graph(prefixes=dict(STANDARD_PREFIXES)),
                          (), frozenset(), frozenset())


def _record_shape(record: IrRecord) -> NodeShape:
    iri = EX.term(record.obligation_id + "Shape")
    constraints: list[Constraint] = []
    if record.constraint_type == "structural":
        constraints.append(MinCount(record.relation, record.min_count))
        if record.datatype is not None:
            constraints.append(Datatype(record.relation, record.datatype))
        if record.value_class is not None:
            constraints.append(QualifiedMinCountClass(
                record.relation, record.value_class, record.min_count))
    else:
        constraints.append(SparqlConstraint(record.sparql_text, record.query))
    constraints.sort(key=_constraint_sort_key)
    return NodeShape(iri, record.target_class, tuple(constraints),
                     record.severity, record.message)


def _query_predicates(query: SparqlQuery) -> list[tuple[bool, Iri]]:
    """Pattern predicates; the flag marks patterns anchored on $this."""
    out = []
    for clause in query.clauses:
        if isinstance(clause, TriplePattern) and isinstance(clause.predicate, Iri):
            anchored = clause.subject == Var("this")
            out.append((anchored, clause.predicate))
    return out


def compile_block(records: list[IrRecord], block_name: str) -> KnowledgeBlock:
    """Compile records into a block; one shape per record.

    The concept schema declares every class and predicate the shapes
    mention; evidence requirements pair the target class with each
    required relation (for query constraints, with each predicate the
    query reads off the focus node).
    """
    shapes = [_record_shape(r) for r in
              sorted(records, key=lambda r: r.obligation_id)]

    classes: set[Iri] = set()
    predicates: set[Iri] = set()
    evidence: set[tuple[Iri, Iri]] = set()
    for record in records:
        classes.add(record.target_class)
        if record.constraint_type == "structural":
            predicates.add(record.relation)
            evidence.add((record.target_class, record.relation))
            if record.value_class is not None:
                classes.add(record.value_class)
        else:
            for anchored, pred in _query_predicates(record.query):
                predicates.add(pred)
                if anchored:
                    evidence.add((record.target_class, pred))
    prov_links = {p for p in predicates if p.value.startswith(PROV.base)}

    concepts = Graph(prefixes=dict(STANDARD_PREFIXES))
    for cls in classes:
        concepts.add(Triple(cls, RDF.type, RDFS.term("Class")))
    for pred in predicates:
        concepts.add(Triple(pred, RDF.type, RDF.Property))

    return KnowledgeBlock(
        name=block_name,
        obligations=frozenset(r.obligation_id for r in records),
        concepts=concepts,
        shapes=tuple(shapes),
        evidence_requirements=frozenset(evidence),
        provenance_links=frozenset(prov_links),
    )
