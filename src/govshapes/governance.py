"""Profiles, block composition, and the refinement analyzer.

A profile is a named selection of knowledge blocks. Composition is
component-wise set union: obligations, concepts, evidence requirements
and provenance links union directly; shapes deduplicate by IRI, and two
occurrences of the same shape IRI must agree on everything except
severity, which merges to the stricter value. Union makes composition
idempotent, commutative and associative, with the empty block as
identity.

Refinement is corpus-relative: profile P1 refines P2 when, on every
case, each violation P2 detects (keyed by source shape, focus node and
message) is also detected by P1. Equivalence is refinement both ways.
"""

from __future__ import annotations

from itertools import chain

from ._record import Record
from .errors import (ConflictingShapeBodiesError, SchemaError, UnknownBlockError,
                     UnknownProfileError)
from .ir import KnowledgeBlock, merge_severity, parse_ir, compile_block
from .rdf import STANDARD_PREFIXES, Graph
from .shacl import (NodeShape, ValidationReport, Violation, _in_report_order,
                    shape_violations, validate)
from .sparql import EvalDiagnostic


class Profile(Record):
    """A named, ordered selection of block names."""

    name: str
    blocks: tuple[str, ...]

    def __post_init__(self):
        if not self.blocks:
            raise SchemaError(f"profile {self.name!r} selects no blocks")


def parse_profile(text: str) -> Profile:
    """Parse a profile manifest.

    Format: a ``profile: <name>`` header line, then one block name per
    line. Blank lines and ``#`` comments are ignored.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("profile:"):
        raise SchemaError("manifest must open with a 'profile: <name>' line")
    name = lines[0][len("profile:"):].strip()
    if not name:
        raise SchemaError("profile name is empty")
    blocks = []
    for ln in lines[1:]:
        if ln in blocks:
            raise SchemaError(f"profile {name!r} lists block {ln!r} twice")
        blocks.append(ln)
    return Profile(name, tuple(blocks))


def serialize_profile(profile: Profile) -> str:
    return "\n".join([f"profile: {profile.name}", *profile.blocks]) + "\n"


def _merged_shape(occurrences: list[NodeShape]) -> NodeShape:
    first = occurrences[0]
    severity = first.severity
    for other in occurrences[1:]:
        if (other.target_class != first.target_class
                or other.message != first.message
                or other.constraints != first.constraints):
            raise ConflictingShapeBodiesError(
                f"shape {first.iri.value} is defined with different bodies "
                "by two blocks")
        severity = merge_severity(severity, other.severity)
    if severity is first.severity:
        return first
    return NodeShape(first.iri, first.target_class, first.constraints,
                     severity, first.message)


def compose(blocks: list[KnowledgeBlock]) -> KnowledgeBlock:
    """Component-wise union of blocks.

    Same-IRI shapes collapse to one occurrence; their bodies must agree
    (severity excepted, which merges upward). So the composed shapes have
    distinct IRIs, as ``document_graph`` requires. An occurrence kept as
    it is keeps the triples it was emitted as; one whose severity rises
    is a new ``NodeShape``, which is emitted afresh. The concept graphs
    are unioned into one triple set, a prefix bound by an earlier block
    (or the standard one) winning. Composing nothing yields the empty block.
    """
    by_iri: dict[str, list[NodeShape]] = {}
    for block in blocks:
        for shape in block.shapes:
            by_iri.setdefault(shape.iri.value, []).append(shape)
    shapes = tuple(_merged_shape(by_iri[key]) for key in sorted(by_iri))

    prefixes = dict(STANDARD_PREFIXES)
    for block in blocks:
        for label, namespace in block.concepts.prefixes.items():
            prefixes.setdefault(label, namespace)
    concepts = Graph(chain.from_iterable(b.concepts._triples for b in blocks), prefixes)

    return KnowledgeBlock(
        name="+".join(sorted({b.name for b in blocks})) if blocks else "empty",
        obligations=frozenset().union(*(b.obligations for b in blocks)),
        concepts=concepts,
        shapes=shapes,
        evidence_requirements=frozenset().union(*(b.evidence_requirements for b in blocks)),
        provenance_links=frozenset().union(*(b.provenance_links for b in blocks)),
    )


class ProfileReport(Record):
    """A validation report tagged with its profile and evidence case."""

    profile: str
    case_id: str | None
    report: ValidationReport


class RefinementVerdict(Record):
    p1: str
    p2: str
    holds: bool
    counterexamples: tuple[tuple[str, Violation], ...]

    def __post_init__(self):
        assert self.holds == (not self.counterexamples)


# profile name -> that profile's violations on each corpus case, in order
_ViolationTable = dict[str, list[tuple[Violation, ...]]]


class EquivalenceResult(Record):
    p1: str
    p2: str
    equivalent: bool
    forward: RefinementVerdict
    backward: RefinementVerdict


class Registry:
    """Read-only lookup of blocks and profiles, with cached composition."""

    def __init__(self):
        self._blocks: dict[str, KnowledgeBlock] = {}
        self._profiles: dict[str, Profile] = {}
        self._composed: dict[str, KnowledgeBlock] = {}

    # -- population -----------------------------------------------------

    def add_block(self, block: KnowledgeBlock) -> None:
        if block.name in self._blocks:
            raise SchemaError(f"block {block.name!r} registered twice")
        self._blocks[block.name] = block

    def add_profile(self, profile: Profile) -> None:
        if profile.name in self._profiles:
            raise SchemaError(f"profile {profile.name!r} registered twice")
        self._profiles[profile.name] = profile

    def add_block_source(self, name: str, ir_text: str) -> KnowledgeBlock:
        block = compile_block(parse_ir(ir_text), name)
        self.add_block(block)
        return block

    # -- lookups ----------------------------------------------------------

    @property
    def block_names(self) -> list[str]:
        return sorted(self._blocks)

    @property
    def profile_names(self) -> list[str]:
        return sorted(self._profiles)

    def block(self, name: str) -> KnowledgeBlock:
        if name not in self._blocks:
            raise UnknownBlockError(f"unknown block {name!r} "
                                    f"(have: {', '.join(self.block_names)})")
        return self._blocks[name]

    def profile(self, name: str) -> Profile:
        if name not in self._profiles:
            raise UnknownProfileError(f"unknown profile {name!r} "
                                      f"(have: {', '.join(self.profile_names)})")
        return self._profiles[name]

    def composed(self, profile_name: str) -> KnowledgeBlock:
        if profile_name not in self._composed:
            profile = self.profile(profile_name)
            members = [self.block(b) for b in profile.blocks]
            self._composed[profile_name] = compose(members)
        return self._composed[profile_name]

    # -- validation and refinement ------------------------------------------

    def validate_profile(self, evidence: Graph, profile_name: str,
                         case_id: str | None = None) -> ProfileReport:
        kb = self.composed(profile_name)
        report = validate(list(kb.shapes), evidence)
        return ProfileReport(profile_name, case_id, report)

    def _violation_table(self, profile_names: list[str],
                         corpus: list[tuple[str, Graph]]
                         ) -> tuple[_ViolationTable, list[tuple[str, EvalDiagnostic]]]:
        """Each named profile's violations on each case, and each case's
        diagnostics, from one evaluation per case of each distinct shape
        of all the profiles.

        Shapes are keyed by value, so an IRI two profiles give two bodies
        or severities is evaluated once per body.
        """
        names = list(dict.fromkeys(profile_names))
        distinct: dict[NodeShape, int] = {}
        # profile -> the index in ``distinct`` of each of its shapes
        positions = {name: [distinct.setdefault(shape, len(distinct))
                            for shape in self.composed(name).shapes]
                     for name in names}
        table: _ViolationTable = {name: [] for name in names}
        diagnostics: list[tuple[str, EvalDiagnostic]] = []
        for case_id, graph in corpus:
            found: list[EvalDiagnostic] = []
            results = [shape_violations(shape, graph, found) for shape in distinct]
            diagnostics.extend((case_id, d) for d in found)
            for name in names:
                table[name].append(tuple(_in_report_order(
                    v for k in positions[name] for v in results[k])))
        return table, diagnostics

    def check_refinement(self, p1: str, p2: str,
                         corpus: list[tuple[str, Graph]]) -> RefinementVerdict:
        """Does every violation p2 detects also get detected by p1?"""
        table, _ = self._violation_table([p1, p2], corpus)
        return _verdict(p1, p2, corpus, table)

    def check_equivalence(self, p1: str, p2: str,
                          corpus: list[tuple[str, Graph]]) -> EquivalenceResult:
        table, _ = self._violation_table([p1, p2], corpus)
        forward = _verdict(p1, p2, corpus, table)
        backward = _verdict(p2, p1, corpus, table)
        return EquivalenceResult(p1, p2, forward.holds and backward.holds,
                                 forward, backward)

    def refinement_matrix(self, profile_names: list[str],
                          corpus: list[tuple[str, Graph]]) -> list[RefinementVerdict]:
        """All ordered distinct pairs, in the given profile order."""
        return self.refinement_sweep(profile_names, corpus)[0]

    def refinement_sweep(self, profile_names: list[str], corpus: list[tuple[str, Graph]]
                         ) -> tuple[list[RefinementVerdict], list[tuple[str, EvalDiagnostic]]]:
        """The refinement matrix, and the (case id, diagnostic) pairs of the
        validation pass behind it: a solution a type error eliminated may
        hide a violation, and so a counterexample."""
        table, diagnostics = self._violation_table(profile_names, corpus)
        verdicts = [_verdict(p1, p2, corpus, table)
                    for p1 in profile_names for p2 in profile_names if p1 != p2]
        return verdicts, diagnostics


def _verdict(p1: str, p2: str, corpus: list[tuple[str, Graph]],
             table: _ViolationTable) -> RefinementVerdict:
    counterexamples: list[tuple[str, Violation]] = []
    for (case_id, _), found, expected in zip(corpus, table[p1], table[p2]):
        detected = {v.identity for v in found}
        counterexamples.extend((case_id, v) for v in expected
                               if v.identity not in detected)
    return RefinementVerdict(p1, p2, not counterexamples, tuple(counterexamples))
