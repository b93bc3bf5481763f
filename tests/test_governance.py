"""Profiles, composition algebra, and the refinement analyzer."""

import pytest
from hypothesis import given, settings, strategies as st

from govshapes import corpus
from govshapes.errors import (ConflictingShapeBodiesError, SchemaError,
                              UnknownBlockError, UnknownProfileError)
from govshapes.governance import (Profile, Registry, compose,
                                  parse_profile, serialize_profile)
from govshapes.ir import KnowledgeBlock, compile_block, empty_block, parse_ir
from govshapes.rdf import EX, Graph, parse_turtle, serialize_turtle
from govshapes.shacl import Severity, shape_violations, validate

BLOCKS = {name: compile_block(parse_ir(corpus.block_source(name)), name)
          for name in corpus.BLOCK_NAMES}
CORPUS = corpus.compiler_corpus()

block_subsets = st.lists(st.sampled_from(corpus.BLOCK_NAMES),
                         unique=True, max_size=len(corpus.BLOCK_NAMES))


def blocks_named(names):
    return [BLOCKS[n] for n in names]


def same_composition(a, b):
    """Equality on every component except the display name."""
    assert a.obligations == b.obligations
    assert a.shapes == b.shapes
    assert a.concepts == b.concepts
    assert a.evidence_requirements == b.evidence_requirements
    assert a.provenance_links == b.provenance_links
    assert serialize_turtle(a.document_graph()) == \
        serialize_turtle(b.document_graph())


# ---------------------------------------------------------------------------
# Profile manifests
# ---------------------------------------------------------------------------

def test_parse_profile_skips_comments_and_blanks():
    profile = parse_profile(
        "# jurisdiction bundle\nprofile: EU\n\nlogging\n# core\nprovenance\n")
    assert profile == Profile("EU", ("logging", "provenance"))


def test_profile_serialization_round_trip():
    profile = Profile("Combined", ("accountability", "fairness_transparency"))
    assert parse_profile(serialize_profile(profile)) == profile


@pytest.mark.parametrize("text, fragment", [
    ("logging\nprovenance\n", "must open with a 'profile:"),
    ("", "must open with a 'profile:"),
    ("profile:\nlogging\n", "profile name is empty"),
    ("profile: EU\nlogging\nlogging\n", "lists block 'logging' twice"),
    ("profile: EU\n", "selects no blocks"),
])
def test_parse_profile_rejects_bad_manifests(text, fragment):
    with pytest.raises(SchemaError, match=fragment):
        parse_profile(text)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def test_compose_unions_disjoint_blocks():
    kb = compose(blocks_named(["accountability", "fairness_transparency"]))
    assert isinstance(kb, KnowledgeBlock)
    assert kb.name == "accountability+fairness_transparency"
    assert [s.iri for s in kb.shapes] == [
        EX.A1Shape, EX.A2Shape, EX.A3Shape, EX.A4Shape, EX.A5Shape,
        EX.B1Shape, EX.B2Shape, EX.B3Shape, EX.B4Shape, EX.B5Shape]
    assert kb.obligations == frozenset(
        {"A1", "A2", "A3", "A4", "A5", "B1", "B2", "B3", "B4", "B5"})


def test_compose_deduplicates_shared_shapes():
    kb = compose(blocks_named(["fairness", "fairness_transparency"]))
    assert [s.iri for s in kb.shapes] == [
        EX.B1Shape, EX.B2Shape, EX.B3Shape, EX.B4Shape, EX.B5Shape]
    fine = compose(blocks_named(["logging", "accountability"]))
    assert len(fine.shapes) == 5


def test_compose_of_nothing_is_empty():
    kb = compose([])
    assert kb.name == "empty"
    assert kb.shapes == ()
    assert kb.obligations == frozenset()
    assert len(kb.document_graph()) == 0


def variant_block(severity, message="Needs a log."):
    text = (f"- obligation_id: R1\n  target_class: ex:Decision\n"
            f"  constraint_type: structural\n  relation: ex:hasUsageLog\n"
            f"  severity: {severity}\n  message: {message}\n")
    return compile_block(parse_ir(text), f"v-{severity}")


def test_compose_merges_severity_upward():
    kb = compose([variant_block("Warning"), variant_block("Violation")])
    (shape,) = kb.shapes
    assert shape.severity is Severity.VIOLATION
    kb2 = compose([variant_block("Info"), variant_block("Warning")])
    assert kb2.shapes[0].severity is Severity.WARNING


def test_compose_rejects_conflicting_bodies():
    with pytest.raises(ConflictingShapeBodiesError,
                       match="defined with different bodies"):
        compose([variant_block("Violation"),
                 variant_block("Violation", message="Different text.")])


@settings(max_examples=40)
@given(names=block_subsets)
def test_compose_is_idempotent(names):
    blocks = blocks_named(names)
    assert compose(blocks + blocks) == compose(blocks)


@settings(max_examples=40)
@given(names=block_subsets)
def test_compose_is_commutative(names):
    assert compose(blocks_named(names)) == \
        compose(blocks_named(list(reversed(names))))


@settings(max_examples=40)
@given(names=block_subsets, split=st.integers(0, len(corpus.BLOCK_NAMES)))
def test_compose_is_associative_up_to_naming(names, split):
    split = min(split, len(names))
    left, right = names[:split], names[split:]
    nested = compose([compose(blocks_named(left)), *blocks_named(right)])
    flat = compose(blocks_named(names))
    same_composition(nested, flat)


@settings(max_examples=40)
@given(names=block_subsets)
def test_empty_block_is_a_composition_identity(names):
    with_empty = compose(blocks_named(names) + [empty_block("neutral")])
    same_composition(with_empty, compose(blocks_named(names)))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_rejects_double_registration():
    registry = Registry()
    registry.add_block(BLOCKS["logging"])
    with pytest.raises(SchemaError, match="block 'logging' registered twice"):
        registry.add_block(BLOCKS["logging"])
    registry.add_profile(Profile("P", ("logging",)))
    with pytest.raises(SchemaError, match="profile 'P' registered twice"):
        registry.add_profile(Profile("P", ("logging",)))


def test_registry_lookup_errors_list_what_exists(registry):
    with pytest.raises(UnknownBlockError,
                       match="unknown block 'nope' .have: accountability"):
        registry.block("nope")
    with pytest.raises(UnknownProfileError,
                       match="unknown profile 'nope' .have: Accountability"):
        registry.profile("nope")


def test_registry_names_are_sorted(registry):
    assert registry.block_names == sorted(corpus.BLOCK_NAMES)
    assert registry.profile_names == sorted(
        corpus.COMPILER_PROFILES + corpus.JURISDICTION_PROFILES)


def test_registry_caches_composition(registry):
    assert registry.composed("Combined") is registry.composed("Combined")
    assert len(registry.composed("Combined").shapes) == 10
    assert len(registry.composed("EU").shapes) == 6
    assert len(registry.composed("US").shapes) == 5


def test_validate_profile_tags_the_report(registry):
    case = corpus.build_case("conform")
    result = registry.validate_profile(case.graph, "Combined", case.id)
    assert result.profile == "Combined"
    assert result.case_id == "conform"
    assert result.report.conforms


def test_refinement_between_shipped_profiles(registry):
    holds = registry.check_refinement("Combined", "Fairness", CORPUS)
    assert holds.holds and holds.counterexamples == ()
    fails = registry.check_refinement("Fairness", "Accountability", CORPUS)
    assert not fails.holds
    case_ids = {case_id for case_id, _ in fails.counterexamples}
    shapes = {v.source_shape for _, v in fails.counterexamples}
    assert case_ids == {"missing_model_artifact"}
    assert shapes == {EX.A5Shape}


def test_counterexamples_are_real_misses(registry):
    verdict = registry.check_refinement("Accountability", "Combined", CORPUS)
    assert not verdict.holds
    graphs = dict(CORPUS)
    for case_id, violation in verdict.counterexamples:
        p1 = registry.validate_profile(graphs[case_id], "Accountability")
        p2 = registry.validate_profile(graphs[case_id], "Combined")
        assert violation.identity in {v.identity for v in p2.report.violations}
        assert violation.identity not in {v.identity for v in p1.report.violations}


def test_equivalence_of_identical_block_selections(registry):
    result = registry.check_equivalence("US", "China", CORPUS)
    assert result.equivalent
    assert result.forward.holds and result.backward.holds
    other = registry.check_equivalence("Fairness", "Combined", CORPUS)
    assert not other.equivalent


def test_refinement_matrix_covers_ordered_pairs(registry):
    matrix = registry.refinement_matrix(list(corpus.COMPILER_PROFILES), CORPUS)
    assert [(v.p1, v.p2) for v in matrix] == [
        ("Accountability", "Fairness"), ("Accountability", "Combined"),
        ("Fairness", "Accountability"), ("Fairness", "Combined"),
        ("Combined", "Accountability"), ("Combined", "Fairness")]
    verdicts = {(v.p1, v.p2): v.holds for v in matrix}
    for row in corpus.goldens()["refinement"]:
        assert verdicts[(row["p1"], row["p2"])] == row["holds"]


def test_refinement_is_reflexive(registry):
    for name in corpus.COMPILER_PROFILES:
        assert registry.check_refinement(name, name, CORPUS).holds


# ---------------------------------------------------------------------------
# Refinement properties
# ---------------------------------------------------------------------------

def identity_sets(kb, pairs):
    return {case_id: {v.identity for v in validate(list(kb.shapes), g).violations}
            for case_id, g in pairs}


@settings(max_examples=25)
@given(s1=block_subsets.filter(bool), s2=block_subsets.filter(bool))
def test_check_refinement_matches_identity_set_containment(s1, s2):
    registry = Registry()
    for block in BLOCKS.values():
        registry.add_block(block)
    registry.add_profile(Profile("P1", tuple(s1)))
    registry.add_profile(Profile("P2", tuple(s2)))
    verdict = registry.check_refinement("P1", "P2", CORPUS)

    detected_1 = identity_sets(compose(blocks_named(s1)), CORPUS)
    detected_2 = identity_sets(compose(blocks_named(s2)), CORPUS)
    missed = sum(len(detected_2[c] - detected_1[c]) for c, _ in CORPUS)
    assert verdict.holds == (missed == 0)
    assert len(verdict.counterexamples) == missed


@settings(max_examples=25)
@given(base=block_subsets, extra=block_subsets, data=st.data())
def test_more_blocks_never_lose_detections(base, extra, data):
    # monotonicity: a superset of blocks detects a superset of violations,
    # on shipped evidence and on randomly thinned variants of it
    case_id, graph = CORPUS[data.draw(st.integers(0, len(CORPUS) - 1))]
    triples = list(graph)
    dropped = data.draw(st.sets(st.integers(0, len(triples) - 1), max_size=6))
    thinned = Graph((t for i, t in enumerate(triples) if i not in dropped),
                    prefixes=graph.prefixes)

    small = compose(blocks_named(base))
    large = compose(blocks_named(base) + blocks_named(extra))
    for evidence in (graph, thinned):
        small_ids = {v.identity for v in validate(list(small.shapes), evidence).violations}
        large_ids = {v.identity for v in validate(list(large.shapes), evidence).violations}
        assert small_ids <= large_ids


@settings(max_examples=15)
@given(s1=block_subsets.filter(bool), s2=block_subsets.filter(bool),
       s3=block_subsets.filter(bool))
def test_refinement_is_transitive_on_the_corpus(s1, s2, s3):
    registry = Registry()
    for block in BLOCKS.values():
        registry.add_block(block)
    for name, blocks in (("P1", s1), ("P2", s2), ("P3", s3)):
        registry.add_profile(Profile(name, tuple(blocks)))
    r12 = registry.check_refinement("P1", "P2", CORPUS)
    r23 = registry.check_refinement("P2", "P3", CORPUS)
    if r12.holds and r23.holds:
        assert registry.check_refinement("P1", "P3", CORPUS).holds


def thinned(graph, data):
    """``graph`` with up to six of its triples dropped, as ``data`` draws."""
    triples = list(graph)
    dropped = data.draw(st.sets(st.integers(0, len(triples) - 1), max_size=6))
    return Graph((t for i, t in enumerate(triples) if i not in dropped),
                 prefixes=graph.prefixes)


@settings(max_examples=25)
@given(s1=block_subsets.filter(bool), s2=block_subsets.filter(bool),
       widen=st.booleans(), data=st.data())
def test_static_oracle_predicts_identities_and_refinement(s1, s2, widen, data):
    # The static argument: composition unions shapes by IRI, their bodies
    # agree and only the severity merges, and a violation's identity leaves
    # the severity out. So a profile detects the union of what its blocks
    # detect, and a profile holding every shape IRI of another refines it
    # on every corpus, whatever the validator does.
    if widen:  # so that P1 often holds every shape IRI of P2
        s1 = list(dict.fromkeys(s1 + s2))
    cases = [(case_id, thinned(graph, data)) for case_id, graph in CORPUS]
    registry = synthetic_registry([], {"P1": tuple(s1), "P2": tuple(s2)})
    for name, names in (("P1", s1), ("P2", s2)):
        for case_id, graph in cases:
            found = registry.validate_profile(graph, name).report.violations
            by_block = [identity_sets(BLOCKS[b], [(case_id, graph)])[case_id]
                        for b in names]
            assert {v.identity for v in found} == set().union(*by_block)
    iris = [{shape.iri for shape in compose(blocks_named(names)).shapes}
            for names in (s1, s2)]
    if iris[1] <= iris[0]:
        assert registry.check_refinement("P1", "P2", cases).holds


# ---------------------------------------------------------------------------
# One validation pass per case over the distinct shapes
# ---------------------------------------------------------------------------

def named_block(name, severity="Violation", message="Needs a log."):
    text = (f"- obligation_id: R1\n  target_class: ex:Decision\n"
            f"  constraint_type: structural\n  relation: ex:hasUsageLog\n"
            f"  severity: {severity}\n  message: {message}\n")
    return compile_block(parse_ir(text), name)


def synthetic_registry(blocks, profiles):
    registry = Registry()
    for block in [*BLOCKS.values(), *blocks]:
        registry.add_block(block)
    for name, members in profiles.items():
        registry.add_profile(Profile(name, members))
    return registry


# Warn keeps R1 at Warning; Strict merges it up to Violation
SEVERITY_RAISED = synthetic_registry(
    [named_block("r1_warning", "Warning"), named_block("r1_violation")],
    {"Warn": ("r1_warning", "logging"),
     "Strict": ("r1_warning", "r1_violation", "accountability")})
# never composed together, so R1Shape has two bodies
TWO_BODIES = synthetic_registry(
    [named_block("r1_a"), named_block("r1_b", message="Different text.")],
    {"A": ("r1_a", "fairness"), "B": ("r1_b", "fairness", "logging"),
     "C": ("r1_a", "accountability")})


def without_usage_log(case_id):
    graph = dict(CORPUS)[case_id]
    return Graph((t for t in graph if t.predicate != EX.hasUsageLog),
                 prefixes=graph.prefixes)


# the compiler cases, plus two on which R1 fires
R1_CORPUS = [*CORPUS, ("conform_no_log", without_usage_log("conform")),
             ("missing_explanation_no_log", without_usage_log("missing_explanation"))]


def assert_table_matches_validate_profile(registry, names, cases):
    table, _ = registry._violation_table(names, cases)
    assert list(table) == names
    fired = 0
    for name in names:
        assert len(table[name]) == len(cases)
        for row, (_, graph) in zip(table[name], cases):
            assert row == registry.validate_profile(graph, name).report.violations
            fired += len(row)
    assert fired  # the comparison saw violations, not only empty tuples


def test_violation_table_equals_validate_profile_on_bundled_data(registry, all_cases):
    names = list(corpus.COMPILER_PROFILES + corpus.JURISDICTION_PROFILES)
    assert len(all_cases) == 7
    assert_table_matches_validate_profile(registry, names, all_cases)


def test_violation_table_keeps_a_severity_raised_on_merge():
    strict = SEVERITY_RAISED.composed("Strict").shapes
    warn = SEVERITY_RAISED.composed("Warn").shapes
    (r1_strict,) = [s for s in strict if s.iri == EX.R1Shape]
    (r1_warn,) = [s for s in warn if s.iri == EX.R1Shape]
    assert (r1_warn.severity, r1_strict.severity) == (Severity.WARNING,
                                                      Severity.VIOLATION)
    assert_table_matches_validate_profile(SEVERITY_RAISED, ["Warn", "Strict"], R1_CORPUS)
    table, _ = SEVERITY_RAISED._violation_table(["Warn", "Strict"], R1_CORPUS)
    severities = {name: {v.severity for row in table[name] for v in row
                         if v.source_shape == EX.R1Shape} for name in table}
    assert severities == {"Warn": {Severity.WARNING}, "Strict": {Severity.VIOLATION}}


def test_violation_table_keeps_two_bodies_of_one_iri_apart():
    with pytest.raises(ConflictingShapeBodiesError):
        compose([TWO_BODIES.block("r1_a"), TWO_BODIES.block("r1_b")])
    assert_table_matches_validate_profile(TWO_BODIES, ["A", "B"], R1_CORPUS)
    table, _ = TWO_BODIES._violation_table(["A", "B"], R1_CORPUS)
    messages = {name: {v.message for row in table[name] for v in row
                       if v.source_shape == EX.R1Shape} for name in table}
    assert messages == {"A": {"Needs a log."}, "B": {"Different text."}}


@pytest.mark.parametrize("registry_name, names, per_case", [
    ("default", list(corpus.COMPILER_PROFILES), 10),  # 20 shapes in the trio
    ("two_bodies", ["A", "B", "C"], 11),  # 19 shapes, 10 IRIs, R1Shape twice
])
def test_violation_table_evaluates_each_distinct_shape_once_per_case(
        registry, monkeypatch, registry_name, names, per_case):
    import govshapes.governance as governance
    subject = {"default": registry, "two_bodies": TWO_BODIES}[registry_name]
    calls = []

    def counting_shape_violations(shape, graph, diagnostics):
        calls.append(shape)
        return shape_violations(shape, graph, diagnostics)

    monkeypatch.setattr(governance, "shape_violations", counting_shape_violations)
    subject.refinement_matrix(names, CORPUS)
    distinct = {shape for name in names for shape in subject.composed(name).shapes}
    assert len(distinct) == per_case
    assert len(calls) == per_case * len(CORPUS)
    assert set(calls) == distinct


def test_refinement_sweep_returns_the_matrix_and_its_diagnostics(registry):
    # "seventy" is no decimal: the disparity query drops the solution
    text = corpus.case_source("disparity_exceeds").replace(
        "ex:allocatedGPUHoursGroupB 70.0",
        'ex:allocatedGPUHoursGroupB "seventy"^^xsd:decimal')
    cases = [*CORPUS, ("seventy", parse_turtle(text))]
    names = list(corpus.COMPILER_PROFILES)
    verdicts, diagnostics = registry.refinement_sweep(names, cases)
    assert verdicts == registry.refinement_matrix(names, cases)
    # Fairness and Combined share the query's shape; it is validated once
    assert [(case_id, d.clause_index) for case_id, d in diagnostics] == [("seventy", 3)]
