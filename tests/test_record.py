"""Value semantics of the slotted terms and of the ``Record`` base, and the
modules that ``import govshapes`` leaves unloaded."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import govshapes
from govshapes.errors import SchemaError
from govshapes.governance import Profile
from govshapes.ir import IrRecord, KnowledgeBlock, empty_block
from govshapes.rdf import EX, RDF, XSD, BlankNode, Iri, Literal, Triple
from govshapes.shacl import (MaxCount, MinCount, Severity, SparqlConstraint,
                             ValidationReport, Violation)
from govshapes.sparql import EvalDiagnostic, Expression, Var, VarRef, parse_sparql

QUERY = "SELECT $this WHERE { $this ex:p ?v . }"


def values():
    """A factory for one value of each kind; each call builds a new instance."""
    return [lambda: Iri("http://a.test/x"), lambda: BlankNode("b000"),
            lambda: Literal("7", XSD.integer), lambda: Literal("x", language="en"),
            lambda: Triple(EX.a, RDF.type, Literal("x")),
            lambda: MinCount(EX.p, 2, "m"), lambda: Var("x"), lambda: Expression(),
            lambda: Violation(EX.S, EX.a, "msg", Severity.WARNING, EX.p),
            lambda: Profile("P", ("a", "b"))]


@pytest.mark.parametrize("make", values())
def test_equal_values_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_terms_hash_as_the_dataclass_did():
    # the hash of the field tuple, so sets of terms keep their order
    lit = Literal("7", XSD.integer)
    assert hash(EX.a) == hash((EX.a.value,))
    assert hash(BlankNode("b")) == hash(("b",))
    assert hash(lit) == hash(("7", XSD.integer, None))
    assert hash(Triple(EX.a, EX.p, lit)) == hash((EX.a, EX.p, lit))


@pytest.mark.parametrize("a, b", [
    (Iri("x"), BlankNode("x")),
    (MinCount(EX.p, 1), MaxCount(EX.p, 1)),
    (Var("x"), VarRef("x")),
    (MinCount(EX.p, 1), (EX.p, 1, None)),
    (Iri("x"), "x"),
])
def test_equal_fields_of_two_classes_compare_unequal(a, b):
    assert a != b and b != a


@pytest.mark.parametrize("make, field", [
    (lambda: Iri("x"), "value"), (lambda: BlankNode("b"), "label"),
    (lambda: Literal("x"), "datatype"), (lambda: Triple(EX.a, EX.p, EX.b), "object"),
    (lambda: MinCount(EX.p, 1), "count"), (lambda: Var("x"), "name"),
    (lambda: Expression(), "op"),
])
def test_attributes_are_frozen(make, field):
    value = make()
    for name in (field, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(value, name, "x")
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == make()


def test_record_fields_are_frozen():
    shape = MinCount(EX.p, 1)
    with pytest.raises(AttributeError, match="cannot assign to field 'count'"):
        shape.count = 2
    with pytest.raises(AttributeError, match="cannot delete field 'path'"):
        del shape.path
    assert shape == MinCount(EX.p, 1)


@pytest.mark.parametrize("call", [
    lambda: MinCount(EX.p),                         # missing
    lambda: MinCount(EX.p, 1, extra=2),             # unknown
    lambda: MinCount(EX.p, 1, path=EX.p),           # repeated
    lambda: MinCount(EX.p, 1, None, 4),             # too many
    lambda: IrRecord("X", EX.T, "structural", "m", query=None),  # not a field
    lambda: Iri(),
    lambda: Iri("a", value="b"),
    lambda: Literal("x", datatypes=XSD.string),
    lambda: Triple(EX.a, EX.p),
])
def test_bad_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_keywords_and_defaults():
    assert MinCount(count=1, path=EX.p) == MinCount(EX.p, 1, None)
    assert MinCount(EX.p, 1).message is None
    rec = IrRecord("X", EX.T, "structural", "m", relation=EX.p, min_count=2)
    assert (rec.severity, rec.datatype, rec.min_count) == (Severity.VIOLATION, None, 2)


def test_post_init_checks_still_run():
    with pytest.raises(SchemaError, match="selects no blocks"):
        Profile("P", ())
    with pytest.raises(ValueError, match="predicate must be an IRI"):
        Triple(EX.a, Literal("p"), EX.b)
    with pytest.raises(ValueError, match="subject must not be a literal"):
        Triple(Literal("s"), EX.p, EX.b)
    assert Literal("x").datatype == XSD.string
    assert Literal("x", language="en").datatype == RDF.langString


def test_uncompared_fields_are_ignored_by_equality():
    q1, q2 = parse_sparql(QUERY), parse_sparql(QUERY.replace("?v", "?w"))
    assert SparqlConstraint("s", q1) == SparqlConstraint("s", q2)
    assert hash(SparqlConstraint("s", q1)) == hash(SparqlConstraint("s", q2))
    assert SparqlConstraint("s", q1) != SparqlConstraint("t", q1)
    slow = ValidationReport(True, (), 99.0, (EvalDiagnostic(0, "why"),))
    assert ValidationReport(True, ()) == slow
    assert ValidationReport(False, ()) != slow


def test_ir_record_query_is_derived_and_not_a_field():
    text = QUERY.replace("ex:p", "<http://a.test/p>")
    rec = IrRecord("X", EX.T, "sparql", "m", sparql_text=text)
    assert rec.query == parse_sparql(text)
    assert "query" not in repr(rec)
    assert IrRecord("X", EX.T, "structural", "m", relation=EX.p).query is None


def test_knowledge_block_is_frozen_and_unhashable():
    block = empty_block()
    with pytest.raises(AttributeError):
        block.name = "renamed"
    with pytest.raises(AttributeError):
        del block.concepts
    assert block.name == "empty"
    with pytest.raises(TypeError, match="Graph is not hashable"):
        hash(block)
    assert block == empty_block() and block != empty_block("renamed")
    assert block != KnowledgeBlock("empty", frozenset({"A1"}), block.concepts,
                                   (), frozenset(), frozenset())


def test_repr_matches_the_dataclass_text():
    iri = "Iri(value='http://example.org/okb#{}')".format
    assert repr(EX.a) == iri("a")
    integer = ("Literal(lexical='70', datatype="
               "Iri(value='http://www.w3.org/2001/XMLSchema#integer'), language=None)")
    assert repr(Literal("70", XSD.integer)) == integer
    assert repr(Triple(EX.a, RDF.type, Literal("70", XSD.integer))) == (
        f"Triple(subject={iri('a')}, predicate="
        "Iri(value='http://www.w3.org/1999/02/22-rdf-syntax-ns#type'), "
        f"object={integer})")
    assert repr(MinCount(EX.p, 1)) == f"MinCount(path={iri('p')}, count=1, message=None)"
    assert repr(Violation(EX.S, EX.a, "msg", path=EX.p)) == (
        f"Violation(source_shape={iri('S')}, focus_node={iri('a')}, message='msg', "
        f"severity=<Severity.VIOLATION: 'Violation'>, path={iri('p')}, value=None)")
    assert repr(Expression()) == "Expression()"


@pytest.mark.parametrize("make", values())
def test_values_pickle(make):
    value = make()
    assert pickle.loads(pickle.dumps(value)) == value


def test_import_loads_no_dataclasses_inspect_or_logging():
    src = str(Path(govshapes.__file__).resolve().parents[1])
    code = ("import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
            "import govshapes; "
            "print(sorted({'dataclasses', 'inspect', 'logging'}"
            " & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_cli_import_loads_no_hashlib_or_statistics():
    # only --run-log and hash-manifest hash, only bench takes a median, and
    # only --run-log writes a timestamp
    src = str(Path(govshapes.__file__).resolve().parents[1])
    code = ("import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
            "import govshapes.cli; "
            "print(sorted({'hashlib', 'statistics', 'datetime'}"
            " & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
