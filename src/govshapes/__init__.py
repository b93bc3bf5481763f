"""Compile obligation records into constraint shapes and validate evidence graphs."""

from .errors import (ConflictingShapeBodiesError, DuplicateIdError,
                     GovshapesError, MalformedShapeError, SchemaError,
                     SparqlSyntaxError, TooManySolutionsError, TurtleSyntaxError,
                     TypeMismatchError, UnboundVariableError, UnknownBlockError,
                     UnknownCaseError, UnknownPrefixError, UnknownProfileError,
                     UnsupportedConstraintError)
from .rdf import (EX, PROV, RDF, RDFS, SH, STANDARD_PREFIXES, XSD, BlankNode,
                  Graph, Iri, Literal, Namespace, Term, Triple, parse_turtle,
                  serialize_turtle, union)
from .sparql import (Binding, EvalDiagnostic, SparqlQuery, eval_expression,
                     evaluate, parse_sparql)
from .shacl import (NodeShape, Severity, ValidationReport, Violation,
                    emit_report_graph, emit_shapes_graph, focus_nodes,
                    load_shapes, read_report, validate)
from .ir import (IrRecord, KnowledgeBlock, compile_block, empty_block,
                 merge_severity, parse_ir)
from .governance import (EquivalenceResult, Profile, ProfileReport,
                         RefinementVerdict, Registry, compose, parse_profile,
                         serialize_profile)
from .corpus import (CASE_IDS, COMPILER_CASES, COMPILER_PROFILES,
                     JURISDICTION_CASES, JURISDICTION_PROFILES, EvidenceCase,
                     build_case, compiler_corpus, default_registry,
                     expected_outcomes, full_corpus, shape_catalog)

__version__ = "0.1.0"
