"""Exception hierarchy shared by all govshapes modules."""

from __future__ import annotations


class GovshapesError(Exception):
    """Base class for every error raised by this package."""


class TurtleSyntaxError(GovshapesError):
    """Malformed Turtle input; carries the line and column of the offence."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, col {column}: {message}")


class SparqlSyntaxError(GovshapesError):
    """Query text outside the supported SELECT fragment."""


class UnboundVariableError(GovshapesError):
    """A FILTER/BIND/SELECT variable has no prior binding site."""


class TypeMismatchError(GovshapesError):
    """An expression was applied to operands of the wrong kind.

    During query evaluation this eliminates the offending solution
    instead of aborting the whole query.
    """


class TooManySolutionsError(GovshapesError):
    """A constraint query built more solutions in one step than the query
    engine's fixed bound allows; the message names the clause."""


class UnsupportedConstraintError(GovshapesError):
    """A shape graph uses a constraint component outside the engine subset."""


class MalformedShapeError(GovshapesError):
    """A node shape is missing required structure (e.g. its target class)."""


class SchemaError(GovshapesError):
    """An obligation record fails field validation."""


class DuplicateIdError(SchemaError):
    """Two records in one file share an obligation_id."""


class UnknownPrefixError(GovshapesError):
    """A prefixed name uses a prefix with no namespace binding."""


class ConflictingShapeBodiesError(GovshapesError):
    """Two blocks define the same shape IRI with different bodies."""


class UnknownBlockError(GovshapesError):
    """A block name does not resolve in the registry."""


class UnknownProfileError(GovshapesError):
    """A profile name does not resolve in the registry."""


class UnknownCaseError(GovshapesError):
    """An evidence case id is not part of the bundled corpus."""
