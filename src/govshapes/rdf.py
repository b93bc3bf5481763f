"""RDF data model with a Turtle reader and a canonical Turtle writer.

The model is deliberately small: IRIs, literals (typed, optionally
language-tagged), blank nodes, triples, and graphs with set semantics.
The Turtle dialect covers what evidence graphs and compiled shape
documents need:

  - ``@prefix`` directives, IRIs, prefixed names, the ``a`` keyword
  - string literals (short and triple-quoted long form), ``^^`` typed
    literals, language tags, numeric shorthand (integer / decimal /
    double) written with the ASCII digits ``0-9`` only, booleans
  - blank node property lists ``[ ... ]``, also as a statement of their
    own (``[ ex:p ex:o ] .``), labelled blank nodes ``_:x``
  - predicate lists ``;`` and object lists ``,``

Collections ``( )``, base IRIs, and relative IRIs are rejected. The
SPARQL subset in ``sparql`` lexes its terms with the same fragments.

Reading a text takes one ``findall`` over the scan form of the
language's token grammar, which cuts it into token texts, and one cursor
over those texts, for Turtle and the SPARQL subset alike. A parse that
goes well computes no position. When it fails, the text is tokenized
once more under the named grammar: that raises the first lexer error in
the text, if there is one, and otherwise gives the kind and the line
and column of the token where the parse stopped.

Serialization is canonical: prefixes sorted by label, subjects sorted
by IRI with blank-node subjects last, predicates and objects sorted
within their statement, blank nodes emitted inline wherever they have a
single parent. Two graphs with equal triple sets and compatible prefix
maps serialize to byte-identical text, regardless of insertion order.
"""

from __future__ import annotations

import re
from operator import attrgetter

from ._record import Frozen
from .errors import TurtleSyntaxError


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class _Value(Frozen):
    """A frozen value whose fields are its ``__slots__``, in ``__init__``
    order. The subclass's ``__init__`` stores the fields through each slot
    descriptor's ``__set__`` (``Frozen`` refuses ``setattr``) and caches
    their hash, so hashing costs one attribute read; ``==`` holds between
    instances of one class with equal fields."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__) + ")")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, n) for n in self.__slots__)


class _Term(_Value):
    """A term, which keeps its ``term_sort_key`` from when it was built,
    and ``_hashed``, the tuple whose hash is its hash: its fields, a
    literal's datatype given by its own ``_hashed``. A literal or triple
    naming a term hashes a tuple of these, so its hash is computed in C,
    with no Python-level ``__hash__`` call per term, and is the hash of
    its fields all the same."""

    __slots__ = ("_key", "_hashed")


class Iri(_Term):
    __slots__ = ("value",)

    def __init__(self, value: str):
        _set_iri(self, value)
        _set_key(self, (0, value))
        _set_hashed(self, (value,))
        _set_hash(self, hash(self._hashed))

    def __eq__(self, other) -> bool:
        if other.__class__ is not Iri:
            return NotImplemented
        return self.value == other.value

    __hash__ = _Value.__hash__  # defining __eq__ would clear it


class BlankNode(_Term):
    __slots__ = ("label",)

    def __init__(self, label: str):
        _set_label(self, label)
        _set_key(self, (2, label))
        _set_hashed(self, (label,))
        _set_hash(self, hash(self._hashed))

    def __eq__(self, other) -> bool:
        if other.__class__ is not BlankNode:
            return NotImplemented
        return self.label == other.label

    __hash__ = _Value.__hash__  # defining __eq__ would clear it


class Literal(_Term):
    __slots__ = ("lexical", "datatype", "language")

    def __init__(self, lexical: str, datatype: Iri | None = None,
                 language: str | None = None):
        if datatype is None:
            datatype = RDF.langString if language is not None else XSD.string
        _set_lexical(self, lexical)
        _set_datatype(self, datatype)
        _set_language(self, language)
        _set_key(self, (1, lexical, datatype.value, language or ""))
        _set_hashed(self, (lexical, datatype._hashed, language))
        _set_hash(self, hash(self._hashed))

    def __eq__(self, other) -> bool:
        if other.__class__ is not Literal:
            return NotImplemented
        return (self.lexical == other.lexical and self.datatype == other.datatype
                and self.language == other.language)

    __hash__ = _Value.__hash__  # defining __eq__ would clear it


Term = Iri | BlankNode | Literal


class Triple(_Value):
    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: Term, predicate: Term, object: Term):
        if not isinstance(predicate, Iri):
            raise ValueError(f"triple predicate must be an IRI, got {predicate!r}")
        if isinstance(subject, Literal):
            raise ValueError("triple subject must not be a literal")
        _set_subject(self, subject)
        _set_predicate(self, predicate)
        _set_object(self, object)
        _set_hash(self, hash((subject._hashed, predicate._hashed, object._hashed)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not Triple:
            return NotImplemented
        return (self.subject == other.subject and self.predicate == other.predicate
                and self.object == other.object)

    __hash__ = _Value.__hash__  # defining __eq__ would clear it


# each slot's setter, which the __init__ methods above call: Frozen
# refuses setattr
_set_hash = _Value._hash.__set__
_set_key = _Term._key.__set__
_set_hashed = _Term._hashed.__set__
_set_iri = Iri.value.__set__
_set_label = BlankNode.label.__set__
_set_lexical = Literal.lexical.__set__
_set_datatype = Literal.datatype.__set__
_set_language = Literal.language.__set__
_set_subject = Triple.subject.__set__
_set_predicate = Triple.predicate.__set__
_set_object = Triple.object.__set__


def term_sort_key(t: Term) -> tuple:
    """Total order over terms: IRIs, then literals, then blank nodes."""
    return t._key


def triple_sort_key(t: Triple) -> tuple:
    return (t.subject._key, t.predicate._key, t.object._key)


class Namespace:
    """Attribute-style IRI factory: ``SH.NodeShape -> Iri(...#NodeShape)``."""

    def __init__(self, base: str):
        self._base = base

    @property
    def base(self) -> str:
        return self._base

    def __getattr__(self, name: str) -> Iri:
        # only reached on a miss: the instance attribute set here answers
        # every later lookup of the same name
        if name.startswith("_"):
            raise AttributeError(name)
        iri = Iri(self._base + name)
        setattr(self, name, iri)
        return iri

    def term(self, name: str) -> Iri:
        return Iri(self._base + name)


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
SH = Namespace("http://www.w3.org/ns/shacl#")
PROV = Namespace("http://www.w3.org/ns/prov#")
EX = Namespace("http://example.org/okb#")

#: Prefix bindings bundled with every shipped artifact.
STANDARD_PREFIXES: dict[str, str] = {
    "ex": EX.base,
    "prov": PROV.base,
    "rdf": RDF.base,
    "rdfs": RDFS.base,
    "sh": SH.base,
    "xsd": XSD.base,
}

_XSD_DECIMAL = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
# The XSD lexical space of each numeric datatype, keyed by datatype IRI
# value. int() and float() accept more ("nan", "inf", "7_0", " 70",
# non-ASCII digits), so a literal is checked here before it is converted.
_NUMERIC_LEXICAL: dict[str, re.Pattern] = {
    XSD.integer.value: re.compile(r"[+-]?[0-9]+"),
    XSD.decimal.value: re.compile(_XSD_DECIMAL),
    XSD.double.value: re.compile(rf"{_XSD_DECIMAL}(?:[eE][+-]?[0-9]+)?|[+-]?INF|NaN"),
}


def is_numeric_literal(t: Term) -> bool:
    return isinstance(t, Literal) and t.datatype.value in _NUMERIC_LEXICAL


def in_lexical_space(lit: Literal) -> bool:
    """Is a numeric literal's text in its datatype's XSD lexical space?"""
    return _NUMERIC_LEXICAL[lit.datatype.value].fullmatch(lit.lexical) is not None


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

# A bucket is a list in set order until a read sorts it into a tuple.
_Bucket = list[Triple] | tuple[Triple, ...]
_Index = dict[Term, _Bucket]
_SubjectIndex = dict[Term, dict[Iri, _Bucket]]
_EMPTY: dict = {}  # the default of a lookup that misses; never written
_sort_key = attrgetter("_key")  # term_sort_key, without a Python call
# triple_sort_key on the triples of a bucket, which share the positions left out
_by_object = attrgetter("object._key")
_by_subject_predicate = attrgetter("subject._key", "predicate._key")
_RDF_TYPE = RDF.type.value


def _sorted_bucket(index: dict, key: Term, order) -> tuple[Triple, ...]:
    """``index[key]`` in canonical order, or ``()``: a bucket read for the
    first time is sorted by ``order`` into a tuple that replaces it."""
    bucket = index.get(key, ())
    if bucket.__class__ is list:
        bucket = index[key] = tuple(sorted(bucket, key=order) if len(bucket) > 1 else bucket)
    return bucket


class Graph:
    """A finite set of triples plus a prefix map.

    Set semantics: adding a duplicate triple is a no-op. Instances are
    built once (parser, compiler, report emitter) and treated as
    immutable afterwards; all read paths are safe to share across
    threads.

    The first read after the last ``add`` builds two hash indexes in one
    pass over the triple set, without sorting it: subject -> predicate ->
    triples (the SPO layout of Hexastore), which the validator, the query
    engine and the serializer read, and the class index, class -> its
    ``rdf:type`` triples, which ``subjects_of_type`` reads. An object
    index, object -> triples, is built in a pass of its own by the first
    ``match`` that needs it: one with no subject and an object but a
    predicate other than ``rdf:type``. Each bucket starts as a list in
    set order. The first ``match`` that reads a bucket sorts it into
    canonical order, by the positions its triples do not share, and
    stores the sorted tuple in its place in one assignment, as the
    indexes are stored; the serializer sorts copies only. So a
    concurrent reader finds a bucket unsorted, and sorts it as well, or
    sorted, never half sorted. The sorted list of every triple is built
    only for ``sorted_triples``, iteration and a ``match`` with neither
    subject nor object. ``add`` drops the indexes and that list.

    ``match`` with a subject reads that subject's predicate map: with the
    predicate too it is two dictionary lookups and a copy of the bucket;
    without it, the subject's predicates are sorted on each such read.
    Without a subject it reads the class's bucket for ``rdf:type``, and
    otherwise filters the object's bucket, or with no object the sorted
    list, by the predicate given.
    """

    def __init__(self, triples=(), prefixes: dict[str, str] | None = None):
        self._triples: set[Triple] = set(triples)
        self._prefixes: dict[str, str] = dict(prefixes or {})
        self._sorted: list[Triple] | None = None
        self._index: tuple[_SubjectIndex, _Index] | None = None
        self._by_o: _Index | None = None

    @property
    def prefixes(self) -> dict[str, str]:
        return dict(self._prefixes)

    def bind(self, label: str, namespace: str) -> None:
        self._prefixes[label] = namespace

    def add(self, triple: Triple) -> None:
        if triple not in self._triples:
            self._triples.add(triple)
            self._sorted = None
            self._index = None
            self._by_o = None

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __iter__(self):
        return iter(self.sorted_triples())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self):
        raise TypeError("Graph is not hashable")

    def sorted_triples(self) -> list[Triple]:
        if self._sorted is None:
            self._sorted = sorted(self._triples, key=triple_sort_key)
        return self._sorted

    def _indexes(self) -> tuple[_SubjectIndex, _Index]:
        """The subject-predicate and class indexes, built from the triple
        set in one pass, their buckets unsorted."""
        by_sp: _SubjectIndex = {}
        by_class: _Index = {}
        for t in self._triples:
            p = t.predicate
            by_sp.setdefault(t.subject, {}).setdefault(p, []).append(t)
            if p.value == _RDF_TYPE:
                by_class.setdefault(t.object, []).append(t)
        index = self._index = (by_sp, by_class)
        return index

    def _object_index(self) -> _Index:
        """The object index, built from the triple set, its buckets unsorted."""
        by_o: _Index = {}
        for t in self._triples:
            by_o.setdefault(t.object, []).append(t)
        self._by_o = by_o
        return by_o

    def match(self, s: Term | None = None, p: Term | None = None,
              o: Term | None = None) -> list[Triple]:
        """All triples agreeing with every given position.

        Absent positions are wildcards. The result has set semantics but
        is returned in canonical order so downstream joins stay
        deterministic.
        """
        by_sp, by_class = self._index or self._indexes()
        if s is not None:
            by_pred = by_sp.get(s, _EMPTY)
            if p is not None:
                found = _sorted_bucket(by_pred, p, _by_object)
                return list(found) if o is None else [t for t in found if t.object == o]
            return [t for pred in sorted(by_pred, key=_sort_key)
                    for t in _sorted_bucket(by_pred, pred, _by_object)
                    if o is None or t.object == o]
        if o is None:
            found = self.sorted_triples()
        elif p == RDF.type:
            return list(_sorted_bucket(by_class, o, _by_subject_predicate))
        else:
            found = _sorted_bucket(self._by_o or self._object_index(), o,
                                   _by_subject_predicate)
        return list(found) if p is None else [t for t in found if t.predicate == p]

    def subjects_of_type(self, cls: Iri) -> list[Term]:
        """The distinct instances of ``cls``, in canonical order."""
        return [t.subject for t in self.match(None, RDF.type, cls)]


def union(a: Graph, b: Graph) -> Graph:
    """Triple-set union. Prefix conflicts resolve in favor of ``a``."""
    prefixes = dict(b._prefixes)
    for label, ns in a._prefixes.items():
        if label in prefixes and prefixes[label] != ns:
            import logging  # imported here only: it adds ~6 ms to start-up
            logging.getLogger(__name__).warning(
                "prefix conflict on %r: keeping <%s>, dropping <%s>",
                label, ns, prefixes[label])
        prefixes[label] = ns
    g = Graph(prefixes=prefixes)
    g._triples = a._triples | b._triples
    return g


# ---------------------------------------------------------------------------
# Lexer and parser cursor (shared by Turtle and the SPARQL subset)
# ---------------------------------------------------------------------------

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_IRIREF = r"[^<> \t\r\n]*"  # what may stand between '<' and '>'
_IRIREF_RE = re.compile(_IRIREF)
# whole-string patterns, for .fullmatch: ^...$ with .match would also
# accept a final newline
_PN_LOCAL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.\-]*")
# A numeral, as the lexer reads it and the serializer writes it bare: a
# double, an integer or decimal, or a signed decimal with no digit before
# the point (".5" alone would end a statement)
_NUMERAL = (r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][+-]?[0-9]+"
            r"|[+-]?[0-9]+(?:\.[0-9]+)?|[+-]\.[0-9]+")
_NUMERAL_RE = re.compile(_NUMERAL)


def _numeral_kind(numeral: str) -> str:
    """The token kind of a numeral: double, decimal or integer."""
    return ("double" if "e" in numeral or "E" in numeral
            else "decimal" if "." in numeral else "integer")


def _iri_text(value: str, namespaces) -> tuple[str, str | None]:
    """An IRI as Turtle and the query lexer read it, with the label used:
    ``label:local`` for the first (label, namespace) pair that leaves a
    whole local name, else ``<value>`` and None."""
    for label, ns in namespaces:
        if value.startswith(ns):
            local = value[len(ns):]
            if _PN_LOCAL_RE.fullmatch(local) and not local.endswith("."):
                return f"{label}:{local}", label
    return f"<{value}>", None


# A name goes on with word characters and '-'; a '.' belongs to it only
# when more name characters follow, so a trailing dot ends the statement.
_LOCAL = r"[\w-]*(?:\.+[\w-]+)*"
_NAME = r"[^\W\d_]" + _LOCAL
_PNAME_RE = re.compile(_NAME + ":")  # .match: the text of a prefixed name token

# A language's token grammar is the alternatives of _TERMS, then its own,
# then those of _CATCH_ALL (see _token_grammar). _TERMS opens with the end
# of text and the term fragments both languages share. Every alternative
# but the end of text consumes a character and the last takes any
# character, so a scan covers the text without gaps and ends at the end
# of text, and the engine never backtracks into the layout before a token
# (which is why that need not be possessive, a form Python 3.10 lacks). A
# numeral takes one word character that runs on from it (12abc, 1e, 70²),
# which makes the token malformed. A group named in _ERRORS marks input
# that cannot start a token.
_TERMS = rf'''
    (?P<eof>\Z)
  | (?P<pname>{_NAME}:{_LOCAL})
  | (?P<string>"""(?:[^"\\]|\\[\s\S]|"(?!""))*"""|"(?!"")(?:[^"\\\n]|\\.)*")
  | <(?P<iriref>{_IRIREF})>
  | (?P<number>(?:{_NUMERAL})\w?)
'''
_CATCH_ALL = r'''
  | (?P<bad_string>")
  | (?P<bad_char>[\s\S])
'''
# any run of spaces, tabs, line ends and comments, written as a run of
# blanks followed by comments each trailed by blanks, which the engine
# matches faster
_LAYOUT = r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*"


def _token_grammar(alternatives: str) -> tuple[str, re.Pattern]:
    """A language's token grammar, from its own ``alternatives``, and the
    scan form derived from it.

    The grammar is a verbose pattern with one named group per token kind:
    each match is the layout before a token, as group 1, then the token.
    ``_tokenize`` reads it, and it is compiled only when a parse fails.
    The scan form is the same pattern with the group names stripped and
    the token, not the layout, as its only group, so its ``findall`` cuts
    a text into the same token texts, ending at an empty one (or two, when
    the text ends in layout).
    """
    tokens = _TERMS + alternatives + _CATCH_ALL
    scan = f"(?:{_LAYOUT})({re.sub(r'[(][?]P<[a-z_]+>', '(?:', tokens)})"
    return f"({_LAYOUT})(?:{tokens})", re.compile(scan, re.VERBOSE)


# Turtle's only bare words are the keywords, each a whole name: no name
# character may follow, past any dots.
_TOKEN_RE, _SCAN_RE = _token_grammar(rf'''
  | (?P<dot>\.) | (?P<semi>;) | (?P<comma>,) | (?P<lbracket>\[) | (?P<rbracket>\])
  | (?P<name>(?:a|true|false)(?!\.*[\w-]))
  | (?P<bad_name>{_NAME})
  | (?P<at_prefix>@prefix)(?![^\W\d_])
  | (?P<at_base>@base)(?![^\W\d_])
  | @(?P<lang>[^\W\d_]+(?:-[^\W_]+)*)
  | _:(?P<blank>\w+)
  | (?P<dcaret>\^\^)
  | (?P<unterminated_iri><{_IRIREF}\Z)
  | (?P<bad_iri><)
  | (?P<collection>[()])
  | (?P<bad_at>@)
  | (?P<bad_blank>_:)
  | (?P<bad_caret>\^)
''')

_ERRORS = {
    "bad_name": "unexpected token {!r}",
    "at_base": "@base is not supported",
    "unterminated_iri": "unterminated IRI",
    "bad_iri": "illegal character in IRI",
    "collection": "collections '( )' are not supported",
    "bad_at": "expected directive or language tag after '@'",
    "bad_blank": "blank node label expected after '_:'",
    "bad_caret": "expected '^^'",
    "bad_string": "unterminated string",
    "bad_char": "unexpected character {!r}",
}
# bare words with the same meaning in Turtle and SPARQL
_KEYWORDS = {"a": "a", "true": "boolean", "false": "boolean"}
_LITERAL_DATATYPES = {"string": XSD.string, "integer": XSD.integer,
                      "decimal": XSD.decimal, "double": XSD.double,
                      "boolean": XSD.boolean}
_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|([\s\S]))")
_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", "b": "\b", "f": "\f",
            '"': '"', "'": "'", "\\": "\\"}
# the Turtle tokens that begin with '@' but are no language tag
_AT_WORDS = ("@", "@prefix", "@base")
_UNSEEN = object()  # a memo's default: the text was never resolved


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: str, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos


class _Stop(Exception):
    """Where a parse stopped. ``args[0](token)`` builds the error once
    ``_Parser.run`` has unwound the stack and named the cursor's token."""


def _syntax_error(text: str, pos: int, message: str) -> TurtleSyntaxError:
    """The error for ``message`` at character offset ``pos`` of ``text``."""
    line = text.count("\n", 0, pos) + 1
    return TurtleSyntaxError(message, line, pos - text.rfind("\n", 0, pos))


def _unescape(m: re.Match) -> str:
    """The character an ECHAR or UCHAR escape stands for."""
    code = m[1] or m[2]
    if code is not None and int(code, 16) <= 0x10FFFF:
        return chr(int(code, 16))
    char = m[0][1]
    if char in _ESCAPES:
        return _ESCAPES[char]
    raise ValueError(f"bad \\{char} escape" if char in "uU"
                     else f"unsupported escape '\\{char}'")


def _unquote(text: str) -> str:
    """The value of a string token: ``text`` without its quotes, its
    escapes decoded. ValueError names a bad escape."""
    value = text[3:-3] if text.startswith('"""') else text[1:-1]
    return _ESCAPE_RE.sub(_unescape, value) if "\\" in value else value


def _tokenize(text: str, token_re: re.Pattern, error) -> list[_Token]:
    """The tokens of ``text`` under a language's compiled grammar, up to
    the first ``eof``, each named and placed.

    ``error(text, pos, message)`` builds the language's syntax error; the
    first lexer error in the text is raised.
    """
    tokens = []
    for m in token_re.finditer(text):
        kind, pos = m.lastgroup, m.end(1)
        value = m[kind]
        if kind in _ERRORS:
            raise error(text, pos, _ERRORS[kind].format(value))
        if kind == "string":
            try:
                value = _unquote(value)
            except ValueError as exc:
                raise error(text, pos, str(exc)) from None
        elif kind == "iriref":
            if not _SCHEME_RE.match(value):
                raise error(text, pos, f"relative IRI <{value}> not allowed")
        elif kind == "number":
            if not _NUMERAL_RE.fullmatch(value):
                raise error(text, pos, f"malformed numeric literal {value!r}")
            kind = _numeral_kind(value)
        elif kind == "name":
            kind = _KEYWORDS.get(value, kind)
        tokens.append(_Token(kind, value, pos))
        if kind == "eof":  # text ending in layout would match eof twice
            break
    return tokens


class TermTable:
    """What the parses made through it share, for as long as its caller
    holds it: one ``Iri`` per IRI value, and per sequence of ``@prefix``
    bindings one memo from token text to the IRI or literal it stands for.

    A parse starts in state 0, the prefix map it is given (empty for a
    Turtle document); ``after`` numbers the state a directive moves to
    from (previous state, label, namespace), so a switch costs O(1)
    however many prefixes are bound. A memo holds no error: a prefix a
    document never declared fails as it fails alone.
    """

    __slots__ = ("iris", "memos", "_after")

    def __init__(self):
        self.iris: dict[str, Iri] = {RDF.type.value: RDF.type}  # 'a' is RDF.type
        self.memos: list[dict[str, Iri | Literal | None]] = [{}]
        self._after: dict[tuple[int, str, str], int] = {}

    def after(self, state: int, label: str, namespace: str) -> tuple[int, dict]:
        """The state, and its memo, that binding ``label`` to ``namespace``
        moves ``state`` to."""
        key = (state, label, namespace)
        nxt = self._after.get(key)
        if nxt is None:
            nxt = self._after[key] = len(self.memos)
            self.memos.append({})
        return nxt, self.memos[nxt]


class _Parser:
    """A cursor over the token texts of one language (Turtle or the SPARQL
    subset).

    A subclass names its language by three class attributes, ``scan_re``
    and ``token_re`` from ``_token_grammar`` and the syntax error builder
    ``error(text, pos, message)``, and supplies ``parse``; ``prefixes``
    resolves prefixed names, and ``table``, a ``TermTable``, holds the
    terms read.

    One ``findall`` of the scan form cuts the text into ``tokens``, its
    token texts, and the productions read them by text alone: a string
    keeps its quotes, so punctuation and keywords are tested by equality.
    ``_term`` resolves each distinct text to its IRI or literal once per
    state of the table (``terms`` is the memo of ``state``, which a
    subclass moves when a prefix is bound), and equal IRIs read through
    one table are one ``Iri`` object, so dictionary lookups between them
    stop at the identity test.

    A parse that goes well builds no token object and computes no
    position. Where a parse stops, a production raises ``_Stop``; ``run``
    catches it and runs ``_tokenize`` over the text once. That raises the
    text's first lexer error, so lexer errors win over parser errors as if
    the whole text had been tokenized first, and otherwise names and
    places the token where the parse stopped, for the error ``_Stop``
    builds. So an error deep in nested brackets needs no more stack than
    the production that found it.
    """

    scan_re: re.Pattern
    token_re: str

    def __init__(self, text: str, prefixes: dict[str, str], table: TermTable):
        self.text = text
        self.prefixes = prefixes
        self.table = table
        self.iris = table.iris
        self.state = 0
        self.terms = table.memos[0]
        self.tokens: list[str] = self.scan_re.findall(text)
        self.idx = 0

    def _error(self, message: str) -> _Stop:
        """The syntax error ``message`` at the cursor's token."""
        return _Stop(lambda tok: self.error(self.text, tok.pos, message))

    def _term(self, t: str) -> Iri | Literal | None:
        """The IRI or literal the token text ``t`` at the cursor stands
        for, or None for any other token. A malformed string, IRI or
        numeral stands for nothing: the parse stops there, and ``run``
        reports the lexer error. The first character tells a string or an
        IRI; each distinct text is read once."""
        term = self.terms.get(t, _UNSEEN)
        if term is not _UNSEEN:
            return term
        term = value = None
        first = t[:1]
        if first == '"':
            if t != '"':
                try:
                    term = Literal(_unquote(t), XSD.string)
                except ValueError:
                    pass
        elif first == "<":
            if t[-1] == ">" and _SCHEME_RE.match(t[1:-1]):
                value = t[1:-1]
        elif _PNAME_RE.match(t):
            prefix, _, local = t.partition(":")
            ns = self.prefixes.get(prefix)
            if ns is None:
                raise self._error(f"undefined prefix '{prefix}:'")
            value = ns + local
        elif t == "true" or t == "false":
            term = Literal(t, XSD.boolean)
        elif _NUMERAL_RE.fullmatch(t):
            term = Literal(t, _LITERAL_DATATYPES[_numeral_kind(t)])
        if value is not None:
            term = self.iris.get(value)
            if term is None:
                term = self.iris[value] = Iri(value)
        self.terms[t] = term
        return term

    def _predicate_object_list(self, subject, verb, obj, triple, add,
                               ends: tuple[str, ...]) -> None:
        """``verb obj (, obj)* (;+ verb obj (, obj)*)*``, the production
        Turtle and SPARQL share. ``verb()`` and ``obj()`` parse one
        predicate and one object, ``triple(subject, predicate, object)``
        builds each triple and ``add`` takes it, in order; a dangling run
        of ``;`` may stand before a token in ``ends``."""
        tokens = self.tokens
        while True:
            predicate = verb()
            add(triple(subject, predicate, obj()))
            t = tokens[self.idx]
            while t == ",":
                self.idx += 1
                add(triple(subject, predicate, obj()))
                t = tokens[self.idx]
            if t != ";":
                return
            while t == ";":
                self.idx += 1
                t = tokens[self.idx]
            if t in ends:
                return

    def run(self):
        """``parse()``, or the error where it stopped; nesting deeper than
        the interpreter's recursion limit allows is a syntax error at the
        token where it stopped."""
        try:
            return self.parse()
        except _Stop as exc:
            stop = exc
        except RecursionError:
            stop = self._error("nesting too deep")
        # raises the text's first lexer error, if it has one
        tokens = _tokenize(self.text, re.compile(self.token_re, re.VERBOSE), self.error)
        raise stop.args[0](tokens[min(self.idx, len(tokens) - 1)])


# ---------------------------------------------------------------------------
# Turtle parser
# ---------------------------------------------------------------------------

class _TurtleParser(_Parser):
    scan_re, token_re, error = _SCAN_RE, _TOKEN_RE, staticmethod(_syntax_error)

    def __init__(self, source: str, table: TermTable):
        self.graph = Graph()
        super().__init__(source, self.graph._prefixes, table)
        # the graph is new and unread until the parse ends
        self.add = self.graph._triples.add
        self._bnode_counter = 0
        self._doc_labels: dict[str, BlankNode] = {}

    def _expected(self, what: str) -> _Stop:
        """"expected ``what``, found" the kind of the cursor's token."""
        return _Stop(lambda tok: _syntax_error(self.text, tok.pos,
                                               f"expected {what}, found {tok.kind}"))

    def _expect(self, t: str, kind: str) -> None:
        if self.tokens[self.idx] != t:
            raise self._expected(kind)
        self.idx += 1

    def _fresh_bnode(self) -> BlankNode:
        b = BlankNode(f"b{self._bnode_counter:03d}")
        self._bnode_counter += 1
        return b

    def parse(self) -> Graph:
        tokens = self.tokens
        while tokens[self.idx]:
            if tokens[self.idx] == "@prefix":
                self._prefix_directive()
            else:
                self._triples_block()
        return self.graph

    def _prefix_directive(self):
        tokens = self.tokens
        self.idx += 1
        label = tokens[self.idx]
        if not (label.endswith(":") and _PNAME_RE.match(label)):
            raise self._error("expected 'label:' after @prefix")
        self.idx += 1
        iri = tokens[self.idx]
        if iri[:1] != "<" or self._term(iri) is None:
            raise self._expected("iriref")
        self.idx += 1
        self._expect(".", "dot")
        self.graph.bind(label[:-1], iri[1:-1])
        # prefixed names may now stand for other IRIs
        self.state, self.terms = self.table.after(self.state, label, iri)

    def _triples_block(self):
        # blankNodePropertyList predicateObjectList? : "[ ex:p ex:o ] ." is
        # a statement, "[] ." is not
        tokens, idx = self.tokens, self.idx
        listed = tokens[idx] == "[" and tokens[idx + 1] != "]"
        subject = self._subject()
        if not (listed and tokens[self.idx] == "."):
            self._statements(subject)
        self._expect(".", "dot")

    def _statements(self, subject: Term):
        self._predicate_object_list(subject, self._verb, self._object, Triple,
                                    self.add, (".", "]"))

    def _subject(self) -> Term:
        t = self.tokens[self.idx]
        if t == "[" or _is_blank(t) or self._term(t).__class__ is Iri:
            return self._object()
        raise self._expected("subject")

    def _doc_label(self, label: str) -> BlankNode:
        if label not in self._doc_labels:
            self._doc_labels[label] = self._fresh_bnode()
        return self._doc_labels[label]

    def _iri_term(self) -> Iri:
        term = self._term(self.tokens[self.idx])
        if term.__class__ is not Iri:
            raise self._expected("IRI")
        self.idx += 1
        return term

    def _verb(self) -> Iri:
        t = self.tokens[self.idx]
        if t == "a":
            self.idx += 1
            return RDF.type
        term = self._term(t)
        if term.__class__ is not Iri:
            raise self._expected("predicate")
        self.idx += 1
        return term

    def _object(self) -> Term:
        tokens = self.tokens
        t = tokens[self.idx]
        term = self._term(t)
        if term is None:
            if t == "[":
                return self._bnode_property_list()
            if not _is_blank(t):
                raise self._expected("object")
            self.idx += 1
            return self._doc_label(t[2:])
        self.idx += 1
        if t[0] == '"':
            after = tokens[self.idx]
            if after == "^^":
                self.idx += 1
                return Literal(term.lexical, self._iri_term())
            if after[:1] == "@" and after not in _AT_WORDS:
                self.idx += 1
                return Literal(term.lexical, language=after[1:].lower())
        return term

    def _bnode_property_list(self) -> BlankNode:
        node = self._fresh_bnode()
        self.idx += 1  # '['
        if self.tokens[self.idx] != "]":
            self._statements(node)
        self._expect("]", "rbracket")
        return node


def _is_blank(t: str) -> bool:
    """Is ``t`` the text of a labelled blank node (``_:`` alone is not)?"""
    return t[:2] == "_:" and len(t) > 2


def parse_turtle(source: str, terms: TermTable | None = None) -> Graph:
    """Parse a Turtle document into a Graph.

    A caller reading many documents makes one ``TermTable`` and passes
    it as ``terms`` to each parse, which then reuses the IRIs and the
    resolved token texts of the documents before; alone, a parse makes a
    fresh table. The graph, its prefix map and the error do not depend on
    the table. Blank node labels are fresh per parse (``b000`` first in
    every document); they never carry identity across documents. Nesting
    deeper than the interpreter's recursion limit allows is a syntax error.
    """
    return _TurtleParser(source, TermTable() if terms is None else terms).run()


# ---------------------------------------------------------------------------
# Canonical serializer
# ---------------------------------------------------------------------------

class _Serializer:
    """The canonical text of one graph.

    It reads the graph's subject-predicate index as ``by_subject``
    (subject -> predicate -> triples), building the indexes if no read has
    yet. It sorts copies and never writes a bucket, which may be in set
    order or sorted by an earlier ``match``; neither order reaches the
    output. It reads no object index: ``parents`` maps each blank node
    that some triple names as object to those triples, one per parent,
    built in one pass over the triples. Subjects, predicates and objects
    are sorted where they are rendered, and every sort key is total, a
    blank node's input label breaking the last ties.

    A blank node named by two triples, or from which a cycle is reachable,
    is labelled ``_:cN``, numbered by content key and then input label;
    any other blank node is written inline where it is named. Subject
    blocks come in three runs: IRI subjects by IRI; then blank nodes that
    nothing names, headed ``[]``, by content key and then input label;
    then labelled nodes by label text, so ``_:c10`` precedes ``_:c2``.

    Each blank node's and each term's work is done once per call. One pass
    over the blank-node edges finds ``cyclic``, the blank nodes from which
    a cycle is reachable. ``keys`` keeps the content key of every other
    blank node, ``texts`` the text of each IRI, literal and labelled blank
    node, and ``heads`` each predicate's text and the space after it
    (``a `` for ``rdf:type``). The three are keyed by the term's sort key,
    whose hash is computed in C. Nothing is kept between calls.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.used_prefixes: set[str] = set()
        # longest-namespace-first so nested namespaces resolve correctly
        self.ns_by_length = sorted(graph.prefixes.items(),
                                   key=lambda kv: (-len(kv[1]), kv[0]))
        self.by_subject = (graph._index or graph._indexes())[0]
        parents: dict[BlankNode, list[Triple]] = {}
        for t in graph._triples:
            o = t.object
            if o.__class__ is BlankNode:
                parents.setdefault(o, []).append(t)
        self.parents = parents
        self.cyclic = self._reaching_a_cycle()
        self.keys: dict[tuple, str] = {}
        self.texts: dict[tuple, str] = {}
        self.heads: dict[tuple, str] = {RDF.type._key: "a "}

    # -- blank node canonical content keys ---------------------------------

    def _reaching_a_cycle(self) -> set[BlankNode]:
        """The blank nodes from which a cycle of blank nodes is reachable:
        those left after peeling off sinks again and again, each node's
        parents read from ``parents``."""
        # node -> its blank-node edges not yet peeled
        left = {s: sum(isinstance(t.object, BlankNode) for ts in by_pred.values() for t in ts)
                for s, by_pred in self.by_subject.items() if isinstance(s, BlankNode)}
        sinks = [b for b in self.parents if not left.get(b)]
        while sinks:
            for t in self.parents.get(sinks.pop(), ()):
                s = t.subject
                if isinstance(s, BlankNode):
                    left[s] -= 1
                    if not left[s]:
                        sinks.append(s)
        return {b for b, n in left.items() if n}

    def content_key(self, b: BlankNode, stack: tuple = ()) -> str:
        # No cycle is reachable from a node outside ``cyclic``, so no node
        # below it is on any caller's stack, and its key is kept once made.
        # A node in ``cyclic`` is computed afresh from each caller's point
        # of view: a shared cache would pin the ~cycle~ marker wherever the
        # first caller happened to stand, making labels depend on input
        # order.
        key = self.keys.get(b._key)
        if key is not None:
            return key
        if b in stack:
            return "~cycle~"
        stack += (b,)
        parts = [p.value + "=" + (self.content_key(t.object, stack)
                                  if isinstance(t.object, BlankNode) else repr(t.object._key))
                 for p, ts in self.by_subject.get(b, _EMPTY).items() for t in ts]
        key = "(" + ";".join(sorted(parts)) + ")"
        if b not in self.cyclic:
            self.keys[b._key] = key
        return key

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        # blank nodes needing a stable label: multiply referenced or cyclic
        labelled = sorted(self.cyclic.union(b for b, ts in self.parents.items()
                                            if len(ts) >= 2),
                          key=lambda b: (self.content_key(b), b.label))
        self.labels = {b: f"c{i}" for i, b in enumerate(labelled)}
        self.texts.update((b._key, "_:" + label) for b, label in self.labels.items())
        # (place, head, subject) for each subject written as a block
        blocks = sorted(
            ((0, s.value), self._render_iri(s), s) if isinstance(s, Iri)
            else ((2, self.labels[s]), "_:" + self.labels[s], s) if s in self.labels
            else ((1, self.content_key(s), s.label), "[]", s)
            for s in self.by_subject
            if isinstance(s, Iri) or s in self.labels or s not in self.parents)
        body = [f"{head} " + " ;\n    ".join(self._predicate_objects(s)) + " ."
                for _, head, s in blocks]
        header = "\n".join(f"@prefix {label}: <{ns}> ."
                           for label, ns in sorted(self.graph.prefixes.items())
                           if label in self.used_prefixes)
        text = "\n\n".join(filter(None, [header, *body]))
        return text + "\n" if text else ""

    def _object_sort_key(self, o: Term) -> tuple:
        if isinstance(o, BlankNode):
            # the output label breaks ties between a labelled and an inline
            # node, the input label between two inline nodes
            return (2, self.content_key(o), self.labels.get(o, ""), o.label)
        return o._key

    def _predicate_objects(self, s: Term) -> list[str]:
        """``p o1, o2`` for each predicate of ``s``: ``a`` first, then by
        IRI, and the objects of each in canonical order."""
        by_pred = self.by_subject.get(s, _EMPTY)
        preds = sorted(by_pred, key=_sort_key)
        if RDF.type in by_pred:
            preds.remove(RDF.type)
            preds.insert(0, RDF.type)
        heads, render = self.heads, self._render_object
        lines = []
        for p in preds:
            head = heads.get(p._key)
            if head is None:
                head = heads[p._key] = self._render_iri(p) + " "
            ts = by_pred[p]
            if len(ts) == 1:
                lines.append(head + render(ts[0].object))
            else:
                lines.append(head + ", ".join(map(render, sorted(
                    [t.object for t in ts], key=self._object_sort_key))))
        return lines

    def _render_object(self, o: Term) -> str:
        text = self.texts.get(o._key)
        if text is not None:
            return text
        if isinstance(o, Iri):
            return self._render_iri(o)
        if isinstance(o, Literal):
            text = self.texts[o._key] = self._render_literal(o)
            return text
        # an inline blank node: named once, so written once
        parts = self._predicate_objects(o)
        return "[ " + " ; ".join(parts) + " ]" if parts else "[]"

    def _render_iri(self, iri: Iri) -> str:
        text = self.texts.get(iri._key)
        if text is None:
            text, label = _iri_text(iri.value, self.ns_by_length)
            if label is not None:
                self.used_prefixes.add(label)
            self.texts[iri._key] = text
        return text

    def _render_literal(self, lit: Literal) -> str:
        if lit.language is not None:
            return self._quote(lit.lexical) + "@" + lit.language
        dt = lit.datatype
        if dt == XSD.string:
            return self._quote(lit.lexical)
        if dt == XSD.boolean and lit.lexical in ("true", "false"):
            return lit.lexical
        if (_NUMERAL_RE.fullmatch(lit.lexical)
                and _LITERAL_DATATYPES[_numeral_kind(lit.lexical)] == dt):
            return lit.lexical
        return self._quote(lit.lexical) + "^^" + self._render_iri(dt)

    def _quote(self, s: str) -> str:
        if "\n" in s:
            body = s.replace("\\", "\\\\").replace('"', '\\"')
            return f'"""{body}"""'
        body = (s.replace("\\", "\\\\").replace('"', '\\"')
                 .replace("\t", "\\t").replace("\r", "\\u000D"))
        return f'"{body}"'


def serialize_turtle(g: Graph) -> str:
    """Canonical Turtle text for ``g``.

    Equal triple sets with compatible prefix maps produce byte-identical
    output. Blank nodes with a single parent are emitted inline, so their
    labels never reach the output; multiply-referenced blank nodes get
    stable content-derived ``_:cN`` labels.
    """
    return _Serializer(g).render()
