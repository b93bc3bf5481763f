"""Hypothesis strategies for graphs and terms.

Generated terms stay inside what the Turtle dialect can write and read
back: absolute IRIs without reserved characters, lowercase language
tags (the parser folds tags to lowercase), and lexical forms that are
plain strings. Blank nodes are generated separately because graph
equality is label-sensitive and only serialization is label-free.
"""

from hypothesis import strategies as st

from govshapes.rdf import EX, XSD, BlankNode, Graph, Iri, Literal, Triple

_LOCAL = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True)

prefixed_iris = st.builds(lambda s: EX.term(s), _LOCAL)
bare_iris = st.builds(lambda s: Iri("http://data.test/v/" + s), _LOCAL)
iris = st.one_of(prefixed_iris, bare_iris)

_TEXT = st.text(
    alphabet=st.sampled_from(list("abz ABZ09_.,:;!?/|(){}<>'\"\\\n\t\r") + ["é", "λ", "∀"]),
    max_size=12)

plain_literals = st.builds(Literal, _TEXT)
lang_literals = st.builds(
    lambda s, tag: Literal(s, language=tag),
    _TEXT, st.sampled_from(["en", "en-gb", "de", "pt-br"]))
integer_literals = st.builds(
    lambda n: Literal(str(n), XSD.integer), st.integers(-10**6, 10**6))
decimal_literals = st.builds(
    lambda a, b: Literal(f"{a}.{b}", XSD.decimal),
    st.integers(-999, 999), st.integers(0, 999))
double_literals = st.builds(
    lambda m, e: Literal(f"{m}.0E{e}", XSD.double),
    st.integers(-99, 99), st.integers(-8, 8))
boolean_literals = st.sampled_from(
    [Literal("true", XSD.boolean), Literal("false", XSD.boolean)])
# lexical forms the numeric shorthand must refuse to inline
broken_typed_literals = st.sampled_from([
    Literal("12.", XSD.decimal),
    Literal("1e5", XSD.integer),
    Literal("NaN", XSD.double),
    Literal("yes", XSD.boolean),
    Literal("2025-11-03T14:21:07Z", XSD.dateTime),
])

literals = st.one_of(
    plain_literals, lang_literals, integer_literals, decimal_literals,
    double_literals, boolean_literals, broken_typed_literals)

ground_terms = st.one_of(iris, literals)

ground_triples = st.builds(Triple, iris, iris, ground_terms)


@st.composite
def ground_graphs(draw, max_triples=25):
    triples = draw(st.lists(ground_triples, max_size=max_triples))
    g = Graph(triples)
    g.bind("ex", EX.base)
    return g


@st.composite
def bnode_graphs(draw, max_triples=20):
    """Graphs mixing IRI subjects with blank-node structures."""
    g = draw(ground_graphs(max_triples=max_triples))
    n_bnodes = draw(st.integers(0, 4))
    bnodes = [BlankNode(f"g{i}") for i in range(n_bnodes)]
    for i, b in enumerate(bnodes):
        for _ in range(draw(st.integers(1, 3))):
            g.add(Triple(b, draw(iris), draw(ground_terms)))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            # single parent, serialized inline
            g.add(Triple(draw(iris), draw(iris), b))
        elif kind == 1:
            # two parents force a stable label
            g.add(Triple(draw(iris), draw(iris), b))
            g.add(Triple(draw(iris), draw(iris), b))
        # kind 2 leaves the node as a root
        if i > 0 and draw(st.booleans()):
            g.add(Triple(bnodes[i - 1], draw(iris), b))
    return g


# Obligation record files in the flat layout that ir._read_flat reads,
# with the near misses on its border mixed in: YAML 1.1's bool and null
# words and numerals, comments, other block headers, layout characters,
# non-ASCII text, duplicate and unknown keys.
_FLAT_KEYS = st.sampled_from(["obligation_id", "target_class", "constraint_type",
                              "relation", "min_count", "sparql_text", "severity",
                              "message", "bogus"])
_FLAT_WORDS = ["A1", "ex:Decision", "structural", "Warning", "Needs a log.",
               "http://x.test/y", "<http://x.test/y>", "ex:a:b", "a#b", "Don't", "0",
               "12", "yES", "nULL"]
_FLAT_NEAR_MISSES = ["yes", "No", "TRUE", "off", "On", "null", "Null", "NULL", "~",
                     "01", "07", "1_0", "1:20", ".5", "1.5", ".inf", "-1", "a ",
                     "a # c", "a: b", "x:", "a\tb", "é", "'q'", "[]", "", "|", "|+"]
_FLAT_VALUES = st.sampled_from(_FLAT_WORDS * 3 + _FLAT_NEAR_MISSES)
_BLOCK_HEADERS = st.sampled_from(["|-"] * 5 + ["|", "|+", "|2-", ">-", "|- # c"])
_BLOCK_LINES = st.sampled_from(["SELECT $this WHERE {", "$this ex:p ?v .",
                                "FILTER(?v > 1) }", "a: b # c", "- x", "", ""])
# a line's indent in a block; 0 ends the block, unless the line is empty
_BLOCK_INDENTS = st.sampled_from([4] * 8 + [0, 2, 3, 6])
_CONTINUATIONS = st.sampled_from(["  "] * 8 + ["   ", " ", "- "])
_BETWEEN = st.sampled_from(["", "# c", "  # c", "#", "   "])
_VALID_RECORD = ("- obligation_id: {id}\n  target_class: ex:Decision\n"
                 "  constraint_type: structural\n  relation: ex:hasUsageLog\n"
                 "  min_count: 2\n  message: Needs a log.")


@st.composite
def flat_sources(draw, max_records=3):
    """The text of an obligation record file, mostly in the flat layout."""
    lines = []
    if draw(st.integers(0, 9)) == 0:
        lines.append("[]")
    for n in range(draw(st.integers(0, max_records))):
        if draw(st.integers(0, 3)) == 0:
            lines += _VALID_RECORD.format(id=f"R{n}").split("\n")
            continue
        for i, key in enumerate(draw(st.lists(_FLAT_KEYS, min_size=1, max_size=4))):
            lead = "- " if i == 0 else draw(_CONTINUATIONS)
            if draw(st.booleans()):
                lines.append(f"{lead}{key}: {draw(_FLAT_VALUES)}")
            else:
                lines.append(f"{lead}{key}: {draw(_BLOCK_HEADERS)}")
                lines += [" " * draw(_BLOCK_INDENTS) + text
                          for text in draw(st.lists(_BLOCK_LINES, min_size=1, max_size=4))]
            if draw(st.integers(0, 4)) == 0:
                lines.append(draw(_BETWEEN))
    newline = draw(st.sampled_from(["\n"] * 5 + ["\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))
