"""Text format round-trips and parse-error reporting."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse.amalgamation import graph_p2
from fraisse.errors import ParseError
from fraisse.structures import expand_with_marks, undirected_graph
from fraisse.textio import (Document, document_text, load_p2, load_structure,
                            p2_document, parse_document, parse_typed_universe,
                            structure_block, structure_document, vocab_block)

from _naive import graph_of_bits, random_graph

graphs = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.integers(min_value=0,
                                    max_value=(1 << (n * (n - 1) // 2)) - 1)))


def test_structure_document_round_trip():
    g = undirected_graph(4, [(0, 1), (2, 3)])
    text = structure_document(g, name="g")
    doc = parse_document(text)
    assert doc.sole_structure() == g


def test_marked_structure_round_trip():
    g = expand_with_marks(undirected_graph(3, [(0, 1)]), [("red", [2])])
    doc = parse_document(structure_document(g))
    assert doc.sole_structure() == g


@settings(max_examples=60, deadline=None)
@given(graphs)
def test_round_trip_random(spec):
    n, bits = spec
    g = graph_of_bits(n, bits)
    assert parse_document(structure_document(g)).sole_structure() == g


def test_p2_document_round_trip():
    p2 = graph_p2()
    doc = parse_document(p2_document(p2))
    back = doc.sole_p2()
    assert len(back.members) == len(p2.members)
    assert back.size_bound == p2.size_bound
    assert {m.canonical() if hasattr(m, "canonical") else m
            for m in back.members} == set(p2.members)


def test_document_text_round_trip():
    g = undirected_graph(3, [(0, 2)])
    doc = parse_document(structure_document(g, name="g"))
    text = document_text(doc)
    again = parse_document(text)
    assert again.sole_structure() == g


def test_document_text_rejects_an_unnamed_member():
    p2 = graph_p2()
    doc = Document({"v": p2.vocab}, {"a": p2.members[0]}, {"p": p2})
    with pytest.raises(ParseError, match="p2 block 'p' has a member the document does not name"):
        document_text(doc)


def test_load_helpers(tmp_path):
    g = undirected_graph(3, [(0, 1), (1, 2)])
    sp = tmp_path / "g.txt"
    sp.write_text(structure_document(g, name="g"))
    assert load_structure(sp) == g
    pp = tmp_path / "p2.txt"
    pp.write_text(p2_document(graph_p2()))
    assert len(load_p2(pp).members) == 4


def test_comments_and_blank_lines_ignored():
    g = undirected_graph(2, [(0, 1)])
    text = structure_document(g)
    noisy = "# leading comment\n\n" + text.replace("\n", "  # tail\n\n", 1)
    assert parse_document(noisy).sole_structure() == g


def test_parse_error_carries_line_number():
    bad = "vocab v\nrel adj 2\n\nstructure s over v\nadj: 0 1\n"
    with pytest.raises(ParseError) as e:
        parse_document(bad)
    assert "size" in str(e.value)


def test_parse_rejects_unknown_vocab():
    with pytest.raises(ParseError):
        parse_document("structure s over nowhere\nsize 1\n")


def test_parse_rejects_out_of_range_tuple():
    bad = "vocab v\nrel adj 2\nstructure s over v\nsize 2\nadj: 0 5; 5 0\n"
    with pytest.raises(ParseError):
        parse_document(bad)


def test_parse_rejects_wrong_tuple_width():
    bad = "vocab v\nrel adj 2\nstructure s over v\nsize 3\nadj: 0 1 2\n"
    with pytest.raises(ParseError):
        parse_document(bad)


def test_sole_structure_requires_exactly_one():
    g = undirected_graph(1, [])
    two = "\n".join([vocab_block("v", g.vocab),
                     structure_block("a", g, "v"),
                     structure_block("b", g, "v")])
    doc = parse_document(two)
    with pytest.raises(ParseError):
        doc.sole_structure()


def test_blocks_compose():
    rng = random.Random(3)
    g1 = random_graph(rng, 4)
    g2 = random_graph(rng, 5)
    text = "\n".join([vocab_block("v", g1.vocab),
                      structure_block("g1", g1, "v"),
                      structure_block("g2", g2, "v")])
    doc = parse_document(text)
    assert doc.structures["g1"] == g1
    assert doc.structures["g2"] == g2
    assert list(doc.structures) == ["g1", "g2"]


# One input per parse-error branch, with the exact message.  A block's
# construction error is reported on the block's header line; errors found
# only after the whole text is read carry no line.
V = "vocab v\nrel adj 2\n"
S = V + "structure s over v\n"
TU = "typed-universe u\ncarrier 1\narity 1\n"

DOCUMENT_ERRORS = [
    (S, "line 3: structure 's' has no size line"),
    (S + "size -1\n", "line 3: size -1 is negative"),
    (V + "p2 p over v\n", "line 3: p2 block 'p' lists no members"),
    (V + "p2 p over v\nmembers x\n", "line 3: p2 member 'x' is not a structure above it"),
    ("vocab v\nrel tri 3\nstructure m over v\nsize 0\np2 p over v\nmembers m\n",
     "line 5: permission sets need a binary vocabulary"),
    ("vocab\n", "line 1: vocab line needs exactly a name"),
    ("vocab v\nvocab v\n", "line 2: duplicate vocab 'v'"),
    (V + "structure s v\n", "line 3: structure line must read 'structure <name> over <vocab>'"),
    (V + "p2 p of v\n", "line 3: p2 line must read 'p2 <name> over <vocab>'"),
    ("structure s over w\nsize 1\n", "line 1: unknown vocab 'w'"),
    (S + "size 1\nstructure s over v\n", "line 5: duplicate structure 's'"),
    (S + "size 1\np2 p over v\nmembers s\np2 p over v\n", "line 7: duplicate p2 block 'p'"),
    ("vocab v\nsize 2\n", "line 2: vocab blocks hold 'rel <symbol> <arity>' lines"),
    ("vocab v\nrel adj two\n", "line 2: arity 'two' is not an integer"),
    (S + "size 1\nsize 1\n", "line 5: size given twice"),
    (S + "size 1 2\n", "line 4: size line needs exactly one integer"),
    (S + "size x\n", "line 4: size 'x' is not an integer"),
    (S + "size 1\nadj 0 0\n", "line 5: unrecognised structure line 'adj 0 0'"),
    (S + "size 1\nred: 0\n", "line 5: unknown symbol 'red'"),
    (S + "adj: 0 1\n", "line 4: tables must come after the size line"),
    (S + "size 2\nadj: 0 x\n", "line 5: tuple '0 x' holds a non-integer"),
    (S + "size 2\nadj: 0 1 1\n", "line 5: tuple '0 1 1' has 3 entries; 'adj' needs 2"),
    (S + "size 2\nadj: 0 1; 0 2\n", "line 5: tuple '0 2' leaves universe 0..1"),
    (V + "p2 p over v\nbound 1 2\n", "line 4: bound line needs exactly one integer"),
    (V + "p2 p over v\nbound x\n", "line 4: bound 'x' is not an integer"),
    (V + "p2 p over v\nsize 2\n", "line 4: unrecognised p2 line 'size 2'"),
    ("rel adj 2\n", "line 1: unrecognised top-level line 'rel adj 2'"),
    # a vocabulary's own errors, a negative bound: on the block's header line
    ("# v\nvocab v\nrel adj 0\n", "line 2: symbol 'adj' has arity 0; must be >= 1"),
    ("# v\nvocab v\nrel adj 2\nrel adj 1\n", "line 2: duplicate symbol 'adj'"),
    (S + "size 1\np2 p over v\nbound -2\nmembers s\n", "line 5: size_bound must be >= 0, got -2"),
    # the header names w, the member is over v
    (V + "vocab w\nrel red 1\nstructure m over v\nsize 1\np2 p over w\nmembers m\n",
     "line 7: permission set mixes vocabularies"),
]

UNIVERSE_ERRORS = [
    ("typed-universe\n", "line 1: typed-universe wants a name"),
    ("typed-universe u\ncarrier x\n", "line 2: carrier wants a size"),
    ("typed-universe u\ncarrier 1\narity -1\n", "line 3: arity wants a number"),
    ("typed-universe u\n0 : k\n", "line 2: type rows need carrier and arity first"),
    (TU + "0 k\n", "line 4: expected 'points : key'"),
    (TU + "x : k\n", "line 4: bad point list in type row"),
    (TU + "0 0 : k\n", "line 4: row arity 2 != declared 1"),
    (TU + "1 : k\n", "line 4: row (1,) leaves the carrier"),
    ("typed-universe u\ncarrier 1\n", "incomplete typed-universe document"),
    ("typed-universe u\ncarrier 2\narity 1\n0 : k\n", "missing type row for (1,) at arity 1"),
    ("typed-universe u\ntyped-universe v\n", "line 2: typed-universe given twice"),
    ("typed-universe u\ncarrier 3\ncarrier 2\n", "line 3: carrier given twice"),
    (TU + "0 : a\n0 : b\n", "line 5: row (0,) given twice"),
]


@pytest.mark.parametrize("parse, text, message",
                         [(parse_document, t, m) for t, m in DOCUMENT_ERRORS]
                         + [(parse_typed_universe, t, m) for t, m in UNIVERSE_ERRORS],
                         ids=[m for _, m in DOCUMENT_ERRORS + UNIVERSE_ERRORS])
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message
