"""Text format round-trips and parse-error reporting."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse.amalgamation import graph_p2
from fraisse.errors import ParseError
from fraisse.structures import expand_with_marks, undirected_graph
from fraisse.textio import (document_text, load_p2, load_structure,
                            p2_document, parse_document, structure_block,
                            structure_document, vocab_block)

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
    assert doc.order == ["g1", "g2"]
