"""Permission sets, hereditary/amalgamation checks, and enumeration."""
from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse.amalgamation import (ExplicitList, P2Spec, age, assemble_pair,
                                  check_1_adequate, check_ap, check_hp,
                                  enumerate_rp2, graph_p2, in_rp2,
                                  point_structure, require_adequate)
from fraisse.errors import AdequacyError
from fraisse.structures import FinStructure, Vocabulary, canonical_key, undirected_graph

from _naive import all_graphs, graph_of_bits, naive_in_rp2, naive_is_isomorphic
from test_sampling_golden import MARKED, marked_p2

graphs = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.integers(min_value=0,
                                    max_value=(1 << (n * (n - 1) // 2)) - 1)))


def complete(n):
    return undirected_graph(n, [(i, j) for j in range(n) for i in range(j)])


def test_graph_p2_members():
    p2 = graph_p2()
    assert sorted(m.size for m in p2.members) == [0, 1, 2, 2]


def test_graph_p2_is_adequate():
    rep = check_1_adequate(graph_p2())
    assert rep.holds
    assert rep.has_empty and rep.has_two_structure
    assert rep.missing_pairs == []


def test_graph_p2_has_hp():
    assert check_hp(graph_p2()).holds


def test_graph_p2_has_ap():
    rep = check_ap(graph_p2(), amalgam_bound=8, triple_bound=4)
    assert rep.holds
    assert rep.inconclusive_count == 0
    assert rep.triples_checked > 0


def test_enumerate_counts_match_isomorphism_classes():
    # 1, 1, 2, 4, 11 classes of loop-free graphs on 0..4 vertices
    p2 = graph_p2()
    assert [len(enumerate_rp2(p2, n)) for n in range(5)] == [1, 1, 2, 4, 11]


def test_enumerate_yields_pairwise_non_isomorphic():
    reps = enumerate_rp2(graph_p2(), 4)
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not naive_is_isomorphic(a, b)


def test_enumerate_covers_every_labelled_graph():
    reps = {canonical_key(g) for g in enumerate_rp2(graph_p2(), 4)}
    assert {canonical_key(g) for g in all_graphs(4)} == reps


@settings(max_examples=60, deadline=None)
@given(graphs)
def test_every_graph_is_in_rp2(spec):
    n, bits = spec
    assert in_rp2(graph_p2(), graph_of_bits(n, bits))


def test_age_lists_nonempty_substructures():
    p3 = undirected_graph(3, [(0, 1), (1, 2)])
    got = sorted((g.size, len(g.tables["adj"]) // 2) for g in age(p3, 2))
    assert got == [(1, 0), (2, 0), (2, 1)]


def test_point_structure():
    g = undirected_graph(2, [(0, 1)])
    pt = point_structure(g, 0)
    assert pt.size == 1 and pt.tables["adj"] == frozenset()


def test_assemble_pair_directions():
    p2 = graph_p2()
    t0 = point_structure(undirected_graph(1, []), 0)
    links = p2.permitted_links(t0, t0)
    sizes = {len(assemble_pair(t0, t0, d).tables["adj"]) for d in links}
    assert sizes == {0, 2}


def test_edge_only_class_is_adequate_and_complete():
    tiny = P2Spec([undirected_graph(0, []), undirected_graph(1, []),
                   undirected_graph(2, [(0, 1)])])
    assert check_1_adequate(tiny).holds
    for n in range(4):
        reps = enumerate_rp2(tiny, n)
        assert len(reps) == 1
        assert naive_is_isomorphic(reps[0], complete(n))
    assert not in_rp2(tiny, undirected_graph(3, [(0, 1), (1, 2)]))
    assert in_rp2(tiny, complete(3))


def test_missing_pair_breaks_adequacy():
    rep = check_1_adequate(P2Spec([undirected_graph(0, []),
                                   undirected_graph(1, [])]))
    assert not rep.holds
    assert len(rep.missing_pairs) == 1
    with pytest.raises(AdequacyError):
        require_adequate(P2Spec([undirected_graph(0, []),
                                 undirected_graph(1, [])]))


def test_non_hereditary_list_fails_hp():
    bad = ExplicitList([undirected_graph(0, []),
                        undirected_graph(2, [(0, 1)])])
    rep = check_hp(bad)
    assert not rep.holds
    assert rep.counterexample is not None


def test_bounded_class_fails_ap():
    # all graphs on at most 2 points: an edge and a non-edge over the
    # empty base admit no amalgam of size <= 2, and nothing larger exists
    small = ExplicitList([undirected_graph(0, []), undirected_graph(1, []),
                          undirected_graph(2, [(0, 1)]),
                          undirected_graph(2, [])])
    assert check_hp(small).holds
    rep = check_ap(small, amalgam_bound=4, triple_bound=2)
    assert not rep.holds
    cx = rep.counterexample
    assert cx.base.size == 0
    assert {len(cx.left.tables["adj"]), len(cx.right.tables["adj"])} == {0, 2}


def test_ap_witnesses_embed_both_sides():
    rep = check_ap(graph_p2(), amalgam_bound=6, triple_bound=3)
    assert rep.sample_witnesses
    for w in rep.sample_witnesses:
        assert w.into_left.source == w.base
        assert w.into_right.source == w.base


def test_p2_rejects_oversized_members():
    with pytest.raises(Exception):
        P2Spec([undirected_graph(3, [])])


DIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
TWO_ARCS = Vocabulary([("a", 2), ("b", 2)])


def two_arcs_members() -> list[FinStructure]:
    """Points with or without an a-loop (never a b-loop); a pair may
    carry b only alongside a in the same direction, and two looped
    points carry a both ways."""
    points = [FinStructure(TWO_ARCS, 1, {"a": loop}) for loop in ((), ((0, 0),))]
    members = [FinStructure(TWO_ARCS, 0)] + points
    for t0 in points:
        for t1 in points:
            both = bool(t0.tables["a"]) and bool(t1.tables["a"])
            for da, db in product(DIRS, repeat=2):
                if all(a >= b for a, b in zip(da, db)) and (not both or da == (1, 1)):
                    members.append(assemble_pair(t0, t1, (da, db)))
    return members


def _bits_rows(n: int, bits: int) -> set[tuple[int, int]]:
    return {(u, v) for u in range(n) for v in range(n) if bits >> (u * n + v) & 1}


# n points, then n bits for red or a, and n * n bits (loops included) per binary symbol
_raw = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1),
                        st.integers(0, (1 << (n * n)) - 1),
                        st.integers(0, (1 << (n * n)) - 1)))
# indices of members left out, so that some specs miss point types and links
_drops = st.sets(st.integers(min_value=0, max_value=35), max_size=6)


@settings(max_examples=120, deadline=None)
@given(_raw, _drops)
def test_in_rp2_matches_naive_on_marked_arcs(raw, drops):
    n, red, arc, _ = raw
    members = [m for i, m in enumerate(marked_p2().members) if i not in drops]
    s = FinStructure(MARKED, n, {"red": [(v,) for v in range(n) if red >> v & 1],
                                 "arc": _bits_rows(n, arc)})
    assert in_rp2(P2Spec(members, vocab=MARKED), s) == naive_in_rp2(members, s)


@settings(max_examples=120, deadline=None)
@given(_raw, _drops)
def test_in_rp2_matches_naive_on_two_binary_symbols(raw, drops):
    n, loops, a, b = raw
    members = [m for i, m in enumerate(two_arcs_members()) if i not in drops]
    # the a-loops come from `loops` so that looped points are not rare
    rows_a = {(u, v) for u, v in _bits_rows(n, a) if u != v}
    rows_a |= {(v, v) for v in range(n) if loops >> v & 1}
    s = FinStructure(TWO_ARCS, n, {"a": rows_a, "b": _bits_rows(n, b & a)})
    assert in_rp2(P2Spec(members, vocab=TWO_ARCS), s) == naive_in_rp2(members, s)


def test_in_rp2_sees_both_inside_and_outside():
    p2 = P2Spec(two_arcs_members())
    inside = FinStructure(TWO_ARCS, 3, {"a": {(0, 0), (1, 1), (0, 1), (1, 0), (1, 2)},
                                        "b": {(1, 2)}})
    assert in_rp2(p2, inside) and naive_in_rp2(p2.members, inside)
    outside = FinStructure(TWO_ARCS, 3, {"a": {(0, 1)}, "b": {(1, 0)}})
    assert not in_rp2(p2, outside) and not naive_in_rp2(p2.members, outside)


def _all_points(vocab: Vocabulary) -> list[FinStructure]:
    """Every one-point structure over the vocabulary, permitted or not."""
    return [FinStructure(vocab, 1, {name: [(0,) * arity]
                                    for (name, arity), on in zip(vocab.symbols, held) if on})
            for held in product((0, 1), repeat=len(vocab.symbols))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("marked", "two-arcs")), _drops)
def test_permitted_links_match_assembled_members(which, drops):
    vocab, full = (MARKED, marked_p2().members) if which == "marked" else \
        (TWO_ARCS, two_arcs_members())
    p2 = P2Spec([m for i, m in enumerate(full) if i not in drops], vocab=vocab)
    nbin = len(vocab.binary_symbols())
    for t0 in _all_points(vocab):
        for t1 in _all_points(vocab):
            want = tuple(d for d in product(DIRS, repeat=nbin)
                         if p2.is_member(assemble_pair(t0, t1, d)))
            assert p2.permitted_links(t0, t1) == want
