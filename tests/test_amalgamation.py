"""Permission sets, hereditary/amalgamation checks, and enumeration."""
from __future__ import annotations

import functools
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse import amalgamation
from fraisse.amalgamation import (P2Spec, age,
                                  check_1_adequate, check_ap, check_hp,
                                  enumerate_rp2, graph_p2, in_rp2, require_adequate)
from fraisse.errors import AdequacyError, InputError, InvalidElementError
from fraisse.structures import (Embedding, FinStructure, Vocabulary, canonical_key,
                                find_embeddings, point_codes, undirected_graph, with_point)

from _naive import (all_graphs, graph_of_bits, naive_adequacy, naive_in_rp2,
                    naive_is_isomorphic)
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


def test_with_point_pair_directions():
    p2 = graph_p2()
    t0 = undirected_graph(1, [])
    links = p2.permitted_links(t0, t0)
    sizes = {len(with_point(t0, 0, [d]).tables["adj"]) for d in links}
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


def test_non_hereditary_p2_fails_hp():
    empty = undirected_graph(0, [])
    rep = check_hp(P2Spec([empty, undirected_graph(2, [(0, 1)])]))
    assert not rep.holds
    member, subset, piece = rep.counterexample
    assert member.size == 2 and len(subset) == 1 and piece.size == 1


def lonely_p2() -> P2Spec:
    """A plain and a red point are permitted, but no two-point structure."""
    return P2Spec([FinStructure(MARKED, 0), FinStructure(MARKED, 1),
                   FinStructure(MARKED, 1, {"red": [(0,)]})])


def test_lonely_points_fail_ap_then_go_inconclusive():
    # two points over the empty base have no amalgam at all
    lonely = lonely_p2()
    rep = check_ap(lonely, amalgam_bound=2, triple_bound=1)
    assert rep.verdict == "fails"
    cx = rep.counterexample
    assert (cx.base.size, cx.left.size, cx.right.size) == (0, 1, 1)
    # with room for one point only, the two-point amalgams are out of reach
    rep = check_ap(lonely, amalgam_bound=1, triple_bound=1)
    assert rep.verdict == "inconclusive" and rep.inconclusive_count == 2


def test_ap_witnesses_embed_both_sides():
    rep = check_ap(graph_p2(), amalgam_bound=6, triple_bound=3)
    assert rep.sample_witnesses
    for w in rep.sample_witnesses:
        assert w.into_left.source == w.base
        assert w.into_right.source == w.base


AP_RUNS = {  # (spec, amalgam bound, triple bound): verdict, triples, witnesses, inconclusive
    ("graph", 7, 4): ("holds", 2787, 2787, 0),
    ("graph", 5, 3): ("holds", 199, 199, 0),
    ("graph", 4, 3): ("inconclusive", 199, 189, 10),
    ("graph", 2, 2): ("inconclusive", 27, 23, 4),
    ("marked", 3, 2): ("inconclusive", 1133, 973, 160),
    ("marked", 2, 2): ("inconclusive", 1133, 289, 844),
}


@functools.cache
def ap_report(label: str, amalgam_bound: int, triple_bound: int):
    spec = graph_p2() if label == "graph" else marked_p2()
    return check_ap(spec, amalgam_bound, triple_bound)


@pytest.mark.parametrize("run", sorted(AP_RUNS), ids=lambda run: "-".join(map(str, run)))
def test_ap_counts_are_pinned(run):
    # runs whose free amalgams exceed the amalgam bound for some triples
    rep = ap_report(*run)
    got = (rep.verdict, rep.triples_checked, rep.witness_count, rep.inconclusive_count)
    assert got == AP_RUNS[run]


@pytest.mark.parametrize("run", sorted(AP_RUNS), ids=lambda run: "-".join(map(str, run)))
def test_ap_witnesses_are_amalgams(run):
    # check_ap builds only the amalgams it keeps; keep all of them here
    spec = graph_p2() if run[0] == "graph" else marked_p2()
    with mock.patch.object(amalgamation, "_SAMPLE_WITNESSES", AP_RUNS[run][1] + 1):
        rep = check_ap(spec, *run[1:])
    assert len(rep.sample_witnesses) == rep.witness_count == AP_RUNS[run][2]
    for w in rep.sample_witnesses:
        beta = Embedding(w.left, w.amalgam, w.left_into.map, check=True)
        gamma = Embedding(w.right, w.amalgam, w.right_into.map, check=True)
        assert [beta(w.into_left(x)) for x in range(w.base.size)] == \
            [gamma(w.into_right(x)) for x in range(w.base.size)]
        assert in_rp2(spec, w.amalgam)
        assert w.amalgam.size <= run[1]
    kept = ap_report(*run).sample_witnesses
    assert kept == rep.sample_witnesses[:len(kept)]


def test_ap_builds_only_the_kept_witnesses():
    # every free amalgam fits 8 points, so only the kept witnesses are searched
    with mock.patch.object(amalgamation, "_glue", wraps=amalgamation._glue) as glue, \
            mock.patch.object(amalgamation, "_amalgam", wraps=amalgamation._amalgam) as search:
        rep = check_ap(graph_p2(), 8, 4)
    assert rep.witness_count == 2787
    assert glue.call_count == len(rep.sample_witnesses) == amalgamation._SAMPLE_WITNESSES
    assert search.call_count == amalgamation._SAMPLE_WITNESSES


def test_ap_rejects_bounds_before_enumerating():
    with mock.patch.object(amalgamation, "_levels", side_effect=AssertionError("enumerated")):
        with pytest.raises(InputError, match="negative triple bound -1"):
            check_ap(graph_p2(), 8, -1)
        with pytest.raises(InputError, match="amalgam bound 1 is below"):
            check_ap(graph_p2(), 1, 4)


def test_negative_size_bound_rejected():
    with pytest.raises(InputError, match="size_bound must be >= 0, got -2"):
        P2Spec(graph_p2().members, size_bound=-2)


def test_ap_enumerates_each_level_once():
    with mock.patch.object(amalgamation, "_levels", wraps=amalgamation._levels) as levels, \
            mock.patch.object(amalgamation, "enumerate_rp2") as enum:
        check_ap(graph_p2(), 6, 3)
    assert levels.call_count == 1 and not enum.called


def test_levels_match_enumerate_rp2():
    for p2, n, sizes in ((graph_p2(), 4, [1, 1, 2, 4, 11]), (lonely_p2(), 3, [1, 2, 0, 0])):
        levels = amalgamation._levels(p2, n)
        assert [len(level) for level in levels] == sizes
        assert levels == [enumerate_rp2(p2, i) for i in range(n + 1)]
    with pytest.raises(InvalidElementError):
        enumerate_rp2(graph_p2(), -1)


def pool_amalgam(p2: P2Spec, bound: int):
    """The reference amalgam search: the free amalgam, else a scan of
    every class member up to the bound for a pair of embeddings that
    agree on the base."""
    pool = [d for n in range(bound + 1) for d in enumerate_rp2(p2, n)]

    def search(_p2, b, c, f, g, _bound):
        base = {g.map[i]: f.map[i] for i in range(len(f.map))}
        extra = [v for v in range(c.size) if v not in base]
        idx = {**base, **{v: b.size + j for j, v in enumerate(extra)}}
        tables = {name: set(tab) for name, tab in b.tables.items()}
        for name, tab in c.tables.items():
            tables[name] |= {tuple(idx[x] for x in t) for t in tab}
        codes_b, codes_c = point_codes(b), point_codes(c)
        cross = [(u, v) for u in range(b.size) if u not in f.map for v in extra]
        if b.size + len(extra) <= bound and all(p2.links(codes_b[u], codes_c[v])
                                                for u, v in cross):
            for u, v in cross:
                option = p2.links(codes_b[u], codes_c[v])[0]
                for sym, (to_v, from_v) in zip(p2.vocab.binary_symbols(), option):
                    if to_v:
                        tables[sym].add((u, idx[v]))
                    if from_v:
                        tables[sym].add((idx[v], u))
            d = FinStructure(p2.vocab, b.size + len(extra), tables)
            if in_rp2(p2, d):
                return d, Embedding(b, d, range(b.size)), Embedding(c, d, [idx[v] for v in range(c.size)])
        for d in pool:
            for beta in find_embeddings(b, d):
                partial = {g.map[i]: beta.map[f.map[i]] for i in range(len(f.map))}
                gamma = next((e for e in find_embeddings(c, d)
                              if all(e.map[x] == y for x, y in partial.items())), None)
                if gamma is not None:
                    return d, beta, gamma
        return None

    return search


DIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
RED_ARC_POINTS = [FinStructure(MARKED, 1), FinStructure(MARKED, 1, {"red": [(0,)]})]
RED_ARC_PAIRS = [with_point(t0, point_codes(t1)[0], [(d,)])
                 for t0 in RED_ARC_POINTS for t1 in RED_ARC_POINTS for d in DIRS]


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, len(RED_ARC_PAIRS) - 1)), st.sampled_from([(2, 2), (3, 2)]))
def test_ap_matches_pool_search_on_random_specs(keep, bounds):
    # adequacy is not required, so some specs fail
    p2 = P2Spec([FinStructure(MARKED, 0)] + RED_ARC_POINTS
                + [RED_ARC_PAIRS[i] for i in sorted(keep)])
    rep = check_ap(p2, *bounds)
    search = pool_amalgam(p2, bounds[0])

    def reference(_p2, b, c, f, g, bound):
        # the pool search's amalgam cut down to the images of b and c, as
        # the identification `_glue` builds: c's map into it and its size
        found = search(_p2, b, c, f, g, bound)
        if found is None:
            return None
        _d, beta, gamma = found
        back = {w: u for u, w in enumerate(beta.map)}
        fresh = [w for w in gamma.map if w not in back]
        gmap = tuple(back[w] if w in back else b.size + fresh.index(w) for w in gamma.map)
        return gmap, b.size + len(fresh)

    # the free-first test refuses every triple, so the pool search decides all
    with mock.patch.object(amalgamation, "_free_fits", return_value=False), \
            mock.patch.object(amalgamation, "_amalgam", reference):
        ref = check_ap(p2, *bounds)
    counts = (rep.verdict, rep.triples_checked, rep.witness_count, rep.inconclusive_count)
    assert counts == (ref.verdict, ref.triples_checked, ref.witness_count, ref.inconclusive_count)

    free_fits = amalgamation._free_fits

    def checked(p2_, b, c, f, g, bound, memo):
        # an accepted triple's search returns the free amalgam: the base
        # where f puts it, the other points of c fresh in index order
        fits = free_fits(p2_, b, c, f, g, bound, memo)
        if fits:
            base = {y: f.map[x] for x, y in enumerate(g.map)}
            fresh = iter(range(b.size, bound + 1))
            free = tuple(base[v] if v in base else next(fresh) for v in range(c.size))
            assert amalgamation._amalgam(p2_, b, c, f, g, bound) == \
                (free, b.size + c.size - len(f.map))
        return fits

    # with no witness kept, every triple meets the free-first test first
    with mock.patch.object(amalgamation, "_SAMPLE_WITNESSES", 0), \
            mock.patch.object(amalgamation, "_free_fits", checked):
        bare = check_ap(p2, *bounds)
    assert (bare.verdict, bare.triples_checked, bare.witness_count,
            bare.inconclusive_count) == counts


def test_p2_rejects_oversized_members():
    with pytest.raises(Exception):
        P2Spec([undirected_graph(3, [])])


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
                    members.append(with_point(t0, point_codes(t1)[0], [(da, db)]))
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


def _dropped(which: str, drops) -> tuple[Vocabulary, list[FinStructure]]:
    vocab, full = (MARKED, marked_p2().members) if which == "marked" else \
        (TWO_ARCS, two_arcs_members())
    return vocab, [m for i, m in enumerate(full) if i not in drops]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("marked", "two-arcs")), _drops)
def test_adequacy_matches_naive(which, drops):
    vocab, members = _dropped(which, drops)
    rep = check_1_adequate(P2Spec(members, vocab=vocab))
    assert (rep.holds, rep.has_empty, rep.has_two_structure, len(rep.missing_pairs),
            len(rep.witnesses)) == naive_adequacy(members)


def _all_points(vocab: Vocabulary) -> list[FinStructure]:
    """Every one-point structure over the vocabulary, permitted or not."""
    return [FinStructure(vocab, 1, {name: [(0,) * arity]
                                    for (name, arity), on in zip(vocab.symbols, held) if on})
            for held in product((0, 1), repeat=len(vocab.symbols))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("marked", "two-arcs")), _drops)
def test_permitted_links_match_assembled_members(which, drops):
    vocab, members = _dropped(which, drops)
    p2 = P2Spec(members, vocab=vocab)
    nbin = len(vocab.binary_symbols())
    for t0 in _all_points(vocab):
        for t1 in _all_points(vocab):
            want = tuple(d for d in product(DIRS, repeat=nbin)
                         if p2.is_member(with_point(t0, point_codes(t1)[0], [d])))
            assert p2.permitted_links(t0, t1) == want
