"""Doubled covers: construction, pair-level laws, quotient geometry."""
from __future__ import annotations

import random

import pytest

from fraisse.doubled_cover import (DoubledAclSource, _xor_cut_canon, build_double,
                                   build_expansion_star,
                                   e_definability_check, quotient,
                                   three_type_separation, verify_claim1,
                                   verify_claim2, verify_claim3)
from fraisse.errors import (ConfigurationNotFoundError, InputError,
                            InvalidElementError, SaturationError)
from fraisse.generic import (grow_random, new_generic, saturate,
                             saturate_until_stable)
from fraisse.amalgamation import graph_p2
from fraisse.structures import (FinStructure, expand_with_marks, induced_substructure, tuple_type,
                                undirected_graph)
from fraisse.types_orbits import acl_approx, enumerate_types

from _naive import all_graphs, graph_of_bits, naive_pair_key, random_graph


# -- construction ---------------------------------------------------------------


def test_single_vertex_doubles_to_an_edge():
    d = build_double(undirected_graph(1, []))
    assert d.size == 2
    assert d.m.tables["adj"] == frozenset({(0, 1), (1, 0)})


def test_single_edge_doubles_to_a_4_cycle():
    d = build_double(undirected_graph(2, [(0, 1)]))
    assert d.size == 4
    assert d.m.tables["adj"] == frozenset(
        {(0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (3, 1), (2, 3), (3, 2)})


def test_double_adjacency_law():
    base = undirected_graph(3, [(0, 1)])
    d = build_double(base)
    adj = d.m.tables["adj"]
    for a in range(3):
        for b in range(3):
            base_adj = (a, b) in base.tables["adj"]
            assert ((2 * a, 2 * b) in adj) == (base_adj and a != b)
            assert ((2 * a + 1, 2 * b + 1) in adj) == (base_adj and a != b)
            assert ((2 * a, 2 * b + 1) in adj) == (not base_adj)


def test_double_rejects_bad_bases():
    with pytest.raises(InputError):
        build_double(expand_with_marks(undirected_graph(2, []), [("m", [0])]))
    from fraisse.structures import graph_vocabulary
    loopy = FinStructure(graph_vocabulary(), 2,
                         {"adj": frozenset({(0, 0)})})
    with pytest.raises(InputError):
        build_double(loopy)
    asym = FinStructure(graph_vocabulary(), 2, {"adj": frozenset({(0, 1)})})
    with pytest.raises(InputError):
        build_double(asym)


def test_accessors():
    d = build_double(undirected_graph(2, [(0, 1)]))
    assert d.level_points(0) == (0, 2)
    assert d.level_points(1) == (1, 3)


def test_halves_equal_base():
    base = graph_of_bits(4, 37)
    d = build_double(base)
    for level in (0, 1):
        half, _ = induced_substructure(d.m, d.level_points(level))
        assert half.tables == base.tables


def test_f_prefix_tracks_saturation():
    o = new_generic(graph_p2(), 3)
    grow_random(o, 6)
    saturate_until_stable(o, 2)
    d = build_double(o.current, o.saturation)
    assert d.f_prefix(2) == o.current.size
    assert d.f_prefix(3) == 0


# -- pair-level laws, exhaustively on small bases ---------------------------------


def test_claim1_exhaustive_small():
    for n in range(5):
        for base in all_graphs(n):
            rep = verify_claim1(build_double(base))
            assert rep.holds, (base, rep.failures)


def test_bond_is_the_no_common_neighbour_relation(pipeline):
    # an independent recomputation from the raw adjacency rows; the
    # formula needs a rich cover, where non-bonded pairs always share
    # a neighbour
    d = pipeline.d2
    adj = d.m.tables["adj"]
    rows = [{w for w in range(d.size) if (u, w) in adj}
            for u in range(d.size)]
    for u in range(d.size):
        for v in range(d.size):
            formula = u == v or not (rows[u] & rows[v])
            actual = u == v or u ^ 1 == v
            assert formula == actual
    rep = e_definability_check(d)
    assert rep.verdict == "match"
    assert rep.pairs_checked == d.size * d.size


def test_e_definability_mismatches_on_a_tiny_cover():
    # the 4-cycle cover of a single edge: an adjacent non-bonded pair
    # also has no common neighbour, so the defining formula needs more
    # room than two bonded pairs provide
    d = build_double(undirected_graph(2, [(0, 1)]))
    rep = e_definability_check(d)
    assert rep.verdict == "mismatch"
    assert rep.mismatches
    assert verify_claim1(d).holds


# -- quotient geometry -------------------------------------------------------------


def test_quotient_pair_type_collapses_order_and_adjacency(small_pipeline):
    q = small_pipeline.q2
    t_ab = q.pair_type((0, 1))
    # one type of distinct class pairs: order and base adjacency vanish
    assert q.pair_type((1, 0)) == t_ab
    assert q.type_of((0, 1)) == t_ab
    assert q.pair_type((0, 0)) != t_ab


def test_quotient_modes_detected(small_pipeline):
    assert small_pipeline.q2._mode == "cover"
    assert small_pipeline.qstar._mode == "marked"
    d = small_pipeline.d2
    # a mark on one point, on a mixed set of points, or a second binary symbol
    for ambient in (expand_with_marks(d.m, [("x", [0])]),
                    expand_with_marks(d.m, [("x", d.level_points(0)[1:] + (1,))]),
                    FinStructure(d.m.vocab.extended([("bond", 2)]), d.size,
                                 {**d.m.tables, "bond": {(u, u ^ 1) for u in range(d.size)}})):
        with pytest.raises(InputError):
            quotient(d, ambient=ambient)


def test_quotient_fast_paths_agree_with_general(small_pipeline):
    """Both closed forms against the swap minimum of `_naive.type_desc`."""
    d = small_pipeline.d2
    rng = random.Random(5)
    for ambient in (d.m, small_pipeline.mstar):
        q = quotient(d, ambient=ambient)
        tuples = [tuple(rng.randrange(d.base.size) for _ in range(k))
                  for k in (1, 2, 3, 4) for _ in range(25)]
        keys = {t: naive_pair_key(ambient, t) for t in tuples}
        for t1 in tuples:
            for t2 in tuples:
                if len(t1) == len(t2):
                    assert (q.pair_type(t1) == q.pair_type(t2)) == (keys[t1] == keys[t2])


def _flip_masks(m: int) -> list[int]:
    """Per set of flipped classes, the bits of the packed matrix it
    complements: those of the pairs with exactly one flipped class."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return [sum(1 << p for p, (i, j) in enumerate(pairs) if (s >> i ^ s >> j) & 1)
            for s in range(1 << m)]


def test_switching_normal_form_is_the_flip_minimum():
    rng = random.Random(11)
    for m in range(9):
        masks = _flip_masks(m)
        npairs = m * (m - 1) // 2
        # every pattern up to 6 classes, samples beyond
        patterns = (range(1 << npairs) if m <= 6
                    else [rng.getrandbits(npairs) for _ in range(300)])
        for bits in patterns:
            assert _xor_cut_canon(bits, m) == min(bits ^ mask for mask in masks), (m, bits)


def test_quotient_rejects_bad_classes(small_pipeline):
    q = small_pipeline.q2
    with pytest.raises(InvalidElementError):
        q.pair_type((q.size,))
    with pytest.raises(InvalidElementError):
        q.pair_type((0, -1))


def test_closed_form_modes_take_more_than_8_classes():
    d = build_double(random_graph(random.Random(3), 10))
    for q in (quotient(d), quotient(d, ambient=build_expansion_star(d))):
        assert q._mode in ("cover", "marked")
        assert q.pair_type(tuple(range(9))).kind == "pair"


def test_nine_class_cover_types_are_switching_classes():
    """Blocks 0-8, 9-17 and 18-26 of the base carry a graph H, H switched
    at a set S, and H with one edge flipped; cross-block edges are random.
    Switching keeps the bare cover's type, the flipped edge changes the
    switching class and so the type."""
    rng = random.Random(8)
    h = {(i, j) for i in range(9) for j in range(i + 1, 9) if rng.random() < 0.5}
    s = {0, 2, 3, 7}
    switched = {(i, j) for i in range(9) for j in range(i + 1, 9)
                if ((i, j) in h) != ((i in s) != (j in s))}
    flipped = h ^ {(1, 4)}
    edges = {(i + 9 * b, j + 9 * b) for b, block in enumerate((h, switched, flipped))
             for (i, j) in block}
    edges |= {(i, j) for i in range(27) for j in range(9 * (i // 9 + 1), 27)
              if rng.random() < 0.5}
    d = build_double(undirected_graph(27, sorted(edges)))
    q, qm = quotient(d), quotient(d, ambient=build_expansion_star(d))
    blocks = [tuple(range(9 * b, 9 * b + 9)) for b in range(3)]
    assert q.pair_type(blocks[0]) == q.pair_type(blocks[1])
    assert q.pair_type(blocks[0]) != q.pair_type(blocks[2])
    # the level mark freezes swaps, so the marked cover tells H from its switch
    assert qm.pair_type(blocks[0]) != qm.pair_type(blocks[1])


def test_claim3_on_generic_cover(pipeline):
    rep = verify_claim3(pipeline.q2)
    assert rep.holds
    m = pipeline.q2.size
    assert rep.pairs_checked == m * (m - 1)
    assert sum(rep.case_counts.values()) == rep.pairs_checked
    assert set(rep.case_counts) == {"adjacent", "non-adjacent"}


def test_separation_on_generic_cover(pipeline):
    rep = three_type_separation(pipeline.q2)
    assert rep.separates
    assert rep.pairwise_match
    assert rep.even_type != rep.odd_type
    b = pipeline.f2.tables["adj"]
    for triple, parity in ((rep.even_triple, 0), (rep.odd_triple, 1)):
        edges = sum(1 for i in range(3) for j in range(i + 1, 3)
                    if (triple[i], triple[j]) in b)
        assert edges % 2 == parity


def test_separation_needs_three_classes():
    d = build_double(undirected_graph(2, [(0, 1)]))
    with pytest.raises(ConfigurationNotFoundError):
        three_type_separation(quotient(d))


def test_separation_names_missing_parity():
    # an empty base graph has no odd triple
    d = build_double(undirected_graph(4, []))
    with pytest.raises(ConfigurationNotFoundError) as e:
        three_type_separation(quotient(d))
    assert "odd" in str(e.value)


# -- pair-closed map extension ------------------------------------------------------


def sat3_instance(seed=5, points=8):
    o = new_generic(graph_p2(), seed)
    grow_random(o, points)
    saturate_until_stable(o, 2)
    saturate(o, 3)
    return o, build_double(o.current, o.saturation)


def test_claim2_trivial_at_n_zero(small_pipeline):
    rep = verify_claim2(small_pipeline.d2, 0, 20, seed=1)
    assert rep.holds and rep.successes == 20


def test_claim2_extends_pair_maps():
    o, d = sat3_instance()
    rep = verify_claim2(d, 2, 60, seed=4)
    assert rep.holds, rep.failures
    assert rep.successes == rep.trials == 60
    assert rep.prefix == o.saturated_prefix(3)


def test_claim2_rejects_negative_counts(small_pipeline):
    with pytest.raises(InputError):
        verify_claim2(small_pipeline.d2, -1, 5, seed=0)
    with pytest.raises(InputError):
        verify_claim2(small_pipeline.d2, 0, -5, seed=0)


def test_claim2_refuses_unsaturated(small_pipeline):
    with pytest.raises(SaturationError):
        verify_claim2(small_pipeline.d2, 2, 5, seed=0)


def test_claim2_is_deterministic():
    _, d = sat3_instance()
    a = verify_claim2(d, 1, 25, seed=9)
    b = verify_claim2(d, 1, 25, seed=9)
    assert (a.successes, a.failures) == (b.successes, b.failures)


NO_IMAGE = "no image tuple with the required pattern"

# (oracle seed, grown points, n) -> (successes, prefix, failing trials) of
# 30 trials after one saturation pass at level n + 1.  Small prefixes
# often hold no image tuple with the sampled pattern: seed 0 on 4 points
# at n = 3 fails 12 trials that way.
CLAIM2_RECORDED = {
    (0, 4, 1): (30, 4, []),
    (0, 4, 2): (30, 4, []),
    (0, 4, 3): (18, 4, [0, 1, 2, 3, 4, 7, 9, 10, 12, 14, 26, 27]),
    (0, 6, 1): (30, 6, []),
    (0, 6, 2): (30, 6, []),
    (0, 6, 3): (18, 6, [0, 2, 3, 4, 9, 11, 18, 19, 20, 21, 25, 26]),
    (1, 4, 1): (30, 4, []),
    (1, 4, 2): (24, 4, [3, 9, 18, 23, 24, 25]),
    (1, 4, 3): (15, 4, [0, 2, 3, 5, 10, 11, 13, 14, 17, 20, 22, 23, 25, 28, 29]),
    (1, 6, 1): (30, 6, []),
    (1, 6, 2): (30, 6, []),
    (1, 6, 3): (22, 6, [1, 3, 6, 11, 13, 14, 18, 21]),
    (2, 4, 1): (30, 4, []),
    (2, 4, 2): (22, 4, [4, 9, 11, 12, 19, 20, 23, 26]),
    (2, 4, 3): (9, 4, [0, 1, 2, 3, 5, 6, 8, 9, 10, 11, 12, 14, 16, 17, 18, 19, 20, 25, 26,
                       28, 29]),
    (2, 6, 1): (30, 6, []),
    (2, 6, 2): (26, 6, [13, 14, 27, 28]),
    (2, 6, 3): (15, 6, [0, 1, 4, 6, 8, 10, 17, 18, 19, 20, 22, 26, 27, 28, 29]),
    (3, 4, 1): (30, 4, []),
    (3, 4, 2): (26, 4, [2, 17, 21, 24]),
    (3, 4, 3): (15, 4, [0, 1, 2, 5, 6, 7, 8, 9, 11, 17, 18, 19, 25, 26, 29]),
    (3, 6, 1): (30, 6, []),
    (3, 6, 2): (27, 6, [0, 7, 25]),
    (3, 6, 3): (21, 6, [1, 7, 8, 16, 18, 19, 21, 25, 29]),
}


@pytest.mark.parametrize("seed,points,n", sorted(CLAIM2_RECORDED))
def test_claim2_reports_match_recorded(seed, points, n):
    o = new_generic(graph_p2(), seed)
    grow_random(o, points)
    saturate(o, n + 1)
    rep = verify_claim2(build_double(o.current, o.saturation), n, 30, seed=seed)
    successes, prefix, failing = CLAIM2_RECORDED[seed, points, n]
    assert (rep.successes, rep.prefix) == (successes, prefix)
    assert rep.failures == [(t, NO_IMAGE) for t in failing]


@pytest.mark.parametrize("seed,prefix", [(5, 17), (7, 18)])
def test_claim2_reports_on_stable_bases_match_recorded(seed, prefix):
    _, d = sat3_instance(seed)
    for n in (1, 2):
        rep = verify_claim2(d, n, 60, seed=seed)
        assert (rep.successes, rep.prefix, rep.failures) == (60, prefix, [])


# -- marked expansion ------------------------------------------------------------------


def test_expansion_star_marks_level_zero(small_pipeline):
    mstar = small_pipeline.mstar
    d = small_pipeline.d2
    assert mstar.tables["level0"] == frozenset((v,) for v in d.level_points(0))
    assert mstar.tables["adj"] == d.m.tables["adj"]


def test_expansion_star_splits_cross_pairs(small_pipeline):
    mstar = small_pipeline.mstar
    assert tuple_type(mstar, (0, 1)) != tuple_type(mstar, (1, 0))
    census = enumerate_types(mstar, 2, distinct=True)
    assert len(census.entries) >= 2


# -- acl through the cover ----------------------------------------------------------


def test_partner_is_algebraic():
    o = new_generic(graph_p2(), 9)
    grow_random(o, 8)
    saturate_until_stable(o, 2)
    src = DoubledAclSource(o)
    rep = acl_approx(src, (4,))
    assert rep.closure == frozenset({4, 5})
    assert src.size == 2 * o.size or src.size >= 2 * 8


def test_doubled_source_vocab_has_bond():
    o = new_generic(graph_p2(), 9)
    grow_random(o, 4)
    saturate_until_stable(o, 2)
    src = DoubledAclSource(o)
    s = src.snapshot()
    assert ("bond", 2) in s.vocab.symbols
    assert (0, 1) in s.tables["bond"] and (1, 0) in s.tables["bond"]
    assert (0, 2) not in s.tables["bond"]


def test_doubled_source_refuses_partner_duplication():
    o = new_generic(graph_p2(), 9)
    grow_random(o, 6)
    saturate_until_stable(o, 2)
    src = DoubledAclSource(o)
    assert src.add_realization((4,), 5) is False
    assert src.add_realization((0, 4), 5) is False
    grew = src.size
    assert src.add_realization((0,), 2) is True
    assert src.size == grew + 2
