"""Type censuses and algebraic-closure approximation."""
from __future__ import annotations

import random
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fraisse.amalgamation import P2Spec, check_1_adequate, graph_p2
from fraisse.doubled_cover import DoubledAclSource
from fraisse.errors import InputError, InvalidElementError, SaturationError
from fraisse.generic import (extension_at, grow_random, new_generic, saturate,
                             saturate_until_stable)
from fraisse.reduct import from_structure
from fraisse.structures import (FinStructure, graph_vocabulary, tuple_type,
                                undirected_graph)
from fraisse.types_orbits import (DegeneracyReport, DependenceWitness, TrivialityReport,
                                  _AclEngine, acl_approx, as_acl_source,
                                  check_degenerate_dependence, check_triviality,
                                  enumerate_types, link_between, types_determined_by_pairs)

from _naive import naive_induced, random_graph, random_mixed, type_desc
from test_amalgamation import RED_ARC_PAIRS, RED_ARC_POINTS
from test_sampling_golden import MARKED, marked_p2

P3 = undirected_graph(3, [(0, 1), (1, 2)])


# -- censuses ------------------------------------------------------------------


def test_census_of_path_distinct_pairs():
    c = enumerate_types(P3, 2, distinct=True)
    assert c.total == 6
    assert sorted(count for _, count in c.entries) == [2, 4]


def test_census_includes_diagonal_without_distinct():
    c = enumerate_types(P3, 2)
    assert c.total == 9
    # adjacent pairs, non-adjacent distinct pairs, repeated point
    assert sorted(count for _, count in c.entries) == [2, 3, 4]


def test_census_single_points():
    c = enumerate_types(P3, 1)
    assert len(c.entries) == 1 and c.entries[0][1] == 3


def test_census_with_parameters_refines():
    c = enumerate_types(P3, 1, params=(1,))
    # the middle point vs the two points adjacent to it
    assert sorted(count for _, count in c.entries) == [1, 2]


def test_census_counts_match_type_partition():
    rng = random.Random(1)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 6))
        c = enumerate_types(g, 2, distinct=True)
        descs = {}
        for u in range(g.size):
            for v in range(g.size):
                if u != v:
                    d = type_desc(g, (u, v))
                    descs[d] = descs.get(d, 0) + 1
        assert sorted(count for _, count in c.entries) == sorted(descs.values())
        assert c.total == sum(descs.values())


def test_census_arity_bounds():
    c = enumerate_types(P3, 0)
    assert c.total == 1 and len(c.entries) == 1
    with pytest.raises(InputError):
        enumerate_types(P3, -1)


def test_types_determined_by_pairs_on_binary_vocab():
    rng = random.Random(2)
    for _ in range(10):
        g = random_graph(rng, rng.randrange(1, 6))
        assert types_determined_by_pairs(from_structure(g, 3), 3).verdict == "determined"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
@example(92, 3)       # a counterexample after 8 tuples
@example(24, 5)
def test_determination_by_pairs_on_structures_matches_per_tuple_loop(seed, n):
    # a ternary symbol makes 3-types finer than their pairs now and then
    s = random_mixed(random.Random(seed), n)
    seen: dict = {}
    want = ("determined", n ** 3, None)
    for checked, tup in enumerate(product(range(n), repeat=3), start=1):
        family = tuple(tuple_type(s, (tup[i], tup[j])) for i in range(3) for j in range(3))
        full = tuple_type(s, tup)
        prior = seen.setdefault(family, (full, tup))
        if prior[0] != full:
            want = ("counterexample", checked, (prior[1], tup))
            break
    rep = types_determined_by_pairs(from_structure(s, 3), 3)
    assert (rep.verdict, rep.tuples_checked, rep.counterexample) == want


def test_link_between_reads_positionally():
    lb = link_between(P3.vocab, P3.tables, 0, 1)
    assert lb.tables["adj"] == frozenset({(0, 1), (1, 0)})
    lb2 = link_between(P3.vocab, P3.tables, 0, 2)
    assert lb2.tables["adj"] == frozenset()
    with pytest.raises(InvalidElementError):
        link_between(P3.vocab, P3.tables, 1, 1)


def test_link_between_matches_naive_induced_pairs():
    rng = random.Random(11)
    for _ in range(20):
        s = random_mixed(rng, 4, p=0.5)
        for b in range(4):
            for c in range(4):
                if b != c:
                    assert link_between(s.vocab, s.tables, b, c) == naive_induced(s, (b, c))


# -- acl over the generic oracle ------------------------------------------------


def stable_oracle(seed=9, points=10):
    o = new_generic(graph_p2(), seed)
    grow_random(o, points)
    saturate_until_stable(o, 2)
    return o


def test_acl_of_singleton_is_itself():
    o = stable_oracle()
    rep = acl_approx(o, (3,))
    assert rep.closure == frozenset({3})
    assert rep.inconclusive == 0
    for e in rep.entries:
        if e.element != 3:
            assert e.verdict == "non-algebraic" and e.count >= 5


def test_acl_of_empty_base_is_empty():
    rep = acl_approx(stable_oracle(), ())
    assert rep.closure == frozenset()


def test_acl_refuses_unsaturated_source():
    o = new_generic(graph_p2(), 9)
    grow_random(o, 6)
    with pytest.raises(SaturationError):
        acl_approx(o, (0,))


def test_acl_rejects_bad_base():
    o = stable_oracle()
    with pytest.raises(InvalidElementError):
        acl_approx(o, (99,))
    with pytest.raises(InvalidElementError):
        acl_approx(o, (0, -1))
    with pytest.raises(InputError):
        acl_approx(o, (1, 1))


def test_acl_growth_budget_turns_inconclusive():
    o = new_generic(graph_p2(), 5)
    grow_random(o, 5)
    saturate(o, 3)
    rep = acl_approx(o, (0, 1), d=30, growth_budget=0)
    assert rep.inconclusive > 0
    assert any(e.verdict == "inconclusive" for e in rep.entries)


def test_triviality_on_generic_graph():
    rep = check_triviality(stable_oracle(), max_b=1, growth_budget=200)
    assert rep.verdict == "trivial"
    assert rep.inconclusive == 0
    assert rep.bases_checked > 1


def test_degeneracy_on_generic_graph():
    o = new_generic(graph_p2(), 5)
    grow_random(o, 5)
    saturate(o, 7)
    rep = check_degenerate_dependence(o, rho=2, max_b=2, max_c=2,
                                      growth_budget=300)
    assert rep.verdict == "degenerate"
    assert rep.dependencies > 0
    assert all(len(w.b0) < 2 for w in rep.witnesses)


def test_degeneracy_rejects_bad_rho():
    with pytest.raises(InputError):
        check_degenerate_dependence(stable_oracle(), rho=0)


def test_bounds_are_rejected_before_growth_or_enumeration():
    # unchecked, these calls would refuse an empty oracle for want of
    # saturation or answer over no points; a stable oracle must not grow
    for o in (new_generic(graph_p2(), 9), stable_oracle()):
        size = o.size
        for call in (lambda: acl_approx(o, (), d=0),
                     lambda: check_triviality(o, max_b=-1),
                     lambda: check_triviality(o, max_b=1, d=0),
                     lambda: check_degenerate_dependence(o, rho=2, max_c=-1),
                     lambda: check_degenerate_dependence(o, rho=2, max_b=0),
                     lambda: check_degenerate_dependence(o, rho=2, d=0),
                     lambda: acl_approx(o, (), growth_budget=-1),
                     lambda: check_triviality(o, max_b=1, growth_budget=-1),
                     lambda: check_degenerate_dependence(o, rho=2, growth_budget=-1)):
            with pytest.raises(InputError):
                call()
            assert o.size == size


# -- a synthetic source with a genuinely binary dependence ----------------------


class PairLockedSource:
    """Three anchors; the type "adjacent to both 0 and 1" is certified
    algebraic, every other type may be duplicated freely."""

    def __init__(self):
        self.edges = {(0, 2), (2, 0), (1, 2), (2, 1)}
        self.size = 3

    def snapshot(self) -> FinStructure:
        return FinStructure(graph_vocabulary(), self.size,
                            {"adj": frozenset(self.edges)})

    def saturated_prefix(self, level: int) -> int:
        return 3

    def add_realization(self, base, ref) -> bool:
        adj = {b for b in base if (b, ref) in self.edges}
        if adj == {0, 1}:
            return False
        w = self.size
        self.size += 1
        for b in adj:
            self.edges.add((b, w))
            self.edges.add((w, b))
        return True


def test_pair_locked_source_is_nontrivial():
    rep = check_triviality(PairLockedSource(), max_b=2)
    assert rep.verdict == "nontrivial"
    element, base = rep.counterexample
    assert element == 2 and base == (0, 1)


def test_pair_locked_dependence_is_not_degenerate():
    rep = check_degenerate_dependence(PairLockedSource(), rho=2,
                                      max_b=2, max_c=2)
    assert rep.verdict == "counterexample"
    a, bb, cb = rep.counterexample
    assert a == 2 and set(bb) == {0, 1} and cb == ()


def test_acl_sees_pair_locked_point():
    rep = acl_approx(PairLockedSource(), (0, 1))
    assert 2 in rep.closure
    assert rep.closure == frozenset({0, 1, 2})


# -- engine key agrees with tuple types -------------------------------


def test_verdict_key_matches_tuple_types():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng, 6)
        base = tuple(sorted(rng.sample(range(6), rng.randrange(0, 3))))
        cands = [c for c in range(6) if c not in base]
        for c1 in cands:
            for c2 in cands:
                same_key = extension_at(g, base, c1) == extension_at(g, base, c2)
                same_type = (tuple_type(g, base + (c1,))
                             == tuple_type(g, base + (c2,)))
                assert same_key == same_type


# -- the two checks against per-point loops -------------------------------------


def per_point_triviality(source, max_b, d=5, growth_budget=None):
    """`check_triviality` as one `_AclEngine.verdict` call per point of the
    universe per base."""
    src = as_acl_source(source)
    engine = _AclEngine(src, d, growth_budget)
    prefix = src.saturated_prefix(max_b + 1)
    checked = inconclusive = 0
    for bsize in range(max_b + 1):
        for base in combinations(range(prefix), bsize):
            checked += 1
            for a in range(src.size):
                v = engine.verdict(base, a)
                if v == "inconclusive":
                    inconclusive += 1
                elif v == "algebraic" and not any(
                        engine.verdict((b,), a) == "algebraic" for b in base):
                    return TrivialityReport("nontrivial", max_b, d, checked, inconclusive,
                                            engine.added, (a, base))
    return TrivialityReport("inconclusive" if inconclusive else "trivial", max_b, d,
                            checked, inconclusive, engine.added)


def per_point_degeneracy(source, rho, max_b, max_c, d=5, growth_budget=None):
    """`check_degenerate_dependence` as one `_AclEngine.verdict` call per
    point of the universe per (B, C) pair."""
    src = as_acl_source(source)
    engine = _AclEngine(src, d, growth_budget)
    prefix = src.saturated_prefix(max_b + max_c + 1)
    rep = DegeneracyReport("degenerate", rho, d, 0, 0, 0, 0)
    c_bases = [c for k in range(max_c + 1) for c in combinations(range(prefix), k)]
    b_bases = [b for k in range(1, max_b + 1) for b in combinations(range(prefix), k)]
    for cb in c_bases:
        for bb in b_bases:
            if set(bb) <= set(cb):
                continue
            rep.pairs_checked += 1
            union = tuple(sorted(set(bb) | set(cb)))
            for a in range(src.size):
                vu = engine.verdict(union, a)
                vc = engine.verdict(cb, a) if vu == "algebraic" else None
                if "inconclusive" in (vu, vc):
                    rep.inconclusive += 1
                if vu != "algebraic" or vc != "non-algebraic":
                    continue
                rep.dependencies += 1
                found = next((b0 for k in range(rho) for b0 in combinations(bb, k)
                              if engine.verdict(tuple(sorted(set(b0) | set(cb))), a)
                              == "algebraic"), None)
                if found is None:
                    rep.verdict, rep.counterexample = "counterexample", (a, bb, cb)
                    rep.added = engine.added
                    return rep
                if len(rep.witnesses) < 32:
                    rep.witnesses.append(DependenceWitness(a, bb, cb, found))
    rep.added = engine.added
    if rep.inconclusive:
        rep.verdict = "inconclusive"
    return rep


def _oracle(p2, seed, level):
    def build():
        o = new_generic(p2, seed)
        grow_random(o, 4)
        saturate(o, level)
        return o
    return build


# (factory, triviality base sizes, degeneracy (max_b, max_c)); each factory
# builds a fresh source, so both sides of a comparison grow the same one.
# Marked seed 3 at level 5 needs 544 points to settle, so a budget of 500
# binds there.
PIN_SOURCES = [
    pytest.param(_oracle(graph_p2(), 1, 4), (1, 2), (2, 1), id="graph-1"),
    pytest.param(_oracle(graph_p2(), 2, 4), (1, 2), (2, 1), id="graph-2"),
    pytest.param(_oracle(marked_p2(), 1, 4), (1, 2), (2, 1), id="marked-1"),
    pytest.param(_oracle(marked_p2(), 3, 5), (4,), (2, 2), id="marked-3"),
    pytest.param(lambda: DoubledAclSource(_oracle(graph_p2(), 2, 4)()), (1, 2), (2, 1),
                 id="doubled-2"),
    pytest.param(PairLockedSource, (1, 2), (2, 1), id="pair-locked"),
]


@pytest.mark.parametrize("budget", [None, 7, 500])
@pytest.mark.parametrize("build,max_bs,_sizes", PIN_SOURCES)
def test_triviality_matches_per_point_loop(build, max_bs, _sizes, budget):
    for max_b in max_bs:
        ref_src, src = build(), build()
        want = per_point_triviality(ref_src, max_b, growth_budget=budget)
        assert check_triviality(src, max_b, growth_budget=budget) == want, max_b
        assert src.size == ref_src.size


@pytest.mark.parametrize("budget", [None, 7, 500])
@pytest.mark.parametrize("build,_max_bs,sizes", PIN_SOURCES)
def test_degeneracy_matches_per_point_loop(build, _max_bs, sizes, budget):
    for rho in (1, 2, 3):
        ref_src, src = build(), build()
        want = per_point_degeneracy(ref_src, rho, *sizes, growth_budget=budget)
        got = check_degenerate_dependence(src, rho, *sizes, growth_budget=budget)
        assert got == want, rho
        assert src.size == ref_src.size


# -- the paper's closure properties ----------------------------------------------


def _red_arc_spec(keep) -> P2Spec:
    return P2Spec([FinStructure(MARKED, 0)] + RED_ARC_POINTS
                  + [RED_ARC_PAIRS[i] for i in sorted(keep)])


SPECS = st.one_of(st.sampled_from([graph_p2(), marked_p2()]),
                  st.sets(st.integers(0, len(RED_ARC_PAIRS) - 1)).map(_red_arc_spec))


@settings(max_examples=12, deadline=None)
@given(SPECS, st.integers(0, 2 ** 32 - 1), st.integers(2, 3))
def test_p2spec_oracles_have_trivial_degenerate_closure(p2, seed, rho):
    # a class given by permitted 1- and 2-point structures has free, hence
    # disjoint, amalgamation: no point outside a base is algebraic over it
    assume(check_1_adequate(p2).holds)
    o = new_generic(p2, seed)
    grow_random(o, 4)
    saturate(o, 3)
    assert check_triviality(o, 2).verdict == "trivial"
    assert check_degenerate_dependence(o, rho, max_b=1, max_c=1).verdict == "degenerate"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_doubled_cover_closure_is_the_bonded_pair(seed):
    def source():
        o = new_generic(graph_p2(), seed)
        grow_random(o, 6)
        saturate(o, 4)
        return DoubledAclSource(o)

    for x in range(6):
        assert acl_approx(source(), (x,)).closure == {x, x ^ 1}
    triv = check_triviality(source(), 2)
    assert (triv.verdict, triv.bases_checked) == ("trivial", 79)
    deg = check_degenerate_dependence(source(), 2, max_b=1, max_c=2)
    assert (deg.verdict, deg.dependencies) == ("degenerate", 1344)
