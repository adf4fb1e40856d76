"""Type censuses and algebraic-closure approximation."""
from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraisse.amalgamation import graph_p2
from fraisse.errors import InputError, InvalidElementError, SaturationError
from fraisse.generic import (extension_at, grow_random, new_generic, saturate,
                             saturate_until_stable)
from fraisse.reduct import from_structure
from fraisse.structures import (FinStructure, graph_vocabulary, tuple_type,
                                undirected_graph)
from fraisse.types_orbits import (acl_approx, check_degenerate_dependence,
                                  check_triviality, enumerate_types,
                                  link_between, types_determined_by_pairs)

from _naive import naive_induced, random_graph, random_mixed, type_desc

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
