"""Typed universes, partition refinement, and reduct checks."""
from __future__ import annotations

from dataclasses import astuple
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse.doubled_cover import (build_double, build_expansion_star, quotient,
                                   three_type_separation)
from fraisse.errors import (ConfigurationNotFoundError, InputError,
                            InvalidElementError, ParseError)
from fraisse.reduct import (TypedUniverse, definable_as_union, from_quotient,
                            from_structure, is_reduct,
                            pair_family_universe, partition_refines)
from fraisse.structures import (FinStructure, TypeId, Vocabulary, expand_with_marks,
                                 tuple_type, undirected_graph)
from fraisse.textio import parse_typed_universe, save_typed_universe
from fraisse.types_orbits import types_determined_by_pairs

from _naive import graph_of_bits

P3 = undirected_graph(3, [(0, 1), (1, 2)])


# -- refinement basics --------------------------------------------------------------


def test_partition_refines_itself():
    u = from_structure(P3, 2)
    rep = partition_refines(u, u, 2)
    assert rep.verdict == "refines"
    assert rep.tuples_checked == 9
    assert rep.counterexample is None


def test_is_reduct_reflexive():
    u = from_structure(P3, 3)
    rep = is_reduct(u, u, 3)
    assert rep.holds
    assert [r.arity for r in rep.per_arity] == [1, 2, 3]


def test_marks_refine_the_plain_types():
    marked = expand_with_marks(P3, [("red", [0])])
    fine = from_structure(marked, 2)
    coarse = from_structure(P3, 2)
    assert is_reduct(fine, coarse, 2).holds
    rep = is_reduct(coarse, fine, 2)
    assert not rep.holds
    assert rep.failing_arity == 1
    prior, tup, key = rep.counterexample
    assert fine.type_of(prior) != fine.type_of(tup)
    assert coarse.type_of(prior) == coarse.type_of(tup)
    assert coarse.type_of(tup).fingerprint == key


def test_carrier_mismatch_rejected():
    a = from_structure(P3, 2)
    b = from_structure(undirected_graph(2, []), 2)
    with pytest.raises(InputError):
        partition_refines(a, b, 1)


def test_arity_out_of_range_rejected():
    u = from_structure(P3, 2)
    with pytest.raises(InputError):
        partition_refines(u, u, 3)
    with pytest.raises(InputError):
        partition_refines(u, u, 0)


def _counted(u):
    """Wrap a universe's type function on the instance; returns the list
    of tuples it is called on."""
    calls = []
    fn = u._fn
    u._fn = lambda tup: calls.append(tup) or fn(tup)
    return calls


@pytest.mark.parametrize("role", ["source", "target"])
def test_reduct_bounds_checked_before_any_scan(role):
    u2, u3 = from_structure(P3, 2), from_structure(P3, 3)
    source, target = (u2, u3) if role == "source" else (u3, u2)
    calls = (_counted(source), _counted(target))
    with pytest.raises(InputError, match=rf"^arity 3 is above the {role} universe's "
                                         r"declared arity 2$"):
        is_reduct(source, target, 3)
    with pytest.raises(InputError, match="shared carrier"):
        is_reduct(u3, from_structure(undirected_graph(2, []), 3), 1)
    with pytest.raises(InputError, match="^arity 0 is below 1$"):
        is_reduct(u3, u3, 0)
    assert calls == ([], [])


def test_typed_universe_validates_tuples():
    u = from_structure(P3, 2)
    with pytest.raises(InputError):
        u.type_of(())
    with pytest.raises(InputError):
        u.type_of((0, 1, 2))
    with pytest.raises(InvalidElementError):
        u.type_of((7,))


# -- definability -----------------------------------------------------------------


def test_adjacency_is_a_union_of_pair_types():
    u = from_structure(P3, 2)
    rep = definable_as_union(u, P3.tables["adj"], 2)
    assert rep.verdict == "definable"
    assert len(rep.classes_inside) == 1


def test_directed_half_edge_is_not_definable():
    u = from_structure(P3, 2)
    rep = definable_as_union(u, {(0, 1)}, 2)
    assert rep.verdict == "undefinable"
    tuple_in, tuple_out, key = rep.witness
    assert u.type_of(tuple_in) == u.type_of(tuple_out)
    assert u.type_of(tuple_out).fingerprint == key


def test_definability_rejects_bad_rows():
    u = from_structure(P3, 2)
    with pytest.raises(InvalidElementError):
        definable_as_union(u, {(0, 9)}, 2)
    with pytest.raises((InputError, InvalidElementError)):
        definable_as_union(u, {(0,)}, 2)


# -- persistence --------------------------------------------------------------------


def test_save_parse_round_trip():
    u = from_structure(P3, 2)
    back = parse_typed_universe(save_typed_universe(u, "demo"))
    assert (back.size, back.n_max) == (3, 2)
    assert is_reduct(back, u, 2).holds and is_reduct(u, back, 2).holds


def test_parse_rejects_incomplete_table():
    text = save_typed_universe(from_structure(P3, 2), "demo")
    broken = "\n".join(line for line in text.splitlines()
                       if not line.startswith("0 1 :"))
    with pytest.raises(ParseError):
        parse_typed_universe(broken)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_typed_universe("not a typed universe")


# -- the cover geometry as typed universes ---------------------------------------------


def test_pair_family_determines_pairs_but_not_triples(small_pipeline):
    q = small_pipeline.q2
    g = from_quotient(q, 3)
    g0 = pair_family_universe(q, 3)
    assert is_reduct(g0, g, 2).holds
    rep = is_reduct(g0, g, 3)
    assert not rep.holds
    assert rep.failing_arity == 3
    prior, tup, _ = rep.counterexample
    assert g0.type_of(prior) == g0.type_of(tup)
    assert g.type_of(prior) != g.type_of(tup)


def test_marked_pair_family_determines_triples(small_pipeline):
    g = from_quotient(small_pipeline.q2, 3)
    gstar0 = pair_family_universe(small_pipeline.qstar, 3)
    assert is_reduct(gstar0, g, 3).holds


def test_emitted_files_interoperate(small_pipeline, tmp_path):
    q = small_pipeline.q2
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src.write_text(save_typed_universe(pair_family_universe(q, 2), "pairs"))
    tgt.write_text(save_typed_universe(from_quotient(q, 2), "types"))
    a = parse_typed_universe(src.read_text())
    b = parse_typed_universe(tgt.read_text())
    assert is_reduct(a, b, 2).holds


# -- pair matrix and interned refinement against the per-tuple loops ---------------


def _per_pair_grid(q, tup):
    """The pair-family type asked of the quotient pair by pair."""
    grid = tuple(q.pair_type((tup[i], tup[j])).fingerprint
                 for i in range(len(tup)) for j in range(len(tup)))
    return TypeId("pairfam", ("grid", len(tup)), grid)


def _typeid_refines(source_type, target_type, size, n):
    """Partition refinement comparing TypeIds tuple by tuple."""
    seen: dict = {}
    checked = 0
    for tup in product(range(size), repeat=n):
        checked += 1
        sk, tk = source_type(tup), target_type(tup)
        prior = seen.get(sk)
        if prior is None:
            seen[sk] = (tk, tup)
        elif prior[0] != tk:
            return "fails", checked, len(seen), (prior[1], tup, sk.fingerprint)
    return "refines", checked, len(seen), None


def _covers(lo, hi):
    """(n, bits): a base graph on lo..hi points, as `graph_of_bits` reads it."""
    return st.integers(lo, hi).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1)))


covers = _covers(3, 7)


def _quotients(n, bits, marked):
    d = build_double(graph_of_bits(n, bits))
    return quotient(d), quotient(d, ambient=build_expansion_star(d) if marked else None)


@settings(max_examples=40, deadline=None)
@given(covers, st.booleans())
def test_pair_matrix_and_interning_match_per_tuple_loops(cover, marked):
    n, bits = cover
    q2, q = _quotients(n, bits, marked)
    ref2, ref = _quotients(n, bits, marked)
    family = pair_family_universe(q, 4)
    types = from_quotient(q2, 4)
    for k in range(1, 5 if n <= 5 else 4):
        for tup in product(range(n), repeat=k):
            t = family.type_of(tup)
            assert t == _per_pair_grid(ref, tup)
            assert t.fingerprint == _per_pair_grid(ref, tup).fingerprint
        for source, target, s_ref, t_ref in (
                (family, types, lambda t: _per_pair_grid(ref, t), ref2.pair_type),
                (types, family, ref2.pair_type, lambda t: _per_pair_grid(ref, t))):
            rep = partition_refines(source, target, k)
            assert ((rep.verdict, rep.tuples_checked, rep.classes, rep.counterexample)
                    == _typeid_refines(s_ref, t_ref, n, k))


def _grid_class(grid, tup):
    return tuple(grid[a][b] for a in tup for b in tup)


@settings(max_examples=30, deadline=None)
@given(_covers(2, 6), st.booleans(), st.integers(1, 4))
def test_pair_grid_classes_fix_types_and_bound_type_calls(cover, marked, k):
    n, bits = cover
    tuples = list(product(range(n), repeat=k))
    q2, q = _quotients(n, bits, marked)
    for u in (from_quotient(q2, 4), pair_family_universe(q, 4)):
        type_of_class: dict = {}
        for tup in tuples:
            t = u.type_of(tup)
            assert type_of_class.setdefault(_grid_class(u.grid, tup), t) == t
    for family_is_source in (True, False):
        types, family = from_quotient(q2, 4), pair_family_universe(q, 4)
        classes = {_grid_class(types.grid, tup) for tup in tuples}
        type_calls, family_calls = _counted(types), _counted(family)
        if family_is_source:
            partition_refines(family, types, k)
        else:
            partition_refines(types, family, k)
        for calls in (type_calls, family_calls):
            met = [_grid_class(types.grid, tup) for tup in calls]
            assert len(set(met)) == len(met) <= len(classes)


def _digraph_universes(n, bits):
    """Tuple types of a directed graph with loops, as a universe with the
    pair grid (equal?, arc?) and as one without a grid."""
    arcs = {(g, h) for g in range(n) for h in range(n) if bits >> (g * n + h) & 1}
    s = FinStructure(Vocabulary([("arc", 2)]), n, {"arc": arcs})
    grid = [[(g == h, (g, h) in arcs) for h in range(n)] for g in range(n)]
    return TypedUniverse(n, 4, lambda t: tuple_type(s, t), grid), from_structure(s, 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, (1 << n * n) - 1), st.integers(0, (1 << n * n) - 1))),
       st.integers(1, 4))
def test_asymmetric_grid_scan_matches_tuple_scan(case, k):
    """Directed grids, where grid[g][h] and grid[h][g] differ: the class
    scan reports what the tuple-by-tuple scan does."""
    n, bits_a, bits_b = case
    (a, a_plain), (b, b_plain) = _digraph_universes(n, bits_a), _digraph_universes(n, bits_b)
    tuples = product(range(n), repeat=k)
    classes = {_grid_class(a.grid, t) + _grid_class(b.grid, t) for t in tuples}
    calls = _counted(a)
    assert astuple(partition_refines(a, b, k)) == astuple(partition_refines(a_plain, b_plain, k))
    assert len(calls) <= len(classes)
    assert astuple(partition_refines(b, a, k)) == astuple(partition_refines(b_plain, a_plain, k))


def _reduct_reference(source_type, target_type, size, n_max):
    """`is_reduct`'s fields from per-tuple loops: (verdict, n_max, per-arity
    report fields)."""
    per_arity = []
    for k in range(1, n_max + 1):
        verdict, checked, classes, clash = _typeid_refines(source_type, target_type, size, k)
        per_arity.append((verdict, k, checked, classes, clash))
        if clash is not None:
            return "fails", n_max, per_arity
    return "holds", n_max, per_arity


def _reduct_fields(rep):
    return rep.verdict, rep.n_max, [astuple(r) for r in rep.per_arity]


@settings(max_examples=20, deadline=None)
@given(_covers(3, 8))
def test_paper_b_pair_families_on_random_covers(cover):
    """Result (b) on the cover quotient: the marked pair family refines the
    quotient's types to arity 4; the plain one fails at arity 3 exactly
    when a 3-type separation witness exists."""
    n, bits = cover
    q2, qstar = _quotients(n, bits, True)
    ref2, refstar = _quotients(n, bits, True)
    pos = is_reduct(pair_family_universe(qstar, 4), from_quotient(q2, 4), 4)
    assert pos.holds
    assert _reduct_fields(pos) == _reduct_reference(
        lambda t: _per_pair_grid(refstar, t), ref2.pair_type, n, 4)
    neg = is_reduct(pair_family_universe(q2, 3), from_quotient(q2, 3), 3)
    try:
        separates = three_type_separation(ref2).separates
    except ConfigurationNotFoundError:
        separates = False
    assert (neg.verdict, neg.failing_arity) == (("fails", 3) if separates else ("holds", None))
    assert _reduct_fields(neg) == _reduct_reference(
        lambda t: _per_pair_grid(ref2, t), ref2.pair_type, n, 3)


@settings(max_examples=40, deadline=None)
@given(covers)
def test_determination_by_pairs_matches_per_tuple_loop(cover):
    n, bits = cover
    q2, ref = _quotients(n, bits, False)
    seen: dict = {}
    want = ("determined", n ** 3, None)
    for checked, tup in enumerate(product(range(n), repeat=3), start=1):
        family = tuple(ref.pair_type((tup[i], tup[j])) for i in range(3) for j in range(3))
        prior = seen.setdefault(family, (ref.pair_type(tup), tup))
        if prior[0] != ref.pair_type(tup):
            want = ("counterexample", checked, (prior[1], tup))
            break
    rep = types_determined_by_pairs(from_quotient(q2, 3), 3)
    assert (rep.verdict, rep.tuples_checked, rep.counterexample) == want


def _union_reference(type_of, size, rel, n):
    """Definability as a union of n-type classes, comparing TypeIds tuple
    by tuple: (verdict, classes inside, witness)."""
    status: dict = {}
    for tup in product(range(size), repeat=n):
        t = type_of(tup)
        prior = status.setdefault(t, (tup in rel, tup))
        if prior[0] != (tup in rel):
            tup_in, tup_out = (prior[1], tup) if prior[0] else (tup, prior[1])
            return "undefinable", [], (tup_in, tup_out, t.fingerprint)
    return ("definable",
            sorted(t.fingerprint for t, (inside, _) in status.items() if inside), None)


@settings(max_examples=60, deadline=None)
@given(covers, st.sampled_from(("structure", "quotient")), st.integers(1, 3),
       st.booleans(), st.data())
def test_definability_matches_per_tuple_loop(cover, kind, n, by_class, data):
    nodes, bits = cover
    if kind == "structure":
        g = graph_of_bits(nodes, bits)
        source, ref_type = from_structure(g, 3), (lambda tup: tuple_type(g, tup))
    else:
        q, ref = _quotients(nodes, bits, False)
        source, ref_type = from_quotient(q, 3), ref.pair_type
    tuples = list(product(range(source.size), repeat=n))
    if by_class:
        # a union of classes, so definable verdicts come up as well
        classes = sorted({ref_type(t) for t in tuples}, key=lambda t: t.sort_key)
        pick = data.draw(st.integers(0, (1 << len(classes)) - 1))
        inside = {c for i, c in enumerate(classes) if pick >> i & 1}
        rel = {t for t in tuples if ref_type(t) in inside}
    else:
        pick = data.draw(st.integers(0, (1 << len(tuples)) - 1))
        rel = {t for i, t in enumerate(tuples) if pick >> i & 1}
    rep = definable_as_union(source, rel, n)
    assert ((rep.verdict, rep.classes_inside, rep.witness)
            == _union_reference(ref_type, source.size, rel, n))
