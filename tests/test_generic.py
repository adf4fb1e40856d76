"""Seeded generic approximations: growth, saturation, games."""
from __future__ import annotations

import random
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse.amalgamation import P2Spec, graph_p2, in_rp2
from fraisse.errors import (AdequacyError, ExtensionError, InputError, SaturationError,
                            VocabularyError)
from fraisse.generic import (ExtensionType, _missing, back_and_forth, extend_one_point,
                             find_realization, graph_extension,
                             grow_random, homogeneity_probe, mix64,
                             new_generic, one_point_extensions, saturate,
                             saturate_until_stable, verify_saturation)
from fraisse.structures import FinStructure, Vocabulary, point_codes, undirected_graph
from fraisse.zero_one import axiom_holds, full_extension_axioms, sample_uniform

from _naive import (MIXED, naive_is_isomorphic, naive_saturated, permuted_copy, random_graph,
                    random_mixed, type_desc)
from test_amalgamation import RED_ARC_PAIRS, RED_ARC_POINTS
from test_sampling_golden import MARKED, marked_p2


def fresh(seed=3, points=6):
    o = new_generic(graph_p2(), seed)
    grow_random(o, points)
    return o


def test_new_generic_requires_adequacy():
    with pytest.raises(AdequacyError):
        new_generic(P2Spec([undirected_graph(0, []),
                            undirected_graph(1, [])]), 0)


def test_growth_is_deterministic():
    a, b = fresh(11, 10), fresh(11, 10)
    assert a.current == b.current
    assert fresh(12, 10).current != a.current


def test_grown_structure_stays_permitted():
    o = fresh(5, 12)
    assert in_rp2(o.p2, o.current)


def test_mix64_spreads():
    vals = {mix64(0, i) for i in range(100)}
    assert len(vals) == 100
    assert mix64(1, 2) != mix64(2, 1)


def test_one_point_extensions_count():
    # over a k-point base in a graph: one 1-type, one link choice per
    # base point and direction pair
    p2 = graph_p2()
    o = fresh(3, 4)
    pts = point_codes(o.current)[:3]
    assert len(one_point_extensions(p2, [], [])) == 1
    assert len(one_point_extensions(p2, pts[:1], (0,))) == 2
    assert len(one_point_extensions(p2, pts[:2], (0, 1))) == 4
    assert len(one_point_extensions(p2, pts, (0, 1, 2))) == 8


def test_extend_one_point_realizes_pattern():
    o = fresh(4, 5)
    tau = graph_extension(o.vocab, (0, 2), adjacent=(2,))
    v = extend_one_point(o, tau)
    s = o.current
    assert (2, v) in s.tables["adj"]
    assert (0, v) not in s.tables["adj"]


NO, YES = ((0, 0),), ((1, 1),)      # one graph link: absent, both ways


@pytest.mark.parametrize("base, dirs, point", [
    ((0, 6), (NO, YES), 0),                 # base point outside the universe
    ((-1,), (NO,), 0),
    ((1, 1), (NO, YES), 0),                 # repeated base point
    ((0, 1), (NO,), 0),                     # too few link patterns
    ((0,), (NO, YES), 0),                   # too many
    ((0, 1), (NO, ((0, 0), (1, 1))), 0),    # two symbols' bits in a one-symbol link
    ((0, 1), (NO, ()), 0),                  # none
    ((0,), (((2, 0),),), 0),                # a bit that is not 0 or 1
    ((0, 1), (YES, ((1, 0),)), 0),          # a one-way arc in a symmetric spec
    ((0,), (NO,), 1),                       # a looped point, not permitted
])
def test_bad_extensions_leave_the_oracle_untouched(base, dirs, point):
    o = fresh(4, 6)
    size, log, current = o.size, o.log, o.current
    with pytest.raises(ExtensionError):
        extend_one_point(o, ExtensionType(o.vocab, base, dirs, point))
    assert (o.size, o.log, o.current) == (size, log, current)
    assert extend_one_point(o, ExtensionType(o.vocab, (0,), (YES,), 0)) == size


def test_extension_from_another_vocabulary_is_rejected():
    o = fresh(4, 3)
    with pytest.raises(ExtensionError):
        extend_one_point(o, ExtensionType(MARKED, (0,), (YES,), 0))
    assert o.size == 3


def test_patterns_need_a_binary_vocabulary():
    with pytest.raises(VocabularyError):
        ExtensionType(MIXED, (), (), 0)
    with pytest.raises(InputError):         # graph patterns: one binary symbol only
        graph_extension(Vocabulary([("a", 2), ("b", 2)]), (), ())


def test_extensions_over_marked_points_write_marks_and_one_way_arcs():
    from test_sampling_golden import marked_p2
    o = new_generic(marked_p2(), 2)
    grow_random(o, 4)
    red = 0b10                              # code of a red, unlooped point
    codes = point_codes(o.current)
    b = next(v for v in range(o.size) if not codes[v] & red)
    tau = next(t for t in one_point_extensions(o.p2, [codes[b]], (b,))
               if t.point == red and sum(t.dirs[0][0]) == 1)
    (to_new, from_new), = tau.dirs[0]
    w = extend_one_point(o, tau)
    s = o.current
    assert (w,) in s.tables["red"] and (w, w) not in s.tables["arc"]
    assert ((b, w) in s.tables["arc"], (w, b) in s.tables["arc"]) == (to_new, from_new)
    assert "marks=red" in o.log[-1].detail
    assert find_realization(s, tau) == w
    assert point_codes(s)[w] == red


def test_find_realization():
    o = fresh(4, 5)
    tau = graph_extension(o.vocab, (0,), adjacent=(0,))
    v = find_realization(o.current, tau)
    if v is not None:
        assert (0, v) in o.current.tables["adj"] and v != 0


def test_saturate_until_stable_covers_universe():
    o = fresh(7, 8)
    rep = saturate_until_stable(o, 2)
    assert rep.stable
    assert rep.prefix == o.size
    assert o.saturated_prefix(2) == o.size
    ok, failures = verify_saturation(o.p2, o.current, 2)
    assert ok and failures == []


def test_single_pass_records_pre_pass_prefix():
    o = fresh(9, 6)
    pre = o.size
    rep = saturate(o, 3)
    assert not rep.exhausted
    assert rep.pre_size == pre
    assert o.saturated_prefix(3) == pre
    assert o.saturated_prefix(2) >= pre
    ok, _ = verify_saturation(o.p2, o.current, 3, prefix=pre)
    assert ok


def test_budget_exhaustion_is_flagged_and_unrecorded():
    o = fresh(9, 8)
    rep = saturate(o, 2, new_point_budget=1)
    assert rep.exhausted
    assert o.saturated_prefix(2) == 0


def test_budgeted_marked_stabilisation_matches_recorded():
    # recorded before saturation became semi-naive: four passes over the
    # marked spec, the last one exhausting the budget, with the points
    # added per pass, the final size and the tables pinned
    from test_sampling_golden import digest, marked_p2
    o = new_generic(marked_p2(), 1)
    grow_random(o, 3)
    rep = saturate_until_stable(o, 2, new_point_budget=330)
    assert [r.added for r in rep.reports] == [10, 110, 199, 11]
    assert [r.exhausted for r in rep.reports] == [False, False, False, True]
    assert not rep.stable and rep.added == 330
    assert o.size == 333
    assert sorted(o.saturation.items()) == [(0, 123), (1, 123), (2, 123)]
    assert digest(o.current) == "d869b4cb0151af9dadcbdfd4"

def test_saturation_level_zero_needs_a_point_of_each_type():
    o = new_generic(graph_p2(), 1)
    assert o.size == 0
    saturate(o, 0)
    assert o.size == 1
    assert o.saturated_prefix(0) == 0


def test_negative_growth_rejected():
    o = fresh(3, 4)
    with pytest.raises(InputError):
        grow_random(o, -2)
    assert o.size == 4 and len(o.log) == 4


def test_negative_level_rejected():
    with pytest.raises(InputError):
        saturate(fresh(), -1)


def test_negative_budget_rejected():
    o = fresh(3, 4)
    for call in (saturate, saturate_until_stable):
        with pytest.raises(InputError, match="new_point_budget must be >= 0, got -1"):
            call(o, 2, -1)
    assert o.size == 4 and len(o.log) == 4


@pytest.mark.parametrize("k, prefix", [(-1, None), (2, -1), (0, -2)])
def test_verify_saturation_rejects_negative_level_and_prefix(k, prefix):
    o = fresh(3, 4)
    with pytest.raises(InputError, match=r"need level >= 0 and prefix in 0\.\.4, got"):
        verify_saturation(o.p2, o.current, k, prefix)


def test_verify_saturation_rejects_another_vocabulary():
    o = new_generic(marked_p2(), 3)
    grow_random(o, 6)
    with pytest.raises(VocabularyError):
        verify_saturation(graph_p2(), o.current, 2)


# -- saturation against the table-only referee and the extension axioms ------


def _agrees_with_referee(p2, s, k, prefixes=()):
    """`verify_saturation`, over each prefix and the whole universe, and
    `_missing` over every base of at most k points find exactly the
    failures of `naive_saturated`."""
    for prefix in {*prefixes, s.size}:
        ok, failures = verify_saturation(p2, s, k, prefix)
        want = naive_saturated(p2.members, s, k, prefix)
        got = [(base, tau.point, tau.dirs) for base, tau in failures]
        assert set(got) == want and len(got) == len(want) and ok == (not want)
    missing = {(base, tau.point, tau.dirs) for size in range(k + 1)
               for base in combinations(range(s.size), size) for tau in _missing(p2, s, base)}
    assert missing == naive_saturated(p2.members, s, k, s.size)


def random_marked(rng, n):
    """A structure over MARKED on n points, in the class of no spec in
    particular: red marks, arcs and the rarer loops drawn independently."""
    return FinStructure(MARKED, n, {
        "red": [(v,) for v in range(n) if rng.random() < 0.5],
        "arc": [(u, v) for u in range(n) for v in range(n)
                if rng.random() < (0.15 if u == v else 0.4)]})


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, len(RED_ARC_PAIRS) - 1)), st.integers(0, 2**30),
       st.integers(0, 7), st.integers(0, 3))
def test_saturation_scans_match_referee_on_red_arc_specs(keep, seed, n, k):
    # adequacy is not required, so some code pairs admit no link at all
    p2 = P2Spec([FinStructure(MARKED, 0)] + RED_ARC_POINTS
                + [RED_ARC_PAIRS[i] for i in sorted(keep)])
    _agrees_with_referee(p2, random_marked(random.Random(seed), n), k, {n // 2})
    try:
        s = sample_uniform(p2, n, seed)
    except AdequacyError:
        return
    _agrees_with_referee(p2, s, k, {n // 2})


@pytest.mark.parametrize("spec", [graph_p2, marked_p2])
@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_saturation_scans_match_referee_on_uniform_samples(spec, n):
    p2 = spec()
    for seed in range(5):
        _agrees_with_referee(p2, sample_uniform(p2, n, seed), 2, {n - 1})


@pytest.mark.parametrize("spec, seed", [(graph_p2, 4), (graph_p2, 21),
                                        (marked_p2, 3), (marked_p2, 8)])
def test_saturation_scans_match_referee_on_oracle_snapshots(spec, seed):
    # budgeted level-2 passes: on the marked spec each runs out and records
    # nothing; on the graph spec the later ones cover a prefix below the
    # universe, which the referee must find saturated
    o = new_generic(spec(), seed)
    grow_random(o, 4)
    while o.size < 36:
        saturate(o, 2, 9)
        assert not naive_saturated(o.p2.members, o.current, 2, o.saturated_prefix(2))
        _agrees_with_referee(o.p2, o.current, 2, {o.saturated_prefix(2), o.size // 2})
        if o.saturated_prefix(2) == o.size:
            break


def _axioms_hold(p2, s, k):
    return all(axiom_holds(s, ax) for j in range(k + 1) for ax in full_extension_axioms(p2, j))


def test_saturation_is_the_extension_axioms_on_samples():
    # saturated to level k over the whole universe exactly when every
    # extension axiom of at most k slots holds
    verdicts = set()
    for p2 in (graph_p2(), marked_p2()):
        for n in (3, 5, 8, 12):
            for seed in range(10):
                s = sample_uniform(p2, n, seed)
                for k in range(3):
                    ok = verify_saturation(p2, s, k)[0]
                    assert ok == _axioms_hold(p2, s, k), (n, seed, k)
                    verdicts.add(ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(21, 27))
def test_saturation_is_the_extension_axioms_on_stable_oracles(seed):
    o = fresh(seed, 8)
    assert saturate_until_stable(o, 2).stable
    for k in range(3):
        assert verify_saturation(o.p2, o.current, k) == (True, [])
        assert _axioms_hold(o.p2, o.current, k)


def test_two_stable_oracles_are_2_equivalent():
    a = fresh(21, 8)
    b = fresh(22, 9)
    saturate_until_stable(a, 2)
    saturate_until_stable(b, 2)
    rep = back_and_forth(a.current, b.current, 2)
    assert rep.equivalent, rep.reason


def test_back_and_forth_separates_easy_pairs():
    edge = undirected_graph(2, [(0, 1)])
    nonedge = undirected_graph(2, [])
    rep = back_and_forth(edge, nonedge, 2)
    assert not rep.equivalent
    assert back_and_forth(edge, edge, 2).equivalent


def test_back_and_forth_replies_need_extension_witnesses():
    # a round's reply must preserve one-point extension behaviour, so a
    # single round already separates an edge from a non-edge
    edge = undirected_graph(2, [(0, 1)])
    nonedge = undirected_graph(2, [])
    rep = back_and_forth(edge, nonedge, 1)
    assert not rep.equivalent and rep.moves
    pt = undirected_graph(1, [])
    assert back_and_forth(pt, pt, 3).equivalent


def test_losing_lines_start_early_and_never_repeat_a_point():
    # two rounds separate an edge from a non-edge the way one round does
    edge = undirected_graph(2, [(0, 1)])
    nonedge = undirected_graph(2, [])
    one = [(m.side, m.point, m.reply) for m in back_and_forth(edge, nonedge, 1).moves]
    two = [(m.side, m.point, m.reply) for m in back_and_forth(edge, nonedge, 2).moves]
    assert one == two == [("left", 0, 0)]
    # the points chosen on each side form a partial map
    a, b = fresh(3, 6), fresh(6, 3)
    saturate(a, 3)
    saturate(b, 3)
    rep = back_and_forth(a.current, b.current, 2)
    assert not rep.equivalent and len(rep.moves) == 2
    chosen = {"left": [], "right": []}
    for m in rep.moves:
        chosen[m.side].append(m.point)
        chosen["right" if m.side == "left" else "left"].append(m.reply)
    assert all(len(set(pts)) == len(pts) for pts in chosen.values())

def test_homogeneity_probe_on_stable_oracle():
    o = fresh(13, 8)
    saturate_until_stable(o, 2)
    rep = homogeneity_probe(o, 2, 30)
    assert rep.successes == rep.trials


def test_homogeneity_probe_refuses_an_unsaturated_oracle():
    o = fresh(13, 5)
    with pytest.raises(SaturationError, match="needs saturation level 2 over at least 2 points"):
        homogeneity_probe(o, 2, 1)


@pytest.mark.parametrize("m, trials", [(-1, 5), (2, -3)])
def test_homogeneity_probe_rejects_negative_counts(m, trials):
    o = fresh(13, 8)
    saturate_until_stable(o, 2)
    # refused before the probe seeds its generator, so nothing is sampled
    with mock.patch("fraisse.generic.random.Random", side_effect=AssertionError), \
            pytest.raises(InputError, match=f"got {m} and {trials}$"):
        homogeneity_probe(o, m, trials)


def test_log_records_operations():
    o = fresh(3, 4)
    saturate_until_stable(o, 1)
    ops = {e.op for e in o.log}
    assert "extend" in ops and "saturate" in ops


def test_snapshots_are_independent():
    o = fresh(3, 4)
    before = o.current
    saturate(o, 1)
    assert before.size == 4
    assert o.current.size >= before.size
    assert naive_is_isomorphic(before, before)


@pytest.mark.parametrize("a, b, k, message", [
    (undirected_graph(2, [(0, 1)]), FinStructure(MARKED, 2), 1,
     "game endpoints use different vocabularies"),
    (undirected_graph(2, []), undirected_graph(2, []), -1, "negative round count -1"),
    (undirected_graph(200, []), undirected_graph(200, []), 3,
     "a 3-round game on sizes 200/200 exceeds the work cap"),
])
def test_back_and_forth_rejects_bad_input_before_classing(a, b, k, message):
    # no table is read: the game is refused before any class is built
    unread = property(lambda s: pytest.fail("a table was read"))
    with mock.patch.object(FinStructure, "tables", unread), \
            pytest.raises(InputError, match=f"^{message}$"):
        back_and_forth(a, b, k)


def reference_game(a, b, k):
    """The reference game: `back_and_forth` with each tuple's level-0
    class read from its whole `_naive.type_desc`.  Returns the verdict
    and the (side, point, reply) moves of the losing line."""
    sides = (a, b)
    keys = []
    ends = []
    for arity in range(k + 1):
        keys += [(si, tup) for si, s in enumerate(sides)
                 for tup in product(range(s.size), repeat=arity)]
        ends.append(len(keys))

    ids = {}

    def facts(key):
        return ids.setdefault(type_desc(sides[key[0]], key[1]), len(ids))

    levels = []
    down = facts
    for r in range(k + 1):
        level_ids = {}
        level = {}
        for si, tup in keys[:ends[k - r]]:
            raw = (down((si, tup)), frozenset(down((si, tup + (c,)))
                                              for c in range(sides[si].size) if c not in tup))
            level[si, tup] = level_ids.setdefault(raw, len(level_ids))
        levels.append(level)
        down = level.__getitem__

    if levels[k][0, ()] == levels[k][1, ()]:
        return True, []

    def split(p0, p1):
        return next(r for r in range(k - len(p0) + 1) if levels[r][0, p0] != levels[r][1, p1])

    moves = []
    pos = [(), ()]
    r = split((), ())
    while r > 0:
        prev = levels[r - 1]
        for si in (0, 1):
            other = 1 - si
            reachable = {prev[other, pos[other] + (c,)] for c in range(sides[other].size)}
            c = next((c for c in range(sides[si].size)
                      if prev[si, pos[si] + (c,)] not in reachable), None)
            if c is not None:
                break
        pos[si] += (c,)
        survive = {}
        for y in range(sides[other].size):
            if y not in pos[other]:
                trial = list(pos)
                trial[other] += (y,)
                survive[y] = split(*trial)
        best = min(survive, key=lambda y: (-survive[y], y), default=None)
        moves.append((("left", "right")[si], c, best))
        if best is None:
            break
        pos[other] += (best,)
        r = survive[best]
    return False, moves


def game_structure(kind, seed, n):
    """A random graph, a grown oracle of the marked spec, or a random
    structure over MIXED (arity 3) on n points."""
    rng = random.Random(seed)
    if kind == "graph":
        return random_graph(rng, n)
    if kind == "marked":
        o = new_generic(marked_p2(), seed)
        grow_random(o, n)
        return o.current
    return random_mixed(rng, n)


def tweaked_copy(rng, s):
    """A relabelled copy of s with one fact added or removed."""
    copy = permuted_copy(rng, s)[0]
    name, arity = rng.choice(s.vocab.symbols)
    fact = tuple(rng.randrange(s.size) for _ in range(arity))
    tables = dict(copy.tables)
    tables[name] = tables[name] ^ {fact}
    return FinStructure(s.vocab, s.size, tables)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["graph", "marked", "mixed"]), st.integers(0, 2**30),
       st.integers(1, 6), st.sampled_from(["copy", "tweak", "draw"]), st.integers(0, 3))
def test_game_matches_reference(kind, seed, n, how, k):
    a = game_structure(kind, seed, n)
    rng = random.Random(seed)
    # a relabelled copy is equivalent at every k; one fact changed makes
    # long losing lines; an independent draw may differ in size
    b = {"copy": lambda: permuted_copy(rng, a)[0], "tweak": lambda: tweaked_copy(rng, a),
         "draw": lambda: game_structure(kind, seed + 1, rng.randint(max(1, n - 1), n))}[how]()
    rep = back_and_forth(a, b, k)
    assert (rep.equivalent, [(m.side, m.point, m.reply) for m in rep.moves]) \
        == reference_game(a, b, k)


REGULAR_6 = (undirected_graph(6, [(i, (i + 1) % 6) for i in range(6)]),
             undirected_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
             undirected_graph(6, [(i, j) for i in range(3) for j in range(3, 6)]))


@pytest.mark.parametrize("k", range(4))
def test_game_matches_reference_on_regular_graphs(k):
    # a hexagon, two triangles and K(3,3), relabelled: 1-equivalent, so
    # from k = 2 their losing lines take two moves
    rng = random.Random(k)
    graphs = [permuted_copy(rng, g)[0] for g in REGULAR_6]
    for a in graphs:
        for b in graphs:
            rep = back_and_forth(a, b, k)
            moves = [(m.side, m.point, m.reply) for m in rep.moves]
            assert (rep.equivalent, moves) == reference_game(a, b, k)
            assert len(moves) == (2 if k >= 2 and a is not b else 0)


# The game reads each symbol through an index of its facts by position
# pattern.  These structures put most facts on repeated positions: loops of
# two directed symbols, and triples such as (x, x, y), (y, x, x) and
# (x, y, x) of MIXED's ternary symbol.
DIGRAPHS = Vocabulary([("r", 2), ("s", 2)])


def repeated_structure(rng, vocab, n):
    """Random facts over vocab on n points, each drawing its entries from
    one to three points, so most facts repeat a position."""
    tables = {}
    for name, arity in vocab.symbols:
        pools = [rng.sample(range(n), rng.randint(1, min(n, 3)))
                 for _ in range(rng.randint(0, 2 * n))]
        tables[name] = {tuple(rng.choice(pool) for _ in range(arity)) for pool in pools}
    return FinStructure(vocab, n, tables)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([DIGRAPHS, MIXED]), st.integers(0, 2**30), st.integers(0, 8),
       st.sampled_from(["copy", "tweak", "draw"]), st.integers(0, 8), st.integers(0, 3))
def test_game_matches_reference_on_repeated_positions(vocab, seed, n, how, drawn, k):
    rng = random.Random(seed)
    a = repeated_structure(rng, vocab, n)
    # a relabelled copy, one fact flipped, or an independent draw of any
    # size, 0 included
    b = {"copy": lambda: permuted_copy(rng, a)[0],
         "tweak": lambda: tweaked_copy(rng, a) if n else a,
         "draw": lambda: repeated_structure(rng, vocab, drawn)}[how]()
    rep = back_and_forth(a, b, k)
    assert (rep.equivalent, [(m.side, m.point, m.reply) for m in rep.moves]) \
        == reference_game(a, b, k)


@pytest.mark.parametrize("left, right", [
    ({"arc": {(0, 0)}}, {"arc": {(0, 1)}}),
    ({"arc": {(0, 1), (1, 1)}}, {"arc": {(0, 1), (0, 0)}}),
    ({"tri": {(0, 0, 1)}}, {"tri": {(1, 0, 0)}}),
    ({"tri": {(0, 1, 0)}}, {"tri": {(0, 0, 1)}}),
    ({"tri": {(0, 1, 2), (1, 2, 0)}}, {"tri": {(0, 1, 2), (2, 1, 0)}}),
    ({"tri": {(0, 1, 2), (0, 2, 1)}}, {"tri": {(0, 1, 2)}}),
])
def test_each_repeated_position_pattern_is_its_own_fact(left, right):
    # the two sides differ in which positions of a fact repeat, or in the
    # order of its points, and two rounds tell them apart
    a, b = FinStructure(MIXED, 3, left), FinStructure(MIXED, 3, right)
    for k in range(4):
        rep = back_and_forth(a, b, k)
        assert (rep.equivalent, [(m.side, m.point, m.reply) for m in rep.moves]) \
            == reference_game(a, b, k)
    assert not back_and_forth(a, b, 2).equivalent


@pytest.mark.parametrize("n", range(4))
def test_game_counts_points_a_tuple_leaves_outside(n):
    # factless sides of n and n + 1 points: a tuple of all n points has no
    # extension by a point outside it, so n rounds tell the sides apart
    a, b = FinStructure(DIGRAPHS, n), FinStructure(DIGRAPHS, n + 1)
    for k in range(n + 2):
        rep = back_and_forth(a, b, k)
        assert (rep.equivalent, [(m.side, m.point, m.reply) for m in rep.moves]) \
            == reference_game(a, b, k)
        assert rep.equivalent == (k < n)
