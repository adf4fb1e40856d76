"""Extension axioms, uniform sampling, and frequency estimation."""
from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse.amalgamation import P2Spec, graph_p2, in_rp2
from fraisse.cli import main
from fraisse.errors import (AdequacyError, InputError, InvalidElementError, ParseError,
                            VocabularyError)
from fraisse.structures import (FinStructure, Vocabulary, expand_with_marks, point_codes,
                                undirected_graph, with_point)
from fraisse.textio import load_p2
from fraisse.zero_one import (AxiomSpec, axiom_compatible, axiom_holds,
                              convergence_report, estimate_probability,
                              full_extension_axioms, parse_axiom, sample_uniform,
                              wilson_interval)

from _naive import (MIXED, all_graphs, graph_of_bits, naive_axiom_holds, naive_sample,
                    random_graph)
from test_incremental_oracle import assert_same_snapshot
from test_realization_scan import BONDED, bonded, marked_arcs, marks_only
from test_sampling_golden import MARKED, marked_p2

P2 = graph_p2()
ALL_AXIOMS = [ax for k in (0, 1, 2) for ax in full_extension_axioms(P2, k)]

graphs = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.integers(min_value=0,
                                    max_value=(1 << (n * (n - 1) // 2)) - 1)))


# -- intervals -------------------------------------------------------------------


def test_wilson_interval_frozen_values():
    assert wilson_interval(8, 10) == pytest.approx(
        (0.490162471537, 0.943317848546), abs=1e-9)
    assert wilson_interval(0, 20) == pytest.approx(
        (0.0, 0.161125158053), abs=1e-9)
    assert wilson_interval(20, 20) == pytest.approx(
        (0.838874841947, 1.0), abs=1e-9)
    assert wilson_interval(195, 200) == pytest.approx(
        (0.942821659593, 0.989275280348), abs=1e-9)


def test_wilson_interval_is_ordered_and_contained():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randrange(1, 50)
        s = rng.randrange(0, n + 1)
        lo, hi = wilson_interval(s, n)
        assert 0.0 <= lo <= s / n <= hi <= 1.0


# -- the axiom inventory -----------------------------------------------------------


def test_full_axiom_counts():
    assert [len(full_extension_axioms(P2, k)) for k in (0, 1, 2)] == [1, 2, 4]


def bonded_p2() -> P2Spec:
    """Symmetric loop-free adj/2 beside a directed bond/2 that may loop."""
    points = [FinStructure(BONDED, 1, {"bond": loop}) for loop in ((), {(0, 0)})]
    pairs = [with_point(a, point_codes(b)[0], [(adj, bond)]) for a in points for b in points
             for adj in ((0, 0), (1, 1)) for bond in ((0, 0), (0, 1), (1, 0), (1, 1))]
    return P2Spec([FinStructure(BONDED, 0)] + points + pairs)


def test_axiom_labels_round_trip():
    for ax in ALL_AXIOMS:
        assert parse_axiom(P2.vocab, ax.label()) == ax
    for p2 in (marked_p2(), bonded_p2()):
        axioms = [ax for k in (0, 1, 2) for ax in full_extension_axioms(p2, k)]
        labels = [ax.label() for ax in axioms]
        assert len(set(labels)) == len(labels)
        for ax, text in zip(axioms, labels):
            assert parse_axiom(p2.vocab, text) == ax
    marked = parse_axiom(MARKED, "ext 2: [red,loop:arc] arc> | - @ red")
    assert marked.label() == "ext 2: [red,loop:arc] arc> | - @ red"


def test_axioms_are_sorted_and_distinct():
    ks = [ax.sort_key() for ax in full_extension_axioms(P2, 2)]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)


def test_parse_axiom_rejects_malformed():
    for bad in ("ext 2: adj", "ext 1: nope", "nonsense", "ext -1:",
                "ext 1: adj | adj", "ext 1: [loop:adj adj", "ext 1: [red] adj",
                "ext 1: adj<>", "ext 1: adj>>"):
        with pytest.raises(ParseError):
            parse_axiom(P2.vocab, bad)


def test_axiom_spec_validates():
    adj = P2.vocab
    AxiomSpec(adj, [0], [((1, 1),)], 0)
    bad = [
        ([0, 0], [((1, 1),)], 0),           # two slots, one link option
        ([0], [((1, 1),), ((0, 0),)], 0),   # one slot, two link options
        ([0], [()], 0),                     # no pair for adj
        ([0], [((1, 1), (0, 0))], 0),       # a pair for a second symbol
        ([0], [((2, 0),)], 0),              # a bit of 2
        ([0], [((1, 1, 0),)], 0),           # a triple, not a pair
        ([2], [((1, 1),)], 0),              # slot code above 2^1 - 1
        ([0], [((1, 1),)], 2),              # point code above 2^1 - 1
        ([-1], [((1, 1),)], 0),             # negative code
    ]
    for slots, dirs, point in bad:
        with pytest.raises(InputError):
            AxiomSpec(adj, slots, dirs, point)
    AxiomSpec(MARKED, [3], [((0, 1),)], 3)
    with pytest.raises(InputError):
        AxiomSpec(MARKED, [4], [((0, 1),)], 3)


def test_point_code_range_is_one_vocabulary_check():
    # AxiomSpec and with_point reject the same codes with the same message,
    # each with its own exception type
    empty = FinStructure(MARKED, 0)
    for code in (-1, 4, 99):
        message = f"point code {code} is not in 0..3"
        with pytest.raises(InputError, match=message):
            AxiomSpec(MARKED, [code], [((0, 0),)], 0)
        with pytest.raises(InputError, match=message):
            AxiomSpec(MARKED, [], [], code)
        with pytest.raises(InvalidElementError, match=message):
            with_point(empty, code, [])
        for error in (InputError, InvalidElementError):
            with pytest.raises(error, match=message):
                MARKED.check_code(code, error)
    for code in range(4):
        MARKED.check_code(code, InputError)
        assert AxiomSpec(MARKED, [code], [((0, 0),)], code).point == code
        assert point_codes(with_point(empty, code, [])) == (code,)


# a permission set over a ternary symbol; its p2 block opens on line 10
TRI_DOC = """vocab v
rel tri 3

structure m0 over v
size 0

structure m1 over v
size 1

p2 p over v
members m0 m1
"""


def test_arity_three_is_rejected(tmp_path, capsys):
    with pytest.raises(VocabularyError):
        AxiomSpec(MIXED, [], [], 0)
    with pytest.raises(VocabularyError):
        parse_axiom(MIXED, "ext 1: arc @ mark")
    with pytest.raises(VocabularyError, match="binary vocabulary"):
        P2Spec([FinStructure(MIXED, 0), FinStructure(MIXED, 1)])
    path = tmp_path / "tri.p2"
    path.write_text(TRI_DOC)
    with pytest.raises(ParseError, match="^line 10: .*binary vocabulary"):
        load_p2(path)
    for argv in (["check-hp"], ["zeroone", "--full", "1", "--sizes", "4", "--trials", "2"]):
        assert main(argv + ["--p2", str(path)]) == 2
        assert "line 10:" in capsys.readouterr().err


# -- evaluation ---------------------------------------------------------------------


def test_pinned_examples():
    k3 = undirected_graph(3, [(0, 1), (1, 2), (0, 2)])
    p3 = undirected_graph(3, [(0, 1), (1, 2)])
    adj_adj = parse_axiom(P2.vocab, "ext 2: adj | adj")
    assert axiom_holds(k3, adj_adj)
    assert not axiom_holds(p3, adj_adj)
    empty = undirected_graph(0, [])
    assert axiom_holds(empty, adj_adj)          # vacuously: no base pair
    exists_point = parse_axiom(P2.vocab, "ext 0:")
    assert not axiom_holds(empty, exists_point)
    assert axiom_holds(undirected_graph(1, []), exists_point)


@settings(max_examples=120, deadline=None)
@given(graphs)
def test_fast_path_matches_naive(spec):
    n, bits = spec
    g = graph_of_bits(n, bits)
    for ax in ALL_AXIOMS:
        assert axiom_holds(g, ax) == naive_axiom_holds(g, ax)


def test_exhaustive_small_agreement():
    for n in range(4):
        for g in all_graphs(n):
            for ax in ALL_AXIOMS:
                assert axiom_holds(g, ax) == naive_axiom_holds(g, ax)


def test_marked_graph_axioms_match_naive():
    base_vocab = expand_with_marks(undirected_graph(1, []), [("red", [])]).vocab
    marked_axioms = [parse_axiom(base_vocab, t) for t in
                     ("ext 1: adj @ red", "ext 1: adj", "ext 1: - @ red",
                      "ext 2: adj | - @ red")]
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randrange(0, 6)
        g = random_graph(rng, n)
        reds = [v for v in range(n) if rng.random() < 0.5]
        m = expand_with_marks(g, [("red", reds)])
        for ax in marked_axioms:
            assert axiom_holds(m, ax) == naive_axiom_holds(m, ax)


ARC = Vocabulary([("arc", 2)])
ARC_DIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
ARC_SEGMENTS = ("arc>", "arc<", "arc", "-")


def _directed(n, bits):
    """Directed structure over ARC: bit u * n + v says whether (u, v) holds,
    loops included."""
    return FinStructure(ARC, n, {"arc": {(u, v) for u in range(n) for v in range(n)
                                         if bits >> (u * n + v) & 1}})


def _directed_axioms(rng, count):
    """Parsed axioms with k = 0..3 over every segment kind, plus axioms
    built from random slot codes, link options and point codes."""
    out = []
    for _ in range(count):
        k = rng.randrange(4)
        text = f"ext {k}: " + " | ".join(rng.choice(ARC_SEGMENTS) for _ in range(k))
        if rng.random() < 0.5:
            text += " @ loop:arc"
        out.append(parse_axiom(ARC, text))
        out.append(AxiomSpec(ARC, [rng.randrange(2) for _ in range(k)],
                             [(rng.choice(ARC_DIRS),) for _ in range(k)],
                             rng.randrange(2)))
    return out


def _check_directed(s, axioms):
    for ax in axioms:
        assert axiom_holds(s, ax) == naive_axiom_holds(s, ax), (s.tables, ax)


def test_directed_fast_path_matches_naive():
    rng = random.Random(31)
    axioms = _directed_axioms(rng, 40)
    assert {ax.k for ax in axioms} == {0, 1, 2, 3}
    asymmetric = looped = 0
    for _ in range(150):
        n = rng.randrange(0, 8)
        s = _directed(n, rng.getrandbits(n * n) if n else 0)
        _check_directed(s, axioms)
        asymmetric += s.in_bits("arc") is not s.out_bits("arc")
        looped += any((v, v) in s.tables["arc"] for v in range(n))
    assert asymmetric > 60 and looped > 60


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * n)) - 1))),
       st.randoms(use_true_random=False))
def test_directed_fast_path_matches_naive_property(spec, rng):
    _check_directed(_directed(*spec), _directed_axioms(rng, 6))


def _random_axioms(vocab: Vocabulary):
    """Lists of axioms with k = 0..3 over random slot codes, link options
    and point codes of the vocabulary."""
    code = st.integers(0, (1 << len(vocab.symbols)) - 1)
    option = st.tuples(*[st.sampled_from(ARC_DIRS)] * len(vocab.binary_symbols()))
    slot = st.tuples(code, option)
    axiom = st.builds(lambda slots, point: AxiomSpec(
        vocab, [c for c, _ in slots], [o for _, o in slots], point),
        st.lists(slot, max_size=3), code)
    return st.lists(axiom, min_size=1, max_size=8)


def _structures(build):
    return st.integers(min_value=0, max_value=6).flatmap(lambda n: st.builds(
        build, st.just(n), st.integers(0, (1 << (n * n)) - 1),
        st.integers(0, (1 << (n * n)) - 1)))


AXIOM_CASES = st.one_of(
    st.tuples(_structures(bonded), _random_axioms(BONDED)),
    st.tuples(_structures(marked_arcs), _random_axioms(MARKED)),
    st.tuples(_structures(marks_only), _random_axioms(marks_only(0, 0, 0).vocab)))


@settings(max_examples=200, deadline=None)
@given(AXIOM_CASES)
def test_evaluator_matches_naive_on_every_binary_vocabulary(case):
    s, axioms = case
    for ax in axioms:
        assert axiom_holds(s, ax) == naive_axiom_holds(s, ax), (s.tables, ax)


def test_evaluator_sees_slot_codes_and_links():
    # 0 -> 1 -> 2 over arc, point 1 red and looped: only point 1 has code 3
    s = FinStructure(MARKED, 3, {"red": [(1,)], "arc": [(0, 1), (1, 2), (1, 1)]})
    truth = {"ext 1: [red,loop:arc] arc>": True,      # witness 2
             "ext 1: [red,loop:arc] arc<": True,      # witness 0
             "ext 1: [red,loop:arc] arc": False,
             "ext 1: [red,loop:arc] -": False,
             "ext 1: arc> @ red,loop:arc": False,     # base 2 has no arc to 1
             "ext 1: [red] arc>": True,               # no red unlooped point
             "ext 0: @ red,loop:arc": True,
             "ext 0: @ red": False}
    for text, want in truth.items():
        assert axiom_holds(s, parse_axiom(MARKED, text)) == want, text


def test_loop_marked_axiom_is_incompatible():
    loopy = parse_axiom(P2.vocab, "ext 1: adj @ loop:adj")
    assert not axiom_compatible(P2, loopy)
    for ax in ALL_AXIOMS:
        assert axiom_compatible(P2, ax)


# -- sampling -------------------------------------------------------------------------


def test_sample_uniform_is_deterministic_and_permitted():
    a = sample_uniform(P2, 30, seed=5)
    b = sample_uniform(P2, 30, seed=5)
    assert a == b
    assert a.size == 30
    assert in_rp2(P2, a)
    assert sample_uniform(P2, 30, seed=6) != a


@pytest.mark.parametrize("spec", ["graph", "marked"])
def test_samples_compare_and_hash_on_rows(spec):
    p2 = SAMPLED[spec]
    a, b, other = (sample_uniform(p2, 40, seed) for seed in (3, 3, 4))
    assert a == b and hash(a) == hash(b) and a != other
    assert a._tables is None and b._tables is None and other._tables is None
    checked = FinStructure(p2.vocab, 40, sample_uniform(p2, 40, 3).tables)
    assert a == checked and hash(a) == hash(checked)


def test_sample_uniform_edge_fairness():
    # each pair is an independent fair coin: 200 samples on 2 points
    hits = sum(1 for s in range(200)
               if sample_uniform(P2, 2, seed=s).tables["adj"])
    assert 70 <= hits <= 130


def _two_colour_p2():
    """Plain and red points; two red points admit no link at all."""
    vocab = Vocabulary([("red", 1), ("adj", 2)])
    plain, red = (FinStructure(vocab, 1, {"red": r}) for r in ((), {(0,)}))
    pairs = [with_point(a, point_codes(b)[0], [(d,)]) for a, b in ((plain, plain), (plain, red))
             for d in ((0, 0), (1, 1))]
    return P2Spec([FinStructure(vocab, 0), plain, red] + pairs), red


def test_sample_raises_only_when_a_drawn_pair_has_no_link():
    p2, red = _two_colour_p2()
    red_index = p2.codes.index(point_codes(red)[0])
    assert p2.permitted_links(red, red) == ()
    raised = kept = 0
    for seed in range(40):
        rng = random.Random(seed)          # point types are drawn first
        reds = [rng.randrange(2) for _ in range(3)].count(red_index)
        if reds >= 2:
            with pytest.raises(AdequacyError):
                sample_uniform(p2, 3, seed)
            raised += 1
        else:
            s = sample_uniform(p2, 3, seed)
            assert len(s.tables["red"]) == reds
            kept += 1
        assert len(sample_uniform(p2, 1, seed).tables["adj"]) == 0
    assert raised and kept


def oriented_p2() -> P2Spec:
    """Loop-free arc/2 with at most one arc per pair: three link options,
    so a pair's draw is not read off one bit of its word."""
    point = FinStructure(ARC, 1)
    return P2Spec([FinStructure(ARC, 0), point]
                  + [with_point(point, 0, [(d,)]) for d in ((0, 0), (0, 1), (1, 0))])


SAMPLED = {"graph": P2, "marked": marked_p2(), "bonded": bonded_p2(), "oriented": oriented_p2()}


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(sorted(SAMPLED)),
       n=st.sampled_from([0, 1]) | st.integers(min_value=2, max_value=40),
       seed=st.integers(min_value=0, max_value=1 << 32))
def test_row_built_samples_match_the_checked_constructor(spec, n, seed):
    p2 = SAMPLED[spec]
    s = sample_uniform(p2, n, seed)
    assert_same_snapshot(p2, s, FinStructure(p2.vocab, n, sample_uniform(p2, n, seed).tables))
    assert in_rp2(p2, s)


def marks_p2(marks: str, count: int) -> P2Spec:
    """The first `count` combinations of the unary `marks` beside a
    loop-free adj/2: two points with the last mark are adjacent, any other
    pair may be or not.  With 16 codes a pair's code-index pair alone fills
    a byte; with 17 it needs more."""
    vocab = Vocabulary([(name, 1) for name in marks] + [("adj", 2)])
    points = [FinStructure(vocab, 1, {name: {(0,)} for name, bit in zip(marks, bits) if bit})
              for bits in list(product((0, 1), repeat=len(marks)))[:count]]
    last = vocab.code_bit(marks[-1])
    pairs = [with_point(x, point_codes(y)[0], [(d,)])
             for i, x in enumerate(points) for y in points[i:] for d in ((0, 0), (1, 1))
             if d == (1, 1) or not point_codes(x)[0] & point_codes(y)[0] & last]
    return P2Spec([FinStructure(vocab, 0)] + points + pairs)


def two_three_p2() -> P2Spec:
    """Plain and red points over a loop-free arc/2: two plain points admit
    three options (no arc, either one), any pair with a red point two (no
    arc, both), so the pair bounds 2 and 3 keep different words."""
    plain, red = (FinStructure(MARKED, 1, {"red": r}) for r in ((), {(0,)}))
    pairs = ([with_point(plain, 0, [(d,)]) for d in ((0, 0), (0, 1), (1, 0))]
             + [with_point(x, point_codes(red)[0], [(d,)])
                for x in (plain, red) for d in ((0, 0), (1, 1))])
    return P2Spec([FinStructure(MARKED, 0), plain, red] + pairs)


REFEREED = {**SAMPLED, "sixteen": marks_p2("abcd", 16), "seventeen": marks_p2("abcde", 17),
            "two-three": two_three_p2()}


def test_refereed_specs_cover_every_draw_shape():
    two_three = REFEREED["two-three"]
    for spec, k in (("sixteen", 16), ("seventeen", 17)):
        p2 = REFEREED[spec]
        assert len(p2.codes) == k
        assert {len(p2.links(a, b)) for a in p2.codes for b in p2.codes} == {1, 2}
    assert {len(two_three.links(a, b)) for a in two_three.codes for b in two_three.codes} == {2, 3}
    assert len(REFEREED["oriented"].links(0, 0)) == 3


def _assert_sample_matches_naive(spec: str, n: int, seed: int):
    p2 = REFEREED[spec]
    s = sample_uniform(p2, n, seed)
    naive = naive_sample(p2.members, p2.codes, n, seed)
    assert s.tables == naive.tables and s == naive


@pytest.mark.parametrize("spec", sorted(REFEREED))
def test_sample_uniform_matches_naive_draws_on_small_sizes(spec):
    for n in (0, 1, 2, 3):
        for seed in range(6):
            _assert_sample_matches_naive(spec, n, seed)


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(sorted(REFEREED)), n=st.integers(min_value=0, max_value=60),
       seed=st.integers(min_value=0, max_value=1 << 32))
def test_sample_uniform_matches_naive_draws(spec, n, seed):
    _assert_sample_matches_naive(spec, n, seed)


def test_sample_density_at_size_50():
    g = sample_uniform(P2, 50, seed=1)
    edges = len(g.tables["adj"]) // 2
    assert 450 <= edges <= 775          # mean 612.5


# -- estimation -----------------------------------------------------------------------


def test_estimate_fields_and_determinism():
    axs = full_extension_axioms(P2, 2)
    est = estimate_probability(P2, axs, 20, 40, seed=2)
    assert (est.n, est.trials, est.seed) == (20, 40, 2)
    assert 0 <= est.successes <= 40
    assert est.point_estimate == est.successes / 40
    for i in range(len(axs)):
        assert 0.0 <= est.frequency(i) <= 1.0
        lo, hi = est.interval(i)
        assert lo <= est.frequency(i) <= hi
    again = estimate_probability(P2, axs, 20, 40, seed=2)
    assert again.successes == est.successes


def test_estimate_accepts_single_axiom():
    ax = parse_axiom(P2.vocab, "ext 1: adj")
    est = estimate_probability(P2, ax, 12, 30, seed=0)
    assert est.frequency(0) == est.point_estimate


def test_joint_is_impossible_below_six_points():
    # a base pair leaves at most three other points, but the four
    # two-point link patterns need four distinct witnesses
    axs = full_extension_axioms(P2, 2)
    for n in (4, 5):
        assert estimate_probability(P2, axs, n, 60, seed=3).point_estimate == 0.0


def test_convergence_report_shape():
    rep = convergence_report(P2, ALL_AXIOMS, [16, 8, 16], 30, seed=7)
    assert rep.sizes == [8, 16]
    assert [e.n for e in rep.estimates] == [8, 16]
    assert rep.incompatible == []
    assert rep.clean or rep.non_monotonic    # flags are consistent


def test_convergence_flags_a_drop_beyond_interval_overlap():
    # vacuous on one point, 5 of 50 on four: the intervals [0.93, 1] and
    # [0.04, 0.21] do not overlap
    ax = parse_axiom(P2.vocab, "ext 2: adj | adj")
    rep = convergence_report(P2, ax, [4, 1], 50)
    assert rep.sizes == [1, 4]
    assert [est.per_axiom for est in rep.estimates] == [[50], [5]]
    assert rep.non_monotonic == {0: [(1, 4)]}
    assert rep.incompatible == [] and not rep.clean


def test_convergence_flags_incompatible_axiom():
    loopy = parse_axiom(P2.vocab, "ext 1: adj @ loop:adj")
    good = parse_axiom(P2.vocab, "ext 1: adj")
    rep = convergence_report(P2, [good, loopy], [6, 12], 20, seed=1)
    assert rep.incompatible == [1]
    assert not rep.clean
    for est in rep.estimates:
        assert est.frequency(1) == 0.0


def test_frequencies_grow_toward_one():
    ax = parse_axiom(P2.vocab, "ext 1: adj")
    rep = convergence_report(P2, [ax], [4, 32], 60, seed=11)
    assert rep.frequency(1, 0) > rep.frequency(0, 0)
    assert rep.frequency(1, 0) == rep.estimates[1].frequency(0)
