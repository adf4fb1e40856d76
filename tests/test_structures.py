"""Core structure type: construction, embeddings, types, canonical keys."""
from __future__ import annotations

import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse.doubled_cover import build_double, quotient
from fraisse.errors import InvalidElementError, ParseError, VocabularyError
from fraisse.generic import ExtensionType, find_realization
from fraisse.reduct import pair_family_universe
from fraisse.structures import (Embedding, FinStructure, TypeId, Vocabulary,
                                canonical_key, expand_with_marks,
                                find_embeddings, graph_vocabulary,
                                induced_substructure, is_isomorphic,
                                point_codes, reduct_to, tuple_type,
                                undirected_graph, with_point)
from fraisse.textio import parse_typed_universe

from _naive import (all_graphs, graph_of_bits, is_valid_embedding,
                    naive_embeddings, naive_is_isomorphic, naive_link,
                    naive_link_rows, permuted_copy, random_graph, random_mixed,
                    type_desc)

graphs = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.integers(min_value=0,
                                    max_value=(1 << (n * (n - 1) // 2)) - 1)))


def mkgraph(spec):
    n, bits = spec
    return graph_of_bits(n, bits)


# -- construction and validation ---------------------------------------------


def test_vocabulary_rejects_bad_arity():
    with pytest.raises(VocabularyError):
        Vocabulary((("adj", 0),))
    with pytest.raises(VocabularyError):
        Vocabulary((("adj", 2), ("adj", 1)))


def test_structure_rejects_out_of_range_points():
    v = graph_vocabulary()
    with pytest.raises(InvalidElementError):
        FinStructure(v, 2, {"adj": frozenset({(0, 2), (2, 0)})})


def test_structure_rejects_unknown_symbol():
    v = graph_vocabulary()
    with pytest.raises(VocabularyError):
        FinStructure(v, 2, {"edge": frozenset()})


MIXED3 = Vocabulary([("mark", 1), ("arc", 2), ("tri", 3)])

# (label, size, tables, outcome): the normalised tables, or the exception
# type and message.  Set order decides which bad tuple a message names.
VALIDATION_CASES = [
    ("set-ok", 3, {"arc": {(0, 1), (2, 2)}, "mark": {(1,)}, "tri": {(0, 1, 2)}},
     {"mark": [(1,)], "arc": [(0, 1), (2, 2)], "tri": [(0, 1, 2)]}),
    ("frozenset-ok", 3, {"arc": frozenset({(0, 1), (1, 0)})},
     {"mark": [], "arc": [(0, 1), (1, 0)], "tri": []}),
    ("list-ok", 3, {"arc": [(0, 1), (0, 1), (2, 0)]},
     {"mark": [], "arc": [(0, 1), (2, 0)], "tri": []}),
    ("empty", 0, {"arc": set(), "mark": frozenset(), "tri": []},
     {"mark": [], "arc": [], "tri": []}),
    ("set-short", 3, {"arc": {(0, 1), (1,)}},
     ("InvalidElementError", "'arc' expects arity 2, got tuple (1,)")),
    ("set-long", 3, {"arc": {(0, 1, 2)}},
     ("InvalidElementError", "'arc' expects arity 2, got tuple (0, 1, 2)")),
    ("frozenset-short", 3, {"tri": frozenset({(0, 1)})},
     ("InvalidElementError", "'tri' expects arity 3, got tuple (0, 1)")),
    ("set-high", 3, {"arc": {(0, 1), (1, 3)}},
     ("InvalidElementError", "tuple (1, 3) for 'arc' is outside universe 0..2")),
    ("set-negative", 3, {"arc": {(-1, 0)}},
     ("InvalidElementError", "tuple (-1, 0) for 'arc' is outside universe 0..2")),
    ("frozenset-high", 3, {"mark": frozenset({(3,)})},
     ("InvalidElementError", "tuple (3,) for 'mark' is outside universe 0..2")),
    ("list-high", 3, {"arc": [(0, 1), (2, 5)]},
     ("InvalidElementError", "tuple (2, 5) for 'arc' is outside universe 0..2")),
    ("list-negative", 3, {"mark": [(0,), (-2,)]},
     ("InvalidElementError", "tuple (-2,) for 'mark' is outside universe 0..2")),
    ("list-rows", 3, {"arc": [[0, 1], [1, 2]]},
     {"mark": [], "arc": [(0, 1), (1, 2)], "tri": []}),
    ("list-row-short", 3, {"arc": [[0]]},
     ("InvalidElementError", "'arc' expects arity 2, got tuple (0,)")),
    ("set-bool", 3, {"arc": {(True, False), (0, 2)}},
     {"mark": [], "arc": [(0, 2), (1, 0)], "tri": []}),
    ("set-float", 3, {"arc": {(1.0, 2.0)}},
     {"mark": [], "arc": [(1, 2)], "tri": []}),
    ("set-float-frac", 3, {"arc": {(1.5, 0.2)}},
     {"mark": [], "arc": [(1, 0)], "tri": []}),
    ("set-float-high", 3, {"arc": {(1.0, 3.0)}},
     ("InvalidElementError", "tuple (1, 3) for 'arc' is outside universe 0..2")),
    ("set-str", 3, {"mark": {("2",)}},
     {"mark": [(2,)], "arc": [], "tri": []}),
    ("set-bad-str", 3, {"mark": {("x",)}},
     ("ValueError", "invalid literal for int() with base 10: 'x'")),
    ("set-none", 3, {"mark": {(None,)}},
     ("TypeError", "int() argument must be a string, a bytes-like object "
                   "or a real number, not 'NoneType'")),
    ("size-0-row", 0, {"mark": {(0,)}},
     ("InvalidElementError", "tuple (0,) for 'mark' is outside universe 0..-1")),
    ("unknown-symbol", 3, {"nope": {(0,)}},
     ("VocabularyError", "table for unknown symbol 'nope'")),
    ("frozenset-bool-high", 2, {"arc": frozenset({(True, 2)})},
     ("InvalidElementError", "tuple (1, 2) for 'arc' is outside universe 0..1")),
]


@pytest.mark.parametrize("label,size,tables,expected", VALIDATION_CASES,
                         ids=[case[0] for case in VALIDATION_CASES])
def test_structure_validation_outcomes(label, size, tables, expected):
    # outcomes recorded before set tables got a bulk validation pass
    try:
        s = FinStructure(MIXED3, size, tables)
    except Exception as e:
        assert (type(e).__name__, str(e)) == expected
        return
    assert {name: sorted(s.tables[name]) for name in MIXED3.names()} == expected
    for table in s.tables.values():
        assert type(table) is frozenset
        assert all(type(t) is tuple and all(type(x) is int for x in t)
                   for t in table)


def test_in_bits_transpose_out_bits():
    v = graph_vocabulary()
    s = FinStructure(v, 3, {"adj": {(0, 1), (2, 2), (2, 0)}})
    assert s.out_bits("adj") == (0b010, 0, 0b101)
    assert s.in_bits("adj") == (0b100, 0b001, 0b100)
    g = undirected_graph(3, [(0, 1), (1, 2)])
    assert g.in_bits("adj") is g.out_bits("adj")
    with pytest.raises(VocabularyError):
        expand_with_marks(g, [("red", [0])]).in_bits("red")


# -- links and point codes ------------------------------------------------------

LINK_VOCABS = (Vocabulary([("red", 1), ("arc", 2)]),
               Vocabulary([("adj", 2), ("bond", 2)]),
               Vocabulary([("mark", 1), ("arc", 2), ("tri", 3)]))
PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _raw_tables(vocab: Vocabulary, n: int, bits: int) -> dict[str, set]:
    """The facts that `bits` picks, loops included: n ** arity bits per
    symbol."""
    tables = {}
    for name, arity in vocab.symbols:
        cells = list(product(range(n), repeat=arity))
        tables[name] = {t for i, t in enumerate(cells) if bits >> i & 1}
        bits >>= len(cells)
    return tables


_linked = st.tuples(st.sampled_from(LINK_VOCABS), st.integers(0, 5),
                    st.integers(0, (1 << 155) - 1))


@settings(max_examples=150, deadline=None)
@given(_linked)
def test_link_and_link_rows_match_naive(raw):
    vocab, n, bits = raw
    tables = _raw_tables(vocab, n, bits)
    s = FinStructure(vocab, n, tables)
    for u in range(n):
        for v in range(n):
            assert s.link(u, v) == naive_link(s, u, v)
    for option in product(PAIRS, repeat=len(vocab.binary_symbols())):
        assert s.link_rows(option) == tuple(naive_link_rows(s, option))
        assert s.link_rows(option) is s.link_rows(option)
    # decoded from codes and rows where the vocabulary is binary
    assert s.tables == tables


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LINK_VOCABS), st.data())
def test_with_point_writes_what_link_reads(vocab, data):
    if not vocab.binary:
        with pytest.raises(VocabularyError):
            with_point(FinStructure(vocab, 0), 0, [])
        return
    n = data.draw(st.integers(0, 5))
    nsym, nbin = len(vocab.symbols), len(vocab.binary_symbols())
    codes = data.draw(st.lists(st.integers(0, (1 << nsym) - 1), min_size=n, max_size=n))
    options = {(u, v): data.draw(st.tuples(*[st.sampled_from(PAIRS)] * nbin))
               for u in range(n) for v in range(u + 1, n)}
    # the same facts written by hand: a loop per code bit, and per link
    # option the facts of each direction it holds
    tables = {name: set() for name in vocab.names()}
    for v, code in enumerate(codes):
        for name, arity in vocab.symbols:
            if code & vocab.code_bit(name):
                tables[name].add((v,) * arity)
    for (u, v), option in options.items():
        for sym, (to_v, from_v) in zip(vocab.binary_symbols(), option):
            if to_v:
                tables[sym].add((u, v))
            if from_v:
                tables[sym].add((v, u))
    grown = [FinStructure(vocab, 0)]
    for w, code in enumerate(codes):
        grown.append(with_point(grown[-1], code, [options[v, w] for v in range(w)]))
    s, ref = grown[-1], FinStructure(vocab, n, tables)
    assert point_codes(s) == tuple(codes)
    for (u, v), option in options.items():
        assert s.link(u, v) == naive_link(ref, u, v) == option
        assert s.link(v, u) == tuple((b, a) for a, b in option)
    assert s == ref and hash(s) == hash(ref) and s.tables == ref.tables
    for sym in vocab.binary_symbols():
        assert s.in_bits(sym) == ref.in_bits(sym)
        assert (s.in_bits(sym) is s.out_bits(sym)) == (s.in_bits(sym) == s.out_bits(sym))
    # each point added left the structures before it as they were; a
    # symbol's in-rows are its out-rows tuple exactly while it is symmetric
    for k, earlier in enumerate(grown):
        sub, _ = induced_substructure(ref, range(k))
        assert earlier.size == k and earlier == sub and earlier.tables == sub.tables
        for sym in vocab.binary_symbols():
            assert earlier.in_bits(sym) == sub.in_bits(sym)
            assert (earlier.in_bits(sym) is earlier.out_bits(sym)) == (
                sub.in_bits(sym) == sub.out_bits(sym))
    with pytest.raises(InvalidElementError):
        with_point(s, 0, [PAIRS[:nbin]] * (n + 1))


def test_link_options_and_marks_are_defined_once_per_vocabulary():
    for vocab in LINK_VOCABS:
        assert vocab.link_options() == tuple(product(PAIRS, repeat=len(vocab.binary_symbols())))
        assert vocab.link_options() is vocab.link_options()
    for vocab in LINK_VOCABS[:2]:
        for code in range(1 << len(vocab.symbols)):
            assert vocab.mark_code(", ".join(vocab.mark_tokens(code))) == code
    marked = LINK_VOCABS[0]
    assert marked.mark_tokens(3) == ["red", "loop:arc"] and marked.mark_tokens(0) == []
    for bad in ("arc", "loop:red", "blue"):
        with pytest.raises(ParseError, match=f"unknown mark '{bad}'"):
            marked.mark_code(bad)


def test_link_rows_rejects_malformed_options():
    g = undirected_graph(4, [(0, 1), (1, 2)])
    # over one binary symbol, () read every point and zip cut a second pair
    # off, so find_realization took point 1 for a link of no shape to 0
    for option in ((), ((1, 1), (0, 0)), ((2, 0),), ((1,),)):
        with pytest.raises(InvalidElementError, match="not a link option"):
            g.link_rows(option)
        with pytest.raises(InvalidElementError, match="not a link option"):
            find_realization(g, ExtensionType(g.vocab, (0,), [option], 0))
    assert g.link_rows(((1, 1),)) == (0b0010, 0b0101, 0b0010, 0)
    assert find_realization(g, ExtensionType(g.vocab, (0,), [((1, 1),)], 0)) == 1


def test_link_rows_cache_keeps_options_apart_from_symbol_rows():
    # option rows share a cache with the (symbol, converse) rows: an
    # option spelt like such a key must still be rejected, in either order
    for rows_first in (True, False):
        g = undirected_graph(3, [(0, 1)])
        if rows_first:
            assert g.out_bits("adj") == (2, 1, 0)
        for option in (("adj", False), ("adj", True)):
            with pytest.raises(InvalidElementError, match="not a link option"):
                g.link_rows(option)
        assert g.out_bits("adj") == g.in_bits("adj") == (2, 1, 0)
        assert g.link_rows(((1, 1),)) == (2, 1, 0)
        assert g.link_rows(((0, 0),)) == (5, 6, 7)


def test_with_point_rejects_codes_outside_the_vocabulary():
    g = undirected_graph(4, [(0, 1), (1, 2)])
    for code in (99, 2, -1):
        with pytest.raises(InvalidElementError, match=f"point code {code} is not in 0..1"):
            with_point(g, code, [((0, 0),)] * 4)
    assert point_codes(with_point(g, 1, [((0, 0),)] * 4)) == (0, 0, 0, 0, 1)


def test_undirected_graph_symmetrizes():
    g = undirected_graph(3, [(0, 1)])
    assert g.tables["adj"] == frozenset({(0, 1), (1, 0)})


def test_induced_substructure_relabels():
    g = undirected_graph(4, [(0, 1), (1, 2), (2, 3)])
    sub, order = induced_substructure(g, [1, 3])
    assert order == (1, 3)
    assert sub.size == 2
    assert sub.tables["adj"] == frozenset()
    sub2, _ = induced_substructure(g, [1, 2])
    assert sub2.tables["adj"] == frozenset({(0, 1), (1, 0)})


# -- embeddings and isomorphism ----------------------------------------------


def test_embeddings_are_strong():
    edge = undirected_graph(2, [(0, 1)])
    nonedge = undirected_graph(2, [])
    tri = undirected_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert len(find_embeddings(edge, tri)) == 6
    assert find_embeddings(nonedge, tri) == []


def test_embedding_validation():
    edge = undirected_graph(2, [(0, 1)])
    tri = undirected_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(InvalidElementError):
        Embedding(edge, tri, (0, 0))
    with pytest.raises(InvalidElementError):
        Embedding(edge, tri, (0, 1, 2))


def test_embeddings_match_naive_small():
    rng = random.Random(11)
    for _ in range(60):
        a = random_graph(rng, rng.randrange(0, 4))
        b = random_graph(rng, rng.randrange(0, 6))
        got = {e.map for e in find_embeddings(a, b)}
        assert got == naive_embeddings(a, b)


def test_embeddings_over_a_ternary_symbol_match_naive():
    # codes and links decide `mark` and `arc`; facts of `tri` such as
    # (v, v, u) are left to the positional check
    rng = random.Random(31)
    for _ in range(80):
        b = random_mixed(rng, rng.randrange(0, 6))
        if b.size and rng.random() < 0.7:
            a, _ = induced_substructure(b, rng.sample(range(b.size), rng.randrange(1, b.size + 1)))
            a, _ = permuted_copy(rng, a)
        else:
            a = random_mixed(rng, rng.randrange(0, 4))
        maps = [e.map for e in find_embeddings(a, b)]
        assert maps == sorted(naive_embeddings(a, b))
        # homogeneity_probe draws from the first 64 maps
        for k in (1, 2, 64):
            assert [e.map for e in find_embeddings(a, b, limit=k)] == maps[:k]


def test_embedding_limit():
    edge = undirected_graph(2, [(0, 1)])
    tri = undirected_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert len(find_embeddings(edge, tri, limit=2)) == 2


def test_embedding_search_depth_is_not_bounded_by_recursion_limit():
    n = 300
    path = undirected_graph(n, [(i, i + 1) for i in range(n - 1)])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(n // 2)
    try:
        found = find_embeddings(path, path, limit=1)
    finally:
        sys.setrecursionlimit(old)
    assert [e.map for e in found] == [tuple(range(n))]


@settings(max_examples=80, deadline=None)
@given(graphs, st.integers(min_value=0, max_value=2**30))
def test_isomorphic_to_permuted_copy(spec, seed):
    g = mkgraph(spec)
    h, _ = permuted_copy(random.Random(seed), g)
    em = is_isomorphic(g, h)
    assert em is not None
    assert is_valid_embedding(g, h, em.map)


@settings(max_examples=80, deadline=None)
@given(graphs, graphs)
def test_isomorphism_matches_naive(spec_a, spec_b):
    a, b = mkgraph(spec_a), mkgraph(spec_b)
    em = is_isomorphic(a, b)
    assert (em is not None) == naive_is_isomorphic(a, b)
    if em is not None:
        assert is_valid_embedding(a, b, em.map)


def test_canonical_key_classifies_small_graphs():
    # 1, 1, 2, 4, 11 isomorphism classes on 0..4 vertices
    for n, expected in [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11)]:
        keys = {canonical_key(g) for g in all_graphs(n)}
        assert len(keys) == expected


@settings(max_examples=60, deadline=None)
@given(graphs, st.integers(min_value=0, max_value=2**30))
def test_canonical_key_is_invariant(spec, seed):
    g = mkgraph(spec)
    h, _ = permuted_copy(random.Random(seed), g)
    assert canonical_key(g) == canonical_key(h)


# -- tuple types --------------------------------------------------------------


def test_tuple_type_distinguishes_edge_from_nonedge():
    g = undirected_graph(3, [(0, 1)])
    assert tuple_type(g, (0, 1)) != tuple_type(g, (0, 2))
    assert tuple_type(g, (0, 1)) == tuple_type(g, (1, 0))


def test_tuple_type_sees_equality_pattern():
    g = undirected_graph(2, [])
    assert tuple_type(g, (0, 0)) != tuple_type(g, (0, 1))
    assert tuple_type(g, (0, 0)) == tuple_type(g, (1, 1))


@settings(max_examples=60, deadline=None)
@given(graphs, st.data())
def test_tuple_type_partition_matches_naive(spec, data):
    g = mkgraph(spec)
    if g.size == 0:
        return
    pts = st.integers(min_value=0, max_value=g.size - 1)
    tups = [tuple(data.draw(st.lists(pts, min_size=k, max_size=k)))
            for k in (1, 2, 3) for _ in range(4)]
    for t1 in tups:
        for t2 in tups:
            if len(t1) != len(t2):
                continue
            assert ((tuple_type(g, t1) == tuple_type(g, t2))
                    == (type_desc(g, t1) == type_desc(g, t2)))


def test_type_id_fingerprint_is_stable():
    g = undirected_graph(3, [(0, 1)])
    t = tuple_type(g, (0, 1))
    fp = t.fingerprint
    assert fp == t.fingerprint
    assert len(fp) == 16
    assert tuple_type(g, (1, 0)).fingerprint == fp


def _path4():
    return undirected_graph(4, [(0, 1), (1, 2), (2, 3)])


def _structure_types():
    return [canonical_key(_path4()), canonical_key(undirected_graph(3, [])),
            canonical_key(undirected_graph(2, [(0, 1)]))]


def _tuple_types():
    return [tuple_type(_path4(), t) for t in ((0,), (0, 0), (0, 1), (1, 3))]


def _pair_types():
    q = quotient(build_double(_path4()))
    return [q.pair_type(t) for t in ((0, 0), (0, 1), (0, 1, 2), (0, 1, 3))]


def _pairfam_types():
    u = pair_family_universe(quotient(build_double(_path4())), 2)
    return [u.type_of(t) for t in ((0,), (0, 0), (0, 1))]


def _stored_types():
    u = parse_typed_universe("typed-universe u\ncarrier 2\narity 1\n0 : a\n1 : b\n")
    return [u.type_of((0,)), u.type_of((1,))]


# one maker per kind of TypeId the package builds, each building its types
# from scratch, and the fingerprints of what it makes
TYPE_ID_MAKERS = {
    "structure": (_structure_types,
                  ["9bc6971addbb3f0e", "802879f8098ba1c7", "95f6abde409cd42f"]),
    "tuple": (_tuple_types,
              ["202373424fa2f186", "5ae8054025887c35", "5699ef4a38da13c7", "106a0f4be86b5b67"]),
    "pair": (_pair_types,
             ["5d2d6404bbbdea5b", "911214b10f6b6268", "6ce2e0453bb0149e", "164452829dfafaad"]),
    "pairfam": (_pairfam_types, ["0cb6976e8429890b", "094b134d30411575", "1c41e18ec8b3c25b"]),
    "stored": (_stored_types, ["00664b503539529a", "09777d5759ed7337"]),
}


@pytest.mark.parametrize("kind", sorted(TYPE_ID_MAKERS))
def test_type_id_reference(kind):
    make, fingerprints = TYPE_ID_MAKERS[kind]
    types = make()
    assert [t.kind for t in types] == [kind] * len(types)
    assert [t.fingerprint for t in types] == fingerprints
    for t, again in zip(types, make()):
        for twin in (again, TypeId(t.kind, t.signature, t.payload)):
            assert twin == t and hash(twin) == hash(t)
    every = [t for makers in TYPE_ID_MAKERS.values() for t in makers[0]()]
    for pool in (types, types[::-1], every):
        assert sorted(pool) == sorted(pool, key=lambda t: t.sort_key)
    for a in every:
        for b in types:
            assert (a < b) == (a.sort_key < b.sort_key)
            assert (a > b) == (a.sort_key > b.sort_key)


def test_type_id_order_is_by_repr():
    # 9 sorts after 10 as text, so order never falls through to the fields
    nine, ten = TypeId("k", (), 9), TypeId("k", (), 10)
    assert ten < nine and nine > ten
    assert not nine < ten and not ten > nine
    assert sorted([nine, ten]) == [ten, nine]


def test_type_id_le_ge_follow_sort_key():
    nine, ten = TypeId("k", (), 9), TypeId("k", (), 10)
    assert ten <= nine and nine >= ten and nine <= nine and nine >= nine
    assert not nine <= ten and not ten >= nine
    every = [t for make, _ in TYPE_ID_MAKERS.values() for t in make()]
    for a in every:
        for b in every:
            assert (a <= b) == (a.sort_key <= b.sort_key)
            assert (a >= b) == (a.sort_key >= b.sort_key)


def test_type_id_equals_its_plain_fields():
    t = tuple_type(_path4(), (0, 1))
    assert t == (t.kind, t.signature, t.payload) and hash(t) == hash(tuple(t))


# -- vocabulary expansion and reducts -----------------------------------------


def test_expand_with_marks():
    g = undirected_graph(3, [(0, 1)])
    m = expand_with_marks(g, [("red", [0, 2])])
    assert m.vocab.symbols == (("adj", 2), ("red", 1))
    assert m.tables["red"] == frozenset({(0,), (2,)})
    assert m.tables["adj"] == g.tables["adj"]
    assert tuple_type(m, (0,)) != tuple_type(m, (1,))


def test_expand_rejects_existing_symbol():
    g = undirected_graph(2, [])
    with pytest.raises(VocabularyError):
        expand_with_marks(g, [("adj", [0])])


def test_reduct_to_drops_symbols():
    g = undirected_graph(3, [(0, 1)])
    m = expand_with_marks(g, [("red", [0])])
    back = reduct_to(m, ["adj"])
    assert back == g


def test_structure_equality_and_hash():
    a = undirected_graph(2, [(0, 1)])
    b = undirected_graph(2, [(1, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != undirected_graph(2, [])
