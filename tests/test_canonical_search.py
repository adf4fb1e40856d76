"""Canonical search: recorded key values, symmetric inputs, and
isomorphism witnesses checked against networkx.

`tests/golden/canonical_keys.txt` holds `<label> <fingerprint>` for every
input of `golden_inputs()`, as the search over bit rows that refines each
node's ordered partition from its parent's with a queue of splitter cells
and prunes twin points computes them.  A faster search
must reproduce every line.  Key values set the order of `enum` output, so
rewrite the file only when they change on purpose:

    PYTHONPATH=src python tests/test_canonical_search.py > tests/golden/canonical_keys.txt
"""
from __future__ import annotations

import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse import structures
from fraisse.structures import (FinStructure, Vocabulary, canonical_key, is_isomorphic,
                                reduct_to, undirected_graph)

from _naive import (graph_of_bits, is_valid_embedding, naive_code, naive_is_isomorphic,
                    naive_refine, permuted_copy, random_graph, random_mixed,
                    reference_canonical)

GOLDEN = Path(__file__).parent / "golden" / "canonical_keys.txt"


def _pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _petersen():
    return undirected_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)])


# The symmetric graphs of perfbench's `classes` workload.
BENCH_SYMMETRIC = {
    "empty6": undirected_graph(6, []),
    "complete6": undirected_graph(6, _pairs(6)),
    "matching8": undirected_graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
    "cycle8": undirected_graph(8, [(i, (i + 1) % 8) for i in range(8)]),
    "cycle10": undirected_graph(10, [(i, (i + 1) % 10) for i in range(10)]),
    "K33": undirected_graph(6, [(i, j) for i in range(3) for j in range(3, 6)]),
    "2K3": undirected_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    "petersen": _petersen(),
}

# Inputs whose cells stay large after refinement, so an unpruned search
# walks every ordering of them.
SYMMETRIC = {
    "empty10": undirected_graph(10, []),
    "matching12": undirected_graph(12, [(2 * i, 2 * i + 1) for i in range(6)]),
    "K44": undirected_graph(8, [(i, j) for i in range(4) for j in range(4, 8)]),
    "cube3": undirected_graph(8, [(v, v ^ (1 << b)) for v in range(8)
                                  for b in range(3) if v < v ^ (1 << b)]),
    "petersen": _petersen(),
}


def golden_inputs():
    """(label, structure) for every input whose key value is recorded."""
    for bits in range(1 << 10):
        yield f"g5-{bits}", graph_of_bits(5, bits)
    rng = random.Random(20261018)
    for i in range(200):
        yield f"rand-{i}", random_graph(rng, 6 + i % 4)
    for name, g in BENCH_SYMMETRIC.items():
        yield f"sym-{name}", g
    rng = random.Random(20261019)
    for i in range(50):
        yield f"mixed-{i}", random_mixed(rng, 1 + i % 7)


def test_keys_match_recorded_fingerprints():
    recorded = dict(line.split() for line in GOLDEN.read_text().splitlines())
    got = {label: canonical_key(s).fingerprint for label, s in golden_inputs()}
    assert len(recorded) == len(got) == 1024 + 200 + 8 + 50
    assert [k for k in got if got[k] != recorded[k]] == []


def _check_witness(a, b):
    w = is_isomorphic(a, b)
    assert w is not None
    assert is_valid_embedding(a, b, w.map)


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_symmetric_inputs(name):
    g = SYMMETRIC[name]
    rng = random.Random(name)
    for _ in range(3):
        h, _perm = permuted_copy(rng, g)
        assert canonical_key(h) == canonical_key(g)
        _check_witness(g, h)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=7),
       st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
       st.randoms(use_true_random=False))
def test_mixed_vocabulary_keys_and_witnesses(n, p, rng):
    s = random_mixed(rng, n, p)
    h, _perm = permuted_copy(rng, s)
    assert canonical_key(h) == canonical_key(s)
    _check_witness(s, h)
    other = random_mixed(rng, n, p)
    w = is_isomorphic(s, other)
    assert (w is not None) == naive_is_isomorphic(s, other)
    if w is not None:
        assert is_valid_embedding(s, other, w.map)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=7),
       st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
       st.booleans(),
       st.randoms(use_true_random=False))
def test_keys_agree_with_reference_search(n, p, binary, rng):
    """Equal keys exactly where the reference search gives equal rows, on
    permuted copies, unrelated structures and one-fact changes; without
    the ternary symbol the search also prunes twin points."""
    def draw():
        s = random_mixed(rng, n, p)
        return reduct_to(s, ["mark", "arc"]) if binary else s

    s = draw()
    others = [permuted_copy(rng, s)[0], draw()]
    if n:
        tables = {name: set(s.tables[name]) for name in s.vocab.names()}
        tables["arc"] ^= {(rng.randrange(n), rng.randrange(n))}
        others.append(permuted_copy(rng, FinStructure(s.vocab, n, tables))[0])
    ref = reference_canonical(s)[0]
    for other in others:
        same = reference_canonical(other)[0] == ref
        assert (canonical_key(other) == canonical_key(s)) == same
        w = is_isomorphic(s, other)
        assert (w is not None) == same
        if w is not None:
            assert is_valid_embedding(s, other, w.map)


def _classes(masks):
    return {frozenset(v for v in range(m.bit_length()) if m >> v & 1) for m in masks if m}


def _color_classes(colors):
    return _classes([sum(1 << v for v, c in enumerate(colors) if c == x) for x in set(colors)])


@pytest.mark.parametrize("kind", ["graph", "digraph", "marked"])
def test_refinement_matches_naive_refine(kind):
    """The search's splitter refinement ends in the classes of
    `naive_refine`, the coarsest equitable ones: at the root, from the
    point codes, and after each point is split off its root cell alone,
    as a child of the root splits it.  Digraphs carry loops."""
    rng = random.Random(kind)
    for _ in range(300):
        n = rng.randint(1, 12)
        if kind == "graph":
            s = random_graph(rng, n)
        else:
            s = reduct_to(random_mixed(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8])),
                          ["arc"] if kind == "digraph" else ["mark", "arc"])
        with mock.patch.object(structures, "_refine", wraps=structures._refine) as spy:
            canonical_key(s)
        rows, cells, cell_of, _queue = spy.call_args_list[0].args
        root = naive_refine(s, [naive_code(s, v) for v in range(n)])
        assert _classes(cells) == _color_classes(root)
        for v in range(n):
            child, child_of = list(cells), list(cell_of)
            start = cell_of[v]
            last = start + cells[start].bit_count() - 1
            child[start] &= ~(1 << v)
            child[last], child_of[v] = 1 << v, last
            structures._refine(rows, child, child_of, [last])
            colors = list(root)
            colors[v] = -1
            assert _classes(child) == _color_classes(naive_refine(s, colors)), v


def test_twins_need_equal_in_rows():
    """Two sinks, least in the colour order, with equal (empty) out-rows,
    one fed from the Shrikhande graph and one from the 4x4 rook's graph.
    Refinement cannot tell them apart, but no automorphism swaps them, so
    a twin test that read only out-rows would give permuted copies
    different keys."""
    vocab = Vocabulary([("arc", 2)])
    cells = [(i, j) for i in range(4) for j in range(4)]
    shrikhande = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    arcs = {(a, b) for a, p in enumerate(cells) for b, q in enumerate(cells)
            if ((q[0] - p[0]) % 4, (q[1] - p[1]) % 4) in shrikhande}
    arcs |= {(16 + a, 16 + b) for a, p in enumerate(cells) for b, q in enumerate(cells)
             if p != q and (p[0] == q[0] or p[1] == q[1])}
    # loops on every other point put the sinks 32 and 33 first
    arcs |= {(0, 32), (16, 33)} | {(v, v) for v in range(32)}
    s = FinStructure(vocab, 34, {"arc": arcs})
    rng = random.Random(5)
    for _ in range(8):
        h, _perm = permuted_copy(rng, s)
        assert canonical_key(h) == canonical_key(s)


def test_keying_stores_no_rows_on_a_table_built_structure():
    """The twin test builds the rows of a structure made from tables
    locally, so a keyed structure does not keep them for its lifetime; a
    structure that already holds rows is keyed from them, as its equal
    table-built copy is."""
    vocab = Vocabulary([("arc", 2)])
    arcs = {(0, 1), (0, 2), (1, 2), (2, 1), (3, 3), (4, 3), (5, 3)}
    s = FinStructure(vocab, 6, {"arc": arcs})
    key = canonical_key(s)
    assert s._bits is None
    held = FinStructure(vocab, 6, {"arc": arcs})
    held.out_bits("arc"), held.in_bits("arc")
    rows = dict(held._bits)
    with mock.patch.object(FinStructure, "_table_rows", side_effect=AssertionError):
        assert canonical_key(held) == key
    assert held._bits == rows


def _nx_graph(nx, g):
    out = nx.Graph()
    out.add_nodes_from(range(g.size))
    out.add_edges_from(g.tables["adj"])
    return out


def test_isomorphism_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261020)
    pairs = []
    for _ in range(150):
        n = rng.randint(0, 12)
        g = random_graph(rng, n)
        pairs.append((g, permuted_copy(rng, g)[0]))
        pairs.append((g, random_graph(rng, n)))
        # same size and edge count: only the search can tell them apart
        edges = sorted(g.tables["adj"])
        if edges:
            u, v = rng.choice(edges)
            free = [p for p in _pairs(n) if p not in g.tables["adj"]]
            if free:
                moved = {e for e in edges if e not in ((u, v), (v, u))}
                a, b = rng.choice(free)
                pairs.append((g, undirected_graph(n, moved | {(a, b)})))
    sym = list(SYMMETRIC.values())
    pairs += [(a, b) for a in sym for b in sym if a.size == b.size]
    pairs += [(g, permuted_copy(rng, g)[0]) for g in sym]
    for a, b in pairs:
        w = is_isomorphic(a, b)
        assert (w is not None) == nx.is_isomorphic(_nx_graph(nx, a), _nx_graph(nx, b))
        if w is not None:
            assert is_valid_embedding(a, b, w.map)


def _path(n):
    return undirected_graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycles(*sizes):
    edges, start = [], 0
    for m in sizes:
        edges += [(start + i, start + (i + 1) % m) for i in range(m)]
        start += m
    return undirected_graph(start, edges)


def _cliques(*sizes):
    edges, start = [], 0
    for m in sizes:
        edges += [(start + i, start + j) for i, j in _pairs(m)]
        start += m
    return undirected_graph(start, edges)


def _bipartite(a, b):
    return undirected_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _matching(n):
    return undirected_graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])


def _moved(g, gone, added):
    """g's edges with one edge moved: as many edges, degrees changed."""
    return g.tables["adj"] - {gone, gone[::-1]} | {added, added[::-1]}


# Large symmetric inputs, each with the edge set of a non-isomorphic partner
# on the same points; the partners of the empty and complete graphs differ
# by one edge, the others have as many edges.
LARGE = {
    "empty300": (undirected_graph(300, []), {(0, 1), (1, 0)}),
    "complete60": (_cliques(60), _cliques(60).tables["adj"] - {(0, 1), (1, 0)}),
    "path200": (_path(200), _cycles(199).tables["adj"]),
    "cycle60": (_cycles(60), _cycles(30, 30).tables["adj"]),
    "K30,30": (_bipartite(30, 30), _moved(_bipartite(30, 30), (0, 30), (0, 1))),
    "matching60": (_matching(60), _moved(_matching(60), (2, 3), (1, 2))),
    "cliques5x20": (_cliques(*[20] * 5), _moved(_cliques(*[20] * 5), (0, 1), (0, 20))),
}


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_symmetric_inputs(name):
    nx = pytest.importorskip("networkx")
    g, partner_edges = LARGE[name]
    rng = random.Random(name)
    h, _perm = permuted_copy(rng, g)
    assert canonical_key(h) == canonical_key(g)
    _check_witness(g, h)
    partner, _perm = permuted_copy(rng, FinStructure(g.vocab, g.size, {"adj": partner_edges}))
    assert is_isomorphic(g, partner) is None
    assert not nx.is_isomorphic(_nx_graph(nx, g), _nx_graph(nx, partner))


def test_long_path_has_a_key():
    # 1 100 points: deeper than Python's default recursion limit; the
    # directed path's in-rows differ from its out-rows
    arcs = {(i, i + 1) for i in range(1099)}
    for g in (_path(1100), FinStructure(Vocabulary([("arc", 2)]), 1100, {"arc": arcs})):
        key = canonical_key(g)
        assert key.payload[0] == 1100 and len(key.payload[1]) == 1100


if __name__ == "__main__":
    for label, s in golden_inputs():
        print(label, canonical_key(s).fingerprint)
