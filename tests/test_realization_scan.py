"""The realisation scan on point codes and row bitmasks, checked against
brute-force tuple types.

`find_realization`, `realizer_bits` and `extension_at` read a point's
code and the out- and in-rows of each binary symbol; the closure
engine's `count_realizations` walks the same scan, its per-base `scan`
splits the points on the same rows, and a symbol of arity above 2 fails
before the first verdict.  Every case here is compared with
`naive_realizers`, which compares full tuple types directly, or with
`naive_acl`, which counts them.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse.errors import InvalidElementError, VocabularyError
from fraisse.generic import extension_at, find_realization, realizer_bits
from fraisse.structures import FinStructure, Vocabulary
from fraisse.types_orbits import _AclEngine, check_degenerate_dependence, check_triviality

from _naive import naive_acl, naive_realizers, random_mixed
from test_sampling_golden import MARKED

BONDED = Vocabulary([("adj", 2), ("bond", 2)])
MARKS = Vocabulary([("red", 1), ("blue", 1)])


def _rows(n: int, bits: int) -> set[tuple[int, int]]:
    return {(u, v) for u in range(n) for v in range(n) if bits >> (u * n + v) & 1}


def marked_arcs(n: int, red: int, arc: int) -> FinStructure:
    """red/1 and a directed arc/2 with loops."""
    return FinStructure(MARKED, n, {"red": [(v,) for v in range(n) if red >> v & 1],
                                    "arc": _rows(n, arc)})


def bonded(n: int, adj: int, bond: int) -> FinStructure:
    """adj/2 symmetric and loop-free, bond/2 directed with loops."""
    edges = {(u, v) for u, v in _rows(n, adj) if u < v}
    return FinStructure(BONDED, n, {"adj": edges | {(v, u) for u, v in edges},
                                    "bond": _rows(n, bond)})


def marks_only(n: int, red: int, blue: int) -> FinStructure:
    """Two unary symbols and no binary one: every link pattern is empty."""
    return FinStructure(MARKS, n, {"red": [(v,) for v in range(n) if red >> v & 1],
                                   "blue": [(v,) for v in range(n) if blue >> v & 1]})


def _case(build):
    """(structure, base, a): a structure on 1-6 points, a base of up to
    three distinct points and a point outside it."""
    return st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
        st.builds(build, st.just(n), st.integers(0, (1 << (n * n)) - 1),
                  st.integers(0, (1 << (n * n)) - 1)),
        st.permutations(range(n)), st.integers(0, min(3, n - 1))))


def _split(case):
    s, order, k = case
    return s, tuple(order[:k]), order[k]


CASES = st.one_of(_case(marked_arcs), _case(bonded), _case(marks_only))


class StaticSource:
    """An acl source that never grows."""

    def __init__(self, s: FinStructure):
        self.s = s
        self.size = s.size

    def snapshot(self) -> FinStructure:
        return self.s

    def saturated_prefix(self, level: int) -> int:
        return self.size

    def add_realization(self, base, ref) -> bool:
        return False


def _ascending(bits: int) -> list[int]:
    return [c for c in range(bits.bit_length()) if bits >> c & 1]


@settings(max_examples=150, deadline=None)
@given(CASES)
def test_scan_finds_exactly_the_naive_realizers(case):
    s, base, a = _split(case)
    want = naive_realizers(s, base, a)
    tau = extension_at(s, base, a)
    assert _ascending(realizer_bits(s, tau)) == want
    assert find_realization(s, tau) == want[0]
    bits = realizer_bits(s, tau)
    rest = bits & (bits - 1)
    assert ((rest & -rest).bit_length() - 1 if rest else None) == (want[1:] or [None])[0]


@settings(max_examples=150, deadline=None)
@given(CASES)
def test_patterns_are_equal_exactly_when_types_are(case):
    s, base, a = _split(case)
    same = set(naive_realizers(s, base, a))
    for c in range(s.size):
        if c not in base:
            assert (extension_at(s, base, c) == extension_at(s, base, a)) == (c in same)


@settings(max_examples=150, deadline=None)
@given(CASES, st.integers(min_value=1, max_value=4))
def test_engine_counts_the_naive_realizers(case, cap):
    s, base, a = _split(case)
    engine = _AclEngine(StaticSource(s), d=2, budget=None)
    want = naive_realizers(s, base, a)
    assert engine.count_realizations(base, a) == want
    assert engine.count_realizations(base, a, cap=cap) == want[:cap]
    assert engine.verdict(base, a) == ("non-algebraic" if len(want) >= 2 else "algebraic")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(0, 2 ** 32),
       st.integers(0, 2))
def test_engine_rejects_symbols_above_arity_two(n, seed, k):
    rng = random.Random(seed)
    s = random_mixed(rng, n, p=0.5)
    order = rng.sample(range(n), n)
    base, a = tuple(order[:min(k, n - 1)]), order[min(k, n - 1)]
    engine = _AclEngine(StaticSource(s), d=2, budget=None)
    with pytest.raises(VocabularyError):
        engine.verdict(base, a)
    with pytest.raises(VocabularyError):
        engine.count_realizations(base, a)
    # a scan over a base yields its points as algebraic unless it fails first
    with pytest.raises(VocabularyError):
        next(engine.scan(base, n))
    with pytest.raises(VocabularyError):
        check_triviality(StaticSource(s), max_b=min(k, n))
    with pytest.raises(VocabularyError):
        check_degenerate_dependence(StaticSource(s), 2, max_b=1, max_c=min(k, n - 1))


@settings(max_examples=150, deadline=None)
@given(CASES, st.integers(min_value=1, max_value=4), st.sampled_from([0, None]))
def test_engine_scan_and_verdicts_match_naive_acl(case, d, budget):
    # with no growth allowed a short pattern is inconclusive; a source
    # that can never grow certifies it algebraic
    s, base, _a = _split(case)
    closure = naive_acl(s, base, d)
    short = "inconclusive" if budget == 0 else "algebraic"
    want = [(a, "algebraic" if a in base else short) for a in closure]
    verdicts = [dict(want).get(a, "non-algebraic") for a in range(s.size)]
    scanned = _AclEngine(StaticSource(s), d, budget)
    assert list(scanned.scan(base, s.size)) == want
    assert [scanned.verdict(base, a) for a in range(s.size)] == verdicts
    fresh = _AclEngine(StaticSource(s), d, budget)
    assert [fresh.verdict(base, a) for a in range(s.size)] == verdicts
    assert list(fresh.scan(base, s.size)) == want
    assert scanned.added == fresh.added == 0


def test_scan_tells_out_rows_from_in_rows():
    # 0 -> 1 and 2 -> 0: over base (0,), points 1 and 2 differ only in direction
    s = FinStructure(MARKED, 3, {"arc": {(0, 1), (2, 0)}})
    for a in (1, 2):
        assert find_realization(s, extension_at(s, (0,), a)) == a
        assert naive_realizers(s, (0,), a) == [a]


def test_extension_at_rejects_a_base_point():
    s = marked_arcs(3, 0, 0)
    with pytest.raises(InvalidElementError):
        extension_at(s, (0, 1), 1)
