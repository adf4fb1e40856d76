"""Reduct checking by type-partition refinement.

A typed universe assigns an opaque type to every tuple over a carrier,
up to a declared arity.  One universe refines another (on the same
carrier) when equal types in the first force equal types in the second,
arity by arity; the second is then a reduct of the first up to that
arity.  Everything here is exhaustive over labelled tuples, so verdicts
are exact for the given carrier.

A universe may carry a pair grid: a size x size table of labels such
that tuples with equal label grids over their ordered position pairs
(diagonal included) get equal types.  The quotient's types and the pair
family have one, read off the base adjacencies and the 2-type matrix.
When both universes of a refinement check have one, the scan lists the
joint grid classes of each arity from those of the arity below, in
`product` order, and calls each type function once per class, on its
first tuple; parsed and structure universes are scanned tuple by tuple.
Reports are the same either way."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product, repeat
from typing import Callable, Sequence

from .errors import InputError, InvalidElementError
from .structures import FinStructure, TypeId, tuple_type


class TypedUniverse:
    """A carrier plus a type function on tuples of arity up to n_max,
    and optionally a pair grid (see the module docstring) that the type
    function respects.

    Nothing is cached; each call evaluates the type function."""

    __slots__ = ("size", "n_max", "grid", "_fn")

    def __init__(self, size: int, n_max: int, type_fn: Callable,
                 grid: list[list] | None = None):
        if size < 0:
            raise InputError("carrier size must be non-negative")
        if n_max < 1:
            raise InputError("typed universes need arity at least 1")
        self.size = size
        self.n_max = n_max
        self.grid = grid
        self._fn = type_fn

    def type_of(self, tup: Sequence[int]) -> TypeId:
        tup = tuple(int(x) for x in tup)
        if not tup or len(tup) > self.n_max:
            raise InputError(
                f"arity {len(tup)} outside this universe's range 1..{self.n_max}")
        if any(x < 0 or x >= self.size for x in tup):
            raise InvalidElementError(f"tuple {tup} leaves the carrier")
        return self._fn(tup)

    def __repr__(self) -> str:
        return f"TypedUniverse(size={self.size}, n_max={self.n_max})"


def from_structure(s: FinStructure, n_max: int) -> TypedUniverse:
    """Tuple types of a finite structure, up to n_max."""
    return TypedUniverse(s.size, n_max, lambda tup: tuple_type(s, tup))


def from_quotient(q, n_max: int) -> TypedUniverse:
    """Swap-invariant class-tuple types of a quotient geometry.

    Its grid labels are 2 on the diagonal and the base adjacency bit off
    it: they fix a tuple's length, equality pattern and adjacency bits,
    which are all `pair_type` reads, in either ambient."""
    grid = [[2 if g == h else row >> h & 1 for h in range(q.size)]
            for g, row in enumerate(q._fbits)]
    return TypedUniverse(q.size, n_max, q.pair_type, grid)


def pair_family_universe(q, n_max: int) -> TypedUniverse:
    """Types that remember only the family of component 2-types.

    The type of a tuple is the grid, over all ordered index pairs
    (diagonal included), of the 2-types `q.type_of` gives the
    corresponding pairs — no joint information beyond pairs.  `q` is a
    quotient geometry or a typed universe; the size x size matrix of
    2-type fingerprints is computed here, once, and is the pair grid."""
    matrix = [[q.type_of((g, h)).fingerprint for h in range(q.size)]
              for g in range(q.size)]

    def fam(tup):
        rows = [matrix[g] for g in tup]
        return TypeId("pairfam", ("grid", len(tup)),
                      tuple(row[h] for row in rows for h in tup))

    return TypedUniverse(q.size, n_max, fam, matrix)


# ---------------------------------------------------------------------------
# refinement and reducts


@dataclass
class RefinementReport:
    verdict: str                    # "refines" | "fails"
    arity: int
    tuples_checked: int
    classes: int
    counterexample: tuple | None = None   # (tuple_a, tuple_b, source_key)

    @property
    def refines(self) -> bool:
        return self.verdict == "refines"


def _joint_grid(universes) -> list[list[int]] | None:
    """One pair grid whose label at (g, h) is the interned tuple of the
    universes' labels there, or None unless every universe has a grid."""
    if any(u.grid is None for u in universes):
        return None
    labels: dict = {}
    return [[labels.setdefault(cell, len(labels)) for cell in zip(*rows)]
            for rows in zip(*(u.grid for u in universes))]


def _class_firsts(size: int, n: int, grid):
    """(1-based position in `product` order, tuple) for every n-tuple over
    range(size), or with a pair grid for the first tuple of each grid
    class only.

    Classes are listed arity by arity: the class of t + (c,) is the id
    of (class of t, class of t[1:] + (c,), grid[t[0]][c], grid[c][t[0]]),
    which fixes the label grid of t + (c,) exactly.  Each arity below n
    is a list of ids indexed by a tuple's rank in `product` order; arity
    n is streamed."""
    if grid is None:
        yield from enumerate(product(range(size), repeat=n), start=1)
        return
    ids = [row[c] for c, row in enumerate(grid)]
    if n == 1:
        firsts: dict = {}
        for c, label in enumerate(ids):
            firsts.setdefault(label, (c + 1, (c,)))
        yield from firsts.values()
        return
    cols = [list(col) for col in zip(*grid)]
    tail = 1                                    # size ** (k - 1)
    for k in range(1, n):
        classes: dict = {}
        below = []
        for r, t in enumerate(product(range(size), repeat=k)):
            sfx = r % tail * size
            keys = zip(repeat(ids[r], size), ids[sfx:sfx + size],
                       grid[t[0]], cols[t[0]])
            if k < n - 1:
                below.extend(classes.setdefault(key, len(classes)) for key in keys)
                continue
            for c, key in enumerate(keys):
                if key not in classes:
                    classes[key] = None
                    yield r * size + c + 1, t + (c,)
        ids = below
        tail *= size


def _first_clash(size: int, n: int, grid, key: Callable, value: Callable):
    """Scan the n-tuples over range(size) in `product` order, keeping per
    key the value and the first tuple met, and stop at the first tuple
    whose value differs from its key's.  With a pair grid on whose
    classes key and value are constant, only each class's first tuple is
    read: a later one repeats a key and value already met, so it can
    neither clash nor add a key.  Returns the tuples scanned, that map
    (key -> (value, first tuple)) and the clash (first tuple, tuple,
    key), or None when there is none."""
    seen: dict = {}
    for checked, tup in _class_firsts(size, n, grid):
        k, v = key(tup), value(tup)
        prior = seen.setdefault(k, (v, tup))
        if prior[0] != v:
            return checked, seen, (prior[1], tup, k)
    return size ** n, seen, None


def _check_pair(source: TypedUniverse, target: TypedUniverse, n: int) -> None:
    """Reject a carrier mismatch, or an arity below 1 or above either
    universe's declared arity, naming that universe."""
    if source.size != target.size:
        raise InputError("refinement needs a shared carrier")
    if n < 1:
        raise InputError(f"arity {n} is below 1")
    for role, u in (("source", source), ("target", target)):
        if n > u.n_max:
            raise InputError(f"arity {n} is above the {role} universe's "
                             f"declared arity {u.n_max}")


def partition_refines(source: TypedUniverse, target: TypedUniverse, n: int
                      ) -> RefinementReport:
    """Exhaustively test that source-equal n-tuples are target-equal."""
    _check_pair(source, target, n)
    checked, seen, clash = _first_clash(source.size, n, _joint_grid((source, target)),
                                        source._fn, target._fn)
    if clash is None:
        return RefinementReport("refines", n, checked, len(seen))
    first, tup, sk = clash
    return RefinementReport("fails", n, checked, len(seen), (first, tup, sk.fingerprint))


@dataclass
class ReductReport:
    verdict: str                    # "holds" | "fails"
    n_max: int
    per_arity: list[RefinementReport] = field(default_factory=list)  # up to the first failure

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    @property
    def failing_arity(self) -> int | None:
        return None if self.holds else self.per_arity[-1].arity

    @property
    def counterexample(self) -> tuple | None:
        return None if self.holds else self.per_arity[-1].counterexample


def is_reduct(source: TypedUniverse, target: TypedUniverse, n_max: int
              ) -> ReductReport:
    """Whether the target is a reduct of the source up to arity n_max:
    source types must determine target types at every arity 1..n_max.
    Stops at the least failing arity; the carriers and n_max are checked
    before the first scan."""
    _check_pair(source, target, n_max)
    reports = []
    for n in range(1, n_max + 1):
        r = partition_refines(source, target, n)
        reports.append(r)
        if not r.refines:
            return ReductReport("fails", n_max, reports)
    return ReductReport("holds", n_max, reports)


@dataclass
class DefinabilityReport:
    verdict: str                    # "definable" | "undefinable"
    arity: int
    classes_inside: list[str] = field(default_factory=list)
    witness: tuple | None = None    # (tuple_in, tuple_out, source_key)


def definable_as_union(source: TypedUniverse, relation, n: int
                       ) -> DefinabilityReport:
    """Whether a relation is a union of the source's n-type classes."""
    if n < 1 or n > source.n_max:
        raise InputError(f"arity {n} outside the universe's declared range")
    rel = set(tuple(int(x) for x in t) for t in relation)
    for t in rel:
        if len(t) != n:
            raise InputError(f"relation row {t} does not have arity {n}")
        if any(x < 0 or x >= source.size for x in t):
            raise InvalidElementError(f"relation row {t} leaves the carrier")
    _, status, clash = _first_clash(source.size, n, None, source._fn, rel.__contains__)
    if clash is not None:
        first, tup, sk = clash
        tup_in, tup_out = (first, tup) if status[sk][0] else (tup, first)
        return DefinabilityReport("undefinable", n, [], (tup_in, tup_out, sk.fingerprint))
    inside_keys = sorted(k.fingerprint for k, (flag, _) in status.items() if flag)
    return DefinabilityReport("definable", n, inside_keys)
