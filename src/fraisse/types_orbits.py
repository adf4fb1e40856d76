"""Type censuses, algebraic-closure approximation, and dependence shape.

Algebraicity is approximated by realization counting against a
duplication bound d: a point is non-algebraic over a base once its type
over that base has at least d realizations, and sources that can grow
(oracles, doubled covers over an oracle) are asked to add realizations on
demand before any verdict is settled.  Verdicts are monotone-sound:
"non-algebraic" is witnessed by exhibited realizations, "algebraic" is
issued only for equality-bound types or types the source certifies can
never gain another realization, and anything the growth budget cuts off
is flagged inconclusive rather than guessed.  A verdict belongs to the
pattern a point realises over a base, so the triviality and degeneracy
checks split the universe into pattern leaves once per base and settle
each leaf on its first point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Sequence

from .errors import InputError, InvalidElementError, SaturationError, VocabularyError
from .generic import (ExtensionType, GenericOracle, extend_one_point, extension_at,
                      realizer_bits)
from .reduct import TypedUniverse, pair_family_universe, partition_refines
from .structures import FinStructure, TypeId, Vocabulary, point_codes, tuple_type


# ---------------------------------------------------------------------------
# censuses


@dataclass
class TypeCensus:
    n: int
    params: tuple[int, ...]
    distinct: bool
    entries: list[tuple[TypeId, int]]
    total: int


def enumerate_types(s: FinStructure, n: int, params: Sequence[int] = (),
                    distinct: bool = False) -> TypeCensus:
    """Census of the types of params + tup over all n-tuples tup.

    Counts sum to size**n, or to the falling factorial when `distinct`
    restricts to tuples without repeated entries.
    """
    if n < 0:
        raise InputError(f"negative arity {n}")
    params = tuple(int(p) for p in params)
    if any(p < 0 or p >= s.size for p in params):
        raise InvalidElementError(f"parameters {params} leave the universe")
    counter: Counter[TypeId] = Counter()
    total = 0
    for tup in product(range(s.size), repeat=n):
        if distinct and len(set(tup)) != n:
            continue
        counter[tuple_type(s, params + tup)] += 1
        total += 1
    entries = sorted(counter.items(), key=lambda kv: kv[0].sort_key)
    return TypeCensus(n, params, distinct, entries, total)


@dataclass
class DeterminationReport:
    verdict: str                  # "determined" | "counterexample"
    n: int
    tuples_checked: int
    counterexample: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def types_determined_by_pairs(u: TypedUniverse, n: int) -> DeterminationReport:
    """Do the pairwise 2-types of an n-tuple pin down its full n-type?

    That is whether u's pair family refines u at arity n: the search is
    for two n-tuples whose families of (i, j)-component 2-types agree
    while the n-types differ.
    """
    if n < 3:
        raise InputError("pairwise determination is asked for arity >= 3")
    rep = partition_refines(pair_family_universe(u, n), u, n)
    if rep.refines:
        return DeterminationReport("determined", n, rep.tuples_checked)
    return DeterminationReport("counterexample", n, rep.tuples_checked,
                               rep.counterexample[:2])


# ---------------------------------------------------------------------------
# acl sources


class OracleAclSource:
    """Growth adapter over a generic oracle: a realization of the type of
    `ref` over `base` is added as a targeted one-point extension."""

    def __init__(self, oracle: GenericOracle):
        self.oracle = oracle

    def snapshot(self) -> FinStructure:
        return self.oracle.current

    @property
    def size(self) -> int:
        return self.oracle.size

    def saturated_prefix(self, level: int) -> int:
        return self.oracle.saturated_prefix(level)

    def add_realization(self, base: tuple[int, ...], ref: int) -> bool:
        extend_one_point(self.oracle, extension_at(self.oracle.current, base, ref))
        return True


def link_between(vocab: Vocabulary, tables, b: int, c: int) -> FinStructure:
    """The two-point structure induced on (b, c), read positionally."""
    if b == c:
        raise InvalidElementError("a link needs two distinct points")
    pos = {b: 0, c: 1}
    return FinStructure(vocab, 2, {
        name: {tuple(pos[x] for x in t) for t in tables[name] if all(x in pos for x in t)}
        for name in vocab.names()})


def as_acl_source(obj):
    if isinstance(obj, GenericOracle):
        return OracleAclSource(obj)
    for attr in ("snapshot", "saturated_prefix", "add_realization", "size"):
        if not hasattr(obj, attr):
            raise InputError(f"object cannot serve as an acl source (missing {attr})")
    return obj


# ---------------------------------------------------------------------------
# the verdict engine


class _AclEngine:
    """Shared memoised algebraicity verdicts over one growing source.

    Every issued verdict stays valid under further growth: realizations
    are never destroyed, equality-bound types never gain any, and a
    source saying "no more realizations can exist" certifies that for
    the whole class, not just the present approximation.  Growth never
    changes the facts among existing points either, so the pattern a point
    realises over a base is fixed and one verdict, memoised under (base,
    pattern), serves every point that realises it.  `scan` splits the
    points once per base into the leaves of those patterns and settles
    each leaf on its first point.
    """

    def __init__(self, source, d: int, budget: int | None):
        if budget is not None and budget < 0:
            raise InputError(f"growth_budget must be >= 0, got {budget}")
        self.src = source
        self.d = d
        self.remaining = budget          # None = unlimited
        self.added = 0
        # (base, dirs, point code) -> verdict
        self._verdicts: dict[tuple, str] = {}

    def _settle(self, key: tuple, ref: int) -> str:
        """The verdict on the pattern key = (base, dirs, point code), which
        ref realises: memoised, or settled on the current snapshot by
        growing realizations up to d."""
        got = self._verdicts.get(key)
        if got is not None:
            return got
        s = self.src.snapshot()
        count = realizer_bits(s, ExtensionType(s.vocab, *key)).bit_count()
        while count < self.d:
            if self.remaining is not None and self.added >= self.remaining:
                got = "inconclusive"
                break
            if not self.src.add_realization(key[0], ref):
                got = "algebraic"
                break
            self.added += 1
            count += 1
        else:
            got = "non-algebraic"
        self._verdicts[key] = got
        return got

    def verdict(self, base: tuple[int, ...], a: int) -> str:
        """"algebraic" | "non-algebraic" | "inconclusive" for a over base."""
        if a in base:
            return "algebraic"
        tau = extension_at(self.src.snapshot(), base, a)
        return self._settle((base, tau.dirs, tau.point), a)

    def scan(self, base: tuple[int, ...], n: int):
        """Yield (a, verdict), a ascending, for the points below n that are
        algebraic or inconclusive over base, the base points included.

        The points outside the base are split once into pattern leaves, by
        point code, then by each base point's `FinStructure.link_rows` row
        per link option.  A leaf is settled on its first point, and only the
        rest of an algebraic or inconclusive leaf is visited, so growth comes
        in the order that a walk over every point gives."""
        s = self.src.snapshot()
        if s.vocab.rho > 2:
            raise VocabularyError("extension patterns need a binary vocabulary")
        in_base = sum(1 << b for b in base)
        leaves = [(mask, (), code) for code in set(point_codes(s)[:n])
                  if (mask := s.code_bits(code) & ((1 << n) - 1) & ~in_base)]
        options = s.vocab.link_options()
        for b in base:
            split = [(option, s.link_rows(option)[b]) for option in options]
            leaves = [(mask & row, dirs + (option,), code) for mask, dirs, code in leaves
                      for option, row in split if mask & row]
        first = {(leaf[0] & -leaf[0]).bit_length() - 1: leaf for leaf in leaves}
        todo = in_base | sum(1 << a for a in first)
        inconclusive = 0
        while todo:
            low = todo & -todo
            todo ^= low
            a = low.bit_length() - 1
            if a not in first:
                yield a, "inconclusive" if low & inconclusive else "algebraic"
                continue
            mask, dirs, code = first[a]
            got = self._settle((base, dirs, code), a)
            if got != "non-algebraic":
                todo |= mask ^ low
                if got == "inconclusive":
                    inconclusive |= mask
                yield a, got

    def count_realizations(self, base: tuple[int, ...], a: int,
                           cap: int | None = None) -> list[int]:
        if a in base:
            return [a]
        s = self.src.snapshot()
        bits = realizer_bits(s, extension_at(s, base, a))
        out = []
        while bits and (cap is None or len(out) < cap):
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out


def _check_bounds(d: int, max_b: int = 0) -> None:
    if max_b < 0:
        raise InputError(f"max_b must be >= 0, got {max_b}")
    if d < 1:
        raise InputError(f"the duplication bound d must be >= 1, got {d}")


def _check_degeneracy_bounds(rho: int, max_b: int, max_c: int, d: int) -> None:
    if rho < 1:
        raise InputError(f"rho must be >= 1, got {rho}")
    if max_b < 1 or max_c < 0:
        raise InputError(f"degeneracy needs max_b >= 1 and max_c >= 0, got {max_b} and {max_c}")
    _check_bounds(d)


def _check_base_points(base: Sequence[int], size: int) -> tuple[int, ...]:
    """The checks on a base that need no source: distinct points of range(size)."""
    base = tuple(int(b) for b in base)
    if len(set(base)) != len(base):
        raise InputError(f"base {base} repeats a point")
    if any(b < 0 or b >= size for b in base):
        raise InvalidElementError(f"base {base} leaves the universe")
    return base


def _check_base(source, base: Sequence[int]) -> tuple[int, ...]:
    base = _check_base_points(base, source.size)
    prefix = source.saturated_prefix(len(base) + 1)
    need = max(base) + 1 if base else 0
    if prefix < need:
        raise SaturationError(
            f"acl over a base of size {len(base)} needs saturation level "
            f"{len(base) + 1} covering the base (prefix {prefix}, need {need})")
    return base


# ---------------------------------------------------------------------------
# public operations


@dataclass
class AclEntry:
    element: int
    verdict: str                      # "algebraic" | "non-algebraic" | "inconclusive"
    count: int
    realizations: list[int] = field(default_factory=list)


@dataclass
class AclReport:
    base: tuple[int, ...]
    d: int
    entries: list[AclEntry]
    added: int
    inconclusive: int

    @property
    def algebraic(self) -> frozenset[int]:
        return frozenset(e.element for e in self.entries if e.verdict == "algebraic")

    @property
    def closure(self) -> frozenset[int]:
        return self.algebraic | frozenset(self.base)


def acl_approx(source, base: Sequence[int], d: int = 5,
               growth_budget: int | None = None) -> AclReport:
    """Per-element algebraicity verdicts over `base` with duplication
    bound d.  Requires the source saturated to level |base| + 1 over a
    prefix covering the base."""
    _check_bounds(d)
    src = as_acl_source(source)
    engine = _AclEngine(src, d, growth_budget)
    base = _check_base(src, base)
    n0 = src.size
    entries = []
    inconclusive = 0
    for a in range(n0):
        v = engine.verdict(base, a)
        reals = engine.count_realizations(base, a, cap=d)
        if v == "inconclusive":
            inconclusive += 1
        entries.append(AclEntry(a, v, len(reals), reals))
    return AclReport(base, d, entries, engine.added, inconclusive)


@dataclass
class TrivialityReport:
    verdict: str                      # "trivial" | "nontrivial" | "inconclusive"
    max_b: int
    d: int
    bases_checked: int
    inconclusive: int
    added: int
    counterexample: tuple[int, tuple[int, ...]] | None = None


def check_triviality(source, max_b: int, d: int = 5,
                     growth_budget: int | None = None) -> TrivialityReport:
    """Is every point algebraic over a base of size <= max_b already
    algebraic over one of its singletons?  Bases range over the prefix
    covered by saturation level max_b + 1."""
    _check_bounds(d, max_b)
    src = as_acl_source(source)
    engine = _AclEngine(src, d, growth_budget)
    prefix = src.saturated_prefix(max_b + 1)
    if max_b >= 1 and prefix < 1:
        raise SaturationError(
            f"triviality at max_b={max_b} needs saturation level {max_b + 1} "
            "over a nonempty prefix")
    bases_checked = 0
    inconclusive = 0
    for bsize in range(0, max_b + 1):
        for base in combinations(range(prefix), bsize):
            bases_checked += 1
            for a, v in engine.scan(base, src.size):
                if v == "inconclusive":
                    inconclusive += 1
                    continue
                covered = any(engine.verdict((b,), a) == "algebraic" for b in base)
                if not covered:
                    return TrivialityReport("nontrivial", max_b, d, bases_checked,
                                            inconclusive, engine.added, (a, base))
    verdict = "inconclusive" if inconclusive else "trivial"
    return TrivialityReport(verdict, max_b, d, bases_checked, inconclusive, engine.added)


@dataclass
class DependenceWitness:
    element: int
    b: tuple[int, ...]
    c: tuple[int, ...]
    b0: tuple[int, ...]


@dataclass
class DegeneracyReport:
    verdict: str                      # "degenerate" | "counterexample" | "inconclusive"
    rho: int
    d: int
    pairs_checked: int
    dependencies: int
    inconclusive: int
    added: int
    witnesses: list[DependenceWitness] = field(default_factory=list)
    counterexample: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None


_WITNESS_CAP = 32           # dependence witnesses a degeneracy report lists


def check_degenerate_dependence(source, rho: int, max_b: int = 3, max_c: int = 3,
                                d: int = 5, growth_budget: int | None = None
                                ) -> DegeneracyReport:
    """Is every dependence (rho - 1)-degenerate?

    A tuple depends on B over C exactly when some coordinate lands in
    acl(B + C) without being in acl(C); that reduces the check to single
    elements, and every detected dependence must then be reproduced by a
    sub-base B0 of B with at most rho - 1 points.  B and C range over the
    prefix covered by saturation level max_b + max_c + 1, since acl over
    the union base needs that level."""
    _check_degeneracy_bounds(rho, max_b, max_c, d)
    src = as_acl_source(source)
    engine = _AclEngine(src, d, growth_budget)
    prefix = src.saturated_prefix(max_b + max_c + 1)
    if prefix < 1:
        raise SaturationError(
            f"degeneracy at sizes ({max_b}, {max_c}) needs saturation level "
            f"{max_b + max_c + 1} over a nonempty prefix")
    report = DegeneracyReport("degenerate", rho, d, 0, 0, 0, 0)
    c_bases = [c for size in range(0, max_c + 1)
               for c in combinations(range(prefix), size)]
    b_bases = [b for size in range(1, max_b + 1)
               for b in combinations(range(prefix), size)]
    for cb in c_bases:
        cset = set(cb)
        for bb in b_bases:
            if set(bb) <= cset:
                continue
            report.pairs_checked += 1
            union = tuple(sorted(set(bb) | cset))
            for a, vu in engine.scan(union, src.size):
                if vu == "inconclusive":
                    report.inconclusive += 1
                    continue
                vc = engine.verdict(cb, a)
                if vc == "inconclusive":
                    report.inconclusive += 1
                    continue
                if vc == "algebraic":
                    continue
                report.dependencies += 1
                found = None
                for b0_size in range(0, rho):
                    for b0 in combinations(bb, b0_size):
                        sub = tuple(sorted(set(b0) | cset))
                        if engine.verdict(sub, a) == "algebraic":
                            found = b0
                            break
                    if found is not None:
                        break
                if found is None:
                    report.verdict = "counterexample"
                    report.counterexample = (a, bb, cb)
                    report.added = engine.added
                    return report
                if len(report.witnesses) < _WITNESS_CAP:
                    report.witnesses.append(DependenceWitness(a, bb, cb, found))
    report.added = engine.added
    if report.inconclusive and report.verdict == "degenerate":
        report.verdict = "inconclusive"
    return report
