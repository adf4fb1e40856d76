"""Doubled covers: two linked copies of a loop-free symmetric structure.

Every base vertex a splits into a bonded pair (a,0), (a,1), indexed as
2a and 2a+1.  Same-level points are adjacent exactly when their base
vertices are; cross-level points are adjacent exactly when their base
vertices are NOT (so each pair is internally adjacent).  The bond is
recoverable from adjacency alone: two points are bonded or equal exactly
when they have no common neighbour.

The quotient by bonded pairs is carried as a geometry of classes whose
n-types are taken up to within-pair swaps: the type of a class tuple is
what the flattened point tuple's labelled type keeps under every choice
of representative order inside each pair.  Two ambients are read, both
in closed form off the base adjacencies: the cover itself, where swaps
act on the base-adjacency matrix as XOR cuts, and the cover marked on
one full level, where the mark freezes the swaps."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .errors import (
    ConfigurationNotFoundError,
    InputError,
    InvalidElementError,
    SaturationError,
)
from .generic import (
    GenericOracle,
    extend_one_point,
    extends,
    graph_extension,
    mix64,
)
from .structures import (
    FinStructure,
    TypeId,
    expand_with_marks,
    point_codes,
)


class DoubledStructure:
    """The cover, its base, and the bookkeeping between them."""

    __slots__ = ("base", "m", "symbol", "f_saturation")

    def __init__(self, base: FinStructure, m: FinStructure, symbol: str,
                 f_saturation: dict[int, int] | None):
        self.base = base
        self.m = m
        self.symbol = symbol
        self.f_saturation = dict(f_saturation) if f_saturation else None

    @property
    def size(self) -> int:
        return self.m.size

    def level_points(self, level: int) -> tuple[int, ...]:
        return tuple(2 * a + level for a in range(self.base.size))

    def f_prefix(self, level: int) -> int:
        if not self.f_saturation:
            return 0
        return max((p for k, p in self.f_saturation.items() if k >= level), default=0)

    def __repr__(self) -> str:
        return f"DoubledStructure(base={self.base.size}, cover={self.m.size})"


def build_double(f: FinStructure, f_saturation: dict[int, int] | None = None
                 ) -> DoubledStructure:
    """Double a loop-free symmetric single-relation structure."""
    if len(f.vocab.symbols) != 1 or f.vocab.rho != 2:
        raise InputError("doubling expects exactly one binary symbol")
    symbol = f.vocab.symbols[0][0]
    bits, conv = f.out_bits(symbol), f.in_bits(symbol)
    for a, (code, row, col) in enumerate(zip(point_codes(f), bits, conv)):
        if code:
            raise InputError(f"base structure has a loop at {a}")
        extra = row & ~col      # the b with (a, b) but not (b, a)
        if extra:
            b = (extra & -extra).bit_length() - 1
            raise InputError(f"base structure is not symmetric at ({a}, {b})")
    # row 2a: a's neighbours at level 0, a and its non-neighbours at level
    # 1 (so a's partner); row 2a+1 is its mirror image
    evens = (4 ** f.size - 1) // 3                      # bit 2b for every b
    spread = str.maketrans({"0": "00", "1": "01"})      # bit b to bit 2b
    rows = []
    for row in bits:
        same = int(bin(row)[2:].translate(spread), 2)
        rows += (same | (evens ^ same) << 1, evens ^ same | same << 1)
    m = FinStructure._trusted(f.vocab, 2 * f.size, [(rows, rows)], [0] * (2 * f.size))
    return DoubledStructure(f, m, symbol, f_saturation)


def build_expansion_star(d: DoubledStructure) -> FinStructure:
    """The cover expanded with a unary mark `level0` on the level-0 half."""
    return expand_with_marks(d.m, [("level0", d.level_points(0))])


# ---------------------------------------------------------------------------
# bond definability and the pairing equivalences

_RECORD_CAP = 16            # mismatches or failures a report lists
_CLAIM2_RECORD_CAP = 8      # claim-2 trials recorded as "no extension point found"


@dataclass
class EDefReport:
    verdict: str                      # "match" | "mismatch"
    pairs_checked: int
    mismatches: list[tuple[int, int, bool, bool]] = field(default_factory=list)

    @property
    def matches(self) -> bool:
        return self.verdict == "match"


def e_definability_check(d: DoubledStructure) -> EDefReport:
    """Compare 'equal, or distinct with no common neighbour' against the
    true same-pair relation, over every ordered pair of cover points."""
    rows = d.m.out_bits(d.symbol)
    n = d.m.size
    mism = []
    for u in range(n):
        for v in range(n):
            formula = u == v or (rows[u] & rows[v]) == 0
            actual = u == v or u ^ 1 == v
            if formula != actual and len(mism) < _RECORD_CAP:
                mism.append((u, v, formula, actual))
    verdict = "match" if not mism else "mismatch"
    return EDefReport(verdict, n * n, mism)


@dataclass
class Claim1Report:
    verdict: str
    pairs_checked: int
    failures: list[tuple[int, int]] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def verify_claim1(d: DoubledStructure) -> Claim1Report:
    """For all distinct u, v: adjacency to v, adjacency of the partners,
    and the negations of the two mixed adjacencies all agree."""
    rows = d.m.out_bits(d.symbol)
    n = d.m.size
    failures = []
    checked = 0
    for u in range(n):
        ru, rp = rows[u], rows[u ^ 1]
        for v in range(n):
            if v == u:
                continue
            checked += 1
            e1 = (ru >> v) & 1
            ok = (((rp >> (v ^ 1)) & 1) == e1
                  and ((ru >> (v ^ 1)) & 1) == 1 - e1
                  and ((rp >> v) & 1) == 1 - e1)
            if not ok and len(failures) < _RECORD_CAP:
                failures.append((u, v))
    verdict = "holds" if not failures else "fails"
    return Claim1Report(verdict, checked, failures)


@dataclass
class Claim2Report:
    n: int
    trials: int
    successes: int
    prefix: int
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.successes == self.trials


def _check_claim2_counts(n: int, trials: int) -> None:
    if n < 0 or trials < 0:
        raise InputError(f"pair-extension trials need n >= 0 pairs and a "
                         f"non-negative trial count, got {n} and {trials}")


def verify_claim2(d: DoubledStructure, n: int, trials: int, seed: int = 0
                  ) -> Claim2Report:
    """Sample pair-closed partial isomorphisms on n bonded pairs and try
    to extend each by one fresh level-0 point inside the cover.

    Pair-closed maps send bonded pairs to bonded pairs, straight or
    swapped; sampling draws base tuples whose adjacency patterns agree up
    to the swap parities, which is exactly when such a map is a partial
    isomorphism.  Requires the base saturated to level n + 1."""
    _check_claim2_counts(n, trials)
    prefix = d.f_prefix(n + 1)
    if prefix < n + 1:
        raise SaturationError(
            f"pair-extension trials at n={n} need base saturation level {n + 1} "
            f"(covered prefix is {prefix}, need at least {n + 1} points)")
    fbits = d.base.out_bits(d.symbol)
    link = d.m.link
    report = Claim2Report(n, trials, 0, prefix)
    for t in range(trials):
        rng = random.Random(mix64(seed, 0xC1A172, t))
        picks = rng.sample(range(prefix), n + 1)
        gs, g_extra = picks[:n], picks[n]
        s_bits = [rng.randrange(2) for _ in range(n)]
        hs: list[int] = []
        offset = rng.randrange(prefix)
        for i in range(n):
            # unpicked prefix points adjacent to each earlier hs[j] exactly when
            # gs[i] is to gs[j], up to the swaps; the first at or after offset
            mask = (1 << prefix) - 1
            for j, h in enumerate(hs):
                adj = fbits[gs[i]] >> gs[j] & 1 ^ s_bits[i] ^ s_bits[j]
                mask &= ~(1 << h) & (fbits[h] if adj else ~fbits[h])
            if not mask:
                report.failures.append((t, "no image tuple with the required pattern"))
                break
            mask = mask >> offset << offset or mask
            hs.append((mask & -mask).bit_length() - 1)
        else:
            dom = tuple(x for g in gs for x in (2 * g, 2 * g + 1))
            img = tuple(x for h, s in zip(hs, s_bits) for x in (2 * h + s, 2 * h + 1 - s))
            if any(link(dom[i], dom[j]) != link(img[i], img[j])
                   for i, j in combinations_with_replacement(range(len(dom)), 2)):
                report.failures.append((t, "sampled map is not a partial isomorphism"))
            elif extends(d.m, dom, img, 2 * g_extra):
                report.successes += 1
            elif len(report.failures) < _CLAIM2_RECORD_CAP:
                report.failures.append((t, "no extension point found"))
    return report


# ---------------------------------------------------------------------------
# the quotient geometry


def _xor_cut_canon(bits: int, m: int) -> int:
    """Minimum over all per-class flips of a packed adjacency matrix, whose
    bit for the pair i < j sits above those of all earlier pairs; flipping
    a class complements every bit whose pair touches it.  The minimum is
    Seidel's switching normal form: flip each class whose pair with the
    last class is set.  That clears each row's highest bit, and the flips
    are then fixed, so b(i, j) becomes b(i, j) ^ b(i, m-1) ^ b(j, m-1)."""
    last = []                      # b(i, m-1) for each class i < m-1
    pos = 0
    for i in range(m - 1):
        pos += m - 1 - i
        last.append(bits >> (pos - 1) & 1)
    out = 0
    pos = 0
    for i in range(m - 1):
        for j in range(i + 1, m - 1):
            out |= (bits >> pos & 1 ^ last[i] ^ last[j]) << pos
            pos += 1
        pos += 1                   # the pair (i, m-1), now clear
    return out


class QuotientGeometry:
    """Classes are bonded pairs; types are taken up to within-pair swaps.
    The ambient is the cover or the cover marked on one level."""

    __slots__ = ("double", "ambient", "size", "_memo", "_mode", "_fbits")

    def __init__(self, double: DoubledStructure, ambient: FinStructure | None = None):
        self.double = double
        self.ambient = double.m if ambient is None else ambient
        if self.ambient.size != double.m.size:
            raise InputError("ambient structure must live on the cover's points")
        self.size = double.base.size
        self._memo: dict = {}
        self._mode = self._detect_mode()
        self._fbits = double.base.out_bits(double.symbol)

    def _detect_mode(self) -> str:
        """`cover` for the bare cover, whose swap orbit is the
        base-adjacency matrix up to XOR cuts, or `marked` for the cover
        with one unary mark on a full level, which freezes swaps so the
        matrix itself is the invariant; any other ambient is an
        InputError."""
        d = self.double
        amb = self.ambient
        if amb == d.m:
            return "cover"
        names = dict(amb.vocab.symbols)
        if (len(names) == 2 and names.get(d.symbol) == 2
                and amb.out_bits(d.symbol) == d.m.out_bits(d.symbol)):
            (unary,) = [n for n, a in amb.vocab.symbols if n != d.symbol]
            if names[unary] == 1:
                # the cover has no loops, so a marked point's code is the mark's bit
                marked = amb.code_bits(amb.vocab.code_bit(unary))
                level0 = sum(1 << v for v in d.level_points(0))
                if marked in (level0, level0 << 1):
                    return "marked"
        raise InputError("the quotient reads the cover or the cover marked on one level")

    def pair_type(self, classes: Sequence[int]) -> TypeId:
        """Swap-invariant type of an ordered tuple of classes, read off the
        base adjacencies in closed form for any number of classes."""
        tup = tuple(int(g) for g in classes)
        if any(g < 0 or g >= self.size for g in tup):
            raise InvalidElementError(f"classes {tup} leave the quotient")
        first: dict[int, int] = {}
        eq = tuple(first.setdefault(g, i) for i, g in enumerate(tup))
        distinct = [g for i, g in enumerate(tup) if eq[i] == i]
        m = len(distinct)
        bits = 0
        pos = 0
        fbits = self._fbits
        for i in range(m):
            row = fbits[distinct[i]]
            for j in range(i + 1, m):
                bits |= ((row >> distinct[j]) & 1) << pos
                pos += 1
        memo_key = (len(tup), eq, bits)
        hit = self._memo.get(memo_key)
        if hit is None:
            if self._mode == "cover":
                bits = _xor_cut_canon(bits, m)
            hit = TypeId("pair", self.ambient.vocab.symbols,
                         (len(tup), eq, (self._mode, m, bits)))
            self._memo[memo_key] = hit
        return hit

    def type_of(self, tup: Sequence[int]) -> TypeId:
        return self.pair_type(tup)


def quotient(d: DoubledStructure, ambient: FinStructure | None = None
             ) -> QuotientGeometry:
    return QuotientGeometry(d, ambient)


@dataclass
class Claim3Report:
    verdict: str
    pairs_checked: int
    shared_type: TypeId | None
    case_counts: dict[str, int] = field(default_factory=dict)
    failures: list[tuple[int, int]] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def verify_claim3(q: QuotientGeometry) -> Claim3Report:
    """Every ordered pair of distinct classes has the same swap-invariant
    type, whether or not the base vertices are adjacent."""
    fbits = q.double.base.out_bits(q.double.symbol)
    shared: TypeId | None = None
    cases = {"adjacent": 0, "non-adjacent": 0}
    failures = []
    checked = 0
    for g in range(q.size):
        for h in range(q.size):
            if g == h:
                continue
            checked += 1
            t = q.pair_type((g, h))
            cases["adjacent" if (fbits[g] >> h) & 1 else "non-adjacent"] += 1
            if shared is None:
                shared = t
            elif t != shared and len(failures) < _RECORD_CAP:
                failures.append((g, h))
    return Claim3Report("fails" if failures else "holds", checked, shared, cases, failures)


@dataclass
class SeparationReport:
    even_triple: tuple[int, int, int]
    odd_triple: tuple[int, int, int]
    even_type: TypeId
    odd_type: TypeId
    pairwise_match: bool

    @property
    def separates(self) -> bool:
        return self.pairwise_match and self.even_type != self.odd_type


def three_type_separation(q: QuotientGeometry) -> SeparationReport:
    """Two class triples with identical pairwise types but different
    3-types: one with an even number of base edges, one odd.

    Raises ConfigurationNotFoundError naming whichever parity of triple
    the base is missing (e.g. too small, complete, or edgeless)."""
    if q.size < 3:
        raise ConfigurationNotFoundError(
            f"3-type separation needs at least 3 classes, have {q.size}")
    fbits = q.double.base.out_bits(q.double.symbol)

    def adj(a: int, b: int) -> int:
        return (fbits[a] >> b) & 1

    even = odd = None
    for (a, b, c) in combinations(range(q.size), 3):
        parity = adj(a, b) ^ adj(a, c) ^ adj(b, c)
        if parity == 0 and even is None:
            even = (a, b, c)
        elif parity == 1 and odd is None:
            odd = (a, b, c)
        if even is not None and odd is not None:
            break
    if even is None:
        raise ConfigurationNotFoundError(
            "no triple with an even number of base edges (an empty triple or "
            "a two-edge path); the base has no such configuration")
    if odd is None:
        raise ConfigurationNotFoundError(
            "no triple with an odd number of base edges (a single edge or "
            "a base 3-cycle); the base has no such configuration")
    pairs = [(i, j) for i in range(3) for j in range(3)]
    fam_even = tuple(q.pair_type((even[i], even[j])) for i, j in pairs)
    fam_odd = tuple(q.pair_type((odd[i], odd[j])) for i, j in pairs)
    t_even = q.pair_type(even)
    t_odd = q.pair_type(odd)
    report = SeparationReport(even, odd, t_even, t_odd, fam_even == fam_odd)
    if not report.separates:
        raise ConfigurationNotFoundError(
            "the located triples do not separate: pairwise types "
            f"{'match' if report.pairwise_match else 'differ'} and 3-types "
            f"{'differ' if t_even != t_odd else 'coincide'}")
    return report


# ---------------------------------------------------------------------------
# growth adapter for algebraic-closure analysis


class DoubledAclSource:
    """Acl source over the cover of a growing oracle, with the bond as an
    explicit binary symbol `bond`.

    A realization of a point's type over a base can be added whenever the
    type carries no bond to the base: grow the base structure by one
    vertex with the right adjacencies and take its level-0 point.  A type
    bonding the reference to a base point can never gain realizations —
    bonds are a perfect matching — so the source certifies that verdict."""

    def __init__(self, f_oracle: GenericOracle):
        if len(f_oracle.vocab.symbols) != 1 or f_oracle.vocab.rho != 2:
            raise InputError("the doubled source expects a single binary symbol")
        self.oracle = f_oracle
        self._built_at = -1
        self._double: DoubledStructure | None = None
        self._snap: FinStructure | None = None

    def _refresh(self) -> None:
        if self._built_at == self.oracle.size:
            return
        d = build_double(self.oracle.current, self.oracle.saturation)
        # the cover and the bond are symmetric and loop-free: every code is 0
        adj = d.m.out_bits(d.symbol)
        bond = [1 << (u ^ 1) for u in range(d.m.size)]
        self._double = d
        self._snap = FinStructure._trusted(d.m.vocab.extended([("bond", 2)]), d.m.size,
                                           [(adj, adj), (bond, bond)], [0] * d.m.size)
        self._built_at = self.oracle.size

    @property
    def size(self) -> int:
        return 2 * self.oracle.size

    def snapshot(self) -> FinStructure:
        self._refresh()
        return self._snap

    def saturated_prefix(self, level: int) -> int:
        return 2 * self.oracle.saturated_prefix(level)

    def add_realization(self, base: tuple[int, ...], ref: int) -> bool:
        if (ref ^ 1) in base:
            return False
        self._refresh()
        rows = self._double.m.out_bits(self._double.symbol)
        want: dict[int, int] = {}
        for b in base:
            g, t = b >> 1, b & 1
            bit = ((rows[ref] >> b) & 1) ^ t
            if want.setdefault(g, bit) != bit:
                raise InputError("inconsistent adjacency demands on a base pair")
        f_base = tuple(sorted(want))
        adjacent = {g for g in f_base if want[g]}
        tau = graph_extension(self.oracle.vocab, f_base, adjacent)
        extend_one_point(self.oracle, tau)
        self._built_at = -1
        return True

