"""Amalgamation classes given by two-point permission sets.

A set of permitted structures of size at most two generates the class of
all finite structures whose one- and two-point induced substructures are
permitted.  This module checks the hereditary property, the amalgamation
property over explicit base triples, and the adequacy condition that
makes the two-point description well behaved: closure under
substructures including the empty structure, and a joint two-point
realisation on distinct points for every pair of one-point types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable

from .errors import AdequacyError, InputError, InvalidElementError, VocabularyError
from .structures import (
    Embedding,
    FinStructure,
    TypeId,
    Vocabulary,
    canonical_key,
    find_embeddings,
    graph_vocabulary,
    induced_substructure,
    point_codes,
    with_point,
)


class P2Spec:
    """Permitted structures of size <= 2 over one binary vocabulary.

    A point is named by its code (`point_codes`); `codes` lists the
    permitted ones in descending order, so codes that hold earlier symbols
    come first.
    The cross-link options of each ordered pair of point codes are read
    off the two-point members, in both orders, into one table, which
    `permitted_links` and the class operations below all read.
    """

    def __init__(self, members: Iterable[FinStructure],
                 vocab: Vocabulary | None = None, size_bound: int = 4):
        members = tuple(members)
        if not members and vocab is None:
            raise InputError("an empty permission set needs an explicit vocabulary")
        self.vocab = vocab if vocab is not None else members[0].vocab
        if not self.vocab.binary:
            raise VocabularyError("permission sets need a binary vocabulary")
        for m in members:
            if m.vocab != self.vocab:
                raise VocabularyError("permission set mixes vocabularies")
            if m.size > 2:
                raise InvalidElementError(
                    f"permission set member of size {m.size}; only sizes <= 2 belong here")
        if size_bound < 0:
            raise InputError(f"size_bound must be >= 0, got {size_bound}")
        self.members = members
        self.size_bound = int(size_bound)
        self._keys = frozenset(canonical_key(m) for m in members)
        self.codes = tuple(sorted({point_codes(m)[0] for m in members if m.size == 1},
                                  reverse=True))
        links: dict[tuple[int, int], set] = {}
        for m in members:
            if m.size == 2:
                c0, c1 = point_codes(m)
                links.setdefault((c0, c1), set()).add(m.link(0, 1))
                links.setdefault((c1, c0), set()).add(m.link(1, 0))
        self._links = {pair: tuple(sorted(options)) for pair, options in links.items()}

    def is_member(self, s: FinStructure) -> bool:
        """Membership of a structure of size <= 2, up to isomorphism."""
        return s.vocab == self.vocab and s.size <= 2 and canonical_key(s) in self._keys

    def permitted_links(self, t0: FinStructure, t1: FinStructure) -> tuple[tuple, ...]:
        """Cross-link options for an ordered pair of one-point types.

        Each option is a tuple, aligned with the vocabulary's binary
        symbols, of (first->second, second->first) bits such that the
        assembled two-point structure is permitted.  Sorted, so option 0
        is a deterministic choice.
        """
        if t1.vocab != t0.vocab:
            raise VocabularyError("pair halves use different vocabularies")
        if t0.size != 1 or t1.size != 1:
            raise InvalidElementError("pair halves must be one-point structures")
        if t0.vocab != self.vocab:
            return ()
        return self.links(point_codes(t0)[0], point_codes(t1)[0])

    def links(self, cu: int, cv: int) -> tuple[tuple, ...]:
        """`permitted_links` for the one-point types with codes cu and cv."""
        return self._links.get((cu, cv), ())

    def symmetric(self) -> tuple[bool, ...]:
        """Per binary symbol, whether every permitted link between
        permitted point codes holds it both ways or neither way, so that
        its out- and in-rows are one list."""
        options = {option for cu in self.codes for cv in self.codes
                   for option in self.links(cu, cv)}
        return tuple(all(option[j][0] == option[j][1] for option in options)
                     for j in range(len(self.vocab.binary_symbols())))


# ---------------------------------------------------------------------------
# age / membership in the generated class


def age(s: FinStructure, k: int) -> list[FinStructure]:
    """Nonempty induced substructures of size <= k, one per iso class."""
    by_key: dict[TypeId, FinStructure] = {}
    for size in range(1, min(k, s.size) + 1):
        for subset in combinations(range(s.size), size):
            sub, _ = induced_substructure(s, subset)
            by_key.setdefault(canonical_key(sub), sub)
    return [by_key[k2] for k2 in sorted(by_key)]


def in_rp2(p2: P2Spec, s: FinStructure) -> bool:
    """Does every one- and two-point induced substructure belong to p2?"""
    if s.vocab != p2.vocab:
        raise VocabularyError("structure and permission set use different vocabularies")
    codes = point_codes(s)
    return set(codes).issubset(p2.codes) and all(
        s.link(u, v) in p2.links(codes[u], codes[v]) for u, v in combinations(range(s.size), 2))


def enumerate_rp2(p2: P2Spec, n: int) -> list[FinStructure]:
    """All structures of size exactly n in the generated class, one per
    iso class, sorted by canonical key."""
    if n < 0:
        raise InvalidElementError(f"negative size {n}")
    return _levels(p2, n)[n]


def _levels(p2: P2Spec, n: int) -> list[list[FinStructure]]:
    """`enumerate_rp2` for every size 0..n, each level grown once from
    the one below it."""
    levels = [[FinStructure(p2.vocab, 0)]]
    for _ in range(n):
        by_key: dict[TypeId, FinStructure] = {}
        for parent in levels[-1]:
            codes = point_codes(parent)
            for cw in p2.codes:
                for choice in product(*[p2.links(cv, cw) for cv in codes]):
                    cand = with_point(parent, cw, choice)
                    by_key.setdefault(canonical_key(cand), cand)
        levels.append([by_key[k] for k in sorted(by_key)])
    return levels


# ---------------------------------------------------------------------------
# hereditary property


@dataclass
class HPReport:
    verdict: str                      # "holds" | "fails"
    checked: int = 0
    counterexample: tuple[FinStructure, tuple[int, ...], FinStructure] | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def check_hp(p2: P2Spec) -> HPReport:
    """Are the permitted structures closed under nonempty induced
    substructures?  The first (member, subset) pair whose piece is not
    permitted is reported."""
    checked = 0
    for m in p2.members:
        for size in range(1, m.size + 1):
            for subset in combinations(range(m.size), size):
                sub, _ = induced_substructure(m, subset)
                checked += 1
                if not p2.is_member(sub):
                    return HPReport("fails", checked, (m, subset, sub))
    return HPReport("holds", checked)


# ---------------------------------------------------------------------------
# adequacy of a permission set


@dataclass
class AdequacyReport:
    verdict: str                      # "holds" | "fails"
    has_empty: bool
    has_two_structure: bool
    hp_counterexample: tuple | None
    missing_pairs: list[tuple[int, int]]          # pairs of point codes
    witnesses: dict[tuple[int, int], int]
    notes: list[str] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def check_1_adequate(p2: P2Spec) -> AdequacyReport:
    """Adequacy: substructure-closed including the empty structure, at
    least one two-point member, and every unordered pair of permitted
    one-point types jointly realised on the two distinct points of some
    permitted two-point structure.  `witnesses` maps each sorted pair of
    point codes realised by a two-point member to the first such member's
    index."""
    notes: list[str] = []
    has_empty = any(m.size == 0 for m in p2.members)
    if not has_empty:
        notes.append("the empty structure is not permitted")
    hp_ce = check_hp(p2).counterexample
    if hp_ce:
        notes.append("permitted structures are not substructure-closed")
    has_two = any(m.size == 2 for m in p2.members)
    if not has_two:
        notes.append("no two-point structure is permitted")
    witnesses: dict[tuple[int, int], int] = {}
    for i, m in enumerate(p2.members):
        if m.size == 2:
            witnesses.setdefault(tuple(sorted(point_codes(m))), i)
    missing = [(c0, c1) for i, c0 in enumerate(p2.codes) for c1 in p2.codes[i:]
               if not p2.links(c0, c1)]
    if missing:
        notes.append(f"{len(missing)} pair(s) of one-point types have no joint "
                     "two-point realisation on distinct points")
    ok = has_empty and has_two and hp_ce is None and not missing
    return AdequacyReport("holds" if ok else "fails", has_empty, has_two,
                          hp_ce, missing, witnesses, notes)


def require_adequate(p2: P2Spec) -> AdequacyReport:
    report = check_1_adequate(p2)
    if not report.holds:
        raise AdequacyError("; ".join(report.notes) or "permission set is not adequate")
    return report


# ---------------------------------------------------------------------------
# amalgamation property


@dataclass
class AmalgamWitness:
    base: FinStructure
    left: FinStructure
    right: FinStructure
    amalgam: FinStructure
    into_left: Embedding
    into_right: Embedding
    left_into: Embedding
    right_into: Embedding


@dataclass
class APCounterexample:
    base: FinStructure
    left: FinStructure
    right: FinStructure
    into_left: Embedding
    into_right: Embedding


@dataclass
class APReport:
    verdict: str                      # "holds" | "fails" | "inconclusive"
    amalgam_bound: int
    triple_bound: int
    triples_checked: int = 0
    witness_count: int = 0
    inconclusive_count: int = 0
    counterexample: APCounterexample | None = None
    sample_witnesses: list[AmalgamWitness] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


_SAMPLE_WITNESSES = 16


def _amalgam(p2: P2Spec, b: FinStructure, c: FinStructure, f: Embedding,
             g: Embedding, bound: int) -> tuple[tuple[int, ...], int] | None:
    """Whether b and c have an amalgam over the common base with at most
    `bound` points: the map of c into it and its size, or None when there
    is none.  `_glue` builds the amalgam.

    Membership is local, so an amalgam may be cut down to the images of
    b and c: b and c glued over the base, with some points of c outside
    the base identified with points of b outside it.  Each point of c
    outside the base is made fresh (tried first) or identified with an
    unused point of b outside the base that has the same point code and
    the same link to every point of c already placed.  The pairs of a
    fresh point and an unidentified point of b are the only ones left to
    link, so the amalgam exists when each of them has a permitted option;
    with no identification it is the free amalgam."""
    idx = {g.map[i]: f.map[i] for i in range(len(f.map))}
    extra = [v for v in range(c.size) if v not in idx]
    outside = [u for u in range(b.size) if u not in f.map]
    codes_b, codes_c = point_codes(b), point_codes(c)
    used: set[int] = set()

    def place(k: int, size: int) -> tuple[tuple[int, ...], int] | None:
        if size > bound:
            return None
        if k == len(extra):
            if all(p2.links(codes_b[u], codes_c[v]) for u in outside if u not in used
                   for v in extra if idx[v] >= b.size):
                return tuple(idx[v] for v in range(c.size)), size
            return None
        v = extra[k]
        idx[v] = size
        found = place(k + 1, size + 1)
        del idx[v]
        if found is not None:
            return found
        for u in outside:
            if u in used or codes_b[u] != codes_c[v]:
                continue
            if any(w < b.size and b.link(u, w) != c.link(v, x) for x, w in idx.items()):
                continue
            idx[v] = u
            used.add(u)
            found = place(k + 1, size)
            used.discard(u)
            del idx[v]
            if found is not None:
                return found
        return None

    return place(0, b.size)


def _free_fits(p2: P2Spec, b: FinStructure, c: FinStructure, f: Embedding,
               g: Embedding, bound: int, memo: dict) -> bool:
    """Whether the free amalgam of the triple, the first leaf of
    `_amalgam`'s search, has at most `bound` points and a permitted link
    between each point of b outside f's image and each of c outside g's.
    `memo` keeps the codes outside each image and the verdict per pair."""
    if b.size + c.size - len(f.map) > bound:
        return False
    sides = ((point_codes(b), f.map), (point_codes(c), g.map))
    for codes, image in sides:
        if (codes, image) not in memo:
            memo[codes, image] = frozenset(x for u, x in enumerate(codes) if u not in image)
    key = (memo[sides[0]], memo[sides[1]])
    if key not in memo:
        memo[key] = all(p2.links(cu, cv) for cu in key[0] for cv in key[1])
    return memo[key]


def _glue(p2: P2Spec, b: FinStructure, c: FinStructure,
          found: tuple[tuple[int, ...], int]) -> tuple[FinStructure, Embedding, Embedding]:
    """The amalgam `_amalgam` found, with b on its first points and c
    mapped by `found`'s map.  The fresh points are added in index order;
    a fresh point takes c's link to a point that is an image of c, and
    its first permitted link option to any other point."""
    gmap, size = found
    codes_b, codes_c = point_codes(b), point_codes(c)
    source = {x: v for v, x in enumerate(gmap)}
    d = b
    for w in range(b.size, size):
        v = source[w]
        d = with_point(d, codes_c[v], [c.link(source[x], v) if x in source
                                       else p2.links(codes_b[x], codes_c[v])[0]
                                       for x in range(w)])
    return d, Embedding(b, d, range(b.size), check=True), Embedding(c, d, gmap, check=True)


def check_ap(p2: P2Spec, amalgam_bound: int,
             triple_bound: int | None = None) -> APReport:
    """Check the amalgamation property over all base triples in the class.

    Triples (base, left, right) range over representatives of size at
    most triple_bound (default: the permission set's declared size bound),
    with every orbit of embedding pairs of the base into the two sides.
    A triple with no amalgam of size <= amalgam_bound counts as a failure
    when the bound admits the free size |left| + |right| - |base|, and as
    inconclusive otherwise.  Every triple with an amalgam is counted;
    only the first `_SAMPLE_WITNESSES` amalgams are built.  Each (left,
    right) pair walks the bases the two share; `_amalgam` searches only the
    triples whose free amalgam does not fit (`_free_fits`), and those kept.
    """
    if triple_bound is None:
        triple_bound = p2.size_bound
    if triple_bound < 0:
        raise InputError(f"negative triple bound {triple_bound}")
    max_in_spec = max((m.size for m in p2.members), default=0)
    if amalgam_bound < max_in_spec:
        raise InputError(
            f"amalgam bound {amalgam_bound} is below the largest size {max_in_spec} in the class")
    reps = [r for level in _levels(p2, triple_bound) for r in level]

    report = APReport("holds", amalgam_bound, triple_bound)
    witnesses = report.sample_witnesses
    # per representative, base index -> the first embedding of each orbit
    bases: list[dict[int, list[Embedding]]] = []
    for r in reps:
        auts = find_embeddings(r, r)
        orbits: dict[int, dict[tuple[int, ...], Embedding]] = {}
        for ia, a in enumerate(reps):
            for f in find_embeddings(a, r) if a.size <= r.size else ():
                key = min(tuple(h.map[x] for x in f.map) for h in auts)
                orbits.setdefault(ia, {}).setdefault(key, f)
        bases.append({ia: list(fs.values()) for ia, fs in orbits.items()})
    memo: dict = {}
    for b, into_b in zip(reps, bases):
        for c, into_c in zip(reps, bases):
            for ia, fs in into_b.items():
                gs = into_c.get(ia)
                if gs is None:
                    continue
                a = reps[ia]
                for f in fs:
                    for g in gs:
                        report.triples_checked += 1
                        keep = len(witnesses) < _SAMPLE_WITNESSES
                        if keep or not _free_fits(p2, b, c, f, g, amalgam_bound, memo):
                            found = _amalgam(p2, b, c, f, g, amalgam_bound)
                            if found is None and amalgam_bound < b.size + c.size - a.size:
                                report.inconclusive_count += 1
                                continue
                            if found is None:
                                report.verdict = "fails"
                                report.counterexample = APCounterexample(a, b, c, f, g)
                                return report
                            if keep:
                                d, beta, gamma = _glue(p2, b, c, found)
                                witnesses.append(AmalgamWitness(a, b, c, d, f, g, beta, gamma))
                        report.witness_count += 1
    if report.inconclusive_count:
        report.verdict = "inconclusive"
    return report


# ---------------------------------------------------------------------------
# ready-made permission sets


def graph_p2() -> P2Spec:
    """Loop-free symmetric structures over one symbol `adj`: permitted
    pieces are the empty structure, the point, and the edge/non-edge pairs."""
    vocab = graph_vocabulary()
    empty = FinStructure(vocab, 0)
    point = FinStructure(vocab, 1)
    nonedge = FinStructure(vocab, 2)
    edge = FinStructure(vocab, 2, {"adj": [(0, 1), (1, 0)]})
    return P2Spec([empty, point, nonedge, edge])
