"""Seeded finite approximations of the generic structure of an adequate
two-point permission set.

An oracle owns a growing finite structure.  Every new point enters
through `extend_one_point`: its links to the named base points are
prescribed by an extension pattern, and its links to everything else are
drawn uniformly from the permitted two-point options using the oracle's
seeded stream.  `saturate` walks all small subsets of the pre-pass
universe and plugs every unrealised compatible pattern, which is what
makes the approximation useful: extension properties verified over the
recorded prefix stay true forever because realisations are never
destroyed by later growth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable, Sequence

from .amalgamation import P2Spec, assemble_pair, point_structure, require_adequate
from .errors import (
    ExtensionError,
    InputError,
    InvalidElementError,
    SaturationError,
)
from .structures import FinStructure, TypeId, Vocabulary, tuple_payload, tuple_type

M64 = (1 << 64) - 1


def mix64(*parts: int) -> int:
    """Deterministic 64-bit mixing of integer parts (splitmix-style)."""
    x = 0
    for p in parts:
        x = (x + (p & M64) + 0x9E3779B97F4A7C15) & M64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        x = z ^ (z >> 31)
    return x


class ExtensionType:
    """A one-point extension pattern over an ordered base.

    `links[i]` is a permitted two-point structure read as (base point i,
    new point); `point` is the new point's permitted one-point structure.
    """

    __slots__ = ("base", "links", "point", "point_key", "link_keys")

    def __init__(self, base: Sequence[int], links: Sequence[FinStructure],
                 point: FinStructure):
        self.base = tuple(int(b) for b in base)
        self.links = tuple(links)
        self.point = point
        if len(self.links) != len(self.base):
            raise ExtensionError("one link pattern per base point is required")
        if len(set(self.base)) != len(self.base):
            raise ExtensionError("base points must be distinct")
        if point.size != 1:
            raise ExtensionError("the new point's pattern must have size 1")
        for link in self.links:
            if link.size != 2:
                raise ExtensionError("link patterns must have size 2")
            if link.vocab != point.vocab:
                raise ExtensionError("link and point patterns use different vocabularies")
            if tuple_type(link, (1,)).payload != tuple_type(point, (0,)).payload:
                raise ExtensionError(
                    "a link pattern disagrees with the new point's own pattern")
        self.point_key = tuple_type(point, (0,))
        self.link_keys = tuple(tuple_type(link, (0, 1)) for link in self.links)

    def __repr__(self) -> str:
        return f"ExtensionType(base={self.base}, point={self.point_key.fingerprint})"


def graph_extension(vocab: Vocabulary, base: Sequence[int],
                    adjacent: Iterable[int], symbol: str | None = None) -> ExtensionType:
    """Extension pattern over a single binary symbol: symmetric links to
    the base points listed in `adjacent`, nothing else."""
    bsyms = vocab.binary_symbols()
    if symbol is None:
        if len(bsyms) != 1:
            raise InputError("pass symbol= when the vocabulary has several binary symbols")
        symbol = bsyms[0]
    adj = set(adjacent)
    point = FinStructure(vocab, 1)
    links = []
    for b in base:
        table = {symbol: [(0, 1), (1, 0)]} if b in adj else {}
        links.append(FinStructure(vocab, 2, table))
    return ExtensionType(tuple(base), links, point)


@dataclass
class LogEntry:
    op: str
    detail: str


class GenericOracle:
    """Growing seeded approximation; create via `new_generic`."""

    def __init__(self, p2: P2Spec, seed: int):
        require_adequate(p2)
        self.p2 = p2
        self.seed = int(seed) & M64
        self._rng = random.Random(self.seed)
        self._tables: dict[str, set] = {name: set() for name in p2.vocab.names()}
        self._size = 0
        self._points: list[FinStructure] = []
        self._point_keys: list[TypeId] = []
        self._log: list[LogEntry] = []
        self._sat: dict[int, int] = {}
        self._frozen: FinStructure | None = None

    # -- views --------------------------------------------------------------

    @property
    def vocab(self) -> Vocabulary:
        return self.p2.vocab

    @property
    def size(self) -> int:
        return self._size

    @property
    def current(self) -> FinStructure:
        """The approximation so far, as an immutable structure."""
        if self._frozen is None:
            self._frozen = FinStructure(self.vocab, self._size, self._tables)
        return self._frozen

    @property
    def log(self) -> tuple[LogEntry, ...]:
        return tuple(self._log)

    @property
    def saturation(self) -> dict[int, int]:
        """Verified levels: level -> size of the prefix it covers."""
        return dict(self._sat)

    @property
    def saturation_level(self) -> int:
        return max(self._sat, default=0)

    def saturated_prefix(self, level: int) -> int:
        """How many initial points the given saturation level covers."""
        return max((p for k, p in self._sat.items() if k >= level), default=0)

    def point_struct(self, v: int) -> FinStructure:
        return self._points[v]

    def point_key(self, v: int) -> TypeId:
        return self._point_keys[v]

    def pair_key(self, u: int, v: int) -> TypeId:
        return TypeId("tuple", self.vocab.symbols,
                      tuple_payload(self.vocab, self._tables, (u, v)))

    # -- growth -------------------------------------------------------------

    def _record_saturation(self, level: int, prefix: int) -> None:
        for j in range(level + 1):
            if self._sat.get(j, 0) < prefix:
                self._sat[j] = prefix


def new_generic(p2: P2Spec, seed: int) -> GenericOracle:
    """A fresh empty oracle.  Raises AdequacyError when p2 is unsuitable."""
    return GenericOracle(p2, seed)


def extend_one_point(o: GenericOracle, tau: ExtensionType) -> int:
    """Add one point realising `tau` over its base; links to all other
    points are drawn uniformly from the permitted options.  Returns the
    new point's index."""
    s_size = o._size
    for b in tau.base:
        if b < 0 or b >= s_size:
            raise ExtensionError(f"base point {b} is outside the universe")
    for b, link in zip(tau.base, tau.links):
        if tuple_type(link, (0,)).payload != o.point_key(b).payload:
            raise ExtensionError(
                f"link pattern at base point {b} disagrees with that point's own facts")
        if not o.p2.is_member(link):
            raise ExtensionError("a link pattern is not permitted")
    if not o.p2.is_member(tau.point):
        raise ExtensionError("the new point's pattern is not permitted")

    w = s_size
    tables = o._tables
    for name, _a in o.vocab.symbols:
        for t in tau.point.tables[name]:
            tables[name].add(tuple(w for _ in t))
    base_set = set(tau.base)
    bsyms = o.vocab.binary_symbols()
    for b, link in zip(tau.base, tau.links):
        for sym in bsyms:
            if (0, 1) in link.tables[sym]:
                tables[sym].add((b, w))
            if (1, 0) in link.tables[sym]:
                tables[sym].add((w, b))
    drawn = []
    for v in range(s_size):
        if v in base_set:
            continue
        options = o.p2.permitted_links(o.point_struct(v), tau.point)
        if not options:
            raise ExtensionError(
                f"no permitted link between point {v} and the new point's pattern")
        dirs = options[o._rng.randrange(len(options))]
        drawn.append((v, dirs))
        for sym, (bvw, bwv) in zip(bsyms, dirs):
            if bvw:
                tables[sym].add((v, w))
            if bwv:
                tables[sym].add((w, v))
    o._size = w + 1
    o._points.append(tau.point)
    o._point_keys.append(tau.point_key)
    o._frozen = None
    o._log.append(LogEntry("extend", _extend_detail(o, w, tau, drawn)))
    return w


def _extend_detail(o: GenericOracle, w: int, tau: ExtensionType, drawn) -> str:
    bsyms = o.vocab.binary_symbols()

    def bits(link: FinStructure) -> str:
        return ",".join(
            f"{sym}:{int((0, 1) in link.tables[sym])}{int((1, 0) in link.tables[sym])}"
            for sym in bsyms) or "-"

    base_part = " ".join(f"{b}[{bits(link)}]" for b, link in zip(tau.base, tau.links)) or "-"
    unary = [sym for sym in o.vocab.unary_symbols() if (0,) in tau.point.tables[sym]]
    drawn_part = " ".join(
        f"{v}[{','.join(f'{sym}:{a}{b}' for sym, (a, b) in zip(bsyms, dirs)) or '-'}]"
        for v, dirs in drawn) or "-"
    return (f"new={w} marks={','.join(unary) or '-'} base {base_part} "
            f"drawn {drawn_part}")


def grow_random(o: GenericOracle, n: int) -> list[int]:
    """Add n points with empty base: the point pattern is drawn uniformly
    from the permitted one-point types, all links from the seed stream."""
    ones = o.p2.one_types()
    if not ones:
        raise ExtensionError("no one-point pattern is permitted")
    added = []
    for _ in range(n):
        point = ones[o._rng.randrange(len(ones))]
        tau = ExtensionType((), (), point)
        added.append(extend_one_point(o, tau))
    return added


# ---------------------------------------------------------------------------
# saturation


def one_point_extensions(p2: P2Spec, points: Sequence[FinStructure],
                         base: Sequence[int]) -> list[ExtensionType]:
    """All compatible extension patterns over `base`, in a deterministic
    order.  `points[i]` is the one-point structure at base point i."""
    out = []
    base = tuple(base)
    for newt in p2.one_types():
        option_lists = [p2.permitted_links(points[i], newt) for i in range(len(base))]
        if any(not opts for opts in option_lists):
            continue
        for choice in product(*option_lists):
            links = [assemble_pair(points[i], newt, dirs)
                     for i, dirs in enumerate(choice)]
            out.append(ExtensionType(base, links, newt))
    return out


def find_realization(s: FinStructure, tau: ExtensionType,
                     exclude: Iterable[int] = ()) -> int | None:
    """First point of s realising tau over its base, or None."""
    banned = set(tau.base) | set(exclude)
    want_point = tau.point_key.payload
    want_links = [k.payload for k in tau.link_keys]
    for c in range(s.size):
        if c in banned:
            continue
        if tuple_type(s, (c,)).payload != want_point:
            continue
        if all(tuple_type(s, (b, c)).payload == want_links[i]
               for i, b in enumerate(tau.base)):
            return c
    return None


def _realized(o: GenericOracle, tau: ExtensionType) -> bool:
    banned = set(tau.base)
    want_point = tau.point_key.payload
    want_links = [k.payload for k in tau.link_keys]
    vocab = o.vocab
    tables = o._tables
    for c in range(o._size):
        if c in banned:
            continue
        if o._point_keys[c].payload != want_point:
            continue
        ok = True
        for i, b in enumerate(tau.base):
            if tuple_payload(vocab, tables, (b, c)) != want_links[i]:
                ok = False
                break
        if ok:
            return True
    return False


@dataclass
class SaturationReport:
    level: int
    pre_size: int
    added: int
    exhausted: bool
    prefix: int          # prefix now covered by this level (0 when exhausted)
    budget: int | None = None


def saturate(o: GenericOracle, k: int, new_point_budget: int | None = None
             ) -> SaturationReport:
    """One pass: every subset of the pre-pass universe of size <= k gets a
    realisation of every compatible extension pattern, adding points as
    needed.  On success the level is recorded for the pre-pass prefix.

    A pass that exhausts its budget records nothing and is flagged."""
    if k < 0:
        raise InputError(f"negative saturation level {k}")
    pre = o._size
    added = 0
    for size in range(0, k + 1):
        for subset in combinations(range(pre), size):
            pts = [o._points[b] for b in subset]
            for tau in one_point_extensions(o.p2, pts, subset):
                if _realized(o, tau):
                    continue
                if new_point_budget is not None and added >= new_point_budget:
                    o._log.append(LogEntry(
                        "saturate", f"level={k} pre={pre} added={added} exhausted"))
                    return SaturationReport(k, pre, added, True, 0, new_point_budget)
                extend_one_point(o, tau)
                added += 1
    o._record_saturation(k, pre)
    o._log.append(LogEntry("saturate", f"level={k} pre={pre} added={added}"))
    return SaturationReport(k, pre, added, False, pre, new_point_budget)


@dataclass
class StableSaturationReport:
    level: int
    passes: int
    added: int
    stable: bool
    prefix: int
    reports: list[SaturationReport] = field(default_factory=list)


def saturate_until_stable(o: GenericOracle, k: int,
                          new_point_budget: int | None = None,
                          max_passes: int = 12) -> StableSaturationReport:
    """Repeat single passes until one adds no point; the whole universe is
    then covered by level k."""
    total = 0
    reports = []
    for p in range(1, max_passes + 1):
        left = None if new_point_budget is None else new_point_budget - total
        rep = saturate(o, k, left)
        reports.append(rep)
        total += rep.added
        if rep.exhausted:
            return StableSaturationReport(k, p, total, False, 0, reports)
        if rep.added == 0:
            return StableSaturationReport(k, p, total, True, o._size, reports)
    return StableSaturationReport(k, max_passes, total, False,
                                  o.saturated_prefix(k), reports)


def verify_saturation(p2: P2Spec, s: FinStructure, k: int,
                      prefix: int | None = None) -> tuple[bool, list]:
    """Exhaustive post-scan on a frozen structure: does every subset of
    the prefix (default: everything) of size <= k realise every
    compatible pattern?  Returns (ok, failures)."""
    prefix = s.size if prefix is None else prefix
    if prefix > s.size:
        raise InputError("prefix exceeds the universe")
    point_structs = [point_structure(s, v) for v in range(prefix)]
    failures = []
    for size in range(0, k + 1):
        for subset in combinations(range(prefix), size):
            pts = [point_structs[b] for b in subset]
            for tau in one_point_extensions(p2, pts, subset):
                if find_realization(s, tau) is None:
                    failures.append((subset, tau))
    return (not failures), failures


# ---------------------------------------------------------------------------
# the extension game


@dataclass
class GameMove:
    side: str            # "left" | "right"
    point: int
    reply: int | None


@dataclass
class BackAndForthReport:
    rounds: int
    equivalent: bool
    moves: list[GameMove] = field(default_factory=list)
    reason: str = ""


_GAME_WORK_CAP = 4_000_000


def back_and_forth(a: FinStructure, b: FinStructure, k: int) -> BackAndForthReport:
    """Play the k-round extension game between a and b.

    Positions must stay partial isomorphisms whose one-point extension
    witnesses agree: at every stage, the set of patterns realised over
    the chosen points must be the same on both sides.  Equivalence is
    decided by ranking positions level by level, so the verdict is exact
    for the given k."""
    if a.vocab != b.vocab:
        raise InputError("game endpoints use different vocabularies")
    if k < 0:
        raise InputError(f"negative round count {k}")
    n = max(a.size, b.size, 1)
    work = sum(n ** j for j in range(k + 1)) * n * 2
    if work > _GAME_WORK_CAP:
        raise InputError(
            f"a {k}-round game on sizes {a.size}/{b.size} exceeds the work cap")

    sides = (a, b)
    # atoms[(side, tup)] -> rank of (tuple payload, extension witness set)
    atom_raw: dict[tuple[int, tuple], tuple] = {}
    tuples_by_arity: list[list[tuple[int, tuple]]] = []
    for arity in range(k + 1):
        bucket = []
        for si, s in enumerate(sides):
            for tup in product(range(s.size), repeat=arity):
                ext = frozenset(
                    tuple_payload(s.vocab, s.tables, tup + (c,))
                    for c in range(s.size) if c not in tup)
                atom_raw[(si, tup)] = (tuple_payload(s.vocab, s.tables, tup), ext)
                bucket.append((si, tup))
        tuples_by_arity.append(bucket)
    ranks = {v: i for i, v in enumerate(sorted(set(atom_raw.values()), key=repr))}
    cls: dict[tuple[int, tuple], int] = {key: ranks[v] for key, v in atom_raw.items()}

    levels = [dict(cls)]
    for r in range(1, k + 1):
        prev = levels[-1]
        raw = {}
        for arity in range(k + 1 - r):
            for si, tup in tuples_by_arity[arity]:
                s = sides[si]
                children = frozenset(prev[(si, tup + (c,))] for c in range(s.size))
                raw[(si, tup)] = (prev[(si, tup)], children)
        ranks = {v: i for i, v in enumerate(sorted(set(raw.values()), key=repr))}
        levels.append({key: ranks[v] for key, v in raw.items()})

    if levels[k][(0, ())] == levels[k][(1, ())]:
        return BackAndForthReport(k, True)

    # walk a losing line for the duplicator
    moves: list[GameMove] = []
    ta: tuple = ()
    tb: tuple = ()
    for r in range(k, 0, -1):
        level, prev = levels[r], levels[r - 1]
        if level[(0, ta)] == level[(1, tb)]:
            break
        if prev[(0, ta)] != prev[(1, tb)]:
            break
        move = None
        for si, tup, other, other_tup in ((0, ta, 1, tb), (1, tb, 0, ta)):
            opp = sides[other]
            reachable = {prev[(other, other_tup + (c,))] for c in range(opp.size)}
            for c in range(sides[si].size):
                if prev[(si, tup + (c,))] not in reachable:
                    move = (si, c)
                    break
            if move:
                break
        if move is None:
            break
        si, c = move
        if si == 0:
            ta = ta + (c,)
            best = min(range(b.size),
                       key=lambda y: (levels[0][(1, tb + (y,))] != levels[0][(0, ta)], y),
                       default=None) if b.size else None
            moves.append(GameMove("left", c, best))
            if best is not None:
                tb = tb + (best,)
            else:
                break
        else:
            tb = tb + (c,)
            best = min(range(a.size),
                       key=lambda y: (levels[0][(0, ta + (y,))] != levels[0][(1, tb)], y),
                       default=None) if a.size else None
            moves.append(GameMove("right", c, best))
            if best is not None:
                ta = ta + (best,)
            else:
                break
    reason = ("no reply preserves the quantifier-free facts and the "
              "one-point extension witnesses of the position")
    return BackAndForthReport(k, False, moves, reason)


# ---------------------------------------------------------------------------
# homogeneity probe


@dataclass
class ProbeReport:
    m: int
    trials: int
    successes: int
    prefix: int
    failures: list = field(default_factory=list)

    @property
    def rate(self) -> float:
        return self.successes / self.trials if self.trials else 1.0


def homogeneity_probe(o: GenericOracle, m: int, trials: int) -> ProbeReport:
    """Sample isomorphic m-point substructures with an isomorphism between
    them and try to extend it by one more point inside the current
    universe.  Refuses to run below saturation level m."""
    from .structures import find_embeddings, induced_substructure

    prefix = o.saturated_prefix(m)
    if prefix < m:
        raise SaturationError(
            f"homogeneity probe at m={m} needs saturation level {m} "
            f"over at least {m} points (prefix is {prefix})")
    rng = random.Random(mix64(o.seed, 0xA11CE, m, trials))
    s = o.current
    window, _ = induced_substructure(s, range(prefix))
    successes = 0
    failures = []
    for _t in range(trials):
        subset = tuple(sorted(rng.sample(range(prefix), m)))
        sub, pts = induced_substructure(s, subset)
        embs = find_embeddings(sub, window, limit=64)
        f = embs[rng.randrange(len(embs))]
        image = tuple(f.map[i] for i in range(m))
        candidates = [x for x in range(s.size) if x not in subset]
        x = candidates[rng.randrange(len(candidates))] if candidates else None
        if x is None:
            successes += 1
            continue
        want = tuple_type(s, subset + (x,)).payload
        hit = None
        for y in range(s.size):
            if y in image:
                continue
            if tuple_payload(s.vocab, s.tables, image + (y,)) == want:
                hit = y
                break
        if hit is not None:
            successes += 1
        else:
            failures.append((subset, image, x))
    return ProbeReport(m, trials, successes, prefix, failures)
