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
from itertools import chain, combinations, product
from typing import Iterable, Sequence

from .amalgamation import P2Spec, require_adequate
from .errors import (
    ExtensionError,
    InputError,
    InvalidElementError,
    SaturationError,
    VocabularyError,
)
from .structures import (
    FinStructure,
    Vocabulary,
    add_links,
    add_point,
    point_codes,
    tuple_payload,
)

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

    `point` is the new point's code (`point_codes`), and `dirs[i]` is its
    link to base point i as a `P2Spec.links` option: a tuple holding, per
    binary symbol, the (base point -> new point, new point -> base point)
    bits as a pair.  Only binary vocabularies have such patterns.
    """

    __slots__ = ("vocab", "base", "dirs", "point")

    def __init__(self, vocab: Vocabulary, base: Sequence[int], dirs: Sequence, point: int):
        if vocab.rho > 2:
            raise VocabularyError("extension patterns need a binary vocabulary")
        self.vocab = vocab
        self.base = tuple(base)
        self.dirs = tuple(dirs)
        self.point = point
        if len(self.dirs) != len(self.base):
            raise ExtensionError("one link pattern per base point is required")
        if len(set(self.base)) != len(self.base):
            raise ExtensionError("base points must be distinct")

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtensionType) and self.base == other.base
                and self.dirs == other.dirs and self.point == other.point
                and self.vocab == other.vocab)

    def __hash__(self) -> int:
        return hash((self.base, self.dirs, self.point))

    def __repr__(self) -> str:
        return f"ExtensionType(base={self.base}, dirs={self.dirs}, point={self.point})"


def graph_extension(vocab: Vocabulary, base: Sequence[int],
                    adjacent: Iterable[int]) -> ExtensionType:
    """Extension pattern over a vocabulary with one binary symbol:
    symmetric links to the base points listed in `adjacent`, nothing else."""
    if len(vocab.binary_symbols()) != 1:
        raise InputError("graph extensions need exactly one binary symbol")
    adj = set(adjacent)
    dirs = [((1, 1),) if b in adj else ((0, 0),) for b in base]
    return ExtensionType(vocab, base, dirs, 0)


def extension_at(s: FinStructure, base: Sequence[int], a: int) -> ExtensionType:
    """The pattern that point a, outside `base`, realises over it in s."""
    base = tuple(base)
    if a in base:
        raise InvalidElementError(f"point {a} is in the base {base}")
    return ExtensionType(s.vocab, base, [s.link(b, a) for b in base], point_codes(s)[a])


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
        self._codes: list[int] = []
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

    def saturated_prefix(self, level: int) -> int:
        """How many initial points the given saturation level covers."""
        return max((p for k, p in self._sat.items() if k >= level), default=0)

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
    w = o._size
    if tau.vocab != o.vocab:
        raise ExtensionError("the pattern and the oracle use different vocabularies")
    for b in tau.base:
        if b < 0 or b >= w:
            raise ExtensionError(f"base point {b} is outside the universe")
    if tau.point not in o.p2.codes:
        raise ExtensionError("the new point's pattern is not permitted")
    for b, dirs in zip(tau.base, tau.dirs):
        if dirs not in o.p2.links(o._codes[b], tau.point):
            raise ExtensionError(f"the link pattern at base point {b} is not permitted")

    tables = o._tables
    add_point(tables, o.vocab, w, tau.point)
    for b, dirs in zip(tau.base, tau.dirs):
        add_links(tables, o.vocab, b, w, dirs)
    base_set = set(tau.base)
    drawn = []
    for v in range(w):
        if v in base_set:
            continue
        # adequacy gives every pair of permitted codes at least one option
        options = o.p2.links(o._codes[v], tau.point)
        dirs = options[o._rng.randrange(len(options))]
        drawn.append((v, dirs))
        add_links(tables, o.vocab, v, w, dirs)
    o._size = w + 1
    o._codes.append(tau.point)
    o._frozen = None
    o._log.append(LogEntry("extend", _extend_detail(o, w, tau, drawn)))
    return w


def _extend_detail(o: GenericOracle, w: int, tau: ExtensionType, drawn) -> str:
    bsyms = o.vocab.binary_symbols()

    def links(pairs) -> str:
        return " ".join(
            f"{v}[{','.join(f'{sym}:{a:d}{b:d}' for sym, (a, b) in zip(bsyms, dirs)) or '-'}]"
            for v, dirs in pairs) or "-"

    marks = [sym for sym in o.vocab.unary_symbols() if (w,) in o._tables[sym]]
    return (f"new={w} marks={','.join(marks) or '-'} "
            f"base {links(zip(tau.base, tau.dirs))} drawn {links(drawn)}")


def grow_random(o: GenericOracle, n: int) -> list[int]:
    """Add n points with empty base: the point pattern is drawn uniformly
    from the permitted one-point types, all links from the seed stream."""
    ones = o.p2.codes
    if not ones:
        raise ExtensionError("no one-point pattern is permitted")
    added = []
    for _ in range(n):
        point = ones[o._rng.randrange(len(ones))]
        added.append(extend_one_point(o, ExtensionType(o.vocab, (), (), point)))
    return added


# ---------------------------------------------------------------------------
# saturation


def one_point_extensions(p2: P2Spec, codes: Sequence[int],
                         base: Sequence[int]) -> list[ExtensionType]:
    """All compatible extension patterns over `base`, in a deterministic
    order.  `codes[i]` is the point code (`point_codes`) of base point i."""
    out = []
    for cw in p2.codes:
        option_lists = [p2.links(cb, cw) for cb in codes]
        if all(option_lists):
            out.extend(ExtensionType(p2.vocab, base, choice, cw)
                       for choice in product(*option_lists))
    return out


def realizer_bits(s: FinStructure, tau: ExtensionType, exclude: Iterable[int] = ()) -> int:
    """Bitmask of the points of s outside the base and `exclude` that
    realise tau: those with the pattern's point code, narrowed by one
    AND per base point with its row of `FinStructure.link_rows`."""
    if tau.vocab is not s.vocab and tau.vocab != s.vocab:
        raise VocabularyError("the pattern and the structure use different vocabularies")
    if tau.base and (min(tau.base) < 0 or max(tau.base) >= s.size):
        raise InvalidElementError(f"base {tau.base} is not within universe 0..{s.size - 1}")
    mask = s.code_bits(tau.point)
    for x in chain(tau.base, exclude):
        mask &= ~(1 << x)
    for b, dirs in zip(tau.base, tau.dirs):
        mask &= s.link_rows(dirs)[b]
        if not mask:
            break
    return mask


def find_realization(s: FinStructure, tau: ExtensionType,
                     exclude: Iterable[int] = ()) -> int | None:
    """First point of s realising tau over its base, or None."""
    mask = realizer_bits(s, tau, exclude)
    return (mask & -mask).bit_length() - 1 if mask else None


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
            for tau in one_point_extensions(o.p2, [o._codes[b] for b in subset], subset):
                if find_realization(o.current, tau) is not None:
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


_STABLE_MAX_PASSES = 12


def saturate_until_stable(o: GenericOracle, k: int,
                          new_point_budget: int | None = None
                          ) -> StableSaturationReport:
    """Repeat single passes, at most _STABLE_MAX_PASSES, until one adds no
    point; the whole universe is then covered by level k."""
    total = 0
    reports = []
    for p in range(1, _STABLE_MAX_PASSES + 1):
        left = None if new_point_budget is None else new_point_budget - total
        rep = saturate(o, k, left)
        reports.append(rep)
        total += rep.added
        if rep.exhausted:
            return StableSaturationReport(k, p, total, False, 0, reports)
        if rep.added == 0:
            return StableSaturationReport(k, p, total, True, o._size, reports)
    return StableSaturationReport(k, _STABLE_MAX_PASSES, total, False,
                                  o.saturated_prefix(k), reports)


def verify_saturation(p2: P2Spec, s: FinStructure, k: int,
                      prefix: int | None = None) -> tuple[bool, list]:
    """Exhaustive post-scan on a frozen structure: does every subset of
    the prefix (default: everything) of size <= k realise every
    compatible pattern?  Returns (ok, failures)."""
    prefix = s.size if prefix is None else prefix
    if prefix > s.size:
        raise InputError("prefix exceeds the universe")
    codes = point_codes(s)
    failures = []
    for size in range(0, k + 1):
        for subset in combinations(range(prefix), size):
            for tau in one_point_extensions(p2, [codes[b] for b in subset], subset):
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
    decided by classing positions level by level, so the verdict is exact
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
    keys: list[tuple[int, tuple]] = []      # (side, tuple) of every arity <= k, by arity
    ends = []                               # ends[j]: how many keys have arity <= j
    for arity in range(k + 1):
        keys += [(si, tup) for si, s in enumerate(sides)
                 for tup in product(range(s.size), repeat=arity)]
        ends.append(len(keys))

    def atom(si: int, tup: tuple) -> tuple:
        """The facts of tup and the set of facts of its one-point extensions."""
        s = sides[si]
        ext = frozenset(tuple_payload(s.vocab, s.tables, tup + (c,))
                        for c in range(s.size) if c not in tup)
        return tuple_payload(s.vocab, s.tables, tup), ext

    # levels[r][(side, tup)]: the class of tup with r rounds left, for arity
    # <= k - r; ids go in first-seen order, since only their equality is read
    levels: list[dict[tuple[int, tuple], int]] = []
    for r in range(k + 1):
        ids: dict[tuple, int] = {}
        level = {}
        for si, tup in keys[:ends[k - r]]:
            raw = atom(si, tup) if r == 0 else (
                levels[-1][si, tup],
                frozenset(levels[-1][si, tup + (c,)] for c in range(sides[si].size)))
            level[si, tup] = ids.setdefault(raw, len(ids))
        levels.append(level)

    if levels[k][0, ()] == levels[k][1, ()]:
        return BackAndForthReport(k, True)

    # walk a losing line for the duplicator
    moves: list[GameMove] = []
    pos: list[tuple] = [(), ()]             # the points chosen on each side
    for r in range(k, 0, -1):
        level, prev = levels[r], levels[r - 1]
        if level[0, pos[0]] == level[1, pos[1]] or prev[0, pos[0]] != prev[1, pos[1]]:
            break
        # the spoiler plays a point whose class the other side cannot match
        for si in (0, 1):
            other = 1 - si
            reachable = {prev[other, pos[other] + (c,)] for c in range(sides[other].size)}
            c = next((c for c in range(sides[si].size)
                      if prev[si, pos[si] + (c,)] not in reachable), None)
            if c is not None:
                break
        else:
            break
        pos[si] += (c,)
        best = min(range(sides[other].size),
                   key=lambda y: (levels[0][other, pos[other] + (y,)] != levels[0][si, pos[si]], y),
                   default=None)
        moves.append(GameMove(("left", "right")[si], c, best))
        if best is None:
            break
        pos[other] += (best,)
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
        # f is an embedding, so y extends it exactly when y realises over
        # the image what x realises over the subset
        tau = extension_at(s, subset, x)
        if find_realization(s, ExtensionType(s.vocab, image, tau.dirs, tau.point)) is not None:
            successes += 1
        else:
            failures.append((subset, image, x))
    return ProbeReport(m, trials, successes, prefix, failures)
