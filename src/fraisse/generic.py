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

The oracle holds one immutable structure, `current`, and each new point
replaces it with `structures.with_point` of it; a structure read earlier
is never changed, and its tables are decoded from bit rows only when
they are read.  Saturation passes are semi-naive: a pass skips the
bases that lie inside the prefix already saturated at its level, which
the same argument makes exact.  Each remaining base is scanned once, on
one structure, by splitting the candidate mask over the link options
(`_missing`); `verify_saturation` runs that scan over every base.
`back_and_forth` classes a tuple's one-point extensions by the same
kind of split, over an index of each symbol's facts by position pattern.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product
from operator import itemgetter
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
    find_embeddings,
    induced_substructure,
    point_codes,
    with_point,
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
        self._s = FinStructure(p2.vocab, 0)
        # a LogEntry, or an added point's (index, pattern, drawn links),
        # formatted when `log` is first read
        self._log: list = []
        self._sat: dict[int, int] = {}

    # -- views --------------------------------------------------------------

    @property
    def vocab(self) -> Vocabulary:
        return self.p2.vocab

    @property
    def size(self) -> int:
        return self._s.size

    @property
    def current(self) -> FinStructure:
        """The approximation so far, as an immutable structure."""
        return self._s

    @property
    def log(self) -> tuple[LogEntry, ...]:
        for i, entry in enumerate(self._log):
            if not isinstance(entry, LogEntry):
                self._log[i] = LogEntry("extend", _extend_detail(self.vocab, *entry))
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
    w = o.size
    codes = point_codes(o._s)
    if tau.vocab != o.vocab:
        raise ExtensionError("the pattern and the oracle use different vocabularies")
    for b in tau.base:
        if b < 0 or b >= w:
            raise ExtensionError(f"base point {b} is outside the universe")
    if tau.point not in o.p2.codes:
        raise ExtensionError("the new point's pattern is not permitted")
    for b, dirs in zip(tau.base, tau.dirs):
        if dirs not in o.p2.links(codes[b], tau.point):
            raise ExtensionError(f"the link pattern at base point {b} is not permitted")

    links = [None] * w
    for b, dirs in zip(tau.base, tau.dirs):
        links[b] = dirs
    drawn = []
    for v in range(w):
        if links[v] is None:
            # adequacy gives every pair of permitted codes at least one option
            options = o.p2.links(codes[v], tau.point)
            links[v] = options[o._rng.randrange(len(options))]
            drawn.append((v, links[v]))
    o._s = with_point(o._s, tau.point, links)
    o._log.append((w, tau, drawn))
    return w


def _extend_detail(vocab: Vocabulary, w: int, tau: ExtensionType, drawn) -> str:
    bsyms = vocab.binary_symbols()

    def links(pairs) -> str:
        return " ".join(
            f"{v}[{','.join(f'{sym}:{a:d}{b:d}' for sym, (a, b) in zip(bsyms, dirs)) or '-'}]"
            for v, dirs in pairs) or "-"

    return (f"new={w} marks={','.join(vocab.mark_tokens(tau.point)) or '-'} "
            f"base {links(zip(tau.base, tau.dirs))} drawn {links(drawn)}")


def grow_random(o: GenericOracle, n: int) -> list[int]:
    """Add n points with empty base: the point pattern is drawn uniformly
    from the permitted one-point types, all links from the seed stream."""
    if n < 0:
        raise InputError(f"cannot add a negative number of points ({n})")
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
    return [ExtensionType(p2.vocab, base, choice, cw) for cw in p2.codes
            for choice in product(*[p2.links(cb, cw) for cb in codes])]


def realizer_bits(s: FinStructure, tau: ExtensionType) -> int:
    """Bitmask of the points of s outside the base that realise tau: those
    with the pattern's point code, narrowed by one AND per base point with
    its row of `FinStructure.link_rows`."""
    if tau.vocab is not s.vocab and tau.vocab != s.vocab:
        raise VocabularyError("the pattern and the structure use different vocabularies")
    if tau.base and (min(tau.base) < 0 or max(tau.base) >= s.size):
        raise InvalidElementError(f"base {tau.base} is not within universe 0..{s.size - 1}")
    mask = s.code_bits(tau.point)
    for x in tau.base:
        mask &= ~(1 << x)
    for b, dirs in zip(tau.base, tau.dirs):
        mask &= s.link_rows(dirs)[b]
        if not mask:
            break
    return mask


def find_realization(s: FinStructure, tau: ExtensionType) -> int | None:
    """First point of s realising tau over its base, or None."""
    mask = realizer_bits(s, tau)
    return (mask & -mask).bit_length() - 1 if mask else None


def extends(s: FinStructure, dom: Sequence[int], img: Sequence[int], x: int) -> bool:
    """Does some point of s realise over `img` what x realises over `dom`?
    Such points are the images of x that extend a partial isomorphism dom -> img."""
    tau = extension_at(s, dom, x)
    return find_realization(s, ExtensionType(s.vocab, img, tau.dirs, tau.point)) is not None


@dataclass
class SaturationReport:
    level: int
    pre_size: int
    added: int
    exhausted: bool
    prefix: int          # prefix now covered by this level (0 when exhausted)
    budget: int | None = None


def _missing(p2: P2Spec, s: FinStructure, base: tuple[int, ...]) -> list[ExtensionType]:
    """The patterns of `one_point_extensions` over `base` that no point of
    s realises, in that order.  Per new-point code, the candidate mask is
    split base point by base point over the link options, so the AND for
    a prefix of choices is shared by every pattern that starts with it;
    the masks left empty, in `product` order, are the missing patterns."""
    codes = point_codes(s)
    clear = ~sum(1 << b for b in base)
    out = []
    for cw in p2.codes:
        option_lists = [p2.links(codes[b], cw) for b in base]
        leaves = [s.code_bits(cw) & clear]
        for b, options in zip(base, option_lists):
            rows = [s.link_rows(option)[b] for option in options]
            leaves = [mask & row for mask in leaves for row in rows]
        if 0 in leaves:
            out.extend(ExtensionType(p2.vocab, base, dirs, cw)
                       for mask, dirs in zip(leaves, product(*option_lists)) if not mask)
    return out


def _new_bases(pre: int, size: int, done: int):
    """The subsets of range(pre) of the given size, in `combinations`
    order, that are not inside the saturated prefix range(done): those
    holding a point >= done, and the empty base while done is 0."""
    if size == 0:
        if done == 0:
            yield ()
        return
    for head in combinations(range(pre), size - 1):
        for last in range(max(head[-1] + 1 if head else 0, done), pre):
            yield head + (last,)


def saturate(o: GenericOracle, k: int, new_point_budget: int | None = None
             ) -> SaturationReport:
    """One pass: every subset of the pre-pass universe of size <= k gets a
    realisation of every compatible extension pattern, adding points as
    needed.  On success the level is recorded for the pre-pass prefix.

    The pass is semi-naive: bases inside the prefix already saturated at
    level >= k are skipped, since realisations are never destroyed.  The
    missing patterns of a base are listed once, before any is added: the
    point added for a pattern realises no other pattern over that base.

    A pass that exhausts its budget records nothing and is flagged."""
    if k < 0:
        raise InputError(f"negative saturation level {k}")
    if new_point_budget is not None and new_point_budget < 0:
        raise InputError(f"new_point_budget must be >= 0, got {new_point_budget}")
    pre = o.size
    done = o.saturated_prefix(k)
    added = 0
    for size in range(0, k + 1):
        for subset in _new_bases(pre, size, done):
            for tau in _missing(o.p2, o.current, subset):
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
            return StableSaturationReport(k, p, total, True, o.size, reports)
    return StableSaturationReport(k, _STABLE_MAX_PASSES, total, False,
                                  o.saturated_prefix(k), reports)


def verify_saturation(p2: P2Spec, s: FinStructure, k: int,
                      prefix: int | None = None) -> tuple[bool, list]:
    """Exhaustive post-scan on a frozen structure: does every subset of
    the prefix (default: everything) of size <= k realise every
    compatible pattern?  Returns (ok, failures), failures being each
    subset's `_missing` patterns, subsets in `combinations` order by size;
    `tests/_naive.naive_saturated` is the independent check."""
    prefix = s.size if prefix is None else prefix
    if k < 0 or not 0 <= prefix <= s.size:
        raise InputError(f"need level >= 0 and prefix in 0..{s.size}, got {k} and {prefix}")
    if p2.vocab != s.vocab:
        raise VocabularyError("the permission set and the structure use different vocabularies")
    failures = [(subset, tau) for size in range(k + 1)
                for subset in combinations(range(prefix), size)
                for tau in _missing(p2, s, subset)]
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
    for the given k.  Level 0 classes a tuple by its fact class and the set
    of its one-point extensions' fact classes, as in the k-variable games
    of Immerman and Lander.  Each symbol's pattern index maps a fact, with
    None wherever one of its points c stands, to the mask of those c.  The
    points outside the tuple are split by the index row of each position
    pattern over range(m) that holds m - 1; each leaf is one extension
    class.  A losing line starts at the least round count that tells the
    two structures apart, and its replies are distinct points."""
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

    # patterns[si][m]: (index, getter) per symbol and position pattern over
    # range(m); a one-position getter slices, so it too gives a tuple
    patterns = []
    for s in sides:
        index = {name: {} for name, _ in s.vocab.symbols}
        for name, masks in index.items():
            for f in s.tables[name]:
                for c in set(f):
                    key = tuple(None if v == c else v for v in f)
                    masks[key] = masks.get(key, 0) | 1 << c
        patterns.append([[(index[name], itemgetter(*pos) if arity > 1 else itemgetter(slice(m - 1, m)))
                          for name, arity in s.vocab.symbols for pos in product(range(m), repeat=arity)
                          if m - 1 in pos] for m in range(k + 2)])

    # a fact class is (prefix's class, repeated position or pattern bits)
    ids, level_ids, level = {}, {}, {}
    facts = {(0, ()): -1, (1, ()): -1}
    for si, tup in keys:
        cls, ext = facts[si, tup], tup + (None,)
        outside = (1 << sides[si].size) - 1 & ~sum(1 << c for c in set(tup))
        leaves = [(outside, 0)] if outside else []
        for bit, (masks, get) in enumerate(patterns[si][len(ext)]):
            row = masks.get(get(ext), 0)
            if row & outside:
                leaves = ([(part, bits | 1 << bit) for mask, bits in leaves if (part := mask & row)]
                          + [(part, bits) for mask, bits in leaves if (part := mask & ~row)])
        found = frozenset(ids.setdefault((cls, bits), len(ids)) for _, bits in leaves)
        level[si, tup] = level_ids.setdefault((cls, found), len(level_ids))
        for mask, bits in leaves + [(1 << c, ~tup.index(c)) for c in tup] if len(tup) < k else ():
            facts.update(((si, tup + (c,)), ids.setdefault((cls, bits), len(ids)))
                         for c, one in enumerate(bin(mask)[:1:-1]) if one == "1")

    # levels[r][(side, tup)]: tup's class with r rounds left (arity <= k - r);
    # ids go in first-seen order, since only their equality is read
    levels = [level]
    for r in range(1, k + 1):
        down, level_ids, level = levels[-1], {}, {}
        for si, tup in keys[:ends[k - r]]:
            raw = (down[si, tup], frozenset(down[si, tup + (c,)]
                                            for c in range(sides[si].size) if c not in tup))
            level[si, tup] = level_ids.setdefault(raw, len(level_ids))
        levels.append(level)

    if levels[k][0, ()] == levels[k][1, ()]:
        return BackAndForthReport(k, True)

    def split(p0: tuple, p1: tuple) -> int:
        """The least round count at which the two positions' classes
        differ; classes only refine as rounds are added."""
        return next(r for r in range(k - len(p0) + 1) if levels[r][0, p0] != levels[r][1, p1])

    # walk a losing line: the spoiler always plays where the position is
    # told apart with the fewest rounds, and the duplicator replies with an
    # unchosen point whose position survives the most rounds
    moves: list[GameMove] = []
    pos: list[tuple] = [(), ()]             # the points chosen on each side
    r = split((), ())
    while r > 0:
        prev = levels[r - 1]
        # the classes agree with r - 1 rounds left, so one side has a point
        # whose class the other side cannot reach
        for si in (0, 1):
            other = 1 - si
            reachable = {prev[other, pos[other] + (c,)] for c in range(sides[other].size)}
            c = next((c for c in range(sides[si].size)
                      if prev[si, pos[si] + (c,)] not in reachable), None)
            if c is not None:
                break
        pos[si] += (c,)
        survive = {}                        # unchosen reply -> rounds its position lasts
        for y in range(sides[other].size):
            if y not in pos[other]:
                trial = list(pos)
                trial[other] += (y,)
                survive[y] = split(*trial)
        best = min(survive, key=lambda y: (-survive[y], y), default=None)
        moves.append(GameMove(("left", "right")[si], c, best))
        if best is None:
            break
        pos[other] += (best,)
        r = survive[best]
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
    if m < 0 or trials < 0:
        raise InputError(f"homogeneity probes need m >= 0 points and a "
                         f"non-negative trial count, got {m} and {trials}")
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
        if x is None or extends(s, subset, image, x):
            successes += 1
        else:
            failures.append((subset, image, x))
    return ProbeReport(m, trials, successes, prefix, failures)
