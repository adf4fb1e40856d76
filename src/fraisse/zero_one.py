"""Extension axioms and sampling experiments on permitted structures.

An extension axiom says: for every ordered tuple of k distinct points
whose point codes match the axiom's base slots, some further point has
the axiom's point code and realises the prescribed link with each of
them.  Axioms use the oracle's encoding (`generic.ExtensionType`): a
point is its code (`structures.point_codes`), written in labels as its
`Vocabulary.mark_tokens`, and a link is one of `Vocabulary.link_options`,
so only binary vocabularies have axioms.  One evaluator reads every
axiom on row bitmasks.  Sampling draws structures uniformly in the
labelled sense: each point's code uniform over the permitted ones, each
unordered pair's cross links uniform over the permitted options for the
chosen endpoint codes, all independently."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations, product, repeat
from math import sqrt
from operator import add, lshift, or_
from typing import Sequence

from .amalgamation import P2Spec
from .errors import AdequacyError, InputError, ParseError, VocabularyError
from .generic import mix64
from .structures import FinStructure, Vocabulary

Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    centre = (p + z2 / (2 * trials)) / denom
    half = Z95 * sqrt(p * (1.0 - p) / trials + z2 / (4 * trials * trials)) / denom
    # the bound is exact at the extremes; don't let rounding lift it
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return (lo, hi)


_ARROWS = {(1, 1): "", (1, 0): ">", (0, 1): "<"}     # link pair -> token suffix
_LINK_OF = {arrow: pair for pair, arrow in _ARROWS.items()}


class AxiomSpec:
    """One extension axiom in the format of `ExtensionType`: `slots[i]`
    is base slot i's point code, `dirs[i]` the new point's link to it as
    a `P2Spec.links` option, and `point` the new point's code."""

    __slots__ = ("vocab", "slots", "dirs", "point", "k", "_sort_key")

    def __init__(self, vocab: Vocabulary, slots: Sequence[int], dirs: Sequence,
                 point: int):
        if vocab.rho > 2:
            raise VocabularyError("extension axioms need a binary vocabulary")
        self.vocab = vocab
        self.slots = tuple(slots)
        self.dirs = tuple(map(tuple, dirs))
        self.point = point
        self.k = len(self.slots)
        if len(self.dirs) != self.k:
            raise InputError("one link option per base slot is required")
        for option in self.dirs:
            if option not in vocab.link_options():
                raise InputError(f"link option {option} needs one (0/1, 0/1) pair "
                                 "per binary symbol")
        for code in self.slots + (point,):
            vocab.check_code(code, InputError)
        self._sort_key = (self.k, point, tuple(
            _link_key(vocab, slot, option, point)
            for slot, option in zip(self.slots, self.dirs)))

    def sort_key(self):
        return self._sort_key

    def __eq__(self, other) -> bool:
        return (isinstance(other, AxiomSpec)
                and self._sort_key == other._sort_key)

    def __hash__(self) -> int:
        return hash(self._sort_key)

    def label(self) -> str:
        """Compact text form, parseable by parse_axiom."""
        vocab = self.vocab
        segs = []
        for slot, option in zip(self.slots, self.dirs):
            marks = vocab.mark_tokens(slot)
            toks = [sym + _ARROWS[pair]
                    for sym, pair in zip(vocab.binary_symbols(), option) if any(pair)]
            segs.append((f"[{','.join(marks)}] " if marks else "")
                        + (",".join(toks) or "-"))
        text = f"ext {self.k}: " + " | ".join(segs) if segs else f"ext 0:"
        marks = vocab.mark_tokens(self.point)
        if marks:
            text += " @ " + ",".join(marks)
        return text

    def __repr__(self) -> str:
        return f"AxiomSpec({self.label()!r})"


def _link_key(vocab: Vocabulary, slot: int, option, point: int) -> tuple:
    """The link's place in the order that tuple types give its two-point
    structure: per symbol, which positions hold, among (base) and (new)
    for a unary symbol and among (base, base), (base, new), (new, base)
    and (new, new) for a binary one."""
    pairs = iter(option)
    key = []
    for name, arity in vocab.symbols:
        bit = vocab.code_bit(name)
        on_base, on_new = slot & bit, point & bit
        facts = (on_base, *next(pairs), on_new) if arity == 2 else (on_base, on_new)
        key.append(tuple(j for j, f in enumerate(facts) if f))
    return tuple(key)


def parse_axiom(vocab: Vocabulary, text: str) -> AxiomSpec:
    """Parse 'ext k: seg | ... | seg [@ marks]'.

    Each segment is one base slot: its point's marks in brackets, left
    out when it has none, then the links between that point and the new
    point as comma-separated tokens 'sym' (both directions), 'sym>'
    (base to new), 'sym<' (new to base), or '-' for no link, as in
    '[red,loop:arc] arc>'.  The optional '@' part marks the new point.
    A mark is a unary symbol or 'loop:sym' for a binary symbol holding
    on (v, v).  Only binary vocabularies have axioms; any other raises
    VocabularyError."""
    body = text.strip()
    if not body.startswith("ext"):
        raise ParseError(f"axiom must start with 'ext': {text!r}")
    body = body[3:].strip()
    head, _, rest = body.partition(":")
    try:
        k = int(head.strip())
    except ValueError:
        raise ParseError(f"bad axiom arity in {text!r}") from None
    rest, _, markpart = rest.partition("@")
    segs = [s.strip() for s in rest.split("|")] if rest.strip() else []
    if len(segs) != k:
        raise ParseError(f"axiom declares {k} slots but lists {len(segs)}")
    bsyms = vocab.binary_symbols()
    slots, dirs = [], []
    for seg in segs:
        slot = 0
        if seg.startswith("["):
            marks, sep, seg = seg[1:].partition("]")
            if not sep:
                raise ParseError(f"unclosed slot marks in {text!r}")
            slot, seg = vocab.mark_code(marks), seg.strip()
        option = dict.fromkeys(bsyms, (0, 0))
        if seg != "-":
            for tok in (t.strip() for t in seg.split(",") if t.strip()):
                sym = tok.rstrip("<>")
                pair = _LINK_OF.get(tok[len(sym):])
                if sym not in bsyms or pair is None:
                    raise ParseError(f"unknown link {tok!r} in axiom")
                option[sym] = (option[sym][0] | pair[0], option[sym][1] | pair[1])
        slots.append(slot)
        dirs.append(tuple(option.values()))
    return AxiomSpec(vocab, slots, dirs, vocab.mark_code(markpart))


def full_extension_axioms(p2: P2Spec, k: int) -> list[AxiomSpec]:
    """Every extension axiom with k base slots over the permitted links."""
    if k < 0:
        raise InputError("axiom arity must be non-negative")
    axioms = []
    for point in p2.codes:
        choices = [(slot, option) for slot in p2.codes for option in p2.links(slot, point)]
        for combo in product(choices, repeat=k):
            slots = [slot for slot, _ in combo]
            axioms.append(AxiomSpec(p2.vocab, slots, [opt for _, opt in combo], point))
    axioms.sort(key=AxiomSpec.sort_key)
    return axioms


def axiom_compatible(p2: P2Spec, ax: AxiomSpec) -> bool:
    """Whether the axiom's point and links are all permitted."""
    return (ax.vocab == p2.vocab and ax.point in p2.codes
            and all(option in p2.links(slot, ax.point)
                    for slot, option in zip(ax.slots, ax.dirs)))


# ---------------------------------------------------------------------------
# evaluation


def axiom_holds(s: FinStructure, ax: AxiomSpec) -> bool:
    """Evaluate one extension axiom on a structure's row bitmasks: base
    points are chosen slot by slot among the points with the slot's code,
    each choice narrows the new point's candidates by one AND with its
    row of `FinStructure.link_rows`, and a witness cover settles the last
    slot."""
    if s.vocab != ax.vocab:
        raise VocabularyError("axiom and structure use different vocabularies")
    cand0 = s.code_bits(ax.point)
    k = ax.k
    if k == 0:
        return cand0 != 0
    domains = [s.code_bits(slot) for slot in ax.slots]
    narrow = [s.link_rows(option) for option in ax.dirs[:-1]]
    # cover[z]: the points y with which z realises the last slot's link,
    # read from z's side with each pair of bits swapped; z never covers itself
    cover = s.link_rows(tuple((from_new, to_new) for to_new, from_new in ax.dirs[-1]))

    def rec(i: int, used: int, cand: int) -> bool:
        todo = domains[i] & ~used
        if i == k - 1:
            # every unused base point needs an unused candidate covering it
            pool = cand & ~used
            while todo:
                if not pool:
                    return False
                z = pool & -pool
                pool ^= z
                todo &= ~cover[z.bit_length() - 1] | z
            return True
        row = narrow[i]
        while todo:
            bit = todo & -todo
            todo ^= bit
            if not rec(i + 1, used | bit, cand & row[bit.bit_length() - 1]):
                return False
        return True

    return rec(0, 0, cand0)


# ---------------------------------------------------------------------------
# sampling


_BYTES = bytes(range(256))
_SHIFTED = [bytes(x >> s for x in _BYTES) for s in range(9)]    # x -> x >> s


def _randrange_batch(rng: random.Random, bounds: Sequence[int]) -> tuple[Sequence[int], int]:
    """The draws of `[rng.randrange(b) for b in bounds]`, leaving rng in
    the same state, as (values, width): width is the widest bound's bit
    length, and draw i is `values[i] >> (width - bounds[i].bit_length())`.

    `randrange(b)` reads the top `b.bit_length()` bits of one 32-bit word
    per try and tries again while they read b or more.  For b below 256
    that keeps exactly the words whose top byte is below the limit
    `b << (8 - b.bit_length())`, which is 128 for every power of two.
    When every bound has one limit, the words kept do not depend on the
    bounds: a batch takes m words, m the draws still to make, so never
    one too many (`getrandbits(32 * m)` returns them least significant
    first), and drops the top bytes at or above the limit and shifts the
    rest down to width bits in one `translate`.  Other bounds go through
    `randrange` itself."""
    distinct = set(_BYTES.translate(None, _BYTES.translate(None, bounds))
                   if type(bounds) is bytes else bounds)   # bytes: the values not absent
    width = max(distinct, default=0).bit_length()
    limits = {b << (8 - b.bit_length()) if 0 < b < 256 else None for b in distinct}
    if len(limits) != 1 or None in limits:
        return [rng.randrange(b) << width - b.bit_length() for b in bounds], width
    shift, rejected = _SHIFTED[8 - width], _BYTES[limits.pop():]
    values = b""
    while len(values) < len(bounds):
        m = len(bounds) - len(values)
        values += rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4].translate(shift, rejected)
    return values, width


def _through(table: Sequence[int], seq: Sequence[int]) -> Sequence[int]:
    """`table[x]` for each x of seq: a `translate` if both fit bytes, else a list."""
    if type(seq) is bytes and len(table) <= 256 and max(table, default=0) < 256:
        return seq.translate(bytes(table).ljust(256, b"\0"))
    return list(map(table.__getitem__, seq))


# a pair's bits in one binary symbol, 2 * (u -> v) + (v -> u), to one
# direction's digit: the first bit, or the second
_FIRST = bytes.maketrans(b"\0\1\2\3", b"0011")
_SECOND = bytes.maketrans(b"\0\1\2\3", b"0101")


def sample_uniform(p2: P2Spec, n: int, seed: int) -> FinStructure:
    """One uniform labelled sample on n points: point codes uniform over
    the permitted ones, pair links uniform over the permitted options
    for the endpoints, all independent.  The draws are those of one
    `randrange` per point and then per pair u < v, in order.  Per pair, in
    draw order, the code-index pair p, its bound and its key `p << width | y`
    (y from `_randrange_batch`) are bytes made by `translate`s and one
    integer OR; one table per binary symbol maps keys to the drawn option's
    bits for the out- and in-rows.  What does not fit a byte takes `map`."""
    rng = random.Random(seed)
    vocab, codes = p2.vocab, p2.codes
    if not codes:
        raise AdequacyError("no permitted one-point types to sample from")
    k = len(codes)
    chosen, _ = _randrange_batch(rng, [k] * n)     # each point's code index
    # the options of code-index pair p = a * k + b sit from first[p] on, in one run
    links = [p2.links(c0, c1) for c0 in codes for c1 in codes]
    count = [len(options) for options in links]
    first = list(accumulate(count, initial=0))
    options = list(chain.from_iterable(links))
    ahead = [_through(range(k * a, k * a + k), chosen) for a in range(k)]   # pair index a * k + b
    pairs = [ahead[a][u + 1:] for u, a in enumerate(chosen)]
    pairs = b"".join(pairs) if k * k <= 256 else list(chain.from_iterable(pairs))
    bounds = _through(count, pairs)
    if 0 in bounds:
        raise AdequacyError("a pair of permitted point types admits no permitted link")
    ys, width = _randrange_batch(rng, bounds)
    if type(pairs) is type(ys) is bytes and k * k << width <= 256:   # no field overflows its bits
        key = (int.from_bytes(pairs, "little") << width
               | int.from_bytes(ys, "little")).to_bytes(len(ys), "little")
    else:
        key = list(map(or_, map(lshift, pairs, repeat(width)), ys))
    # per key p << width | y, the option it draws; len(options) where no draw can
    picks = [first[p] + r if r < c else len(options) for p, c in enumerate(count)
             for r in (y >> max(0, width - c.bit_length()) for y in range(1 << width))]
    point = [codes[a] for a in chosen]
    rows = []
    for j, (sym, symmetric) in enumerate(zip(vocab.binary_symbols(), p2.symmetric())):
        # grid[u * n + v] for u < v: the pair's bits in sym
        bits = [2 * option[j][0] + option[j][1] for option in options] + [0]
        drawn = _through([bits[i] for i in picks], key)
        grid = bytearray(n * n)
        start = 0
        for u in range(n):
            grid[u * n + u + 1:(u + 1) * n] = drawn[start:start + n - 1 - u]
            start += n - 1 - u
        loop_bit = vocab.code_bit(sym)
        out, inn = [], []
        # point u's out-row, one digit per point v: for v < u the second bit
        # of pair (v, u), column u of the grid; its loop; for v > u the first
        # bit of pair (u, v).  Reversed, so that digit v is bit v.  The in-row
        # swaps the bits.
        for u in range(n):
            after, before = grid[u * n + u + 1:(u + 1) * n], grid[u:u * n:n]
            loop = b"1" if point[u] & loop_bit else b"0"
            out.append(int((before.translate(_SECOND) + loop + after.translate(_FIRST))[::-1], 2))
            if not symmetric:
                inn.append(int((before.translate(_FIRST) + loop + after.translate(_SECOND))[::-1], 2))
        rows.append((out, out if symmetric else inn))
    return FinStructure._trusted(vocab, n, rows, point)


@dataclass
class ProbEstimate:
    """Sampled frequencies: per-axiom counts plus the joint count
    (trials on which every listed axiom held)."""
    n: int
    trials: int
    seed: int
    axioms: list[AxiomSpec]
    per_axiom: list[int]
    successes: int

    @property
    def point_estimate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def frequency(self, i: int) -> float:
        return self.per_axiom[i] / self.trials if self.trials else 0.0

    def interval(self, i: int) -> tuple[float, float]:
        return wilson_interval(self.per_axiom[i], self.trials)


def _axiom_list(ax) -> list[AxiomSpec]:
    if isinstance(ax, AxiomSpec):
        return [ax]
    return list(ax)


def estimate_probability(p2: P2Spec, ax, n: int, trials: int,
                         seed: int = 0) -> ProbEstimate:
    """Sampled frequency with which an axiom (or every axiom of a set,
    jointly and individually) holds on uniform n-point samples."""
    axioms = _axiom_list(ax)
    if trials <= 0:
        raise InputError("need a positive number of trials")
    per_axiom = [0] * len(axioms)
    joint = 0
    for t in range(trials):
        s = sample_uniform(p2, n, mix64(seed, 0x5A4B7E, n, t))
        held = [axiom_holds(s, a) for a in axioms]
        per_axiom = list(map(add, per_axiom, held))
        joint += all(held)
    return ProbEstimate(n, trials, seed, axioms, per_axiom, joint)


@dataclass
class ConvergenceReport:
    sizes: list[int]
    trials: int
    axioms: list[AxiomSpec]
    estimates: list[ProbEstimate]
    incompatible: list[int] = field(default_factory=list)
    non_monotonic: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """No incompatible axiom and no frequency drop between sizes
        beyond 95% interval overlap."""
        return not self.non_monotonic and not self.incompatible

    def frequency(self, size_index: int, axiom_index: int) -> float:
        return self.estimates[size_index].frequency(axiom_index)


def convergence_report(p2: P2Spec, ax, sizes, trials: int,
                       seed: int = 0) -> ConvergenceReport:
    """Frequencies across sizes, with flags for structurally impossible
    axioms and for drops that 95% Wilson intervals cannot explain."""
    axioms = _axiom_list(ax)
    sizes = sorted(set(int(x) for x in sizes))
    if not sizes or sizes[0] <= 0:
        raise InputError("sizes must be positive")
    estimates = [estimate_probability(p2, axioms, n, trials, seed) for n in sizes]
    incompatible = [i for i, ax in enumerate(axioms) if not axiom_compatible(p2, ax)]
    non_monotonic: dict[int, list[tuple[int, int]]] = {}
    for i in range(len(axioms)):
        wilson = [est.interval(i) for est in estimates]
        drops = [(sizes[a], sizes[b]) for a, b in combinations(range(len(sizes)), 2)
                 if wilson[a][0] > wilson[b][1]]
        if drops:
            non_monotonic[i] = drops
    return ConvergenceReport(sizes, trials, axioms, estimates,
                             incompatible, non_monotonic)
