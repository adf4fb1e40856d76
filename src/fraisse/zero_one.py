"""Extension axioms and sampling experiments on permitted structures.

An extension axiom says: for every ordered tuple of k distinct points
whose point codes match the axiom's base slots, some further point has
the axiom's point code and realises the prescribed link with each of
them.  Axioms use the oracle's encoding (`generic.ExtensionType`): a
point is its code (`structures.point_codes`) and a link is a
`P2Spec.links` option, so only binary vocabularies have axioms.  One
evaluator reads every axiom on row bitmasks.  Sampling draws structures
uniformly in the labelled sense: each point's code uniform over the
permitted ones, each unordered pair's cross links uniform over the
permitted options for the chosen endpoint codes, all independently."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from math import sqrt
from typing import Sequence

from .amalgamation import P2Spec
from .errors import AdequacyError, InputError, ParseError, VocabularyError
from .generic import mix64
from .structures import FinStructure, Vocabulary, add_links, add_point

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


_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
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
        nbin = len(vocab.binary_symbols())
        for option in self.dirs:
            if len(option) != nbin or not all(pair in _PAIRS for pair in option):
                raise InputError(f"link option {option} needs one (0/1, 0/1) pair "
                                 "per binary symbol")
        top = 1 << len(vocab.symbols)
        for code in self.slots + (point,):
            if not 0 <= code < top:
                raise InputError(f"point code {code} is not in 0..{top - 1}")
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
            marks = _mark_tokens(vocab, slot)
            toks = [sym + _ARROWS[pair]
                    for sym, pair in zip(vocab.binary_symbols(), option) if any(pair)]
            segs.append((f"[{','.join(marks)}] " if marks else "")
                        + (",".join(toks) or "-"))
        text = f"ext {self.k}: " + " | ".join(segs) if segs else f"ext 0:"
        marks = _mark_tokens(vocab, self.point)
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
    m = len(vocab.symbols)
    pairs = iter(option)
    key = []
    for i, (_name, arity) in enumerate(vocab.symbols):
        on_base, on_new = slot >> (m - 1 - i) & 1, point >> (m - 1 - i) & 1
        facts = (on_base, *next(pairs), on_new) if arity == 2 else (on_base, on_new)
        key.append(tuple(j for j, f in enumerate(facts) if f))
    return tuple(key)


def _mark_tokens(vocab: Vocabulary, code: int) -> list[str]:
    """The marks of a point code: its unary symbols, then 'loop:sym' for
    each binary symbol holding on (v, v)."""
    m = len(vocab.symbols)
    held = [(name, arity) for i, (name, arity) in enumerate(vocab.symbols)
            if code >> (m - 1 - i) & 1]
    return ([name for name, arity in held if arity == 1]
            + [f"loop:{name}" for name, arity in held if arity == 2])


def _mark_code(vocab: Vocabulary, text: str) -> int:
    """The point code of a comma-separated list of marks."""
    names = vocab.names()
    code = 0
    for tok in (t.strip() for t in text.split(",") if t.strip()):
        name, arity = (tok[5:], 2) if tok.startswith("loop:") else (tok, 1)
        if name not in vocab or vocab.arity(name) != arity:
            raise ParseError(f"unknown mark {tok!r} in axiom")
        code |= 1 << (len(names) - 1 - names.index(name))
    return code


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
            slot, seg = _mark_code(vocab, marks), seg.strip()
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
    return AxiomSpec(vocab, slots, dirs, _mark_code(vocab, markpart))


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


def sample_uniform(p2: P2Spec, n: int, seed: int) -> FinStructure:
    """One uniform labelled sample on n points: point codes uniform over
    the permitted ones, pair links uniform over the permitted options
    for the endpoints, all independent."""
    rng = random.Random(seed)
    vocab = p2.vocab
    if vocab.rho > 2:
        raise VocabularyError("sampling needs a binary vocabulary")
    codes = p2.codes
    if not codes:
        raise AdequacyError("no permitted one-point types to sample from")
    tables: dict[str, set] = {name: set() for name, _ in vocab.symbols}

    def writer(option) -> tuple[tuple[set, ...], tuple[set, ...]]:
        """The tables that gain (u, v) and those that gain (v, u) when
        `add_links` writes `option` from u to v, read off a two-point probe."""
        probe = {name: set() for name in vocab.names()}
        add_links(probe, vocab, 0, 1, option)
        return (tuple(tables[name] for name, rows in probe.items() if (0, 1) in rows),
                tuple(tables[name] for name, rows in probe.items() if (1, 0) in rows))

    # per ordered pair of point codes, the writers of its permitted options
    links = [[tuple(map(writer, p2.links(c0, c1))) for c1 in codes] for c0 in codes]
    chosen = [rng.randrange(len(codes)) for _ in range(n)]
    for v, ci in enumerate(chosen):
        add_point(tables, vocab, v, codes[ci])
    for u in range(n):
        row = links[chosen[u]]
        for v in range(u + 1, n):
            options = row[chosen[v]]
            if not options:
                raise AdequacyError(
                    "a pair of permitted point types admits no permitted link")
            fwd, back = options[rng.randrange(len(options))]
            for tab in fwd:
                tab.add((u, v))
            for tab in back:
                tab.add((v, u))
    return FinStructure(vocab, n, tables)


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
        all_hold = True
        for i, a in enumerate(axioms):
            if axiom_holds(s, a):
                per_axiom[i] += 1
            else:
                all_hold = False
        if all_hold:
            joint += 1
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
        drops = []
        for a in range(len(sizes)):
            lo_a, _ = estimates[a].interval(i)
            for b in range(a + 1, len(sizes)):
                _, hi_b = estimates[b].interval(i)
                if lo_a > hi_b:
                    drops.append((sizes[a], sizes[b]))
        if drops:
            non_monotonic[i] = drops
    return ConvergenceReport(sizes, trials, axioms, estimates,
                             incompatible, non_monotonic)
