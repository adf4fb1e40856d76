"""Extension axioms and sampling experiments on permitted structures.

An extension axiom says: for every ordered tuple of k distinct points
whose one-point types match the axiom's base slots, some further point
realizes the prescribed two-point link with each of them and has the
prescribed one-point type.  Sampling draws structures uniformly in the
labelled sense: each point's one-point type uniform over the permitted
ones, each unordered pair's cross links uniform over the permitted
options for the chosen endpoint types, all independently."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from math import sqrt

from .amalgamation import P2Spec, assemble_pair
from .errors import AdequacyError, InputError, ParseError, VocabularyError
from .generic import mix64
from .structures import FinStructure, Vocabulary, tuple_payload

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


class AxiomSpec:
    """One extension axiom: k base slots, each a two-point link structure
    read as (base point, new point), plus the new point's one-point type."""

    __slots__ = ("links", "point", "k", "point_payload", "link_payloads",
                 "base_payloads", "_sort_key")

    def __init__(self, links, point: FinStructure):
        self.links = tuple(links)
        self.point = point
        self.k = len(self.links)
        if point.size != 1:
            raise InputError("the new point's type must be a one-point structure")
        vocab = point.vocab
        self.point_payload = tuple_payload(vocab, point.tables, (0,))
        lps = []
        bps = []
        for link in self.links:
            if link.vocab != vocab:
                raise VocabularyError("axiom links use a different vocabulary")
            if link.size != 2:
                raise InputError("axiom links must be two-point structures")
            if tuple_payload(vocab, link.tables, (1,)) != self.point_payload:
                raise InputError("axiom link disagrees with the new point's type")
            lps.append(tuple_payload(vocab, link.tables, (0, 1)))
            bps.append(tuple_payload(vocab, link.tables, (0,)))
        self.link_payloads = tuple(lps)
        self.base_payloads = tuple(bps)
        self._sort_key = (self.k, self.point_payload, self.link_payloads)

    @property
    def vocab(self) -> Vocabulary:
        return self.point.vocab

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
        for link in self.links:
            toks = []
            for sym in vocab.binary_symbols():
                out_b = (0, 1) in link.tables[sym]
                in_b = (1, 0) in link.tables[sym]
                if out_b and in_b:
                    toks.append(sym)
                elif out_b:
                    toks.append(sym + ">")
                elif in_b:
                    toks.append(sym + "<")
            segs.append(",".join(toks) if toks else "-")
        text = f"ext {self.k}: " + " | ".join(segs) if segs else f"ext 0:"
        marks = [sym for sym in vocab.unary_symbols()
                 if (0,) in self.point.tables[sym]]
        marks += [f"loop:{sym}" for sym in vocab.binary_symbols()
                  if (0, 0) in self.point.tables[sym]]
        if marks:
            text += " @ " + ",".join(marks)
        return text

    def __repr__(self) -> str:
        return f"AxiomSpec({self.label()!r})"


def parse_axiom(vocab: Vocabulary, text: str) -> AxiomSpec:
    """Parse 'ext k: seg | ... | seg [@ marks]'.

    Each segment lists the links between one base point and the new
    point: comma-separated tokens 'sym' (both directions), 'sym>'
    (base to new), 'sym<' (new to base), or '-' for no link.  Base
    points carry no facts of their own in this format.  The optional
    '@' part lists unary symbols (and 'loop:sym') holding on the new
    point."""
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
    if k == 0 and segs in ([], [""]):
        segs = []
    if len(segs) != k:
        raise ParseError(f"axiom declares {k} slots but lists {len(segs)}")
    point_tables: dict[str, set] = {name: set() for name, _ in vocab.symbols}
    for tok in (t.strip() for t in markpart.split(",") if t.strip()):
        if tok.startswith("loop:"):
            sym = tok[5:]
            if sym not in vocab.binary_symbols():
                raise ParseError(f"unknown binary symbol in {tok!r}")
            point_tables[sym].add((0, 0))
        else:
            if tok not in vocab.unary_symbols():
                raise ParseError(f"unknown unary symbol {tok!r}")
            point_tables[tok].add((0,))
    point = FinStructure(vocab, 1, point_tables)
    links = []
    for seg in segs:
        tables: dict[str, set] = {name: set() for name, _ in vocab.symbols}
        for name in vocab.binary_symbols():
            tables[name].update((1, 1) for t in point_tables[name] if t == (0, 0))
        for name in vocab.unary_symbols():
            tables[name].update((1,) for t in point_tables[name])
        if seg != "-":
            for tok in (t.strip() for t in seg.split(",") if t.strip()):
                if tok.endswith(">"):
                    sym, dirs = tok[:-1], ((0, 1),)
                elif tok.endswith("<"):
                    sym, dirs = tok[:-1], ((1, 0),)
                else:
                    sym, dirs = tok, ((0, 1), (1, 0))
                if sym not in vocab.binary_symbols():
                    raise ParseError(f"unknown binary symbol {sym!r} in axiom")
                tables[sym].update(dirs)
        links.append(FinStructure(vocab, 2, tables))
    return AxiomSpec(links, point)


def full_extension_axioms(p2: P2Spec, k: int) -> list[AxiomSpec]:
    """Every extension axiom with k base slots over the permitted links."""
    if k < 0:
        raise InputError("axiom arity must be non-negative")
    axioms = []
    for point in p2.one_types():
        choices = []
        for t0 in p2.one_types():
            for dirs in p2.permitted_links(t0, point):
                choices.append(assemble_pair(t0, point, dirs))
        for combo in product(choices, repeat=k):
            axioms.append(AxiomSpec(combo, point))
    axioms.sort(key=AxiomSpec.sort_key)
    return axioms


def axiom_compatible(p2: P2Spec, ax: AxiomSpec) -> bool:
    """Whether the axiom's point and links are all permitted."""
    if not p2.is_member(ax.point):
        return False
    return all(p2.is_member(link) for link in ax.links)


# ---------------------------------------------------------------------------
# evaluation


def axiom_holds(s: FinStructure, ax: AxiomSpec) -> bool:
    """Evaluate one extension axiom on a structure."""
    if s.vocab != ax.vocab:
        raise VocabularyError("axiom and structure use different vocabularies")
    binaries = s.vocab.binary_symbols()
    if len(binaries) == 1 and len(s.vocab.symbols) == 1:
        return _axiom_holds_binary(s, ax, binaries[0])
    return _axiom_holds_generic(s, ax)


def _axiom_holds_binary(s: FinStructure, ax: AxiomSpec, sym: str) -> bool:
    n = s.size
    full = (1 << n) - 1
    rows_out = s.out_bits(sym)
    rows_in = s.in_bits(sym)
    loop_mask = 0
    for v, row in enumerate(rows_out):
        loop_mask |= row & (1 << v)
    cand0 = loop_mask if (0, 0) in ax.point.tables[sym] else full & ~loop_mask
    slots = []
    for link in ax.links:
        t = link.tables[sym]
        domain = loop_mask if (0, 0) in t else full & ~loop_mask
        slots.append((domain, (0, 1) in t, (1, 0) in t))
    k = ax.k
    if k == 0:
        return cand0 != 0
    # cover[z]: the points y other than z with which z realises the last
    # slot's link (y -> z iff out_b, z -> y iff in_b)
    _domain, out_b, in_b = slots[-1]
    cover = [(rows_in[z] if out_b else ~rows_in[z])
             & (rows_out[z] if in_b else ~rows_out[z]) & ~(1 << z) for z in range(n)]

    def rec(i: int, used: int, cand: int) -> bool:
        domain, out_b, in_b = slots[i]
        todo = domain & ~used
        if i == k - 1:
            # every unused base point needs an unused candidate covering it
            pool = cand & ~used
            while todo:
                if not pool:
                    return False
                z = pool & -pool
                pool ^= z
                todo &= ~cover[z.bit_length() - 1]
            return True
        while todo:
            bit = todo & -todo
            todo ^= bit
            x = bit.bit_length() - 1
            cx = (cand & (rows_out[x] if out_b else ~rows_out[x])
                  & (rows_in[x] if in_b else ~rows_in[x]))
            if not rec(i + 1, used | bit, cx):
                return False
        return True

    return rec(0, 0, cand0)


def _axiom_holds_generic(s: FinStructure, ax: AxiomSpec) -> bool:
    n = s.size
    vocab, tables = s.vocab, s.tables
    point_types = [tuple_payload(vocab, tables, (v,)) for v in range(n)]
    candidates = [c for c in range(n) if point_types[c] == ax.point_payload]
    slot_domains = [[x for x in range(n) if point_types[x] == bp]
                    for bp in ax.base_payloads]

    def rec(i: int, chosen: tuple[int, ...]) -> bool:
        if i == ax.k:
            for c in candidates:
                if c in chosen:
                    continue
                if all(tuple_payload(vocab, tables, (x, c)) == ax.link_payloads[j]
                       for j, x in enumerate(chosen)):
                    return True
            return False
        for x in slot_domains[i]:
            if x in chosen:
                continue
            if not rec(i + 1, chosen + (x,)):
                return False
        return True

    return rec(0, ())


# ---------------------------------------------------------------------------
# sampling


def sample_uniform(p2: P2Spec, n: int, seed: int) -> FinStructure:
    """One uniform labelled sample on n points: point types uniform over
    the permitted one-point types, pair links uniform over the permitted
    options for the endpoints, all independent."""
    rng = random.Random(seed)
    one_types = p2.one_types()
    if not one_types:
        raise AdequacyError("no permitted one-point types to sample from")
    vocab = p2.vocab
    binaries = vocab.binary_symbols()
    tables: dict[str, set] = {name: set() for name, _ in vocab.symbols}
    # per ordered pair of point types, each permitted option as the tables
    # that gain (u, v) and the tables that gain (v, u)
    links = [[tuple((tuple(tables[sym] for sym, (b01, _) in zip(binaries, dirs) if b01),
                     tuple(tables[sym] for sym, (_, b10) in zip(binaries, dirs) if b10))
                    for dirs in p2.permitted_links(t0, t1))
              for t1 in one_types] for t0 in one_types]
    chosen = [rng.randrange(len(one_types)) for _ in range(n)]
    for v, ti in enumerate(chosen):
        t = one_types[ti]
        for name, _arity in vocab.symbols:
            for row in t.tables[name]:
                tables[name].add(tuple(v for _ in row))
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

    joint_frequency = point_estimate

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
