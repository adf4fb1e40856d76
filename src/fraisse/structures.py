"""Finite relational structures over finite relational vocabularies.

Universes are always {0, ..., n-1}.  Relation tables are sets of index
tuples; nothing is assumed about symmetry or irreflexivity unless a caller
builds it in.  Structures are value objects: `==` is literal equality of
vocabulary, size, and tables, while `canonical_key` identifies structures
up to isomorphism (colour refinement plus backtracking over a minimum
encoding, pruned by the automorphisms the search finds, so no external
graph-canonicalisation dependency is needed at the sizes this package
targets).  `is_isomorphic` reads its witness off the canonical orders of
its two arguments.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from functools import cached_property
from itertools import chain, compress, count, product, repeat
from typing import Iterable, Sequence

from .errors import InvalidElementError, ParseError, VocabularyError


class Vocabulary:
    """An ordered list of relation symbols with arities.  It defines the
    layout of its structures' point codes and link options."""

    __slots__ = ("symbols", "_arity", "_hash", "_names", "_binary", "_code_bit", "_rho",
                 "_options")

    def __init__(self, symbols: Iterable[tuple[str, int]]):
        syms = []
        seen = set()
        for name, arity in symbols:
            name = str(name)
            arity = int(arity)
            if not name or any(c.isspace() for c in name) or name.startswith("#"):
                raise VocabularyError(f"bad symbol name {name!r}")
            if name in seen:
                raise VocabularyError(f"duplicate symbol {name!r}")
            if arity < 1:
                raise VocabularyError(f"symbol {name!r} has arity {arity}; must be >= 1")
            seen.add(name)
            syms.append((name, arity))
        self.symbols: tuple[tuple[str, int], ...] = tuple(syms)
        self._arity = dict(self.symbols)
        self._hash = hash(self.symbols)
        self._names = tuple(name for name, _ in syms)
        self._binary = tuple(name for name, a in syms if a == 2)
        self._code_bit = {name: 1 << (len(syms) - 1 - i) for i, (name, _) in enumerate(syms)}
        self._rho = max((a for _, a in syms), default=0)
        self._options: tuple[tuple[tuple[int, int], ...], ...] | None = None

    def names(self) -> tuple[str, ...]:
        return self._names

    def arity(self, name: str) -> int:
        try:
            return self._arity[name]
        except KeyError:
            raise VocabularyError(f"unknown symbol {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arity

    @property
    def rho(self) -> int:
        """Maximum arity (0 for the empty vocabulary)."""
        return self._rho

    @property
    def binary(self) -> bool:
        """True when every symbol has arity at most 2."""
        return self.rho <= 2

    def binary_symbols(self) -> tuple[str, ...]:
        return self._binary

    def code_bit(self, name: str) -> int:
        """The bit that a point code (`point_codes`) sets when `name` holds
        on (v, ..., v): of the m symbols, the i-th sets bit m - 1 - i."""
        try:
            return self._code_bit[name]
        except KeyError:
            raise VocabularyError(f"unknown symbol {name!r}") from None

    def check_code(self, code: int, error: type[Exception]) -> None:
        """Raise `error` unless code is in 0..2^m - 1 for m symbols (`point_codes`)."""
        if not 0 <= code < 1 << len(self.symbols):
            raise error(f"point code {code} is not in 0..{(1 << len(self.symbols)) - 1}")

    def link_options(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Every link option (`FinStructure.link`), in `product` order:
        per binary symbol, a (u -> v, v -> u) pair of bits."""
        if self._options is None:
            self._options = tuple(product(product((0, 1), repeat=2), repeat=len(self._binary)))
        return self._options

    def mark_tokens(self, code: int) -> list[str]:
        """The marks of a point code: its unary symbols, then 'loop:sym'
        for each binary symbol holding on (v, v)."""
        held = [(name, arity) for name, arity in self.symbols if code & self._code_bit[name]]
        return ([name for name, arity in held if arity == 1]
                + [f"loop:{name}" for name, arity in held if arity == 2])

    def mark_code(self, text: str) -> int:
        """The point code of a comma-separated list of `mark_tokens`."""
        code = 0
        for tok in (t.strip() for t in text.split(",") if t.strip()):
            name, arity = (tok[5:], 2) if tok.startswith("loop:") else (tok, 1)
            if self._arity.get(name) != arity:
                raise ParseError(f"unknown mark {tok!r}")
            code |= self._code_bit[name]
        return code

    def extended(self, extra: Iterable[tuple[str, int]]) -> "Vocabulary":
        return Vocabulary(list(self.symbols) + list(extra))

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}/{a}" for n, a in self.symbols)
        return f"Vocabulary({inner})"


class FinStructure:
    """A finite structure: a vocabulary, a size, and one table per symbol.

    `FinStructure(vocab, size, tables)` checks and freezes the tables.
    Library code that builds a binary structure from valid indices (the
    sampler, `with_point`) goes through `_trusted` instead and hands over
    bit rows and point codes; such a structure decodes `tables` from them
    on first read."""

    __slots__ = ("vocab", "size", "_tables", "_hash", "_canon", "_bits", "_codes",
                 "_code_bits", "_binary_rows")

    def __init__(self, vocab: Vocabulary, size: int,
                 tables: dict[str, Iterable[tuple[int, ...]]] | None = None):
        size = int(size)
        if size < 0:
            raise InvalidElementError(f"size {size} is negative")
        self.vocab = vocab
        self.size = size
        clean: dict[str, frozenset[tuple[int, ...]]] = {}
        tables = dict(tables or {})
        for name in tables:
            if name not in vocab:
                raise VocabularyError(f"table for unknown symbol {name!r}")
        for name, arity in vocab.symbols:
            given = tables.get(name, ())
            if type(given) in (set, frozenset) and _clean_rows(given, arity, size):
                clean[name] = frozenset(given)
                continue
            rows = set()
            for t in given:
                t = tuple(int(x) for x in t)
                if len(t) != arity:
                    raise InvalidElementError(
                        f"{name!r} expects arity {arity}, got tuple {t}")
                if any(x < 0 or x >= size for x in t):
                    raise InvalidElementError(
                        f"tuple {t} for {name!r} is outside universe 0..{size - 1}")
                rows.add(t)
            clean[name] = frozenset(rows)
        self._tables = clean
        self._binary_rows: tuple[tuple[int, ...], ...] | None = None
        self._hash: int | None = None
        self._canon: tuple[TypeId, tuple[int, ...]] | None = None  # key, order
        # out- and in-rows keyed (symbol, converse); link rows keyed (option,)
        self._bits: dict[tuple, tuple[int, ...]] | None = None
        self._codes: tuple[int, ...] | None = None
        self._code_bits: dict[int, int] | None = None

    @classmethod
    def _trusted(cls, vocab: Vocabulary, size: int,
                 rows: Iterable[tuple[Sequence[int], Sequence[int]]],
                 codes: Sequence[int], code_bits: dict[int, int]) -> "FinStructure":
        """A binary structure that library code builds from valid indices,
        made without `__init__`'s checks: `rows` holds the out- and in-rows
        of each binary symbol, in vocabulary order, loops included; `codes`
        and `code_bits` what `point_codes` and `code_bits` read.  The tables
        are decoded from these on first read.  Everything is copied, so the
        caller may go on growing its own state."""
        s = cls.__new__(cls)
        s.vocab = vocab
        s.size = size
        s._tables = None
        s._hash = None
        s._canon = None
        s._bits = {}
        for sym, (out, inn) in zip(vocab.binary_symbols(), rows):
            out_t = tuple(out)
            inn_t = out_t if inn is out else tuple(inn)
            s._bits[sym, False] = out_t
            s._bits[sym, True] = out_t if inn_t == out_t else inn_t   # symmetric: one shared tuple
        s._binary_rows = tuple(s._bits[sym, False] for sym in vocab.binary_symbols())
        s._codes = tuple(codes)
        s._code_bits = dict(code_bits)
        return s

    @property
    def tables(self) -> dict[str, frozenset[tuple[int, ...]]]:
        """One frozenset of index tuples per symbol."""
        if self._tables is None:
            self._tables = self._decode()
        return self._tables

    def _decode(self) -> dict[str, frozenset[tuple[int, ...]]]:
        """The tables of a `_trusted` structure, from its codes and out-rows."""
        tables = {}
        for name, arity in self.vocab.symbols:
            if arity == 1:
                bit = self.vocab.code_bit(name)
                tables[name] = frozenset((v,) for v, c in enumerate(self._codes) if c & bit)
            else:
                # row v's binary digits, lowest first, select the points u of (v, u)
                tables[name] = frozenset(chain.from_iterable(
                    zip(repeat(v), compress(count(), bin(row)[:1:-1].encode().translate(_DIGIT)))
                    for v, row in enumerate(self._bits[name, False])))
        return tables

    def out_bits(self, symbol: str) -> tuple[int, ...]:
        """Row bitmasks for a binary symbol: bit u of row v set iff (v, u) holds."""
        return self._rows(symbol, False)

    def in_bits(self, symbol: str) -> tuple[int, ...]:
        """Row bitmasks of the converse: bit u of row v set iff (u, v) holds.
        For a symmetric relation this is the out_bits tuple itself."""
        return self._rows(symbol, True)

    def link(self, u: int, v: int) -> tuple[tuple[int, int], ...]:
        """The link option from u to v, in `P2Spec.links` format: per
        binary symbol, the (u -> v, v -> u) bits as a pair."""
        if self._binary_rows is None:
            self._binary_rows = tuple(self.out_bits(sym) for sym in self.vocab.binary_symbols())
        return tuple([(out[u] >> v & 1, out[v] >> u & 1) for out in self._binary_rows])

    def link_rows(self, option) -> tuple[int, ...]:
        """Per point x, the bitmask of the points c with link(x, c) == option
        (c = x included).  An option outside `Vocabulary.link_options`
        raises InvalidElementError."""
        if self._bits is None:
            self._bits = {}
        rows = self._bits.get((option,))
        if rows is None:
            if option not in self.vocab.link_options():
                raise InvalidElementError(f"{option!r} is not a link option of {self.vocab!r}")
            full = (1 << self.size) - 1
            masks = [full] * self.size
            for sym, (to_c, from_c) in zip(self.vocab.binary_symbols(), option):
                out, inn = self.out_bits(sym), self.in_bits(sym)
                masks = [m & (o if to_c else ~o) & (i if from_c else ~i)
                         for m, o, i in zip(masks, out, inn)]
            rows = self._bits[(option,)] = tuple(masks)
        return rows

    def code_bits(self, code: int) -> int:
        """Bitmask of the points whose code (`point_codes`) is `code`."""
        if self._code_bits is None:
            self._code_bits = {}
            for v, c in enumerate(point_codes(self)):
                self._code_bits[c] = self._code_bits.get(c, 0) | 1 << v
        return self._code_bits.get(code, 0)

    def _table_rows(self, symbol: str, converse: bool) -> tuple[int, ...]:
        """A binary symbol's out-rows (in-rows if converse), built from its table."""
        rows = [0] * self.size
        for f in self.tables[symbol]:
            rows[f[converse]] |= 1 << f[not converse]
        return tuple(rows)

    def _rows(self, symbol: str, converse: bool) -> tuple[int, ...]:
        if self._bits is None:
            self._bits = {}
        key = (symbol, converse)
        if key not in self._bits:
            if self.vocab.arity(symbol) != 2:
                raise VocabularyError(f"{symbol!r} is not binary")
            rows = self._table_rows(symbol, converse)
            if converse and rows == self.out_bits(symbol):
                rows = self.out_bits(symbol)        # symmetric: one shared tuple
            self._bits[key] = rows
        return self._bits[key]

    def _content(self) -> tuple:
        """What `==` and `hash` read: for a binary vocabulary the point
        codes and each binary symbol's out-rows, which a `_trusted`
        structure holds without decoding its tables; else the tables."""
        if self.vocab.binary:
            return point_codes(self), tuple(self.out_bits(sym) for sym in self.vocab.binary_symbols())
        return tuple(self.tables[n] for n in self.vocab.names())

    def __eq__(self, other) -> bool:
        return (isinstance(other, FinStructure) and self.vocab == other.vocab
                and self.size == other.size and self._content() == other._content())

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vocab, self.size, self._content()))
        return self._hash

    def __repr__(self) -> str:
        facts = sum(len(t) for t in self.tables.values())
        return f"FinStructure(size={self.size}, facts={facts}, vocab={self.vocab!r})"


_DIGIT = bytes.maketrans(b"01", b"\0\1")


def _clean_rows(rows, arity: int, size: int) -> bool:
    """Whether every row is a plain tuple of `arity` plain ints in 0..size-1,
    checked in C-level passes; else the per-tuple loop normalises or raises."""
    flat = chain.from_iterable
    if (set(map(type, rows)) != {tuple} or set(map(len, rows)) != {arity}
            or set(map(type, flat(rows))) != {int}):
        return False
    points = set(flat(rows))
    return min(points) >= 0 and max(points) < size


class Embedding:
    """An injective strong map between structures over one vocabulary."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source: FinStructure, target: FinStructure,
                 mapping: Sequence[int], check: bool = True):
        if source.vocab != target.vocab:
            raise VocabularyError("embedding endpoints use different vocabularies")
        m = tuple(int(x) for x in mapping)
        self.source = source
        self.target = target
        self.map = m
        if check:
            self._validate()

    def _validate(self) -> None:
        m = self.map
        if len(m) != self.source.size:
            raise InvalidElementError("embedding map has wrong length")
        if any(x < 0 or x >= self.target.size for x in m):
            raise InvalidElementError("embedding map leaves the target universe")
        if len(set(m)) != len(m):
            raise InvalidElementError("embedding map is not injective")
        image = set(m)
        for name, _arity in self.source.vocab.symbols:
            fwd = {tuple(m[x] for x in t) for t in self.source.tables[name]}
            back = {t for t in self.target.tables[name] if set(t) <= image}
            if fwd != back:
                raise InvalidElementError(
                    f"map is not strong on symbol {name!r}")

    def __call__(self, x: int) -> int:
        return self.map[x]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Embedding) and self.map == other.map
                and self.source == other.source and self.target == other.target)

    def __hash__(self) -> int:
        return hash((self.map, self.source, self.target))

    def __repr__(self) -> str:
        return f"Embedding({self.map})"


class TypeId(namedtuple("TypeId", "kind signature payload")):
    """An opaque, canonical, hashable identifier for a type or iso-class.

    Two TypeIds are equal exactly when their underlying objects are
    equivalent in the sense of the producing operation.  They sort by
    `sort_key`, so reports and censuses have a stable order.
    """

    @cached_property
    def sort_key(self) -> tuple[str, str, str]:
        return (self.kind, repr(self.signature), repr(self.payload))

    @cached_property
    def fingerprint(self) -> str:
        return hashlib.sha256(repr(tuple(self)).encode()).hexdigest()[:16]

    def __lt__(self, other) -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other) -> bool:
        return self.sort_key <= other.sort_key

    def __gt__(self, other) -> bool:
        return self.sort_key > other.sort_key

    def __ge__(self, other) -> bool:
        return self.sort_key >= other.sort_key

    def __repr__(self) -> str:
        return f"TypeId({self.kind}:{self.fingerprint})"


# ---------------------------------------------------------------------------
# basic operations


def induced_substructure(s: FinStructure, subset: Iterable[int]
                         ) -> tuple[FinStructure, tuple[int, ...]]:
    """Induced substructure on `subset`, re-indexed to 0..k-1.

    Returns (structure, points) where points[i] is the original element
    now called i; points is sorted ascending.
    """
    pts = sorted(set(int(x) for x in subset))
    if pts and (pts[0] < 0 or pts[-1] >= s.size):
        raise InvalidElementError(f"subset {pts} is not within universe 0..{s.size - 1}")
    index = {v: i for i, v in enumerate(pts)}
    keep = set(pts)
    tables = {}
    for name, _arity in s.vocab.symbols:
        tables[name] = {tuple(index[x] for x in t)
                        for t in s.tables[name] if set(t) <= keep}
    return FinStructure(s.vocab, len(pts), tables), tuple(pts)


def reduct_to(s: FinStructure, keep: Iterable[str]) -> FinStructure:
    """Forget every symbol not named in `keep` (order follows s.vocab)."""
    wanted = set(keep)
    for name in wanted:
        if name not in s.vocab:
            raise VocabularyError(f"cannot keep unknown symbol {name!r}")
    vocab = Vocabulary([(n, a) for n, a in s.vocab.symbols if n in wanted])
    return FinStructure(vocab, s.size, {n: s.tables[n] for n in vocab.names()})


def expand_with_marks(s: FinStructure, marks: Iterable[tuple[str, Iterable[int]]]
                      ) -> FinStructure:
    """Add fresh unary symbols, each holding on the given subset."""
    marks = [(str(name), sorted(set(int(v) for v in vs))) for name, vs in marks]
    for name, vs in marks:
        if name in s.vocab:
            raise VocabularyError(f"mark symbol {name!r} clashes with the vocabulary")
        if vs and (vs[0] < 0 or vs[-1] >= s.size):
            raise InvalidElementError(f"mark {name!r} covers elements outside the universe")
    vocab = s.vocab.extended((name, 1) for name, _ in marks)
    tables = dict(s.tables)
    for name, vs in marks:
        tables[name] = {(v,) for v in vs}
    return FinStructure(vocab, s.size, tables)


def tuple_payload(s: FinStructure, tup: tuple[int, ...]):
    """The raw payload behind `tuple_type`, read from s's tables."""
    n = len(tup)
    first: dict[int, int] = {}
    eq = tuple(first.setdefault(v, i) for i, v in enumerate(tup))
    rel = []
    tables = s.tables
    for name, arity in s.vocab.symbols:
        tab = tables[name]
        hits = tuple(pos for pos in product(range(n), repeat=arity)
                     if tuple(tup[p] for p in pos) in tab)
        rel.append(hits)
    return (n, eq, tuple(rel))


def tuple_type(s: FinStructure, tup: Sequence[int]) -> TypeId:
    """Quantifier-free type of an ordered tuple (repeats allowed).

    The payload records the equality pattern and, for each symbol, which
    position patterns are facts; the tuple's own order pins any candidate
    isomorphism, so this positional encoding is canonical without search.
    """
    tup = tuple(int(x) for x in tup)
    if any(x < 0 or x >= s.size for x in tup):
        raise InvalidElementError(f"tuple {tup} is not within universe 0..{s.size - 1}")
    return TypeId("tuple", s.vocab.symbols, tuple_payload(s, tup))


def with_point(s: FinStructure, code: int, links: Sequence) -> FinStructure:
    """s plus the point w = s.size, with point code `code` (`point_codes`)
    and `link(v, w) == links[v]` for each v < w; s is left unchanged."""
    vocab, w = s.vocab, s.size
    if not vocab.binary:
        raise VocabularyError("with_point needs a binary vocabulary")
    vocab.check_code(code, InvalidElementError)
    if len(links) != w:
        raise InvalidElementError(f"{len(links)} links given for a new point after {w} points")
    bit = 1 << w
    rows = []
    for j, sym in enumerate(vocab.binary_symbols()):
        out = list(s.out_bits(sym))
        # a symmetric symbol's rows stay one list while its new links are two-way
        inn = out if s.in_bits(sym) is s.out_bits(sym) else list(s.in_bits(sym))
        row_out = row_in = bit if code & vocab.code_bit(sym) else 0
        for v, option in enumerate(links):
            to_w, from_w = option[j]
            if to_w:
                out[v] |= bit
                row_in |= 1 << v
            if from_w:
                row_out |= 1 << v
                if inn is not out:
                    inn[v] |= bit
        if inn is out and row_in != row_out:        # a one-way link parts them
            out = [r | bit if row_in >> v & 1 else r for v, r in enumerate(s.out_bits(sym))]
            inn = [r | bit if row_out >> v & 1 else r for v, r in enumerate(s.in_bits(sym))]
        out.append(row_out)
        if inn is not out:
            inn.append(row_in)
        rows.append((out, inn))
    new_bits = s.code_bits(code) | bit      # fills s._code_bits
    return FinStructure._trusted(vocab, w + 1, rows, point_codes(s) + (code,),
                                 {**s._code_bits, code: new_bits})


def point_codes(s: FinStructure) -> tuple[int, ...]:
    """The one-point type of each point as an int: each symbol holding on
    (v, ..., v) sets its `Vocabulary.code_bit`.  Two points have equal
    codes exactly when their one-point induced substructures are equal,
    and codes sort as the tuples of those facts.  Computed once per
    structure."""
    if s._codes is None:
        codes = [0] * s.size
        for name, arity in s.vocab.symbols:
            tab, bit = s.tables[name], s.vocab.code_bit(name)
            codes = [c | bit if (v,) * arity in tab else c for v, c in enumerate(codes)]
        s._codes = tuple(codes)
    return s._codes


# ---------------------------------------------------------------------------
# embeddings and isomorphism


def _degree_vectors(s: FinStructure) -> list[tuple[int, ...]]:
    degs = [[0] * len(s.vocab.symbols) for _ in range(s.size)]
    for si, (name, _arity) in enumerate(s.vocab.symbols):
        for t in s.tables[name]:
            for v in set(t):
                degs[v][si] += 1
    return [tuple(d) for d in degs]


def find_embeddings(a: FinStructure, b: FinStructure,
                    limit: int | None = None) -> list[Embedding]:
    """All strong injective maps a -> b, lexicographically by map tuple."""
    if a.vocab != b.vocab:
        raise VocabularyError("embedding endpoints use different vocabularies")
    if limit is not None and limit <= 0:
        return []
    if a.size == 0:
        return [Embedding(a, b, (), check=False)]
    if a.size > b.size:
        return []
    deg_a = _degree_vectors(a)
    deg_b = _degree_vectors(b)
    symbols = a.vocab.symbols
    out: list[Embedding] = []
    mapping = [-1] * a.size
    used = [False] * b.size

    # level i -> (each position tuple over 0..i holding i, fact of a?, b's table)
    checks: dict[int, list[tuple[tuple[int, ...], bool, frozenset]]] = {}

    def consistent(i: int) -> bool:
        if i not in checks:
            checks[i] = [(pos, pos in a.tables[name], b.tables[name])
                         for name, arity in symbols for j in range(arity)
                         for head in product(range(i), repeat=j)
                         for tail in product(range(i + 1), repeat=arity - 1 - j)
                         for pos in (head + (i,) + tail,)]
        at = mapping.__getitem__
        return all((tuple(map(at, pos)) in tb) == fact for pos, fact, tb in checks[i])

    def candidates(i: int):
        need = deg_a[i]
        return (w for w in range(b.size) if not used[w]
                and all(dw >= k for dw, k in zip(deg_b[w], need)))

    # depth-first over an explicit stack of per-level candidate iterators,
    # so the search depth is not bounded by Python's recursion limit
    stack = [candidates(0)]
    while stack:
        i = len(stack) - 1
        if mapping[i] >= 0:
            used[mapping[i]] = False
            mapping[i] = -1
        for w in stack[i]:
            mapping[i] = w
            used[w] = True
            if consistent(i):
                break
            used[w] = False
            mapping[i] = -1
        else:
            stack.pop()
            continue
        if i + 1 < a.size:
            stack.append(candidates(i + 1))
            continue
        out.append(Embedding(a, b, tuple(mapping), check=False))
        if limit is not None and len(out) >= limit:
            break
    return out


def is_isomorphic(a: FinStructure, b: FinStructure) -> Embedding | None:
    """An isomorphism witness if one exists, else None.

    The witness sends each point of `a` to the point of `b` that holds the
    same place in b's canonical order as it holds in a's: equal keys mean
    both orders lay out the same labelled structure.
    """
    if a.vocab != b.vocab:
        raise VocabularyError("isomorphism endpoints use different vocabularies")
    if a.size != b.size or any(len(a.tables[name]) != len(b.tables[name])
                               for name in a.vocab.names()):
        return None
    if canonical_key(a) != canonical_key(b):
        return None
    mapping = [0] * a.size
    for x, y in zip(a._canon[1], b._canon[1]):
        mapping[x] = y
    return Embedding(a, b, mapping, check=True)


# ---------------------------------------------------------------------------
# canonical forms: colour refinement + backtracking minimum encoding


def _incidences(s: FinStructure) -> list[list[tuple[int, tuple[int, ...]]]]:
    inc: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(s.size)]
    for si, (name, _arity) in enumerate(s.vocab.symbols):
        for t in s.tables[name]:
            for v in set(t):
                inc[v].append((si, t))
    return inc


def _templates(s: FinStructure, inc: list[list[tuple[int, tuple[int, ...]]]]):
    """Each point's incidences as integer codes, built once per structure.

    Refinement describes an incidence (si, t) of v by (si, x), where x[j]
    is -1 where t[j] is v and the current colour of t[j] elsewhere.  The
    code of (si, x) is si * M**R + sum over j of (x[j] + n + 1) * M**(r-1-j),
    with r the arity, R the largest arity and M = 2n + 1.  Colours lie in
    [-n, n), so every digit lies in [0, M) and codes sort and compare
    exactly as the pairs do.  Per point this returns the codes that no
    colour changes, the (constant, weight, point) triples of incidences
    with one other point, and (constant, ((weight, point), ...)) for the
    rest.
    """
    n = s.size
    m = 2 * n + 1
    top = m ** s.vocab.rho
    fixed: list[list[int]] = [[] for _ in range(n)]
    single: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    multi: list[list[tuple[int, tuple[tuple[int, int], ...]]]] = [[] for _ in range(n)]
    weights = {arity: [m ** (arity - 1 - j) for j in range(arity)]
               for _name, arity in s.vocab.symbols}
    for v in range(n):
        for si, t in inc[v]:
            const = si * top
            var = []
            for w, u in zip(weights[len(t)], t):
                if u == v:
                    const += n * w
                else:
                    const += (n + 1) * w
                    var.append((w, u))
            if not var:
                fixed[v].append(const)
            elif len(var) == 1:
                single[v].append((const, *var[0]))
            else:
                multi[v].append((const, tuple(var)))
    return fixed, single, multi


def _refine_colors(colors: list[int], templates) -> list[int]:
    """Refine until no class splits; colours are ranks of (colour, sorted
    incidence codes).  A point alone in its class keeps an empty profile:
    its colour already sets its rank."""
    fixed, single, multi = templates
    n = len(colors)
    count = len(set(colors))
    while True:
        sizes: dict[int, int] = {}
        for c in colors:
            sizes[c] = sizes.get(c, 0) + 1
        sigs = []
        for v in range(n):
            c = colors[v]
            if sizes[c] == 1:
                sigs.append((c, ()))
                continue
            codes = fixed[v] + [k + w * colors[u] for k, w, u in single[v]]
            for k, ws in multi[v]:
                codes.append(k + sum(w * colors[u] for w, u in ws))
            codes.sort()
            sigs.append((c, tuple(codes)))
        ranks = {g: i for i, g in enumerate(sorted(set(sigs)))}
        if len(ranks) == count:
            return [ranks[g] for g in sigs]
        count = len(ranks)
        colors = [ranks[g] for g in sigs]


def _join_orbits(root: dict[int, int], g: list[int]) -> None:
    """Merge the orbits in `root` along the automorphism g.  Each point
    links towards the least point of its orbit, so a point is the least
    of its orbit exactly when it links to itself."""
    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for v in root:
        a, b = find(v), find(g[v])
        if a != b:
            root[max(a, b)] = min(a, b)


def _canonical_search(s: FinStructure) -> tuple[tuple, tuple[int, ...]]:
    """The least row sequence over the leaves of the search tree, and an
    order of the points whose rows it is.

    A node is an order of some points and a colouring.  Its children place
    one more point, taken from the least colour class left unplaced.  A
    point's row lists the facts it shares with points placed before it, by
    position.  Subtrees whose rows already exceed the best are cut.  A leaf
    whose rows equal the best yields an automorphism (best order to this
    order); the search then returns to where the two orders part, and at
    each node explores one child per orbit of the automorphisms found that
    fix the node's points.  Over a vocabulary of arity at most 2 the
    class's first point a is also joined to each twin v, a point for which
    the transposition (a v) is an automorphism: each of v's out- and
    in-rows is a's with bits a and v swapped (points of one class have one
    point code).

    A child refines its parent's colouring with only the new point
    individualised, unless the class is all twins (a single point
    included): then no other class splits, and the child keeps its
    parent's colouring.  Cut and skipped subtrees hold no smaller leaf.
    The nodes are generators on an explicit stack, so no input is too
    deep for Python's recursion limit.
    """
    n = s.size
    if n == 0:
        return (), ()
    inc = _incidences(s)
    templates = _templates(s, inc)
    nsym = len(s.vocab.symbols)
    codes = point_codes(s)
    binary = s.vocab.binary
    # each binary symbol's out- and in-rows, one tuple when it is symmetric;
    # rows that s does not hold yet are built here and not stored on s
    held = s._bits or {}
    bit_rows = [r for sym in s.vocab.binary_symbols() if binary
                for r in {held.get((sym, c)) or s._table_rows(sym, c) for c in (False, True)}]
    pos = [-1] * n
    order: list[int] = []
    rows: list = []
    best_rows: list | None = None
    best_order: list[int] = []
    autos: list[list[int]] = []

    def twins(a: int, v: int) -> bool:
        swap = 1 << a | 1 << v
        return all((r[a] ^ swap if (r[a] >> a ^ r[a] >> v) & 1 else r[a]) == r[v]
                   for r in bit_rows)

    def row_for(v: int):
        hits: list[list[tuple[int, ...]]] = [[] for _ in range(nsym)]
        at = pos.__getitem__
        for si, t in inc[v]:
            p = tuple(map(at, t))
            if -1 not in p:
                hits[si].append(p)
        return tuple(tuple(sorted(h)) for h in hits)

    def node(colors: list[int], better: bool):
        """Explore below `order`, yielding each child's (colouring, better)
        and being sent the depth its subtree resumes at; return the depth
        to resume at."""
        nonlocal best_rows, best_order
        i = len(order)
        if i == n:
            if best_rows is None or better:
                best_rows, best_order = list(rows), list(order)
                return n
            # the automorphism sends best_order[k] to order[k]; resume where they part
            autos.append([y for _x, y in sorted(zip(best_order, order))])
            return next(j for j, (x, y) in enumerate(zip(best_order, order)) if x != y)
        free = [v for v in range(n) if pos[v] < 0]
        target = min(map(colors.__getitem__, free))
        cell = [v for v in free if colors[v] == target]
        # join each twin of cell[0] to it: their transposition is an automorphism
        root = {v: cell[0] if v != cell[0] and binary and twins(cell[0], v) else v
                for v in cell}
        twin_class = all(root[v] == cell[0] for v in cell)
        used = 0
        for v in cell:
            if v != cell[0]:
                # automorphisms fixing `order` map the cell onto itself
                for g in autos[used:]:
                    if all(g[u] == u for u in order):
                        _join_orbits(root, g)
                used = len(autos)
                if root[v] != v:
                    continue
            pos[v] = i
            row = row_for(v)
            sub_better = better
            if not better and best_rows is not None:
                if row > best_rows[i]:
                    pos[v] = -1
                    continue
                sub_better = row < best_rows[i]
            order.append(v)
            rows.append(row)
            child = colors
            if not twin_class:
                child = list(colors)
                child[v] = -(i + 1)
                child = _refine_colors(child, templates)
            before = best_rows
            back = yield child, sub_better
            order.pop()
            rows.pop()
            pos[v] = -1
            if best_rows is not before:
                better = False
            if back < i:
                return back
        return n

    # one-point types, ranked as the tuples of their loop facts: keys depend on it
    ranks = {c: i for i, c in enumerate(sorted(set(codes)))}
    stack = [node(_refine_colors([ranks[c] for c in codes], templates), False)]
    back = None
    while stack:
        try:
            stack.append(node(*stack[-1].send(back)))
            back = None
        except StopIteration as done:
            stack.pop()
            back = done.value
    assert best_rows is not None
    return tuple(best_rows), tuple(best_order)


def canonical_key(s: FinStructure) -> TypeId:
    """A TypeId equal across structures exactly when they are isomorphic."""
    if s._canon is not None:
        return s._canon[0]
    rows, order = _canonical_search(s)
    key = TypeId("structure", s.vocab.symbols, (s.size, rows))
    s._canon = (key, order)
    return key


# ---------------------------------------------------------------------------
# convenience constructors


def graph_vocabulary() -> Vocabulary:
    return Vocabulary([("adj", 2)])


def undirected_graph(size: int, edges: Iterable[tuple[int, int]]) -> FinStructure:
    """A loop-free symmetric binary structure from an edge list."""
    tab = set()
    for u, v in edges:
        if u == v:
            raise InvalidElementError(f"loop edge at {u}")
        tab.add((u, v))
        tab.add((v, u))
    return FinStructure(graph_vocabulary(), size, {"adj": tab})
