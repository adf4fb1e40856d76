"""Finite relational structures over finite relational vocabularies.

Universes are always {0, ..., n-1}.  A structure holds its facts as point
codes and, per binary symbol, out- and in-rows of bits; its relation
tables, sets of index tuples, are decoded from these when read, unless a
symbol of arity above 2 makes it keep them.  Nothing is assumed about
symmetry or irreflexivity unless a caller builds it in.  A tuple's type
reads its points' codes and links, and only facts of arity above 2 by
position.  Structures are value objects: `==` is literal equality of
vocabulary, size, and facts, while `canonical_key` identifies structures
up to isomorphism: a backtracking search for the least encoding over bit
rows, whose ordered partitions a queue of splitter cells refines and
which the automorphisms it finds prune, so no external canonicalisation
dependency is needed.  `is_isomorphic` reads its witness off the
canonical orders of its two arguments.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from functools import cache, cached_property
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
    """A finite structure: a vocabulary, a size, and its facts.

    `FinStructure(vocab, size, tables)` is the one validator of outside
    tables: it checks them tuple by tuple, then holds the facts as
    `_trusted` does: the point codes and, per binary symbol, the out- and
    in-rows.  Library code that builds a binary structure from valid
    indices (the sampler, `with_point`, `undirected_graph`, `build_double`)
    hands those over to `_trusted` directly.  Over a binary vocabulary
    `tables` is decoded from them on first read; a vocabulary with a
    symbol of arity above 2 keeps its tables beside them."""

    __slots__ = ("vocab", "size", "_tables", "_hash", "_canon", "_bits", "_codes",
                 "_code_bits", "_binary_rows")

    def __init__(self, vocab: Vocabulary, size: int,
                 tables: dict[str, Iterable[tuple[int, ...]]] | None = None):
        size = int(size)
        if size < 0:
            raise InvalidElementError(f"size {size} is negative")
        clean: dict[str, frozenset[tuple[int, ...]]] = {}
        tables = dict(tables or {})
        for name in tables:
            if name not in vocab:
                raise VocabularyError(f"table for unknown symbol {name!r}")
        for name, arity in vocab.symbols:
            rows = set()
            for t in tables.get(name, ()):
                t = tuple(int(x) for x in t)
                if len(t) != arity:
                    raise InvalidElementError(
                        f"{name!r} expects arity {arity}, got tuple {t}")
                if any(x < 0 or x >= size for x in t):
                    raise InvalidElementError(
                        f"tuple {t} for {name!r} is outside universe 0..{size - 1}")
                rows.add(t)
            clean[name] = frozenset(rows)
        # the facts as `_setup` holds them: each point's code, and per
        # binary symbol the out- and in-rows
        codes = [0] * size
        bit_rows = []
        for name, arity in vocab.symbols:
            if arity == 2:
                out, inn = [0] * size, [0] * size
                for u, v in clean[name]:
                    out[u] |= 1 << v
                    inn[v] |= 1 << u
                bit_rows.append((out, inn))
                loops = [v for v in range(size) if out[v] >> v & 1]
            else:
                loops = [t[0] for t in clean[name] if t.count(t[0]) == arity]
            for v in loops:
                codes[v] |= vocab.code_bit(name)
        self._setup(vocab, size, bit_rows, codes)
        if not vocab.binary:
            self._tables = clean

    @classmethod
    def _trusted(cls, vocab: Vocabulary, size: int,
                 rows: Iterable[tuple[Sequence[int], Sequence[int]]],
                 codes: Sequence[int]) -> "FinStructure":
        """A binary structure that library code builds from valid indices
        (the sampler, `with_point`, `undirected_graph`, `build_double`),
        made without `__init__`'s checks from what `_setup` takes.  The
        tables are decoded on first read."""
        s = cls.__new__(cls)
        s._setup(vocab, size, rows, codes)
        return s

    def _setup(self, vocab: Vocabulary, size: int,
               rows: Iterable[tuple[Sequence[int], Sequence[int]]], codes: Sequence[int]) -> None:
        """Hold `rows`, the out- and in-rows of each binary symbol in
        vocabulary order, loops included, and `codes`, what `point_codes`
        reads.  Everything is copied, so the caller may go on growing its
        own state.  No tables are held yet."""
        self.vocab = vocab
        self.size = size
        self._tables: dict[str, frozenset[tuple[int, ...]]] | None = None
        self._hash: int | None = None
        self._canon: tuple[TypeId, tuple[int, ...]] | None = None  # key, order
        # out- and in-rows keyed (symbol, converse); link rows keyed (option,)
        self._bits: dict[tuple, tuple[int, ...]] = {}
        for sym, (out, inn) in zip(vocab.binary_symbols(), rows):
            out_t = tuple(out)
            inn_t = out_t if inn is out else tuple(inn)
            self._bits[sym, False] = out_t
            self._bits[sym, True] = out_t if inn_t == out_t else inn_t   # symmetric: one shared tuple
        self._binary_rows = tuple(self._bits[sym, False] for sym in vocab.binary_symbols())
        self._codes = tuple(codes)
        self._code_bits: dict[int, int] = {}
        for v, c in enumerate(self._codes):
            self._code_bits[c] = self._code_bits.get(c, 0) | 1 << v

    @property
    def tables(self) -> dict[str, frozenset[tuple[int, ...]]]:
        """One frozenset of index tuples per symbol."""
        if self._tables is None:
            self._tables = self._decode()
        return self._tables

    def _decode(self) -> dict[str, frozenset[tuple[int, ...]]]:
        """The tables of a binary structure, from its codes and out-rows."""
        tables = {}
        for name, arity in self.vocab.symbols:
            if arity == 1:
                bit = self.vocab.code_bit(name)
                tables[name] = frozenset((v,) for v, c in enumerate(self._codes) if c & bit)
            else:
                tables[name] = frozenset(chain.from_iterable(
                    zip(repeat(v), _points(row)) for v, row in enumerate(self._bits[name, False])))
        return tables

    def out_bits(self, symbol: str) -> tuple[int, ...]:
        """Row bitmasks for a binary symbol: bit u of row v set iff (v, u) holds."""
        return self._bits[self._binary_symbol(symbol), False]

    def in_bits(self, symbol: str) -> tuple[int, ...]:
        """Row bitmasks of the converse: bit u of row v set iff (u, v) holds.
        For a symmetric relation this is the out_bits tuple itself."""
        return self._bits[self._binary_symbol(symbol), True]

    def _binary_symbol(self, symbol: str) -> str:
        if self.vocab.arity(symbol) != 2:
            raise VocabularyError(f"{symbol!r} is not binary")
        return symbol

    def link(self, u: int, v: int) -> tuple[tuple[int, int], ...]:
        """The link option from u to v, in `P2Spec.links` format: per
        binary symbol, the (u -> v, v -> u) bits as a pair."""
        return tuple([(out[u] >> v & 1, out[v] >> u & 1) for out in self._binary_rows])

    def link_rows(self, option) -> tuple[int, ...]:
        """Per point x, the bitmask of the points c with link(x, c) == option
        (c = x included).  An option outside `Vocabulary.link_options`
        raises InvalidElementError."""
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
        return self._code_bits.get(code, 0)

    def _content(self) -> tuple:
        """What `==` and `hash` read: for a binary vocabulary the point
        codes and each binary symbol's out-rows; else the tables."""
        if self.vocab.binary:
            return self._codes, self._binary_rows
        return tuple(self._tables[n] for n in self.vocab.names())

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
_SMALL_POINTS = tuple(tuple(v for v in range(10) if m >> v & 1) for m in range(1024))


def _points(mask: int):
    """The points of a mask, lowest first (read from a table below 2^10)."""
    if mask < 1024:
        return _SMALL_POINTS[mask]
    return compress(count(), bin(mask)[:1:-1].encode().translate(_DIGIT))


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
                raise InvalidElementError(f"map is not strong on symbol {name!r}")

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
    """The raw payload behind `tuple_type`: the length, the equality
    pattern, then over the distinct points in first-occurrence order
    their point codes, the `FinStructure.link` of each pair of them and,
    per symbol of arity above 2, which position tuples over them are
    facts."""
    first: dict[int, int] = {}
    eq = tuple(first.setdefault(v, i) for i, v in enumerate(tup))
    pts = tuple(first)
    links = tuple(s.link(u, v) for i, u in enumerate(pts) for v in pts[i + 1:])
    wide = tuple(tuple(pos for pos in product(range(len(pts)), repeat=arity)
                       if tuple(pts[p] for p in pos) in s.tables[name])
                 for name, arity in s.vocab.symbols if arity > 2)
    return (len(tup), eq, tuple(map(point_codes(s).__getitem__, pts)), links, wide)


def tuple_type(s: FinStructure, tup: Sequence[int]) -> TypeId:
    """Quantifier-free type of an ordered tuple (repeats allowed).

    Over a binary vocabulary a tuple's facts are its points' codes and the
    links between them, so the payload reads only those besides the
    equality pattern; facts of higher arity are read position by position.
    The tuple's own order pins any candidate isomorphism, so this encoding
    is canonical without search.
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
    return FinStructure._trusted(vocab, w + 1, rows, point_codes(s) + (code,))


def point_codes(s: FinStructure) -> tuple[int, ...]:
    """The one-point type of each point as an int: each symbol holding on
    (v, ..., v) sets its `Vocabulary.code_bit`.  Two points have equal
    codes exactly when their one-point induced substructures are equal,
    and codes sort as the tuples of those facts."""
    return s._codes


# ---------------------------------------------------------------------------
# embeddings and isomorphism


def find_embeddings(a: FinStructure, b: FinStructure,
                    limit: int | None = None) -> list[Embedding]:
    """All strong injective maps a -> b, lexicographically by map tuple.

    Point i's next image is the lowest bit of its candidate mask: b's
    points with i's code, less the images used, ANDed for each placed j
    with the row of j's image in `b.link_rows(a.link(j, i))` (Ullmann's
    refinement on bit rows).  Only the facts of symbols of arity above 2
    are checked position by position."""
    if a.vocab != b.vocab:
        raise VocabularyError("embedding endpoints use different vocabularies")
    if limit is not None and limit <= 0:
        return []
    if a.size == 0:
        return [Embedding(a, b, (), check=False)]
    # more points of some code than b has: no search
    if any(m.bit_count() > b.code_bits(c).bit_count() for c, m in a._code_bits.items()):
        return []
    codes = point_codes(a)
    out: list[Embedding] = []
    mapping: list[int] = []
    used = 0
    # per level i: b's rows of a.link(j, i) for each j < i; per position tuple
    # over 0..i holding i of a symbol of arity above 2, a's fact?, b's table
    rows: list[list[tuple[int, ...]]] = []
    checks: list[list[tuple[tuple[int, ...], bool, frozenset]]] = []

    def candidates(i: int) -> int:
        if i == len(rows):
            rows.append([b.link_rows(a.link(j, i)) for j in range(i)])
            checks.append([(pos, pos in a.tables[name], b.tables[name])
                           for name, arity in a.vocab.symbols if arity > 2
                           for j in range(arity) for head in product(range(i), repeat=j)
                           for tail in product(range(i + 1), repeat=arity - 1 - j)
                           for pos in (head + (i,) + tail,)])
        mask = b.code_bits(codes[i]) & ~used
        for w, row in zip(mapping, rows[i]):
            mask &= row[w]
        return mask

    # depth-first over an explicit stack of per-level candidate masks,
    # so the search depth is not bounded by Python's recursion limit
    stack = [candidates(0)]
    while stack:
        i = len(stack) - 1
        if len(mapping) > i:
            used ^= 1 << mapping.pop()
        mask = stack[i]
        while mask:
            low = mask & -mask
            mask ^= low
            mapping.append(low.bit_length() - 1)
            if all((tuple(mapping[x] for x in pos) in tb) == fact for pos, fact, tb in checks[i]):
                break
            mapping.pop()
        else:
            stack.pop()
            continue
        stack[i] = mask
        used |= low
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
    mapping = [y for _x, y in sorted(zip(a._canon[1], b._canon[1]))]
    return Embedding(a, b, mapping, check=True)


# ---------------------------------------------------------------------------
# canonical forms: splitter refinement + backtracking minimum encoding


def _refine(pairs, cells: list[int], cell_of: list[int], queue: list[int]) -> None:
    """Refine an ordered partition in place until no cell splits.

    `cells[k]` is the point mask of the cell that starts at index k (0
    where none starts) and `cell_of[v]` the start of v's cell, which is
    v's colour.  `pairs` holds (row, converse row) pairs of bit rows and
    `queue` the starts of the splitter cells.  A splitter S re-profiles
    only the points that meet it, the OR of its converse rows: v's profile
    counts, per row r, the points of S in r[v].  A touched cell splits
    into fragments in profile order, and each fragment but the first
    largest joins the queue, all of them if the cell is still queued:
    counts into the one left out are the cell's counts less the others'
    (Hopcroft's trick; Berkholz, Bonsma and Grohe, arXiv:1509.08251)."""
    queued = set(queue)
    splits = len(cells) - sum(map(bool, cells))     # left before every cell is one point
    while queue and splits:
        k = queue.pop()
        queued.discard(k)
        S = cells[k]
        touched = 0
        for _row, conv in pairs:
            for u in _points(S):
                touched |= conv[u]
        hit: dict[int, int] = {}
        for v in _points(touched):
            hit[cell_of[v]] = hit.get(cell_of[v], 0) | 1 << v
        for c in sorted(hit):
            cell = cells[c]
            groups: dict[tuple, int] = {}
            for v in _points(hit[c]):
                key = tuple([(row[v] & S).bit_count() for row, _conv in pairs])
                groups[key] = groups.get(key, 0) | 1 << v
            parts = [m for m in [cell & ~hit[c], *map(groups.get, sorted(groups))] if m]
            if len(parts) == 1:
                continue
            splits -= len(parts) - 1
            sizes = [m.bit_count() for m in parts]
            skip = -1 if c in queued else sizes.index(max(sizes))
            start = c
            for j, m in enumerate(parts):
                cells[start] = m
                if start != c:
                    for v in _points(m):
                        cell_of[v] = start
                if j != skip and start not in queued:
                    queue.append(start)
                    queued.add(start)
                start += sizes[j]


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

    A node is an order of some points and an ordered partition
    (`_refine`); its children place one more point, taken from the first
    cell with a point left unplaced.  A point's row is its point code, the
    masks of the placed points' positions in its out- and in-row of each
    binary symbol, and the sorted position tuples of its facts of higher
    arity over placed points.  Subtrees whose rows already exceed the best
    are cut.  A leaf whose rows equal the best yields an automorphism (best
    order to this order); the search then returns to where the two orders
    part, and at each node explores one child per orbit of the
    automorphisms found that fix the node's points.  Over a vocabulary of
    arity at most 2 the cell's first point a is also joined to each twin
    v, whose rows are a's with bits a and v swapped, so that (a v) is an
    automorphism.

    Refinement reads per binary symbol its out-rows, then its in-rows
    unless they are equal, and per symbol of higher arity the rows (j, l):
    bit u of row v is set when a fact has v at position j and u at l.  The
    root refines the point codes' cells, in code order, all of them
    splitters.  A child splits its point off the end of its cell and
    refines from that point alone, unless the cell is all twins: then no
    other cell splits, and the child keeps its parent's partition.  The
    nodes are generators on an explicit stack, so no input is too deep
    for Python's recursion limit.
    """
    n = s.size
    if n == 0:
        return (), ()
    codes = point_codes(s)
    # per binary symbol (out-rows, in-rows), one tuple when symmetric
    links = [(s.out_bits(sym), s.in_bits(sym)) for sym in s.vocab.binary_symbols()]
    # row -> converse rows; equal rows have equal converses, so one entry serves
    converse = {r: c for out, inn in links for r, c in ((out, inn), (inn, out))}
    wide = [(name, arity) for name, arity in s.vocab.symbols if arity > 2]
    inc: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)] if wide else []
    for wi, (name, arity) in enumerate(wide):
        grid = {(j, l): [0] * n for j in range(arity) for l in range(arity) if j != l}
        for t in s.tables[name]:
            for v in set(t):
                inc[v].append((wi, t))
            for (j, l), row in grid.items():
                row[t[j]] |= 1 << t[l]
        converse.update({tuple(row): tuple(grid[l, j]) for (j, l), row in grid.items()})
    pairs = list(converse.items())
    bit_at = [0] * n                # 1 << v's position in `order`
    placed = 0                      # mask of the points in `order`
    order: list[int] = []
    rows: list = []
    best_rows: list | None = None
    best_order: list[int] = []
    autos: list[list[int]] = []

    def twins(a: int, v: int) -> bool:
        swap = 1 << a | 1 << v
        return all((r[a] ^ swap if (r[a] >> a ^ r[a] >> v) & 1 else r[a]) == r[v]
                   for r in converse)

    def row_for(v: int) -> tuple:
        at = bit_at.__getitem__
        row = [codes[v]]
        for out, inn in links:
            m = sum(map(at, _points(out[v] & placed)))
            row += (m, m if inn is out else sum(map(at, _points(inn[v] & placed))))
        if wide:
            hits: list[list[tuple[int, ...]]] = [[] for _ in wide]
            for wi, t in inc[v]:
                if all(placed >> x & 1 for x in t):
                    hits[wi].append(tuple(bit_at[x].bit_length() - 1 for x in t))
            row += [tuple(sorted(h)) for h in hits]
        return tuple(row)

    def node(cells: list[int], cell_of: list[int], first: int, better: bool):
        """Explore below `order`, yielding each child's arguments and being
        sent the depth its subtree resumes at; return the depth to resume
        at.  No cell that starts before `first` has a point left unplaced."""
        nonlocal best_rows, best_order, placed
        i = len(order)
        if i == n:
            if best_rows is None or better:
                best_rows, best_order = list(rows), list(order)
                return n
            # the automorphism sends best_order[k] to order[k]; resume where they part
            autos.append([y for _x, y in sorted(zip(best_order, order))])
            return next(j for j, (x, y) in enumerate(zip(best_order, order)) if x != y)
        while not cells[first] & ~placed:
            first += 1
        cell = list(_points(cells[first] & ~placed))
        # join each twin of cell[0] to it: their transposition is an automorphism
        root = {v: cell[0] if v != cell[0] and not wide and twins(cell[0], v) else v
                for v in cell}
        twin_class = all(root[v] == cell[0] for v in cell)
        last = first + cells[first].bit_count() - 1
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
            bit_at[v] = 1 << i
            placed |= 1 << v
            row = row_for(v)
            sub_better = better
            if not better and best_rows is not None:
                if row > best_rows[i]:
                    placed &= ~(1 << v)
                    continue
                sub_better = row < best_rows[i]
            order.append(v)
            rows.append(row)
            child = cells, cell_of
            if not twin_class:
                child = list(cells), list(cell_of)
                child[0][first] &= ~(1 << v)
                child[0][last], child[1][v] = 1 << v, last
                _refine(pairs, *child, [last])
            before = best_rows
            back = yield (*child, first, sub_better)
            order.pop()
            rows.pop()
            placed &= ~(1 << v)
            if best_rows is not before:
                better = False
            if back < i:
                return back
        return n

    # the root cells are the point codes' classes, in code order
    first_at = {c: k for k, c in reversed(list(enumerate(sorted(codes))))}
    cell_of = [first_at[c] for c in codes]
    cells = [0] * n
    for v, k in enumerate(cell_of):
        cells[k] |= 1 << v
    _refine(pairs, cells, cell_of, [k for k in range(n) if cells[k]])
    stack = [node(cells, cell_of, 0, False)]
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


@cache     # built once, not per graph that `undirected_graph` makes
def graph_vocabulary() -> Vocabulary:
    return Vocabulary([("adj", 2)])


def undirected_graph(size: int, edges: Iterable[tuple[int, int]]) -> FinStructure:
    """A loop-free symmetric binary structure from an edge list: endpoints
    read as ints, checked in `__init__`'s wording, one shared row list."""
    size = int(size)
    if size < 0:
        raise InvalidElementError(f"size {size} is negative")
    rows = [0] * size
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise InvalidElementError(f"loop edge at {u}")
        if not (0 <= u < size and 0 <= v < size):
            raise InvalidElementError(f"tuple {(u, v)} for 'adj' is outside universe 0..{size - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return FinStructure._trusted(graph_vocabulary(), size, [(rows, rows)], [0] * size)
