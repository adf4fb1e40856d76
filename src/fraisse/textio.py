"""Plain-text formats for vocabularies, structures, permission sets and
typed universes.

The formats are line oriented.  `#` starts a comment, blank lines separate
nothing in particular.  A document holds blocks:

    vocab <name>
    rel <symbol> <arity>
    ...

    structure <name> over <vocabname>
    size <n>
    <symbol>: i1 i2; j1 j2; ...

    p2 <name> over <vocabname>
    bound <n>           # optional triple/size bound, default 4
    members <structure names...>

Tuples are space-separated element indices, `;` separates tuples, and a
symbol line may be repeated to extend its table.  A typed universe is a
document of its own: `typed-universe <name>`, `carrier <n>`, then per
arity an `arity <k>` line and one `i1 ... ik : <type key>` row for each
k-tuple.  Parse errors carry the offending line number; a block rejected
as a whole reports its header line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .amalgamation import P2Spec
from .errors import FraisseError, ParseError
from .reduct import TypedUniverse
from .structures import FinStructure, TypeId, Vocabulary


@dataclass
class Document:
    vocabs: dict[str, Vocabulary] = field(default_factory=dict)
    structures: dict[str, FinStructure] = field(default_factory=dict)
    p2specs: dict[str, P2Spec] = field(default_factory=dict)

    def sole_structure(self) -> FinStructure:
        if len(self.structures) != 1:
            raise ParseError(f"expected exactly one structure, found {len(self.structures)}")
        return next(iter(self.structures.values()))

    def sole_p2(self) -> P2Spec:
        if len(self.p2specs) != 1:
            raise ParseError(f"expected exactly one p2 block, found {len(self.p2specs)}")
        return next(iter(self.p2specs.values()))


def _lines(text: str):
    """(line number, line, words) for each line left non-blank once its
    comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, line.split()


def _int(word: str, what: str, lineno: int) -> int:
    try:
        return int(word)
    except ValueError:
        raise ParseError(f"{what} {word!r} is not an integer", lineno) from None


def _read_vocab(doc: Document, header: list[str], body: list, lineno: int) -> Vocabulary:
    rels = []
    for n, _, words in body:
        if words[0] != "rel" or len(words) != 3:
            raise ParseError("vocab blocks hold 'rel <symbol> <arity>' lines", n)
        rels.append((words[1], _int(words[2], "arity", n)))
    return Vocabulary(rels)


def _read_structure(doc: Document, header: list[str], body: list, lineno: int
                    ) -> FinStructure:
    vocab = doc.vocabs[header[3]]
    size = None
    tables: dict[str, set] = {}
    for n, line, words in body:
        if words[0] == "size":
            if size is not None:
                raise ParseError("size given twice", n)
            if len(words) != 2:
                raise ParseError("size line needs exactly one integer", n)
            size = _int(words[1], "size", n)
            continue
        sym, colon, rest = line.partition(":")
        if not colon:
            raise ParseError(f"unrecognised structure line {line!r}", n)
        sym = sym.strip()
        if sym not in vocab:
            raise ParseError(f"unknown symbol {sym!r}", n)
        if size is None:
            raise ParseError("tables must come after the size line", n)
        arity = vocab.arity(sym)
        rows = tables.setdefault(sym, set())
        for chunk in rest.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                t = tuple(int(w) for w in chunk.split())
            except ValueError:
                raise ParseError(f"tuple {chunk!r} holds a non-integer", n) from None
            if len(t) != arity:
                raise ParseError(f"tuple {chunk!r} has {len(t)} entries; {sym!r} needs {arity}", n)
            if any(x < 0 or x >= size for x in t):
                raise ParseError(f"tuple {chunk!r} leaves universe 0..{size - 1}", n)
            rows.add(t)
    if size is None:
        raise ParseError(f"structure {header[1]!r} has no size line", lineno)
    return FinStructure(vocab, size, tables)


def _read_p2(doc: Document, header: list[str], body: list, lineno: int) -> P2Spec:
    members: list[str] = []
    bound = 4
    for n, line, words in body:
        if words[0] == "members":
            members.extend(words[1:])
        elif words[0] == "bound":
            if len(words) != 2:
                raise ParseError("bound line needs exactly one integer", n)
            bound = _int(words[1], "bound", n)
        else:
            raise ParseError(f"unrecognised p2 line {line!r}", n)
    if not members:
        raise ParseError(f"p2 block {header[1]!r} lists no members", lineno)
    for nm in members:
        if nm not in doc.structures:
            raise ParseError(f"p2 member {nm!r} is not a structure above it", lineno)
    return P2Spec([doc.structures[nm] for nm in members], vocab=doc.vocabs[header[3]],
                  size_bound=bound)


# header word -> (what the block is called, Document field, reader)
_BLOCKS = {"vocab": ("vocab", "vocabs", _read_vocab),
           "structure": ("structure", "structures", _read_structure),
           "p2": ("p2 block", "p2specs", _read_p2)}


def parse_document(text: str) -> Document:
    """Group the lines under their block headers, then read the blocks in
    order; a block may name only blocks above it."""
    blocks: list[tuple[tuple, list]] = []
    for entry in _lines(text):
        if entry[2][0] in _BLOCKS:
            blocks.append((entry, []))
        elif blocks:
            blocks[-1][1].append(entry)
        else:
            raise ParseError(f"unrecognised top-level line {entry[1]!r}", entry[0])
    doc = Document()
    for (lineno, _, words), body in blocks:
        head = words[0]
        kind, field_name, read = _BLOCKS[head]
        if head == "vocab":
            if len(words) != 2:
                raise ParseError("vocab line needs exactly a name", lineno)
        elif len(words) != 4 or words[2] != "over":
            raise ParseError(f"{head} line must read '{head} <name> over <vocab>'", lineno)
        elif words[3] not in doc.vocabs:
            raise ParseError(f"unknown vocab {words[3]!r}", lineno)
        table = getattr(doc, field_name)
        if words[1] in table:
            raise ParseError(f"duplicate {kind} {words[1]!r}", lineno)
        try:
            table[words[1]] = read(doc, words, body, lineno)
        except ParseError:
            raise
        except FraisseError as e:   # the block as a whole is rejected
            raise ParseError(str(e), lineno) from None
    return doc


# ---------------------------------------------------------------------------
# typed universes


def save_typed_universe(u: TypedUniverse, name: str = "universe") -> str:
    """Serialize all type keys up to the universe's declared arity."""
    lines = [f"typed-universe {name}", f"carrier {u.size}"]
    for n in range(1, u.n_max + 1):
        lines.append(f"arity {n}")
        for tup in product(range(u.size), repeat=n):
            pts = " ".join(str(x) for x in tup)
            lines.append(f"{pts} : {u.type_of(tup).fingerprint}")
    return "\n".join(lines) + "\n"


def parse_typed_universe(text: str) -> TypedUniverse:
    """Rebuild a typed universe from its saved key table."""
    name = None
    size = None
    arity = None
    table: dict[tuple, str] = {}
    max_arity = 0
    for lineno, line, parts in _lines(text):
        if parts[0] == "typed-universe":
            if name is not None:
                raise ParseError("typed-universe given twice", lineno)
            if len(parts) != 2:
                raise ParseError("typed-universe wants a name", lineno)
            name = parts[1]
        elif parts[0] == "carrier":
            if size is not None:
                raise ParseError("carrier given twice", lineno)
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError("carrier wants a size", lineno)
            size = int(parts[1])
        elif parts[0] == "arity":
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError("arity wants a number", lineno)
            arity = int(parts[1])
            max_arity = max(max_arity, arity)
        else:
            if size is None or arity is None:
                raise ParseError("type rows need carrier and arity first", lineno)
            if ":" not in line:
                raise ParseError("expected 'points : key'", lineno)
            left, _, key = line.partition(":")
            try:
                tup = tuple(int(x) for x in left.split())
            except ValueError:
                raise ParseError("bad point list in type row", lineno) from None
            if len(tup) != arity:
                raise ParseError(f"row arity {len(tup)} != declared {arity}", lineno)
            if any(x < 0 or x >= size for x in tup):
                raise ParseError(f"row {tup} leaves the carrier", lineno)
            if tup in table:
                raise ParseError(f"row {tup} given twice", lineno)
            table[tup] = key.strip()
    if name is None or size is None or max_arity == 0:
        raise ParseError("incomplete typed-universe document")
    for n in range(1, max_arity + 1):
        for tup in product(range(size), repeat=n):
            if tup not in table:
                raise ParseError(f"missing type row for {tup} at arity {n}")

    def stored(tup):
        return TypeId("stored", name, table[tuple(tup)])

    return TypedUniverse(size, max_arity, stored)


# ---------------------------------------------------------------------------
# serialisation


def vocab_block(name: str, vocab: Vocabulary) -> str:
    lines = [f"vocab {name}"]
    lines.extend(f"rel {sym} {arity}" for sym, arity in vocab.symbols)
    return "\n".join(lines)


def structure_block(name: str, s: FinStructure, vocab_name: str) -> str:
    lines = [f"structure {name} over {vocab_name}", f"size {s.size}"]
    for sym, _arity in s.vocab.symbols:
        rows = sorted(s.tables[sym])
        if rows:
            body = "; ".join(" ".join(str(x) for x in t) for t in rows)
            lines.append(f"{sym}: {body}")
    return "\n".join(lines)


def document_text(doc: Document) -> str:
    """Serialise a document; vocabularies are emitted first, in order."""
    blocks = []
    for vn, vocab in doc.vocabs.items():
        blocks.append(vocab_block(vn, vocab))

    def name_of(vocab) -> str:
        for vn, v in doc.vocabs.items():
            if v == vocab:
                return vn
        raise ParseError("document uses a vocabulary it does not declare")

    for sn, s in doc.structures.items():
        blocks.append(structure_block(sn, s, name_of(s.vocab)))
    for pn, p2 in doc.p2specs.items():
        member_names = [next((sn for sn, s in doc.structures.items() if s == m), None)
                        for m in p2.members]
        if None in member_names:
            raise ParseError(f"p2 block {pn!r} has a member the document does not name")
        head = [f"p2 {pn} over {name_of(p2.vocab)}", f"bound {p2.size_bound}"]
        head.append("members " + " ".join(member_names))
        blocks.append("\n".join(head))
    return "\n\n".join(blocks) + "\n"


def p2_document(p2: P2Spec) -> str:
    """A self-contained document for one permission set: the p2 block `p2`
    over the vocabulary `v`, with members `m0`, `m1`, ..."""
    members = {f"m{i}": m for i, m in enumerate(p2.members)}
    return document_text(Document({"v": p2.vocab}, members, {"p2": p2}))


def structure_document(s: FinStructure, name: str = "s") -> str:
    """A self-contained document for one structure over the vocabulary `v`."""
    return document_text(Document({"v": s.vocab}, {name: s}))


def load_document(path) -> Document:
    """Every block of a file; its named structures and p2 blocks are the
    `structures` and `p2specs` of the result."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def load_structure(path) -> FinStructure:
    """The one structure a file holds."""
    return load_document(path).sole_structure()


def load_p2(path) -> P2Spec:
    """The one p2 block a file holds."""
    return load_document(path).sole_p2()
