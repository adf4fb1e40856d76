"""Plain-text format for vocabularies, structures, and permission sets.

The format is line oriented.  `#` starts a comment, blank lines separate
nothing in particular.  Blocks:

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
symbol line may be repeated to extend its table.  Parse errors carry the
offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .amalgamation import P2Spec
from .errors import FraisseError, ParseError
from .structures import FinStructure, Vocabulary


@dataclass
class Document:
    vocabs: dict[str, Vocabulary] = field(default_factory=dict)
    structures: dict[str, FinStructure] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    p2specs: dict[str, P2Spec] = field(default_factory=dict)

    def sole_structure(self) -> FinStructure:
        if len(self.order) != 1:
            raise ParseError(f"expected exactly one structure, found {len(self.order)}")
        return self.structures[self.order[0]]

    def sole_p2(self) -> P2Spec:
        if len(self.p2specs) != 1:
            raise ParseError(f"expected exactly one p2 block, found {len(self.p2specs)}")
        return next(iter(self.p2specs.values()))


def parse_document(text: str) -> Document:
    doc = Document()
    mode = None            # None | "vocab" | "structure" | "p2"
    cur_name = ""
    cur_vocab: Vocabulary | None = None
    rels: list[tuple[str, int]] = []
    size: int | None = None
    tables: dict[str, set] = {}
    p2_members: list[str] = []
    p2_bound = 4
    open_line = 0

    def close(line: int) -> None:
        nonlocal mode
        if mode == "vocab":
            doc.vocabs[cur_name] = Vocabulary(rels)
        elif mode == "structure":
            if size is None:
                raise ParseError(f"structure {cur_name!r} has no size line", open_line)
            try:
                doc.structures[cur_name] = FinStructure(cur_vocab, size, tables)
            except FraisseError as e:
                raise ParseError(str(e), open_line) from None
            doc.order.append(cur_name)
        elif mode == "p2":
            if not p2_members:
                raise ParseError(f"p2 block {cur_name!r} lists no members", open_line)
            picked = []
            for nm in p2_members:
                if nm not in doc.structures:
                    raise ParseError(f"p2 member {nm!r} is not a structure above it", open_line)
                picked.append(doc.structures[nm])
            try:
                doc.p2specs[cur_name] = P2Spec(picked, size_bound=p2_bound)
            except FraisseError as e:
                raise ParseError(str(e), open_line) from None
        mode = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        head = words[0]
        if head in ("vocab", "structure", "p2"):
            close(lineno)
            open_line = lineno
            if head == "vocab":
                if len(words) != 2:
                    raise ParseError("vocab line needs exactly a name", lineno)
                cur_name = words[1]
                if cur_name in doc.vocabs:
                    raise ParseError(f"duplicate vocab {cur_name!r}", lineno)
                rels = []
                mode = "vocab"
            else:
                if len(words) != 4 or words[2] != "over":
                    raise ParseError(f"{head} line must read '{head} <name> over <vocab>'", lineno)
                cur_name = words[1]
                vname = words[3]
                if vname not in doc.vocabs:
                    raise ParseError(f"unknown vocab {vname!r}", lineno)
                cur_vocab = doc.vocabs[vname]
                if head == "structure":
                    if cur_name in doc.structures:
                        raise ParseError(f"duplicate structure {cur_name!r}", lineno)
                    size = None
                    tables = {}
                    mode = "structure"
                else:
                    if cur_name in doc.p2specs:
                        raise ParseError(f"duplicate p2 block {cur_name!r}", lineno)
                    p2_members = []
                    p2_bound = 4
                    mode = "p2"
            continue
        if mode == "vocab":
            if head != "rel" or len(words) != 3:
                raise ParseError("vocab blocks hold 'rel <symbol> <arity>' lines", lineno)
            try:
                rels.append((words[1], int(words[2])))
            except ValueError:
                raise ParseError(f"arity {words[2]!r} is not an integer", lineno) from None
            continue
        if mode == "structure":
            if head == "size":
                if size is not None:
                    raise ParseError("size given twice", lineno)
                if len(words) != 2:
                    raise ParseError("size line needs exactly one integer", lineno)
                try:
                    size = int(words[1])
                except ValueError:
                    raise ParseError(f"size {words[1]!r} is not an integer", lineno) from None
                continue
            if ":" not in line:
                raise ParseError(f"unrecognised structure line {line!r}", lineno)
            sym, _, rest = line.partition(":")
            sym = sym.strip()
            if sym not in cur_vocab:
                raise ParseError(f"unknown symbol {sym!r}", lineno)
            if size is None:
                raise ParseError("tables must come after the size line", lineno)
            arity = cur_vocab.arity(sym)
            rows = tables.setdefault(sym, set())
            for chunk in rest.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                try:
                    t = tuple(int(w) for w in chunk.split())
                except ValueError:
                    raise ParseError(f"tuple {chunk!r} holds a non-integer", lineno) from None
                if len(t) != arity:
                    raise ParseError(
                        f"tuple {chunk!r} has {len(t)} entries; {sym!r} needs {arity}", lineno)
                if any(x < 0 or x >= size for x in t):
                    raise ParseError(f"tuple {chunk!r} leaves universe 0..{size - 1}", lineno)
                rows.add(t)
            continue
        if mode == "p2":
            if head == "members":
                p2_members.extend(words[1:])
                continue
            if head == "bound":
                if len(words) != 2:
                    raise ParseError("bound line needs exactly one integer", lineno)
                try:
                    p2_bound = int(words[1])
                except ValueError:
                    raise ParseError(f"bound {words[1]!r} is not an integer", lineno) from None
                continue
            raise ParseError(f"unrecognised p2 line {line!r}", lineno)
        raise ParseError(f"unrecognised top-level line {line!r}", lineno)
    close(len(text.splitlines()) + 1)
    return doc


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

    for sn in doc.order:
        s = doc.structures[sn]
        blocks.append(structure_block(sn, s, name_of(s.vocab)))
    for pn, p2 in doc.p2specs.items():
        member_names = []
        for m in p2.members:
            for sn in doc.order:
                if doc.structures[sn] == m:
                    member_names.append(sn)
                    break
        head = [f"p2 {pn} over {name_of(p2.vocab)}", f"bound {p2.size_bound}"]
        head.append("members " + " ".join(member_names))
        blocks.append("\n".join(head))
    return "\n\n".join(blocks) + "\n"


def p2_document(p2: P2Spec) -> str:
    """A self-contained document for one permission set: the p2 block `p2`
    over the vocabulary `v`, with members `m0`, `m1`, ..."""
    doc = Document()
    doc.vocabs["v"] = p2.vocab
    for i, m in enumerate(p2.members):
        doc.structures[f"m{i}"] = m
        doc.order.append(f"m{i}")
    doc.p2specs["p2"] = p2
    return document_text(doc)


def structure_document(s: FinStructure, name: str = "s") -> str:
    """A self-contained document for one structure over the vocabulary `v`."""
    doc = Document()
    doc.vocabs["v"] = s.vocab
    doc.structures[name] = s
    doc.order.append(name)
    return document_text(doc)


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
