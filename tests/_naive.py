"""Brute-force reference implementations used to cross-check the library.

Everything here is written from first principles on purpose: facts are
compared by direct table lookups and searches enumerate candidates
plainly, so agreement with the fast paths is meaningful.
"""
from __future__ import annotations

import random
from itertools import combinations, permutations, product

from fraisse.structures import FinStructure, Vocabulary, graph_vocabulary


# ---------------------------------------------------------------------------
# structure generators


def graph_of_bits(n: int, bits: int) -> FinStructure:
    """Graph on n vertices whose edge set is encoded by `bits` over the
    pairs (0,1),(0,2),(1,2),(0,3),... in lexicographic-by-max order."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges = set()
    for idx, (i, j) in enumerate(pairs):
        if (bits >> idx) & 1:
            edges.add((i, j))
            edges.add((j, i))
    return FinStructure(graph_vocabulary(), n, {"adj": frozenset(edges)})


def all_graphs(n: int):
    """Every labelled loop-free undirected graph on n vertices."""
    m = n * (n - 1) // 2
    for bits in range(1 << m):
        yield graph_of_bits(n, bits)


def random_graph(rng, n: int) -> FinStructure:
    m = n * (n - 1) // 2
    return graph_of_bits(n, rng.getrandbits(m) if m else 0)


MIXED = Vocabulary([("mark", 1), ("arc", 2), ("tri", 3)])


def random_mixed(rng, n: int, p: float = 0.3) -> FinStructure:
    """A structure over MIXED: each mark and each ordered pair (loops
    included) holds with probability p, each ordered triple (repeats
    included) with probability p / 8."""
    pts = range(n)
    return FinStructure(MIXED, n, {
        "mark": [(v,) for v in pts if rng.random() < p],
        "arc": [(u, v) for u in pts for v in pts if rng.random() < p],
        "tri": [(u, v, w) for u in pts for v in pts for w in pts
                if rng.random() < p / 8],
    })


def permuted_copy(rng, s: FinStructure) -> tuple[FinStructure, list[int]]:
    """A relabelled copy of s together with the permutation used."""
    perm = list(range(s.size))
    rng.shuffle(perm)
    tables = {}
    for name, _arity in s.vocab.symbols:
        tables[name] = frozenset(tuple(perm[x] for x in row)
                                 for row in s.tables[name])
    return FinStructure(s.vocab, s.size, tables), perm


# ---------------------------------------------------------------------------
# isomorphism and embeddings


def degree_profile(s: FinStructure, v: int):
    prof = []
    for name, arity in s.vocab.symbols:
        table = s.tables[name]
        if arity == 1:
            prof.append((v,) in table)
        else:
            prof.append(sum(1 for row in table if v in row))
    return tuple(prof)


def _maps_exactly(a: FinStructure, b: FinStructure, m: dict[int, int]) -> bool:
    """Do the mapped points of a induce in b exactly the facts of a?"""
    dom = sorted(m)
    img = {m[v] for v in dom}
    for name, arity in a.vocab.symbols:
        ta, tb = a.tables[name], b.tables[name]
        for row in _rows(dom, arity):
            if (row in ta) != (tuple(m[x] for x in row) in tb):
                return False
    # nothing in b between image points may come from outside a's facts:
    # covered above since we test both directions of the same rows
    return len(img) == len(dom)


def _rows(points, arity):
    return list(product(points, repeat=arity))


def iso_map(a: FinStructure, b: FinStructure) -> dict[int, int] | None:
    """Plain backtracking isomorphism search with a degree filter."""
    if a.size != b.size:
        return None
    for name, _ in a.vocab.symbols:
        if len(a.tables[name]) != len(b.tables[name]):
            return None
    prof_a = [degree_profile(a, v) for v in range(a.size)]
    prof_b = [degree_profile(b, v) for v in range(b.size)]
    if sorted(prof_a) != sorted(prof_b):
        return None

    order = sorted(range(a.size), key=lambda v: prof_a[v])
    m: dict[int, int] = {}
    used = set()

    def consistent(v: int, w: int) -> bool:
        trial = dict(m)
        trial[v] = w
        pts = sorted(trial)
        for name, arity in a.vocab.symbols:
            ta, tb = a.tables[name], b.tables[name]
            for row in _rows(pts, arity):
                if v not in row:
                    continue
                if (row in ta) != (tuple(trial[x] for x in row) in tb):
                    return False
        return True

    def rec(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in range(b.size):
            if w in used or prof_b[w] != prof_a[v]:
                continue
            if not consistent(v, w):
                continue
            m[v] = w
            used.add(w)
            if rec(i + 1):
                return True
            del m[v]
            used.discard(w)
        return False

    return m if rec(0) else None


def naive_is_isomorphic(a: FinStructure, b: FinStructure) -> bool:
    return iso_map(a, b) is not None


def naive_embeddings(a: FinStructure, b: FinStructure) -> set[tuple[int, ...]]:
    """All strong injections a -> b, by checking every arrangement."""
    out = set()
    for image in permutations(range(b.size), a.size):
        m = {v: image[v] for v in range(a.size)}
        if _maps_exactly(a, b, m):
            out.add(image)
    return out


def is_valid_embedding(a: FinStructure, b: FinStructure, image) -> bool:
    image = tuple(image)
    if len(image) != a.size or len(set(image)) != a.size:
        return False
    if any(x < 0 or x >= b.size for x in image):
        return False
    return _maps_exactly(a, b, {v: image[v] for v in range(a.size)})


# ---------------------------------------------------------------------------
# tuple types


def type_desc(s: FinStructure, tup) -> tuple:
    """Canonical description of the quantifier-free type of a tuple:
    equality pattern plus the positions at which each relation holds."""
    tup = tuple(tup)
    first = {}
    eq = []
    for i, x in enumerate(tup):
        if x not in first:
            first[x] = i
        eq.append(first[x])
    facts = []
    for name, arity in s.vocab.symbols:
        table = s.tables[name]
        if arity == 1:
            hits = tuple(i for i, x in enumerate(tup) if (x,) in table)
        else:
            hits = tuple(pos for pos in product(range(len(tup)), repeat=arity)
                         if tuple(tup[i] for i in pos) in table)
        facts.append((name, hits))
    return (len(tup), tuple(eq), tuple(facts))


def naive_pair_key(s: FinStructure, classes) -> tuple:
    """Swap-invariant description of a tuple of bonded-pair classes, class
    g being the points 2g and 2g + 1: the classes' equality pattern and the
    least `type_desc`, over all 2^m orders inside the m distinct classes,
    of the flattened tuple of their points."""
    classes = tuple(classes)
    first = {}
    eq = tuple(first.setdefault(g, i) for i, g in enumerate(classes))
    best = min(type_desc(s, [x for g, f in zip(first, flips) for x in (2 * g + f, 2 * g + 1 - f)])
               for flips in product((0, 1), repeat=len(first)))
    return len(classes), eq, best


def naive_realizers(s: FinStructure, base, a: int) -> list[int]:
    """The points c outside `base`, ascending, for which base + (c,) has
    the same type as base + (a,)."""
    base = tuple(base)
    want = type_desc(s, base + (a,))
    return [c for c in range(s.size)
            if c not in base and type_desc(s, base + (c,)) == want]


def naive_acl(s: FinStructure, base, d: int) -> list[int]:
    """The points of s, ascending, that are in `base` or whose type over
    it has fewer than d realizations in s: the closure that counting with
    duplication bound d gives over a structure that never grows."""
    base = tuple(base)
    return [a for a in range(s.size) if a in base or len(naive_realizers(s, base, a)) < d]


# ---------------------------------------------------------------------------
# extension axioms


def naive_code(s: FinStructure, v: int) -> int:
    """v's point code from the tables: of the vocabulary's m symbols, the
    i-th holds on (v, ..., v) exactly when bit m-1-i is set."""
    c = 0
    for name, arity in s.vocab.symbols:
        c = c << 1 | (((v,) * arity) in s.tables[name])
    return c


def naive_axiom_holds(s: FinStructure, ax) -> bool:
    """Direct evaluation of an extension axiom: every ordered tuple of
    distinct points whose own facts match the base slots' codes admits a
    fresh witness with the new point's code and every prescribed link.

    Decoded here from the axiom's fields: of the vocabulary's m symbols,
    the i-th holds on (v, ..., v) exactly when bit m-1-i of v's code is
    set, and a link option holds one (base -> new, new -> base) pair per
    binary symbol.  Each point's code and each ordered pair's option are
    read off the tables once per call."""
    points = range(s.size)
    code = {v: naive_code(s, v) for v in points}
    # a pair of bools compares equal to the option's pair of 0/1 ints
    tabs = [s.tables[name] for name, arity in s.vocab.symbols if arity == 2]
    link = {}
    for u in points:
        for w in points:
            if u != w:
                link[u, w] = tuple([((u, w) in tab, (w, u) in tab) for tab in tabs])

    slots, dirs = list(ax.slots), list(ax.dirs)
    for tup in permutations(points, len(slots)):
        if [code[u] for u in tup] != slots:
            continue
        for w in points:
            if w not in tup and code[w] == ax.point and [link[u, w] for u in tup] == dirs:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# classes generated by permitted structures of size <= 2


def naive_induced(s: FinStructure, pts) -> FinStructure:
    """The substructure induced on `pts`; pts[i] becomes point i."""
    index = {v: i for i, v in enumerate(pts)}
    return FinStructure(s.vocab, len(pts), {
        name: {tuple(index[x] for x in row) for row in s.tables[name]
               if all(x in index for x in row)}
        for name in s.vocab.names()})


def naive_in_rp2(members, s: FinStructure) -> bool:
    """Is every 1- and 2-point induced substructure of s isomorphic to
    one of `members`?"""
    return all(any(naive_is_isomorphic(naive_induced(s, pts), m) for m in members)
               for k in (1, 2) for pts in combinations(range(s.size), k))


def naive_adequacy(members) -> tuple[bool, bool, bool, int, int]:
    """Adequacy of a permission set by isomorphism tests alone: (holds,
    has the empty structure, has a two-point member, unordered pairs of
    permitted one-point types that no two-point member realises, unordered
    pairs of one-point types that some two-point member realises)."""
    def permitted(s):
        return any(naive_is_isomorphic(s, m) for m in members)

    def same_pair(p, q):
        return any(naive_is_isomorphic(p[0], a) and naive_is_isomorphic(p[1], b)
                   for a, b in (q, q[::-1]))

    has_empty = any(m.size == 0 for m in members)
    has_two = any(m.size == 2 for m in members)
    closed = all(permitted(naive_induced(m, pts)) for m in members
                 for k in range(1, m.size + 1) for pts in combinations(range(m.size), k))
    ones: list[FinStructure] = []
    realised: list[tuple[FinStructure, FinStructure]] = []
    for m in members:
        if m.size == 1 and not any(naive_is_isomorphic(m, t) for t in ones):
            ones.append(m)
        if m.size == 2:
            pair = (naive_induced(m, (0,)), naive_induced(m, (1,)))
            if not any(same_pair(pair, q) for q in realised):
                realised.append(pair)
    missing = sum(not any(same_pair((t0, t1), q) for q in realised)
                  for i, t0 in enumerate(ones) for t1 in ones[i:])
    return (has_empty and has_two and closed and not missing,
            has_empty, has_two, missing, len(realised))


# ---------------------------------------------------------------------------
# links between two points


def naive_link(s: FinStructure, u: int, v: int) -> tuple:
    """Per binary symbol in vocabulary order, whether (u, v) and whether
    (v, u) is a fact, as a pair of 0/1 ints."""
    return tuple((int((u, v) in s.tables[name]), int((v, u) in s.tables[name]))
                 for name, arity in s.vocab.symbols if arity == 2)


def naive_sample(members, codes, n: int, seed: int) -> FinStructure:
    """A uniform labelled sample, drawn from `random.Random(seed)` one
    value at a time: `randrange(len(codes))` per point picks its code,
    then per pair u < v, in order, one `randrange` picks among the sorted
    links (`naive_link`, read from the first point to the second) that the
    two-point members show between a point of u's code and one of v's.
    Facts are written into fresh tables one by one."""
    vocab = members[0].vocab
    options: dict[tuple[int, int], set] = {}
    for m in members:
        if m.size == 2:
            for x, y in ((0, 1), (1, 0)):
                options.setdefault((naive_code(m, x), naive_code(m, y)), set()).add(
                    naive_link(m, x, y))
    rng = random.Random(seed)
    point = [codes[rng.randrange(len(codes))] for _ in range(n)]
    tables = {name: set() for name in vocab.names()}
    for v, c in enumerate(point):
        for i, (name, arity) in enumerate(vocab.symbols):
            if c >> (len(vocab.symbols) - 1 - i) & 1:
                tables[name].add((v,) * arity)
    binary = [name for name, arity in vocab.symbols if arity == 2]
    for u, v in combinations(range(n), 2):
        links = sorted(options[point[u], point[v]])
        for name, (forward, backward) in zip(binary, links[rng.randrange(len(links))]):
            if forward:
                tables[name].add((u, v))
            if backward:
                tables[name].add((v, u))
    return FinStructure(vocab, n, tables)


def naive_link_rows(s: FinStructure, option) -> list[int]:
    """Per point x, the bitmask of the points c (c = x included) whose
    link from x is `option`."""
    return [sum(1 << c for c in range(s.size) if naive_link(s, x, c) == tuple(option))
            for x in range(s.size)]


# ---------------------------------------------------------------------------
# saturation


def naive_saturated(members, s: FinStructure, k: int, prefix: int) -> set[tuple]:
    """The failures of level-k saturation over the first `prefix` points
    of s, as (base, new point code, links) triples: a base of at most k of
    those points, ascending, and a compatible one-point extension pattern
    over it that no point of s outside the base realises.  Empty exactly
    when every such base realises every compatible pattern.

    Compatibility is read off the members' own tables: the new point has
    the code of a one-point member, and its link to base point b, per
    binary symbol the (b -> new, new -> b) pair, is the link between the
    two points of a two-point member, read in either order, whose points
    have b's code and the new point's code.  Every point outside a base is
    compared with every pattern over it."""
    codes = {naive_code(m, 0) for m in members if m.size == 1}
    options: dict[tuple[int, int], set] = {}
    for m in members:
        if m.size == 2:
            for u, v in ((0, 1), (1, 0)):
                options.setdefault((naive_code(m, u), naive_code(m, v)), set()).add(
                    naive_link(m, u, v))
    code = [naive_code(s, v) for v in range(s.size)]
    link = {(b, w): naive_link(s, b, w) for b in range(prefix) for w in range(s.size)}
    failures = set()
    for size in range(k + 1):
        for base in combinations(range(prefix), size):
            realised = {(code[w], tuple(link[b, w] for b in base))
                        for w in range(s.size) if w not in base}
            for cw in codes:
                for links in product(*[options.get((code[b], cw), ()) for b in base]):
                    if (cw, links) not in realised:
                        failures.add((base, cw, links))
    return failures


# ---------------------------------------------------------------------------
# canonical search reference


def reference_canonical(s: FinStructure) -> tuple[tuple, tuple[int, ...]]:
    """The canonical search as it stood before incremental refinement and
    twin pruning, reading only `s.tables`: (least row sequence, an order
    of the points whose rows it is).  Every node refines from the root
    colouring with all placed points individualised, and pruning uses only
    the automorphisms found at leaves, so two structures have equal rows
    exactly when they are isomorphic.  Recursive, so keep inputs small."""
    n = s.size
    if n == 0:
        return (), ()
    symbols = s.vocab.symbols
    inc: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
    for si, (name, _arity) in enumerate(symbols):
        for t in s.tables[name]:
            for v in set(t):
                inc[v].append((si, t))
    # incidence codes: (si, x) as si * M**R + sum (x[j] + n + 1) * M**(r-1-j),
    # x[j] = -1 where t[j] is v and t[j]'s colour elsewhere, colours in [-n, n)
    m = 2 * n + 1
    top = m ** max(a for _, a in symbols)
    fixed: list[list[int]] = [[] for _ in range(n)]
    single: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    multi: list[list[tuple[int, tuple]]] = [[] for _ in range(n)]
    for v in range(n):
        for si, t in inc[v]:
            const, var = si * top, []
            for j, u in enumerate(t):
                w = m ** (len(t) - 1 - j)
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

    def refine(colors: list[int]) -> list[int]:
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

    def join_orbits(root: dict[int, int], g: list[int]) -> None:
        def find(x: int) -> int:
            while root[x] != x:
                x = root[x]
            return x

        for v in root:
            a, b = find(v), find(g[v])
            if a != b:
                root[max(a, b)] = min(a, b)

    # one-point types ranked as the tuples of their loop facts
    loops = [tuple((v,) * arity in s.tables[name] for name, arity in symbols)
             for v in range(n)]
    loop_rank = {c: i for i, c in enumerate(sorted(set(loops)))}
    base = refine([loop_rank[c] for c in loops])
    pos = [-1] * n
    order: list[int] = []
    rows: list = []
    best_rows: list | None = None
    best_order: list[int] = []
    autos: list[list[int]] = []

    def row_for(v: int):
        hits: list[list[tuple[int, ...]]] = [[] for _ in symbols]
        for si, t in inc[v]:
            p = tuple(pos[x] for x in t)
            if -1 not in p:
                hits[si].append(p)
        return tuple(tuple(sorted(h)) for h in hits)

    def dfs(better: bool) -> int:
        nonlocal best_rows, best_order
        i = len(order)
        if i == n:
            if best_rows is None or better:
                best_rows, best_order = list(rows), list(order)
                return n
            auto = [0] * n
            for x, y in zip(best_order, order):
                auto[x] = y
            autos.append(auto)
            j = 0
            while best_order[j] == order[j]:
                j += 1
            return j
        if i == n - 1:
            cell = [pos.index(-1)]
        else:
            colors = list(base)
            if order:
                for p, u in enumerate(order):
                    colors[u] = -(p + 1)
                colors = refine(colors)
            target = min(colors[v] for v in range(n) if pos[v] < 0)
            cell = [v for v in range(n) if pos[v] < 0 and colors[v] == target]
        root: dict[int, int] = {}
        used = 0
        for v in cell:
            if v != cell[0]:
                if not root:
                    root = {u: u for u in cell}
                for g in autos[used:]:
                    if all(g[u] == u for u in order):
                        join_orbits(root, g)
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
            before = best_rows
            back = dfs(sub_better)
            order.pop()
            rows.pop()
            pos[v] = -1
            if best_rows is not before:
                better = False
            if back < i:
                return back
        return n

    dfs(False)
    return tuple(best_rows), tuple(best_order)
