"""One pass of one benchmark workload, in a fresh process.

    python3 perfbench/workloads.py --workload NAME --seed N --index I --trace 0|1 \
        [--prepared JSON]

Set-up imports `fraisse` from the checkout's `src/`, derives the pass's
inputs from (workload, seed, index), and writes `graph.p2`.  The pass
then runs the workload's two phases, checks every output outside the
timed region, and prints one JSON line.  With `--trace 1` the tracer
wraps the library for the phases only and reports per-layer counts and
self times.  The process pins itself to one CPU, so its calibration
loops and phases share one CPU's throughput.  `run.py` starts these
processes one after another.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

from tracer import TARGETS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench") / ".out"          # relative to ROOT, the working directory
P2_PATH = str(OUT / "graph.p2")

# ---------------------------------------------------------------------------
# sizes, one place

CLASSES_RANDOM = 40           # random labelled graphs per pass, 8 on each of 6..10 points
CLASSES_ENUM_N = 5            # enumerate_rp2 size
CLASSES_AP = (8, 4)           # check_ap amalgam bound, triple bound
GRAPH_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}

ORACLE_BASE = 4               # example412 --base-size
ORACLE_STABLE = 17            # accepted 2-stable base size, so passes do equal work
ORACLE_CANDIDATES = 400

ACL_TRIVIALITY = dict(grow=6, level=7, max_b=3)
ACL_DEGENERATE = dict(grow=6, level=5, max_b=2, max_c=2)
REDUCT_CLASSES = 10

CALIBRATION_STEPS = 80_000
CAL_REF_S = 0.075             # calibration seconds that define the scaled unit

ZEROONE_PHASES = (("25,50,100", 8), ("100,200", 3))    # (sizes, trials) per run
ZEROONE_RUNS = 2              # zeroone runs per phase, each with its own seed


def _comb(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


# Highly symmetric graphs, where canonical search is factorial today.
SYMMETRIC = {
    "empty6": (6, []),
    "complete6": (6, _comb(6)),
    "matching8": (8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
    "cycle8": (8, [(i, (i + 1) % 8) for i in range(8)]),
    "cycle10": (10, [(i, (i + 1) % 10) for i in range(10)]),
    "K33": (6, [(i, j) for i in range(3) for j in range(3, 6)]),
    "2K3": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    "petersen": (10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]),
}


# ---------------------------------------------------------------------------
# helpers


class Checks:
    """Counts attempted and failed ops; keeps the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def error(self, what: str, exc: BaseException) -> None:
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")


def _relabel(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[a], perm[b]) for a, b in edges]


def _edge_set(g):
    return g.tables["adj"]


def _valid_isomorphism(g, h, mapping) -> bool:
    """Self-contained witness check: a bijection carrying edges onto edges."""
    if sorted(mapping) != list(range(h.size)) or len(mapping) != g.size:
        return False
    return {(mapping[a], mapping[b]) for a, b in _edge_set(g)} == _edge_set(h)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of tuple, set, dict and sort
    work, the same mix the library runs.  Timed between the segments of
    every phase, it tracks the throughput of a shared machine at that
    moment."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(CALIBRATION_STEPS):
        key = (i % 97, i % 89, i & 7)
        members = frozenset(key)
        table[key] = table.get(key, 0) + len(members)
        sorted(key)
    return time.perf_counter() - t0


class Timer:
    """Times phase segments, each bracketed by calibration loops.

    `raw[name]` sums the segments' seconds; `scaled[name]` sums them
    scaled to a machine on which the calibration loop takes CAL_REF_S,
    each segment by the mean of the calibrations just before and after
    it.  Segments of one phase may be interleaved with other code."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        calibrate()                   # warm-up: a fresh process runs it slower
        self.calibration = [calibrate()]

    @contextlib.contextmanager
    def __call__(self, name: str):
        before = self.calibration[-1]
        span = self.tracer.op(name) if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            yield
        dt = time.perf_counter() - t0
        after = calibrate()
        self.calibration.append(after)
        self.raw[name] = self.raw.get(name, 0.0) + dt
        self.scaled[name] = self.scaled.get(name, 0.0) + dt * CAL_REF_S * 2 / (before + after)


def _cli(main, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# workloads: setup(rng) -> inputs; phases(inputs, timer) -> results; check


class Classes:
    """Kernel phase: canonical keys and isomorphism; class phase:
    enumeration and amalgamation."""

    def setup(self, fr, rng, _prepared):
        und = fr.undirected_graph
        graphs5 = []
        pairs5 = _comb(5)
        for bits in range(1 << len(pairs5)):
            graphs5.append(und(5, [p for i, p in enumerate(pairs5) if bits >> i & 1]))
        copies = []          # (name, graph, permuted copy)
        for i in range(CLASSES_RANDOM):
            n = 6 + i % 5
            edges = [p for p in _comb(n) if rng.random() < 0.5]
            copies.append((f"random{i}", und(n, edges), und(n, _relabel(n, edges, rng))))
        for name, (n, edges) in SYMMETRIC.items():
            copies.append((name, und(n, edges), und(n, _relabel(n, edges, rng))))
        toggled = []         # (graph, graph with one pair toggled): never isomorphic
        for _name, g, _h in copies:
            u, v = rng.sample(range(g.size), 2)
            edges = {(a, b) for a, b in _edge_set(g) if a < b}
            edges ^= {(min(u, v), max(u, v))}
            toggled.append((g, und(g.size, edges)))
        return dict(graphs5=graphs5, copies=copies, toggled=toggled)

    def phases(self, fr, inp, timer):
        ck = fr.canonical_key
        clock = time.perf_counter
        lat: list[float] = []
        res = {"canon_ms": lat}

        def timed_key(g):
            t0 = clock()
            key = ck(g)
            lat.append((clock() - t0) * 1e3)
            return key

        with timer("phase1"):
            res["keys5"] = [timed_key(g) for g in inp["graphs5"]]
        with timer("phase1"):
            res["copy_keys"] = [timed_key(g) == timed_key(h) for _n, g, h in inp["copies"]]
        with timer("phase1"):
            res["iso"] = [fr.is_isomorphic(g, h) for _n, g, h in inp["copies"]]
            res["non_iso"] = [fr.is_isomorphic(g, h) for g, h in inp["toggled"]]
        with timer("phase2"):
            p2 = fr.load_p2(P2_PATH)
            res["enum"] = fr.enumerate_rp2(p2, CLASSES_ENUM_N)
        with timer("phase2"):
            res["ap"] = fr.check_ap(p2, *CLASSES_AP)
        return res

    def check(self, inp, res, c: Checks):
        c.check(len(set(res["keys5"])) == GRAPH_COUNTS[5],
                f"{len(set(res['keys5']))} classes among 5-point graphs")
        for (name, g, h), same, w in zip(inp["copies"], res["copy_keys"], res["iso"]):
            c.check(same, f"{name}: permuted copy has another key")
            c.check(w is not None and _valid_isomorphism(g, h, w.map),
                    f"{name}: no valid isomorphism witness")
        for w in res["non_iso"]:
            c.check(w is None, "isomorphism reported across different edge counts")
        c.check(len(res["enum"]) == GRAPH_COUNTS[CLASSES_ENUM_N],
                f"enumerate_rp2 gave {len(res['enum'])} classes")
        ap = res["ap"]
        c.check(ap.holds and ap.inconclusive_count == 0,
                f"check_ap {ap.verdict}, {ap.inconclusive_count} inconclusive")
        return {}


class Oracle:
    """`example412 --check all`, then read-only scans of 2-stable bases."""

    def __init__(self):
        self._hits: list[int] = []

    def prepare(self, fr, rng, index):
        """Seeds whose 2-stable base has exactly the accepted size, so
        every pass does about the same work.  The budget stops a
        candidate as soon as it grows past that size.  Pass i reads hits
        i and i + 1 of the run's stream.  This search is the
        benchmark's, not the library user's: it stays out of `setup_s`."""
        while len(self._hits) < index + 2:
            for _ in range(ORACLE_CANDIDATES):
                seed = rng.randrange(1 << 31)
                if self._base(fr, seed) is not None:
                    self._hits.append(seed)
                    break
            else:
                raise RuntimeError("no seed gave the accepted 2-stable base size")
        return {"seeds": self._hits[index:index + 2]}

    @staticmethod
    def _base(fr, seed):
        o = fr.new_generic(fr.graph_p2(), seed)
        fr.grow_random(o, ORACLE_BASE)
        rep = fr.saturate_until_stable(o, 2, new_point_budget=ORACLE_STABLE - o.size)
        return o.current if rep.stable and o.size == ORACLE_STABLE else None

    def setup(self, fr, rng, prepared):
        """`example412` rebuilds the first base from its seed; the
        post-scan reads both."""
        seeds = prepared["seeds"]
        bases = [self._base(fr, seed) for seed in seeds]
        if None in bases:
            raise RuntimeError(f"seeds {seeds} no longer give {ORACLE_STABLE}-point bases")
        return dict(seed=seeds[0], bases=bases)

    def phases(self, fr, inp, timer):
        fa, fb = inp["bases"]
        res = {}
        with timer("phase1"):
            res["ex412"] = _cli(fr.cli.main, [
                "example412", "--check", "all", "--base-size", str(ORACLE_BASE),
                "--seed", str(inp["seed"])])
        res["verify"] = []
        for f in (fa, fb):
            with timer("phase2"):
                res["verify"].append(fr.verify_saturation(fr.load_p2(P2_PATH), f, 2)[0])
        with timer("phase2"):
            res["game"] = fr.back_and_forth(fa, fb, 2)
        return res

    def check(self, inp, res, c: Checks):
        rc, text = res["ex412"]
        c.check(rc == 0, f"example412 exited {rc}")
        c.check(f"2-stable base size: {ORACLE_STABLE}" in text,
                "example412 built another base than set-up")
        c.check(all(res["verify"]), "verify_saturation failed on a 2-stable base")
        c.check(res["game"].equivalent, "2-stable bases not 2-equivalent")
        return {"example412": _digest(text)}


class Analyses:
    """Closure analyses on grown oracles, then reduct grids on a cover."""

    def setup(self, fr, rng, _prepared):
        n = REDUCT_CLASSES
        base = fr.undirected_graph(n, [p for p in _comb(n) if rng.random() < 0.5])
        return dict(seeds=(rng.randrange(1 << 31), rng.randrange(1 << 31)), base=base)

    def phases(self, fr, inp, timer):
        st, sd = inp["seeds"]
        acl_source = fr.types_orbits.as_acl_source
        res = {}
        with timer("phase1"):
            p2 = fr.load_p2(P2_PATH)
            t = ACL_TRIVIALITY
            o = fr.new_generic(p2, st)
            fr.grow_random(o, t["grow"])
            fr.saturate(o, t["level"])
            res["triv"] = fr.check_triviality(acl_source(o), max_b=t["max_b"], d=5,
                                              growth_budget=500)
        with timer("phase1"):
            t = ACL_DEGENERATE
            o = fr.new_generic(p2, sd)
            fr.grow_random(o, t["grow"])
            fr.saturate(o, t["level"])
            res["deg"] = fr.check_degenerate_dependence(
                acl_source(o), rho=2, max_b=t["max_b"], max_c=t["max_c"], d=5,
                growth_budget=500)
        with timer("phase2"):
            d2 = fr.build_double(inp["base"])
            q2 = fr.quotient(d2)
            res["neg"] = fr.is_reduct(fr.pair_family_universe(q2, 3),
                                      fr.from_quotient(q2, 3), 3)
        with timer("phase2"):
            qstar = fr.quotient(d2, ambient=fr.build_expansion_star(d2))
            res["pos"] = fr.is_reduct(fr.pair_family_universe(qstar, 4),
                                      fr.from_quotient(q2, 4), 4)
        return res

    def check(self, inp, res, c: Checks):
        triv, deg = res["triv"], res["deg"]
        c.check(triv.verdict == "trivial" and triv.inconclusive == 0,
                f"triviality {triv.verdict}, {triv.inconclusive} inconclusive")
        c.check(deg.verdict == "degenerate" and deg.inconclusive == 0,
                f"degeneracy {deg.verdict}, {deg.inconclusive} inconclusive")
        neg, pos = res["neg"], res["pos"]
        c.check(not neg.holds and neg.failing_arity == 3,
                "plain pair-family did not fail at arity 3")
        c.check(pos.holds and len(pos.per_arity) == 4,
                "marked pair-family did not hold to arity 4")
        return {}


class Sampling:
    """`zeroone --full 2` on small and on large samples."""

    def setup(self, fr, rng, _prepared):
        return dict(seeds=[rng.randrange(1 << 31) for _ in range(ZEROONE_RUNS)])

    def phases(self, fr, inp, timer):
        res = {}
        for i, (sizes, trials) in enumerate(ZEROONE_PHASES, start=1):
            for seed in inp["seeds"]:
                with timer(f"phase{i}"):
                    res[f"zeroone-{sizes}-{seed}"] = _cli(fr.cli.main, [
                        "zeroone", "--p2", P2_PATH, "--full", "2", "--sizes", sizes,
                        "--trials", str(trials), "--seed", str(seed)])
        return res

    def check(self, inp, res, c: Checks):
        digests = {}
        for name, (rc, text) in sorted(res.items()):
            c.check(rc == 0, f"{name} exited {rc}")
            c.check("no non-monotonic drops" in text, f"{name} reported a drop")
            digests[name] = _digest(text)
        return digests


WORKLOADS = {"classes": Classes, "oracle": Oracle, "analyses": Analyses,
             "sampling": Sampling}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    totals = tracer.totals()
    out: dict[str, float] = {}
    for _mod, _path, prefix, calls_name, _leaf, counters in TARGETS:
        slot = totals.get(prefix, [0, 0.0] + [0] * len(counters))
        out[f"{prefix}.{calls_name}"] = slot[0]
        out[f"{prefix}.self_s"] = slot[1]
        for (count_name, _f), value in zip(counters, slot[2:]):
            out[f"{prefix}.{count_name}"] = value
    true = out.pop("zero_one.axiom_holds.true")
    out["zero_one.axiom_holds.true_ratio"] = true / max(1, out["zero_one.axiom_holds.calls"])
    scanned = tracer.under("generic.one_point_extensions", "generic.saturate")[2]
    out["generic.saturate.useful_ratio"] = out.pop("generic.saturate.added") / max(1, scanned)
    out["types_orbits.inconclusive"] = (
        out.pop("types_orbits.check_triviality.inconclusive")
        + out.pop("types_orbits.check_degenerate_dependence.inconclusive"))
    out["trace.self_coverage"] = sum(v for k, v in out.items() if k.endswith(".self_s")) / wall
    return out


# ---------------------------------------------------------------------------


def _import_fraisse():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fraisse
    if not Path(fraisse.__file__).resolve().is_relative_to(src):
        raise ImportError(f"fraisse was imported from {fraisse.__file__}, not {src}")
    import fraisse.cli  # noqa: F401  (the CLI module is not imported by the package)
    return fraisse


def _pin_to_one_cpu() -> None:
    """Keep the pass and its calibration loops on one CPU: on a shared
    machine two CPUs can differ in throughput at the same moment."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def preparer(workload: str, seed: int):
    """Untimed input search for the passes of one run, done by `run.py`
    between passes: a function from pass index to JSON-able inputs.
    Most workloads need none."""
    wl = WORKLOADS[workload]()
    if not hasattr(wl, "prepare"):
        return lambda index: {}
    fr = _import_fraisse()
    rng = random.Random(f"{workload}:{seed}:prepare")
    return lambda index: wl.prepare(fr, rng, index)


def run_pass(workload: str, seed: int, index: int, trace: bool, prepared: dict) -> dict:
    _pin_to_one_cpu()
    os.chdir(ROOT)
    fr = _import_fraisse()
    wl = WORKLOADS[workload]()
    rng = random.Random(f"{workload}:{seed}:{index}")
    inp = wl.setup(fr, rng, prepared)
    OUT.mkdir(parents=True, exist_ok=True)
    Path(P2_PATH).write_text(fr.p2_document(fr.graph_p2()))
    ready = time.monotonic()

    tracer = Tracer() if trace else None
    timer = Timer(tracer)

    checks = Checks()
    res = None
    if tracer:
        tracer.install()
    try:
        res = wl.phases(fr, inp, timer)
    except Exception as exc:          # an op that raises is a failed op
        checks.error(f"{workload} pass", exc)
    finally:
        if tracer:
            tracer.uninstall()
    wall = sum(timer.raw.values())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests = {}
    if res is not None:
        try:
            digests = wl.check(inp, res, checks)
        except Exception as exc:
            checks.error(f"{workload} check", exc)
    out = {"ready": ready, "raw": timer.raw, "scaled": timer.scaled,
           "calibration": timer.calibration, "setup_scale": CAL_REF_S / timer.calibration[0],
           "rss_mb": rss_mb,
           "attempted": checks.attempted, "failed": checks.failed,
           "messages": checks.messages, "digests": digests,
           "canon_ms": (res or {}).get("canon_ms", [])}
    if tracer:
        out["layers"] = layer_metrics(tracer, wall)
        out["leftover"] = tracer.leftover_wrappers()
        spans = OUT / f"spans-{workload}-{seed}-{index}.json"
        spans.write_text(json.dumps({
            "spans": tracer.spans,
            "aggregates": [[n, p, *v] for (n, p), v in tracer.agg.items()]}))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prepared", type=json.loads, default={},
                    help="JSON from preparer(), made by run.py")
    args = ap.parse_args(argv)
    try:
        out = run_pass(args.workload, args.seed, args.index, bool(args.trace),
                       args.prepared)
    except ImportError as exc:
        print(f"cannot import fraisse from the checkout: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
