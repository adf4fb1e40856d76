"""Wrapping tracer for the benchmark's traced run.

The tracer replaces a fixed list of library functions, methods and
properties with timing wrappers, in every module namespace that holds
them, and restores the originals on `uninstall`.  It keeps

* one span per call of a coarse function (name, start, end, parent span
  and op id), and
* for hot leaf functions, one aggregate per (function, parent span):
  calls, self time and a count taken from the results,

so a level-3 saturation pass with ~1 M `tuple_payload` calls stays
small in memory.  Self time is a call's duration minus the time spent
in wrapped callees.  Only the standard library is used.
"""
from __future__ import annotations

import contextlib
import importlib
import sys
import time

PACKAGE = "fraisse"
MARK = "_perfbench_original"     # set on each wrapper; names the wrapped original


def _len(result) -> int:
    return len(result)


def _truth(result) -> int:
    return int(bool(result))


def _added(report) -> int:
    return report.added


def _inconclusive(report) -> int:
    return report.inconclusive


# (module, attribute path, metric prefix, name of the call count,
#  leaf?, ((count name, count function), ...))
TARGETS = [
    ("structures", "canonical_key", "structures.canonical_key", "calls", True, ()),
    ("structures", "find_embeddings", "structures.find_embeddings", "calls", True,
     (("maps", _len),)),
    ("structures", "is_isomorphic", "structures.is_isomorphic", "calls", True, ()),
    ("structures", "tuple_payload", "structures.tuple_payload", "calls", True, ()),
    ("structures", "FinStructure.__init__", "structures.FinStructure", "built", True,
     ()),
    ("amalgamation", "P2Spec.permitted_links", "amalgamation.P2Spec.permitted_links",
     "calls", True, ()),
    ("amalgamation", "P2Spec.is_member", "amalgamation.P2Spec.is_member", "calls",
     True, ()),
    ("amalgamation", "enumerate_rp2", "amalgamation.enumerate_rp2", "calls", False,
     (("classes", _len),)),
    ("amalgamation", "check_ap", "amalgamation.check_ap", "calls", False,
     (("triples", lambda rep: rep.triples_checked),)),
    ("amalgamation", "in_rp2", "amalgamation.in_rp2", "calls", True, ()),
    ("generic", "extend_one_point", "generic.extend_one_point", "calls", True, ()),
    ("generic", "one_point_extensions", "generic.one_point_extensions", "calls", True,
     (("patterns", _len),)),
    ("generic", "saturate", "generic.saturate", "calls", False, (("added", _added),)),
    ("generic", "find_realization", "generic.find_realization", "calls", True, ()),
    ("generic", "verify_saturation", "generic.verify_saturation", "calls", False, ()),
    ("generic", "back_and_forth", "generic.back_and_forth", "calls", False, ()),
    ("generic", "GenericOracle.current", "generic.GenericOracle.current", "calls",
     True, ()),
    ("types_orbits", "check_triviality", "types_orbits.check_triviality", "calls",
     False, (("inconclusive", _inconclusive),)),
    ("types_orbits", "check_degenerate_dependence",
     "types_orbits.check_degenerate_dependence", "calls", False,
     (("pairs", lambda rep: rep.pairs_checked),
      ("inconclusive", _inconclusive))),
    ("types_orbits", "OracleAclSource.add_realization",
     "types_orbits.OracleAclSource.add_realization", "calls", True, ()),
    ("types_orbits", "OracleAclSource.snapshot", "types_orbits.OracleAclSource.snapshot",
     "calls", True, ()),
    ("types_orbits", "link_between", "types_orbits.link_between", "calls", True, ()),
    ("doubled_cover", "QuotientGeometry.pair_type",
     "doubled_cover.QuotientGeometry.pair_type", "calls", True, ()),
    ("doubled_cover", "build_double", "doubled_cover.build_double", "calls", False,
     ()),
    ("doubled_cover", "verify_claim2", "doubled_cover.verify_claim2", "calls", False,
     ()),
    ("reduct", "partition_refines", "reduct.partition_refines", "calls", False,
     (("tuples", lambda rep: rep.tuples_checked),)),
    ("reduct", "TypedUniverse.type_of", "reduct.TypedUniverse.type_of", "calls", True,
     ()),
    ("zero_one", "sample_uniform", "zero_one.sample_uniform", "calls", False, ()),
    ("zero_one", "axiom_holds", "zero_one.axiom_holds", "calls", True,
     (("true", _truth),)),
    ("textio", "load_p2", "textio.load_p2", "calls", False, ()),
    ("cli", "main", "cli.main", "calls", False, ()),
]


class Tracer:
    """Spans and per-parent aggregates for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []        # (id, name, start, end, parent, op)
        self.agg: dict[tuple[str, int], list] = {}  # (name, parent) -> [calls, self, counts...]
        self._stack: list[list] = [[0.0, 0]]  # frames: [time in wrapped callees, span id]
        self._next_id = 1
        self._op = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def op(self, name: str):
        """A benchmark phase: a root span with its own op id."""
        self._op += 1
        sid = self._next_id
        self._next_id += 1
        self._stack.append([0.0, sid])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, t0, t1, 0, self._op))

    # -- install / uninstall ------------------------------------------------

    @staticmethod
    def _holders():
        """Every loaded module of the package."""
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        holders = self._holders()
        for module, path, prefix, _calls, leaf, counters in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                cls = getattr(mod, owner_name)
                orig = cls.__dict__[attr]
                if isinstance(orig, property):
                    new = property(self._wrap(prefix, orig.fget, leaf, counters),
                                   orig.fset, orig.fdel, orig.__doc__)
                else:
                    new = self._wrap(prefix, orig, leaf, counters)
                self._patch(cls, attr, orig, new)
                continue
            orig = getattr(mod, attr)
            new = self._wrap(prefix, orig, leaf, counters)
            for holder in holders:
                if getattr(holder, "__dict__", {}).get(attr) is orig:
                    self._patch(holder, attr, orig, new)

    def _patch(self, owner, attr, orig, new) -> None:
        setattr(new.fget if isinstance(new, property) else new, MARK, orig)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def leftover_wrappers(self) -> list[str]:
        """Names still bound to a wrapper anywhere; empty after uninstall."""
        left = []
        for holder in self._holders():
            for name, val in list(vars(holder).items()):
                objs = list(vars(val).values()) if isinstance(val, type) else [val]
                for obj in objs:
                    fn = obj.fget if isinstance(obj, property) else obj
                    if callable(fn) and hasattr(fn, MARK):
                        left.append(f"{holder.__name__}.{name}")
        return sorted(set(left))

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, name, fn, leaf, counters):
        """A leaf call adds to its parent span's aggregate; any other call
        also records a span of its own, which its callees then name as
        their parent."""
        clock = time.perf_counter
        stack = self._stack
        agg = self.agg
        count_fns = tuple(f for _n, f in counters)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if leaf:
                sid = parent[1]
            else:
                sid = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                if not leaf:
                    tracer.spans.append((sid, name, t0, t1, parent[1], tracer._op))
                slot = agg.get((name, parent[1]))
                if slot is None:
                    slot = agg[(name, parent[1])] = [0, 0.0] + [0] * len(count_fns)
                slot[0] += 1
                slot[1] += dur - frame[0]
            for i, f in enumerate(count_fns, start=2):
                slot[i] += f(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- summaries ------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per function: [calls, self seconds, result counts...]."""
        out: dict[str, list] = {}
        for (name, _parent), slot in self.agg.items():
            prev = out.get(name)
            out[name] = list(slot) if prev is None else [a + b for a, b in zip(prev, slot)]
        return out

    def under(self, name: str, parent_name: str) -> list:
        """[calls, self, counts...] of `name` summed over the parent spans
        named `parent_name`."""
        names = {sid: n for sid, n, *_rest in self.spans}
        out = None
        for (n, parent), slot in self.agg.items():
            if n == name and names.get(parent) == parent_name:
                out = list(slot) if out is None else [a + b for a, b in zip(out, slot)]
        return out or [0, 0.0, 0]
