"""The oracle's growth against the full rebuild and the full rescan.

`GenericOracle` holds one immutable structure, `current`, and replaces
it at every new point with `structures.with_point`, which builds bit
rows without validation and decodes the tables only when they are read;
every structure here is compared with `FinStructure(vocab, size, tables)`
built from those decoded tables, and structures taken earlier must not
change as the oracle grows.  `saturate` is semi-naive and lists the missing patterns of
a base once; `rescan_saturate` below is the pass it replaced (every base,
every pattern, one `find_realization` on a freshly validated structure
each), kept here as the reference.
"""
from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraisse.amalgamation import graph_p2
from fraisse.cli import main
from fraisse.generic import (_STABLE_MAX_PASSES, LogEntry, SaturationReport,
                             StableSaturationReport, _missing, _new_bases,
                             extend_one_point, find_realization, grow_random,
                             new_generic, one_point_extensions, saturate,
                             saturate_until_stable)
from fraisse.structures import FinStructure, point_codes
from fraisse.textio import p2_document

from test_sampling_golden import marked_p2

SPECS = {"graph": graph_p2(), "marked": marked_p2()}


def rebuilt(o) -> FinStructure:
    """The current snapshot's decoded tables through the validating
    constructor."""
    return FinStructure(o.vocab, o.size, o.current.tables)


def permitted_options(p2) -> list:
    return sorted({option for a in p2.codes for b in p2.codes for option in p2.links(a, b)})


def assert_same_snapshot(p2, snap: FinStructure, ref: FinStructure) -> None:
    """A row-built structure against the checked constructor's, through
    every reader; links are compared before the tables are decoded."""
    pairs = [(u, v) for u in range(snap.size) for v in range(snap.size)]
    assert [snap.link(u, v) for u, v in pairs] == [ref.link(u, v) for u, v in pairs]
    assert snap == ref and hash(snap) == hash(ref)
    assert snap.tables == ref.tables and repr(snap) == repr(ref)
    for sym in snap.vocab.binary_symbols():
        assert snap.out_bits(sym) == ref.out_bits(sym)
        assert snap.in_bits(sym) == ref.in_bits(sym)
        assert (snap.in_bits(sym) is snap.out_bits(sym)) == (ref.in_bits(sym) is ref.out_bits(sym))
    assert point_codes(snap) == point_codes(ref)
    for code in p2.codes:
        assert snap.code_bits(code) == ref.code_bits(code)
    for option in permitted_options(p2):
        assert snap.link_rows(option) == ref.link_rows(option)


@pytest.mark.parametrize("spec,seed", [("graph", 3), ("graph", 8), ("marked", 2), ("marked", 5)])
def test_trusted_snapshots_match_the_validated_structure(spec, seed):
    p2 = SPECS[spec]
    o = new_generic(p2, seed)
    rng = random.Random(seed)
    earlier = []
    for step in range(40):
        if o.size < 2 or step % 3 == 0:
            grow_random(o, 1)
        else:
            base = tuple(sorted(rng.sample(range(o.size), rng.randint(1, min(3, o.size)))))
            codes = point_codes(o.current)
            taus = one_point_extensions(p2, [codes[b] for b in base], base)
            extend_one_point(o, taus[rng.randrange(len(taus))])
        assert_same_snapshot(p2, o.current, rebuilt(o))
        earlier.append((o.current, rebuilt(o)))
    # growth copies nothing back into a snapshot already taken
    for snap, ref in earlier[::7]:
        assert_same_snapshot(p2, snap, ref)


def test_symmetric_rows_share_one_tuple():
    o = new_generic(graph_p2(), 4)
    grow_random(o, 9)
    s = o.current
    assert s.in_bits("adj") is s.out_bits("adj")
    m = new_generic(marked_p2(), 4)
    grow_random(m, 9)
    assert m.current.in_bits("arc") != m.current.out_bits("arc")


def test_new_bases_are_the_combinations_outside_the_prefix():
    for pre in range(7):
        for size in range(5):
            for done in range(pre + 1):
                outside = [c for c in combinations(range(pre), size)
                           if done == 0 or any(b >= done for b in c)]
                assert list(_new_bases(pre, size, done)) == outside


@pytest.mark.parametrize("spec,seed,points", [("graph", 5, 7), ("marked", 3, 7), ("marked", 9, 4)])
def test_missing_patterns_are_the_unrealised_ones_in_order(spec, seed, points):
    p2 = SPECS[spec]
    o = new_generic(p2, seed)
    grow_random(o, points)
    s = o.current
    codes = point_codes(s)
    for size in range(4):
        for base in combinations(range(s.size), size):
            taus = one_point_extensions(p2, [codes[b] for b in base], base)
            assert _missing(p2, s, base) == [t for t in taus if find_realization(s, t) is None]


# ---------------------------------------------------------------------------
# the full-rescan reference


def rescan_saturate(o, k: int, new_point_budget: int | None = None) -> SaturationReport:
    pre = o.size
    added = 0
    snap = rebuilt(o)
    for size in range(0, k + 1):
        for subset in combinations(range(pre), size):
            codes = point_codes(snap)
            for tau in one_point_extensions(o.p2, [codes[b] for b in subset], subset):
                if find_realization(snap, tau) is not None:
                    continue
                if new_point_budget is not None and added >= new_point_budget:
                    o._log.append(LogEntry(
                        "saturate", f"level={k} pre={pre} added={added} exhausted"))
                    return SaturationReport(k, pre, added, True, 0, new_point_budget)
                extend_one_point(o, tau)
                snap = rebuilt(o)
                added += 1
    o._record_saturation(k, pre)
    o._log.append(LogEntry("saturate", f"level={k} pre={pre} added={added}"))
    return SaturationReport(k, pre, added, False, pre, new_point_budget)


def rescan_until_stable(o, k: int, new_point_budget: int | None = None
                        ) -> StableSaturationReport:
    total = 0
    reports = []
    for p in range(1, _STABLE_MAX_PASSES + 1):
        left = None if new_point_budget is None else new_point_budget - total
        rep = rescan_saturate(o, k, left)
        reports.append(rep)
        total += rep.added
        if rep.exhausted:
            return StableSaturationReport(k, p, total, False, 0, reports)
        if rep.added == 0:
            return StableSaturationReport(k, p, total, True, o.size, reports)
    return StableSaturationReport(k, _STABLE_MAX_PASSES, total, False,
                                  o.saturated_prefix(k), reports)


# one operation: (until stable?, level, budget); stabilisation always has a
# budget, since the marked spec stabilises at level 2 only past 400 points
OPS = st.one_of(
    st.tuples(st.just(False), st.integers(0, 3), st.none() | st.integers(0, 60)),
    st.tuples(st.just(True), st.integers(0, 2), st.integers(0, 80)))


@settings(max_examples=40, deadline=None)
@example(spec="graph", seed=0, points=0, ops=[(True, 0, 1), (False, 1, None)])
@example(spec="graph", seed=7, points=5, ops=[(False, 2, None), (True, 2, 80), (False, 3, 20)])
@example(spec="marked", seed=1, points=3, ops=[(True, 2, 40), (False, 1, None), (True, 2, 60)])
@given(spec=st.sampled_from(sorted(SPECS)), seed=st.integers(0, 1 << 16),
       points=st.integers(0, 6), ops=st.lists(OPS, min_size=1, max_size=3))
def test_semi_naive_passes_match_the_full_rescan(spec, seed, points, ops):
    p2 = SPECS[spec]
    if spec == "marked":        # unbudgeted, level 2 and above add hundreds of points
        ops = [(stable, min(level, 2), 60 if budget is None and level >= 2 else budget)
               for stable, level, budget in ops]
    fast, slow = new_generic(p2, seed), new_generic(p2, seed)
    grow_random(fast, points)
    grow_random(slow, points)
    for stable, level, budget in ops:
        if stable:
            got = saturate_until_stable(fast, level, new_point_budget=budget)
            want = rescan_until_stable(slow, level, new_point_budget=budget)
        else:
            got = saturate(fast, level, new_point_budget=budget)
            want = rescan_saturate(slow, level, new_point_budget=budget)
        assert got == want
        assert fast.current == rebuilt(slow)
        assert [(e.op, e.detail) for e in fast.log] == [(e.op, e.detail) for e in slow.log]
        assert fast.saturation == slow.saturation
        assert fast._rng.getstate() == slow._rng.getstate()


# sha256 of the report below its `# input` line, which names the input path
MARKED_414_SHA256 = "af5dd6de0a3eefeae74ccaa8d4d9013be567a2c79cba54b4f02359f94700f222"


def test_marked_level_2_stabilisation_report_is_pinned(tmp_path, capsys):
    """Twelve passes at level 2 on the marked spec grow 414 points, over
    an asymmetric relation and with every point type; the whole report,
    transcript and structure included, is pinned."""
    path = tmp_path / "marked.p2"
    path.write_text(p2_document(marked_p2()))
    code = main(["gen", "--p2", str(path), "--seed", "3", "--points", "6", "--saturate", "2",
                 "--passes", "12", "--budget", "1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "\n# final size: 414\n" in out
    assert "\n# saturation record: [(0, 414), (1, 414), (2, 414)]\n" in out
    below = out.partition("\n# input ")[2].partition("\n")[2]
    assert hashlib.sha256(below.encode()).hexdigest() == MARKED_414_SHA256
