"""Sampling: recorded sample digests and a recorded `zeroone` report.

`tests/golden/sample_uniform.txt` holds `<label> <digest>` for every
sample of `golden_samples()`, `tests/golden/zeroone_full2.txt` holds
the stdout of

    fraisse zeroone --p2 graph.p2 --full 2 --sizes 10,25,50 --trials 8 --seed 3

run in a directory holding `graph_p2()` as `graph.p2`, and
`tests/golden/zeroone_marked_full2.txt` the stdout of

    fraisse zeroone --p2 marked.p2 --full 2 --sizes 8,16,24 --trials 4 --seed 5

run beside `marked_p2()` as `marked.p2`.  Samples and reports are part
of the reproducibility contract (same seed, same bytes), so a faster
sampler or evaluator must reproduce all three files.  Rewrite them only
when sampling changes on purpose:

    PYTHONPATH=src python tests/test_sampling_golden.py samples > tests/golden/sample_uniform.txt
    PYTHONPATH=src python tests/test_sampling_golden.py zeroone > tests/golden/zeroone_full2.txt
    PYTHONPATH=src python tests/test_sampling_golden.py zeroone-marked > tests/golden/zeroone_marked_full2.txt

The sampler draws its choices in batches (`zero_one._randrange_batch`)
that rely on how `random.Random.randrange` consumes the generator's
words.  A batch comes back as (values, width): the draw for bound b is
its value shifted right by width - b.bit_length(), and no value is wider
than width, the widest bound's bit length, since the sampler packs each
value beside a pair index in one key.  `stream_mismatches` reads the
draws that way and compares them with one `randrange` call per bound on
the running interpreter, values and final state, and checks the width;
it needs only the standard library, so it also runs without pytest:

    PYTHONPATH=src python tests/test_sampling_golden.py stream
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import random
import sys
import tempfile
from pathlib import Path

from fraisse.amalgamation import P2Spec, graph_p2
from fraisse.cli import main
from fraisse.structures import FinStructure, Vocabulary, point_codes, with_point
from fraisse.textio import p2_document
from fraisse.zero_one import _randrange_batch, sample_uniform

GOLDEN = Path(__file__).parent / "golden"
ZEROONE_ARGS = ["zeroone", "--p2", "graph.p2", "--full", "2",
                "--sizes", "10,25,50", "--trials", "8", "--seed", "3"]
MARKED_ARGS = ["zeroone", "--p2", "marked.p2", "--full", "2",
               "--sizes", "8,16,24", "--trials", "4", "--seed", "5"]

MARKED = Vocabulary([("red", 1), ("arc", 2)])


def marked_p2() -> P2Spec:
    """Four one-point types (plain, red, looped, red and looped) over a
    directed relation; pairs admit between one and four link options."""
    points = [FinStructure(MARKED, 1, {"red": red, "arc": loop})
              for red in ((), ((0,),)) for loop in ((), ((0, 0),))]
    members = [FinStructure(MARKED, 0)] + points
    dirs_all = ((0, 0), (0, 1), (1, 0), (1, 1))
    for i, t0 in enumerate(points):
        for t1 in points[i:]:
            red0, red1 = bool(t0.tables["red"]), bool(t1.tables["red"])
            for d in dirs_all:
                if red0 and red1 and d != (1, 1):
                    continue                # two reds: both arcs
                if red0 != red1 and d[1]:
                    continue                # no arc from a red point's partner back
                members.append(with_point(t0, point_codes(t1)[0], [(d,)]))
    return P2Spec(members)


def digest(s: FinStructure) -> str:
    body = repr((s.size, [sorted(s.tables[name]) for name in s.vocab.names()]))
    return hashlib.sha256(body.encode()).hexdigest()[:24]


def golden_samples():
    """(label, sample) for every recorded sample."""
    p2 = graph_p2()
    for n in (0, 1, 2, 7, 50, 200):
        for seed in (0, 1, 2, 0x5EED):
            yield f"graph-{n}-{seed}", sample_uniform(p2, n, seed)
    marked = marked_p2()
    for n in (0, 1, 2, 9, 40):
        for seed in (0, 3, 17):
            yield f"marked-{n}-{seed}", sample_uniform(marked, n, seed)


def zeroone_stdout(p2: P2Spec | None = None, args=ZEROONE_ARGS) -> str:
    """Stdout of `fraisse <args>`, run beside p2 (default `graph_p2()`)
    written under the file name that args[2] gives."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, args[2]).write_text(p2_document(p2 or graph_p2()))
        cwd = os.getcwd()
        buf = io.StringIO()
        try:
            os.chdir(tmp)
            with contextlib.redirect_stdout(buf):
                assert main(args) == 0
        finally:
            os.chdir(cwd)
    return buf.getvalue()


def marked_zeroone_stdout() -> str:
    return zeroone_stdout(marked_p2(), MARKED_ARGS)


STREAM_BOUNDS = (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 255, 1000)


def stream_cases():
    """(seed, bounds): for each of 40 seeds, every bound of STREAM_BOUNDS
    repeated, all of them mixed, the powers of two mixed and bounds with
    one limit (`_randrange_batch`) mixed, with up to 3 000 draws per list;
    then the empty list and single draws."""
    for seed in range(40):
        length = seed * 75
        pick = random.Random(seed)
        for b in STREAM_BOUNDS:
            yield seed, [b] * length
        for mix in (STREAM_BOUNDS, (1, 2, 4, 8, 16), (3, 6, 12, 24, 48, 96, 192)):
            yield seed, [pick.choice(mix) for _ in range(length)]
    for seed in range(3):
        yield seed, []
        for b in STREAM_BOUNDS + (1 << 32, 1 << 40):
            yield seed, [b]


def stream_mismatches() -> list[str]:
    """The cases of `stream_cases` where `_randrange_batch` and per-call
    `randrange` differ in values or in the generator's final state, or
    where the batch's width is not the widest bound's bit length or a
    value is wider."""
    bad = []
    for seed, bounds in stream_cases():
        # the sampler passes bounds below 256 as bytes: each such case runs in both forms
        for form in [bounds] + ([bytes(bounds)] if max(bounds, default=0) < 256 else []):
            batch, single = random.Random(seed), random.Random(seed)
            values, width = _randrange_batch(batch, form)
            draws = [y >> width - b.bit_length() for y, b in zip(values, bounds)]
            case = f"seed {seed}, {len(bounds)} bounds {sorted(set(bounds))} as {type(form).__name__}"
            if (len(values), draws) != (len(bounds), [single.randrange(b) for b in bounds]):
                bad.append(f"{case}: values differ")
            elif width != max(bounds, default=0).bit_length() or max(values, default=0) >> width:
                bad.append(f"{case}: width {width} is not the widest bound's or a value is wider")
            elif batch.getstate() != single.getstate():
                bad.append(f"{case}: final state differs")
    return bad


def test_batched_draws_match_randrange():
    assert stream_mismatches() == []


def test_samples_match_recorded_digests():
    recorded = dict(line.split() for line in
                    (GOLDEN / "sample_uniform.txt").read_text().splitlines())
    got = {label: digest(s) for label, s in golden_samples()}
    assert len(recorded) == len(got) == 6 * 4 + 5 * 3
    assert [k for k in got if got[k] != recorded[k]] == []


def test_marked_spec_has_several_point_types():
    p2 = marked_p2()
    assert len(p2.codes) == 4
    counts = {len(p2.links(a, b)) for a in p2.codes for b in p2.codes}
    assert counts == {1, 2, 4}


def test_zeroone_report_matches_recorded_stdout():
    assert zeroone_stdout() == (GOLDEN / "zeroone_full2.txt").read_text()


def test_marked_zeroone_report_matches_recorded_stdout():
    assert marked_zeroone_stdout() == (GOLDEN / "zeroone_marked_full2.txt").read_text()


if __name__ == "__main__":
    if sys.argv[1:] == ["samples"]:
        for label, s in golden_samples():
            print(label, digest(s))
    elif sys.argv[1:] == ["zeroone"]:
        sys.stdout.write(zeroone_stdout())
    elif sys.argv[1:] == ["zeroone-marked"]:
        sys.stdout.write(marked_zeroone_stdout())
    elif sys.argv[1:] == ["stream"]:
        bad = stream_mismatches()
        for line in bad:
            print(line)
        print(f"stream: {len(bad)} mismatches on Python {platform.python_version()}")
        sys.exit(1 if bad else 0)
    else:
        sys.exit("usage: test_sampling_golden.py samples|zeroone|zeroone-marked|stream")
