"""CLI reports that carry type fingerprints: recorded stdout and files.

`tests/golden/cli_reports.txt` holds, for every run of `RUNS` in a
directory holding `graph_p2()` as `graph.p2`, the marked spec of
`test_sampling_golden` as `marked.p2` and `broken_p2()` as `broken.p2`,
the command line, its exit code and its stdout.  The `types` runs read
structures that `gen` wrote in the same directory, and the `reduct`
runs read the pair-family and quotient-type files that `example412`
emitted, in both directions.  After the last run, each file
`example412` emitted gets one line with its sha256 and its size, since
the three typed-universe files are about 190 kB each.  A last section,
headed `# gen transcripts`, holds the runs of `GEN_RUNS`: `gen` on both
specs with the transcript that `GenericOracle.log` prints, one at
saturation level 3 and one whose level-2 pass exhausts its budget.

`types` prints tuple-type fingerprints, the `example412` files hold
the quotient's pair-type fingerprints, and `reduct` prints a stored
fingerprint in its counterexample, so a change to how links or point
codes are read or written that moves a fingerprint shows here.
Rewrite the file only when a report changes on purpose:

    PYTHONPATH=src python tests/test_report_golden.py reports > tests/golden/cli_reports.txt
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from fraisse.amalgamation import P2Spec, graph_p2
from fraisse.cli import main
from fraisse.textio import p2_document

from test_sampling_golden import marked_p2

GOLDEN = Path(__file__).parent / "golden" / "cli_reports.txt"
EMIT_DIR = "emitted"
RUNS = (
    ["gen", "--p2", "graph.p2", "--points", "10", "--saturate", "2", "--passes", "4",
     "--seed", "7"],
    ["types", "--in", "gen-graph.txt", "--n", "2", "--distinct"],
    ["gen", "--p2", "marked.p2", "--points", "8", "--saturate", "1", "--passes", "2",
     "--seed", "3"],
    ["types", "--in", "gen-marked.txt", "--n", "2", "--distinct"],
    ["check-hp", "--p2", "graph.p2"],
    ["check-adequate", "--p2", "graph.p2"],
    ["check-hp", "--p2", "broken.p2"],
    ["check-adequate", "--p2", "broken.p2"],
    ["example412", "--check", "all", "--base-size", "12", "--seed", "1",
     "--emit-structures", EMIT_DIR],
    ["reduct", "--source", f"{EMIT_DIR}/pair_family.txt",
     "--target", f"{EMIT_DIR}/quotient_types.txt", "--nmax", "3"],
    ["reduct", "--source", f"{EMIT_DIR}/quotient_types.txt",
     "--target", f"{EMIT_DIR}/pair_family.txt", "--nmax", "3"],
)
GEN_RUNS = (
    ["gen", "--p2", "graph.p2", "--points", "5", "--saturate", "3", "--passes", "1",
     "--seed", "2"],
    ["gen", "--p2", "marked.p2", "--points", "6", "--saturate", "2", "--passes", "2",
     "--budget", "40", "--seed", "11"],
)
EMITTED = ("f.txt", "m.txt", "mstar.txt", "quotient_types.txt", "pair_family.txt",
           "marked_pair_family.txt")


def broken_p2() -> P2Spec:
    """The marked spec without its red looped point: the two-point
    members that hold such a point are left, so the spec is neither
    closed under substructures nor adequate."""
    members = [m for m in marked_p2().members
               if not (m.size == 1 and m.tables["red"] and m.tables["arc"])]
    return P2Spec(members)


def _run(argv: list[str], out: list[str]) -> str:
    """Run `fraisse <argv>`, append its command line, exit code and stdout
    lines to `out`, and return the stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out.append(f"$ {' '.join(argv)} -> {code}")
    out.extend(buf.getvalue().splitlines())
    return buf.getvalue()


def report_lines() -> list[str]:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, p2 in (("graph.p2", graph_p2()), ("marked.p2", marked_p2()),
                         ("broken.p2", broken_p2())):
            Path(tmp, name).write_text(p2_document(p2))
        cwd = os.getcwd()
        try:
            os.chdir(tmp)
            for argv in RUNS:
                text = _run(argv, out)
                if argv[0] == "gen":
                    Path(f"gen-{argv[2][:-3]}.txt").write_text(text)
            for name in EMITTED:
                data = Path(EMIT_DIR, name).read_bytes()
                out.append(f"file {name} sha256 {hashlib.sha256(data).hexdigest()} "
                           f"bytes {len(data)}")
            out.append("# gen transcripts")
            for argv in GEN_RUNS:
                _run(argv, out)
        finally:
            os.chdir(cwd)
    return out


def test_reports_match_recorded():
    assert report_lines() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    if sys.argv[1:] == ["reports"]:
        sys.stdout.write("".join(line + "\n" for line in report_lines()))
    else:
        sys.exit("usage: test_report_golden.py reports")
