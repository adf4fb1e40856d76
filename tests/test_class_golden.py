"""Class layer: recorded `check_ap` reports, enumerations and CLI reports.

`tests/golden/class_layer.txt` holds three sections:

* `ap`: for each (spec, amalgam bound, triple bound) the verdict and the
  three counts of `check_ap`, then one line per sample witness with the
  digest of its amalgam and its four maps;
* `enum`: the digests of `enumerate_rp2(spec, n)` in output order;
* `cli`: the stdout of `check-ap --amalgam-bound 8 --triple-bound 4` and
  of `enum --size 3`, run in a directory holding `graph_p2()` as
  `graph.p2`.

Which representative `enumerate_rp2` keeps for each class, which embedding
stands for each orbit and which amalgam `check_ap` finds are all part of
the reproducibility contract, so a faster class layer must reproduce the
file.  Rewrite it only when the class layer changes on purpose:

    PYTHONPATH=src python tests/test_class_golden.py > tests/golden/class_layer.txt
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from fraisse.amalgamation import check_ap, enumerate_rp2, graph_p2
from fraisse.cli import main
from fraisse.textio import p2_document

from test_sampling_golden import digest, marked_p2

GOLDEN = Path(__file__).parent / "golden" / "class_layer.txt"
CLI_RUNS = (["check-ap", "--p2", "graph.p2", "--amalgam-bound", "8", "--triple-bound", "4"],
            ["enum", "--p2", "graph.p2", "--size", "3"])


def ap_lines() -> list[str]:
    out = []
    for label, spec, bounds in (("graph", graph_p2(), (8, 4)), ("graph", graph_p2(), (6, 3)),
                                ("marked", marked_p2(), (4, 2))):
        rep = check_ap(spec, *bounds)
        head = f"{label}-{bounds[0]}-{bounds[1]}"
        out.append(f"{head} {rep.verdict} {rep.triples_checked} {rep.witness_count} "
                   f"{rep.inconclusive_count}")
        for i, w in enumerate(rep.sample_witnesses):
            maps = " ".join(",".join(map(str, e.map)) or "-" for e in
                            (w.into_left, w.into_right, w.left_into, w.right_into))
            out.append(f"{head} witness {i} {digest(w.amalgam)} {maps}")
    return out


def enum_lines() -> list[str]:
    out = []
    for label, spec, top in (("graph", graph_p2(), 5), ("marked", marked_p2(), 3)):
        for n in range(top + 1):
            out.extend(f"{label}-{n} {i} {digest(s)}"
                       for i, s in enumerate(enumerate_rp2(spec, n)))
    return out


def cli_lines() -> list[str]:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "graph.p2").write_text(p2_document(graph_p2()))
        cwd = os.getcwd()
        try:
            os.chdir(tmp)
            for argv in CLI_RUNS:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(argv)
                out.append(f"$ {' '.join(argv)} -> {code}")
                out.extend(buf.getvalue().splitlines())
        finally:
            os.chdir(cwd)
    return out


SECTIONS = {"ap": ap_lines, "enum": enum_lines, "cli": cli_lines}


def render() -> str:
    return "".join(f"## {name}\n" + "".join(line + "\n" for line in make())
                   for name, make in SECTIONS.items())


def recorded(section: str) -> list[str]:
    text = GOLDEN.read_text()
    body = text.split(f"## {section}\n", 1)[1]
    return body.split("\n## ", 1)[0].splitlines()


def test_check_ap_reports_match_recorded():
    assert ap_lines() == recorded("ap")


def test_enumerations_match_recorded():
    assert enum_lines() == recorded("enum")


def _by_level(lines: list[str]) -> dict[str, list[str]]:
    levels: dict[str, list[str]] = {}
    for line in lines:
        label, _index, dig = line.split()
        levels.setdefault(label, []).append(dig)
    return {label: sorted(digs) for label, digs in levels.items()}


def test_enumerations_keep_each_levels_classes():
    # key values set the order within a level, never which classes it holds
    assert _by_level(enum_lines()) == _by_level(recorded("enum"))


def test_cli_reports_match_recorded():
    assert cli_lines() == recorded("cli")


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: test_class_golden.py > tests/golden/class_layer.txt")
    sys.stdout.write(render())
