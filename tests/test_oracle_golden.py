"""Oracle layer: recorded realisation scans, post-scans, closure entries
and CLI reports.

`tests/golden/oracle_layer.txt` holds six sections:

* `scan`: for every pattern of `one_point_extensions` over a few bases of
  three unsaturated oracles (`graph_p2()` and the marked spec of
  `test_sampling_golden`), in order, the first realisation that
  `find_realization` returns and the second-lowest bit of `realizer_bits`;
* `verify`: the failing subsets of `verify_saturation` on those oracles;
* `acl`: the entries of `acl_approx` over a two-point base, on a graph
  oracle, a marked oracle and a doubled cover, with a growth budget that
  runs out on the first;
* `probe`: the outcome of `homogeneity_probe` on two stable oracles;
* `game`: the verdict and losing line of `back_and_forth` at k = 1 and
  k = 2, for each ordered pair of distinct graph approximations built
  here (with two prefixes of the first, so that the spoiler also moves
  on the right) and of distinct marked ones, for an edge against a
  non-edge, and for two structures over the arity-3 vocabulary
  `_naive.MIXED`, so that payloads of arity 3 are read too;
* `cli`: the stdout and exit codes of `gen`, `acl`, `triviality`,
  `degenerate` and `example412`, run in a directory holding `graph_p2()`
  as `graph.p2` and the marked spec as `marked.p2`.

Nothing here reads the fields of a pattern, so the file pins behaviour,
not representation.  Which point realises a pattern first, which points
saturation adds and in what order, and every report are part of the
reproducibility contract.  Rewrite the file only when the oracle layer
changes on purpose:

    PYTHONPATH=src python tests/test_oracle_golden.py > tests/golden/oracle_layer.txt
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

from fraisse.amalgamation import graph_p2
from fraisse.cli import main
from fraisse.doubled_cover import DoubledAclSource
from fraisse.generic import (back_and_forth, find_realization, grow_random,
                             homogeneity_probe, new_generic, one_point_extensions,
                             realizer_bits, saturate, saturate_until_stable, verify_saturation)
from fraisse.structures import induced_substructure, point_codes, undirected_graph
from fraisse.textio import p2_document
from fraisse.types_orbits import acl_approx

from _naive import random_mixed
from test_sampling_golden import marked_p2

GOLDEN = Path(__file__).parent / "golden" / "oracle_layer.txt"
BASES = ((), (0,), (3,), (0, 1), (2, 5), (0, 3, 6), (1, 2, 4))
CLI_RUNS = (
    ["gen", "--p2", "graph.p2", "--points", "10", "--saturate", "2", "--passes", "4",
     "--seed", "7"],
    ["gen", "--p2", "marked.p2", "--points", "8", "--saturate", "2", "--passes", "1",
     "--seed", "3"],
    ["acl", "--p2", "graph.p2", "--base", "0,1", "--seed", "3"],
    ["triviality", "--p2", "graph.p2", "--seed", "3"],
    ["degenerate", "--p2", "graph.p2", "--seed", "3"],
    ["example412", "--check", "all", "--base-size", "4", "--seed", "1"],
)


def grown(p2, seed: int, points: int, level: int | None = None):
    o = new_generic(p2, seed)
    grow_random(o, points)
    if level is not None:
        saturate(o, level)
    return o


def unsaturated():
    return (("graph", grown(graph_p2(), 5, 7)), ("marked", grown(marked_p2(), 3, 7)),
            ("marked-l1", grown(marked_p2(), 4, 5, level=1)))


def scan_lines() -> list[str]:
    out = []
    for label, o in unsaturated():
        s = o.current
        codes = point_codes(s)
        for base in BASES:
            taus = one_point_extensions(o.p2, [codes[b] for b in base], base)
            for i, tau in enumerate(taus):
                first = find_realization(s, tau)
                bits = realizer_bits(s, tau)
                rest = bits & (bits - 1)
                second = (rest & -rest).bit_length() - 1 if rest else None
                out.append(f"{label} {list(base)} {i} {first} {second}")
    return out


def verify_lines() -> list[str]:
    out = []
    for (label, o), wide in zip(unsaturated(), (None, 4, 4)):
        for k, prefix in ((1, None), (2, wide)):
            ok, failures = verify_saturation(o.p2, o.current, k, prefix=prefix)
            out.append(f"{label} k={k} prefix={prefix} ok={ok} failures={len(failures)}")
            out.extend(f"{label} k={k} prefix={prefix} {list(subset)}"
                       for subset, _tau in failures)
    return out


def acl_lines() -> list[str]:
    out = []
    sources = (("graph", grown(graph_p2(), 3, 6, level=3), (0, 1)),
               ("marked", grown(marked_p2(), 2, 4, level=3), (0, 1)),
               ("doubled", DoubledAclSource(grown(graph_p2(), 6, 3, level=3)), (0, 2)))
    for label, src, base in sources:
        rep = acl_approx(src, base, d=8, growth_budget=12)
        out.append(f"{label} added={rep.added} inconclusive={rep.inconclusive} "
                   f"closure={sorted(rep.closure)}")
        out.extend(f"{label} {e.element} {e.verdict} {e.count} {e.realizations}"
                   for e in rep.entries)
    return out


def probe_lines() -> list[str]:
    out = []
    for label, p2, seed, m in (("graph", graph_p2(), 13, 2), ("marked", marked_p2(), 5, 1)):
        o = new_generic(p2, seed)
        grow_random(o, 6)
        saturate_until_stable(o, m)
        rep = homogeneity_probe(o, m, 25)
        out.append(f"{label} m={m} size={o.size} successes={rep.successes}/{rep.trials} "
                   f"failures={rep.failures}")
    return out


def game_lines() -> list[str]:
    graph = grown(graph_p2(), 5, 7).current
    graphs = (("graph", graph),
              ("graph-4", induced_substructure(graph, range(4))[0]),
              ("graph-6", induced_substructure(graph, range(6))[0]),
              ("graph-l3", grown(graph_p2(), 3, 6, level=3).current),
              ("graph-l3b", grown(graph_p2(), 6, 3, level=3).current))
    marked = (("marked", grown(marked_p2(), 3, 7).current),
              ("marked-l1", grown(marked_p2(), 4, 5, level=1).current))
    edge = (("edge", undirected_graph(2, [(0, 1)])), ("non-edge", undirected_graph(2, [])))
    rng = random.Random(1)
    mixed = (("mixed-a", random_mixed(rng, 3)), ("mixed-b", random_mixed(rng, 3)))
    out = []
    for group in (graphs, marked, edge, mixed):
        for la, a in group:
            for lb, b in group:
                if la == lb:
                    continue
                for k in (1, 2):
                    rep = back_and_forth(a, b, k)
                    moves = [(m.side, m.point, m.reply) for m in rep.moves]
                    out.append(f"{la} {lb} k={k} equivalent={rep.equivalent} moves={moves}")
    return out


def cli_lines() -> list[str]:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "graph.p2").write_text(p2_document(graph_p2()))
        Path(tmp, "marked.p2").write_text(p2_document(marked_p2()))
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


SECTIONS = {"scan": scan_lines, "verify": verify_lines, "acl": acl_lines,
            "probe": probe_lines, "game": game_lines, "cli": cli_lines}


def render() -> str:
    return "".join(f"## {name}\n" + "".join(line + "\n" for line in make())
                   for name, make in SECTIONS.items())


def recorded(section: str) -> list[str]:
    text = GOLDEN.read_text()
    body = text.split(f"## {section}\n", 1)[1]
    return body.split("\n## ", 1)[0].splitlines()


def test_realization_scans_match_recorded():
    assert scan_lines() == recorded("scan")


def test_saturation_post_scans_match_recorded():
    assert verify_lines() == recorded("verify")


def test_acl_entries_match_recorded():
    assert acl_lines() == recorded("acl")


def test_homogeneity_probes_match_recorded():
    assert probe_lines() == recorded("probe")


def test_extension_games_match_recorded():
    assert game_lines() == recorded("game")


def test_cli_reports_match_recorded():
    assert cli_lines() == recorded("cli")


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: test_oracle_golden.py > tests/golden/oracle_layer.txt")
    sys.stdout.write(render())
