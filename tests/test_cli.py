"""Command-line interface: exit codes, headers, reproducible reports."""
from __future__ import annotations

import csv
import io

import pytest

from fraisse.amalgamation import P2Spec, graph_p2
from fraisse.cli import main
from fraisse.structures import FinStructure, Vocabulary, undirected_graph
from fraisse.textio import p2_document, parse_document, structure_document

from _naive import naive_is_isomorphic
from test_sampling_golden import marked_p2


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def p2file(tmp_path):
    path = tmp_path / "graphs.p2"
    path.write_text(p2_document(graph_p2()))
    return str(path)


def test_check_adequate(p2file, capsys):
    code, out, _ = run(["check-adequate", "--p2", p2file], capsys)
    assert code == 0
    assert "# subcommand: check-adequate" in out
    assert "sha256" in out


def test_check_adequate_negative(tmp_path, capsys):
    bad = tmp_path / "bad.p2"
    bad.write_text(p2_document(P2Spec([undirected_graph(0, []),
                                       undirected_graph(1, [])])))
    code, out, _ = run(["check-adequate", "--p2", str(bad)], capsys)
    assert code == 1


def test_check_hp_and_ap(p2file, capsys):
    assert run(["check-hp", "--p2", p2file], capsys)[0] == 0
    code, out, _ = run(["check-ap", "--p2", p2file,
                        "--amalgam-bound", "6", "--triple-bound", "3"], capsys)
    assert code == 0


def test_check_ap_fails_and_inconclusive_exit_codes(tmp_path, capsys):
    # a plain and a red point are permitted, but no two-point structure:
    # two points over the empty base have no amalgam at all
    vocab = Vocabulary([("red", 1), ("arc", 2)])
    lonely = tmp_path / "lonely.p2"
    lonely.write_text(p2_document(P2Spec([
        FinStructure(vocab, 0), FinStructure(vocab, 1),
        FinStructure(vocab, 1, {"red": [(0,)]})])))
    argv = ["check-ap", "--p2", str(lonely), "--triple-bound", "1", "--amalgam-bound"]
    code, out, _ = run(argv + ["2"], capsys)
    assert code == 1
    assert "verdict: fails" in out
    assert "counterexample base/sides sizes: 0/1/1" in out
    # with room for one point only, the two-point amalgams are out of reach
    code, out, _ = run(argv + ["1"], capsys)
    assert code == 3
    assert "inconclusive triples: 2" in out and "verdict: inconclusive" in out


def test_check_ap_triple_bound_defaults_to_file_bound(tmp_path, capsys):
    text = p2_document(graph_p2())
    assert "\nbound 4\n" in text
    bound3 = tmp_path / "g3.p2"
    bound3.write_text(text.replace("\nbound 4\n", "\nbound 3\n"))
    code, out, _ = run(["check-ap", "--p2", str(bound3)], capsys)
    assert code == 0
    assert "triple bound: 3" in out and "triples checked: 199" in out
    code, out, _ = run(["check-ap", "--p2", str(bound3), "--triple-bound", "4"], capsys)
    assert code == 0
    assert "triple bound: 4" in out and "triples checked: 2787" in out


def test_check_ap_rejects_negative_triple_bound(p2file, capsys):
    code, out, err = run(["check-ap", "--p2", p2file, "--triple-bound", "-1"], capsys)
    assert code == 2
    assert out == "" and "negative triple bound -1" in err


def test_enum_emits_parseable_structures(p2file, capsys):
    code, out, _ = run(["enum", "--p2", p2file, "--size", "3"], capsys)
    assert code == 0
    doc = parse_document(out)          # entire output is a valid document
    names = list(doc.structures)
    assert len(names) == 4
    reps = [doc.structures[n] for n in names]
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not naive_is_isomorphic(a, b)


def test_gen_output_feeds_types(p2file, tmp_path, capsys):
    code, out, _ = run(["gen", "--p2", p2file, "--seed", "7", "--points", "8",
                        "--saturate", "2", "--passes", "8"], capsys)
    assert code == 0
    sfile = tmp_path / "gen.struct"
    sfile.write_text(out)
    code2, out2, _ = run(["types", "--in", str(sfile), "--n", "2",
                          "--distinct"], capsys)
    assert code2 == 0
    assert "distinct types: 2" in out2


def test_gen_is_deterministic(p2file, capsys):
    args = ["gen", "--p2", p2file, "--seed", "4", "--points", "6",
            "--saturate", "2"]
    code, out1, _ = run(args, capsys)
    assert code == 0
    _, out2, _ = run(args, capsys)
    assert out1 == out2
    _, out3, _ = run(["gen", "--p2", p2file, "--seed", "5", "--points", "6"],
                     capsys)
    assert out3 != out1


def test_gen_budget_exhausted_exits_3(p2file, capsys):
    # the first pass needs more than one new point, so it stops at the budget
    code, out, _ = run(["gen", "--p2", p2file, "--points", "6", "--saturate", "2",
                        "--passes", "2", "--budget", "1", "--seed", "3"], capsys)
    assert code == 3
    assert "# budget exhausted: True" in out
    assert "# final size: 7" in out
    assert "#   saturate level=2 pre=6 added=1 exhausted" in out


def test_env_seed_is_honoured(p2file, capsys, monkeypatch):
    monkeypatch.setenv("FRAISSE_SEED", "4")
    _, out_env, _ = run(["gen", "--p2", p2file, "--points", "6"], capsys)
    monkeypatch.delenv("FRAISSE_SEED")
    _, out_flag, _ = run(["gen", "--p2", p2file, "--seed", "4",
                          "--points", "6"], capsys)
    assert "# seed: 4" in out_env
    assert out_env == out_flag


def test_env_seed_must_be_an_integer(p2file, capsys, monkeypatch):
    monkeypatch.setenv("FRAISSE_SEED", "x")
    code, out, err = run(["gen", "--p2", p2file, "--points", "6"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: FRAISSE_SEED is not an integer: 'x'\n"


def test_gen_transcript_lists_unary_and_loop_marks(tmp_path, capsys):
    path = tmp_path / "marked.p2"
    path.write_text(p2_document(marked_p2()))
    code, out, _ = run(["gen", "--p2", str(path), "--seed", "2", "--points", "4"], capsys)
    assert code == 0
    marks = [line.split()[3] for line in out.splitlines() if line.startswith("#   extend")]
    assert marks == ["marks=red,loop:arc"] * 2 + ["marks=loop:arc"] * 2
    assert "\nred: 0; 1\narc: 0 0; 0 1; 1 0; 1 1; 2 1; 2 2; 3 2; 3 3\n" in out


def test_types_table_and_csv(tmp_path, capsys):
    sfile = tmp_path / "p3.txt"
    sfile.write_text(structure_document(undirected_graph(3, [(0, 1), (1, 2)])))
    code, out, _ = run(["types", "--in", str(sfile), "--n", "2",
                        "--distinct"], capsys)
    assert code == 0
    assert "distinct types: 2" in out
    code, out, _ = run(["types", "--in", str(sfile), "--n", "2",
                        "--distinct", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(
        "\n".join(line for line in out.splitlines()
                  if line and not line.startswith("#") and "," in line))))
    assert len(rows) >= 3        # header + two type rows
    counts = sorted(int(r[-1]) for r in rows[1:3])
    assert counts == [2, 4]


def test_acl_subcommand(p2file, capsys):
    code, out, _ = run(["acl", "--p2", p2file, "--seed", "3",
                        "--base", "1,2"], capsys)
    assert code == 0
    assert "algebraic closure: [1, 2]" in out


def test_triviality_subcommand(p2file, capsys):
    code, out, _ = run(["triviality", "--p2", p2file, "--seed", "3"], capsys)
    assert code == 0
    assert "verdict: trivial" in out


def test_triviality_budget_starved(p2file, capsys):
    code, _, err = run(["triviality", "--p2", p2file, "--seed", "3",
                        "--budget", "2"], capsys)
    assert code == 3
    assert "inconclusive" in err


def test_degenerate_subcommand(p2file, capsys):
    code, out, _ = run(["degenerate", "--p2", p2file, "--seed", "3"], capsys)
    assert code == 0
    assert "verdict: degenerate" in out


def test_example412_all_checks(capsys, tmp_path):
    outdir = tmp_path / "emit"
    code, out, _ = run(["example412", "--seed", "5", "--base-size", "10",
                        "--check", "all", "--trials", "30",
                        "--emit-structures", str(outdir)], capsys)
    assert code == 0
    for word in ("claim1", "claim2", "claim3", "separation", "reduct"):
        assert word in out
    assert sorted(p.name for p in outdir.iterdir()) == [
        "f.txt", "m.txt", "marked_pair_family.txt", "mstar.txt",
        "pair_family.txt", "quotient_types.txt"]


def test_reduct_subcommand_both_directions(capsys, tmp_path):
    outdir = tmp_path / "emit"
    run(["example412", "--seed", "5", "--base-size", "10", "--check",
         "claim1", "--emit-structures", str(outdir)], capsys)
    code, out, _ = run(["reduct",
                        "--source", str(outdir / "marked_pair_family.txt"),
                        "--target", str(outdir / "quotient_types.txt"),
                        "--nmax", "3"], capsys)
    assert code == 0 and "holds" in out
    code, out, _ = run(["reduct",
                        "--source", str(outdir / "pair_family.txt"),
                        "--target", str(outdir / "quotient_types.txt"),
                        "--nmax", "3"], capsys)
    assert code == 1
    assert "fails at arity 3" in out and "counterexample" in out


def test_zeroone_subcommand(p2file, capsys):
    code, out, _ = run(["zeroone", "--p2", p2file, "--sizes", "8,16",
                        "--trials", "20", "--seed", "2"], capsys)
    assert code == 0
    assert "axioms: 6" in out
    assert "joint" in out


def test_zeroone_axiom_option_reports_a_drop(p2file, capsys):
    # the 2-slot axiom holds vacuously on one point (50/50) and 5/50 times on four
    code, out, _ = run(["zeroone", "--p2", p2file, "--axiom", "ext 2: adj | adj",
                        "--sizes", "1,4", "--trials", "50"], capsys)
    assert code == 0
    assert "\naxioms: 1\n" in out and "\naxiom 0: ext 2: adj | adj\n" in out
    assert out.endswith("\nnon-monotonic: axiom 0 drops beyond interval overlap "
                        "at sizes [(1, 4)]\n")


def test_usage_errors_exit_2(p2file, capsys, tmp_path):
    assert run(["check-hp", "--p2", str(tmp_path / "missing.p2")],
               capsys)[0] == 2
    bad = tmp_path / "bad.p2"
    bad.write_text("this is not a p2 file\n")
    assert run(["check-hp", "--p2", str(bad)], capsys)[0] == 2
    assert run(["no-such-command"], capsys)[0] == 2
    assert run(["types", "--in", p2file], capsys)[0] == 2


@pytest.mark.parametrize("argv", [
    ["example412", "--check", "claim2", "--base-size", "4", "--pairs", "-1"],
    ["example412", "--check", "claim2", "--base-size", "4", "--trials", "-5"],
    ["gen", "--p2", "P2", "--points", "-2"],
    ["acl", "--p2", "P2", "--d", "0"],
    ["triviality", "--p2", "P2", "--max-b", "-1"],
    ["triviality", "--p2", "P2", "--d", "0"],
    ["degenerate", "--p2", "P2", "--max-c", "-1"],
    ["degenerate", "--p2", "P2", "--max-b", "0"],
    ["zeroone", "--p2", "P2", "--full", "-1"],
    ["example412", "--check", "reduct", "--nmax", "2"],
])
def test_out_of_range_bounds_exit_2(argv, p2file, capsys):
    code, out, err = run([p2file if a == "P2" else a for a in argv], capsys)
    assert code == 2
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


REJECTED_BOUNDS = [
    (["acl", "--p2", "P2", "--d", "0"], "the duplication bound d must be >= 1, got 0"),
    (["acl", "--p2", "P2", "--base", "0,0"], "base (0, 0) repeats a point"),
    (["acl", "--p2", "P2", "--base", "2,-1"], "base (2, -1) leaves the universe"),
    # no run grows past --points + --budget points (16 + 512 by default)
    (["acl", "--p2", "P2", "--base", "0,1,528"], "base (0, 1, 528) leaves the universe"),
    (["acl", "--p2", "P2", "--points", "40", "--budget", "9", "--base", "49,0"],
     "base (49, 0) leaves the universe"),
    (["triviality", "--p2", "P2", "--max-b", "-1"], "max_b must be >= 0, got -1"),
    (["triviality", "--p2", "P2", "--d", "0"], "the duplication bound d must be >= 1, got 0"),
    (["degenerate", "--p2", "P2", "--rho", "0"], "rho must be >= 1, got 0"),
    (["degenerate", "--p2", "P2", "--max-c", "-1"],
     "degeneracy needs max_b >= 1 and max_c >= 0, got 3 and -1"),
    (["degenerate", "--p2", "P2", "--max-b", "0"],
     "degeneracy needs max_b >= 1 and max_c >= 0, got 0 and 3"),
    (["degenerate", "--p2", "P2", "--d", "0"], "the duplication bound d must be >= 1, got 0"),
    (["example412", "--pairs", "-1"],
     "pair-extension trials need n >= 0 pairs and a non-negative trial count, got -1 and 200"),
    (["example412", "--check", "claim2", "--trials", "-5"],
     "pair-extension trials need n >= 0 pairs and a non-negative trial count, got 2 and -5"),
    (["zeroone", "--p2", "P2", "--full", "-1"], "full must be >= 0, got -1"),
    (["example412", "--check", "reduct", "--nmax", "2"], "the reduct check needs nmax >= 3, got 2"),
    (["example412", "--nmax", "1"], "the reduct check needs nmax >= 3, got 1"),
    (["gen", "--p2", "P2", "--saturate", "2", "--budget", "-1"], "budget must be >= 0, got -1"),
    (["gen", "--p2", "P2", "--saturate", "-1"], "saturate must be >= 0, got -1"),
    (["gen", "--p2", "P2", "--passes", "-1"], "passes must be >= 0, got -1"),
    (["acl", "--p2", "P2", "--growth-budget", "-1"], "growth_budget must be >= 0, got -1"),
    (["triviality", "--p2", "P2", "--budget", "-1"], "budget must be >= 0, got -1"),
    (["example412", "--budget", "-1"], "budget must be >= 0, got -1"),
    (["enum", "--p2", "NEG", "--size", "3"], "line 17: size_bound must be >= 0, got -2"),
    (["check-ap", "--p2", "NEG"], "line 17: size_bound must be >= 0, got -2"),
]


@pytest.mark.parametrize("argv, message", REJECTED_BOUNDS,
                         ids=[" ".join(a for a in argv if a not in ("--p2", "P2"))
                              for argv, _ in REJECTED_BOUNDS])
def test_out_of_range_bounds_are_rejected_before_any_oracle(argv, message, p2file, tmp_path,
                                                            capsys, monkeypatch):
    def no_oracle(*args):
        raise AssertionError("an oracle or a sampler ran before the bounds were checked")

    monkeypatch.setattr("fraisse.cli.new_generic", no_oracle)
    monkeypatch.setattr("fraisse.cli.convergence_report", no_oracle)
    # the graph permission set with bound -2; its p2 block opens on line 17
    neg = tmp_path / "neg.p2"
    neg.write_text(p2_document(graph_p2()).replace("\nbound 4\n", "\nbound -2\n"))
    files = {"P2": p2file, "NEG": str(neg)}
    code, out, err = run([files.get(a, a) for a in argv], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


MALFORMED_LISTS = [
    (["acl", "--p2", "P2", "--base", "a"], "--base", "'a'"),
    (["types", "--in", "P2", "--n", "1", "--params", "x"], "--params", "'x'"),
    (["zeroone", "--p2", "P2", "--sizes", "x"], "--sizes", "'x'"),
    (["zeroone", "--p2", "P2", "--sizes", "5,,6"], "--sizes", "'5,,6'"),
]


@pytest.mark.parametrize("argv, option, value", MALFORMED_LISTS,
                         ids=[" ".join(argv[:1] + argv[-2:]) for argv, _, _ in MALFORMED_LISTS])
def test_malformed_integer_lists_are_usage_errors(argv, option, value, p2file, capsys):
    code, out, err = run([p2file if a == "P2" else a for a in argv], capsys)
    assert (code, out) == (2, "")
    assert f"argument {option}: expected comma-separated integers, got {value}" in err


@pytest.mark.parametrize("argv", [
    ["triviality", "--p2", "P2", "--format", "csv"],
    ["example412", "--emit-nmax", "2"],
])
def test_removed_options_are_usage_errors(argv, p2file, capsys):
    code, out, err = run([p2file if a == "P2" else a for a in argv], capsys)
    assert code == 2
    assert out == "" and "unrecognized arguments" in err


def test_reports_are_byte_identical(p2file, capsys):
    args = ["zeroone", "--p2", p2file, "--sizes", "6", "--trials", "10",
            "--seed", "9"]
    _, a, _ = run(args, capsys)
    _, b, _ = run(args, capsys)
    assert a == b
