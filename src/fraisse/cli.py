"""Command-line front end.

One binary, subcommand style.  Every report starts with a
reproducibility header (tool version, resolved seed, input digests) and
identical configurations produce byte-identical reports.  Exit codes:
0 verdict computed (and positive where the subcommand checks a
property), 1 negative verdict, 2 usage or input error, 3 inconclusive
(budget or saturation shortfall)."""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import os
import sys
from pathlib import Path

from . import __version__
from .amalgamation import (
    check_1_adequate,
    check_ap,
    check_hp,
    enumerate_rp2,
    graph_p2,
)
from .doubled_cover import (
    _check_claim2_counts,
    build_double,
    build_expansion_star,
    e_definability_check,
    quotient,
    three_type_separation,
    verify_claim1,
    verify_claim2,
    verify_claim3,
)
from .errors import (
    ConfigurationNotFoundError,
    ExtensionError,
    FraisseError,
    InputError,
    SaturationError,
)
from .generic import grow_random, new_generic, saturate, saturate_until_stable
from .reduct import from_quotient, is_reduct, pair_family_universe
from .structures import FinStructure
from .textio import (
    Document,
    document_text,
    load_p2,
    load_structure,
    parse_typed_universe,
    save_typed_universe,
    structure_document,
)
from .types_orbits import (
    _check_base_points,
    _check_bounds,
    _check_degeneracy_bounds,
    acl_approx,
    check_degenerate_dependence,
    check_triviality,
    enumerate_types,
)
from .zero_one import (
    convergence_report,
    full_extension_axioms,
    parse_axiom,
)

USAGE_ERROR = 2
INCONCLUSIVE = 3


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("FRAISSE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"FRAISSE_SEED is not an integer: {env!r}") from None
    return 0


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Report:
    """Line accumulator with the standard header."""

    def __init__(self, subcommand: str, inputs=(), seed: int | None = None):
        self.lines: list[str] = [f"# fraisse {__version__}",
                                 f"# subcommand: {subcommand}"]
        if seed is not None:
            self.lines.append(f"# seed: {seed}")
        for path in inputs:
            self.lines.append(f"# input {path} sha256: {_digest(path)}")

    def add(self, *lines: str) -> None:
        self.lines.extend(lines)

    def table(self, header: list[str], rows: list[list[str]], fmt: str) -> None:
        if fmt == "csv":
            buf = io.StringIO()
            w = csv.writer(buf, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
            self.lines.extend(buf.getvalue().splitlines())
            return
        widths = [len(h) for h in header]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        def line(cells):
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        self.lines.append(line(header))
        self.lines.append(line(["-" * w for w in widths]))
        for row in rows:
            self.lines.append(line(row))

    def emit(self) -> None:
        print("\n".join(self.lines))


def _exit_code(verdict: str, positive: str, negative: str) -> int:
    return {positive: 0, negative: 1}.get(verdict, INCONCLUSIVE)


def _structure_lines(s: FinStructure, name: str) -> list[str]:
    return structure_document(s, name=name).rstrip("\n").splitlines()


# ---------------------------------------------------------------------------
# subcommands


def cmd_check_hp(args) -> int:
    p2 = load_p2(args.p2)
    rep = check_hp(p2)
    r = Report("check-hp", [args.p2])
    r.add(f"members: {len(p2.members)}", f"substructures checked: {rep.checked}",
          f"verdict: {rep.verdict}")
    if rep.counterexample:
        member, subset, sub = rep.counterexample
        r.add(f"counterexample: subset {list(subset)} of a member is not permitted")
        r.add(*_structure_lines(sub, "missing"))
    r.emit()
    return 0 if rep.verdict == "holds" else 1


def cmd_check_adequate(args) -> int:
    p2 = load_p2(args.p2)
    rep = check_1_adequate(p2)
    r = Report("check-adequate", [args.p2])
    r.add(f"has empty structure: {rep.has_empty}",
          f"has a 2-point member: {rep.has_two_structure}",
          f"hereditarily closed: {rep.hp_counterexample is None}",
          f"jointly realized 1-type pairs: {len(rep.witnesses)}",
          f"missing 1-type pairs: {len(rep.missing_pairs)}",
          f"verdict: {rep.verdict}")
    for note in rep.notes:
        r.add(f"note: {note}")
    r.emit()
    return 0 if rep.verdict == "holds" else 1


def cmd_check_ap(args) -> int:
    p2 = load_p2(args.p2)
    rep = check_ap(p2, amalgam_bound=args.amalgam_bound,
                   triple_bound=args.triple_bound)
    r = Report("check-ap", [args.p2])
    r.add(f"triple bound: {rep.triple_bound}",
          f"amalgam bound: {rep.amalgam_bound}",
          f"triples checked: {rep.triples_checked}",
          f"witnesses found: {rep.witness_count}",
          f"inconclusive triples: {rep.inconclusive_count}",
          f"verdict: {rep.verdict}")
    if rep.counterexample:
        r.add("counterexample base/sides sizes: "
              f"{rep.counterexample.base.size}/"
              f"{rep.counterexample.left.size}/{rep.counterexample.right.size}")
    r.emit()
    return _exit_code(rep.verdict, "holds", "fails")


def cmd_enum(args) -> int:
    p2 = load_p2(args.p2)
    reps = enumerate_rp2(p2, args.size)
    r = Report("enum", [args.p2])
    # non-document lines are comments so the output parses as a document
    r.add(f"# size: {args.size}", f"# isomorphism types: {len(reps)}")
    if reps:
        doc = Document({"v": reps[0].vocab}, {f"rep{i}": s for i, s in enumerate(reps)})
        r.add("", *document_text(doc).splitlines())
    r.emit()
    return 0


def cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    p2 = load_p2(args.p2)
    oracle = new_generic(p2, seed)
    grow_random(oracle, args.points)
    exhausted = False
    if args.saturate > 0:
        for _ in range(args.passes):
            rep = saturate(oracle, args.saturate, new_point_budget=args.budget)
            if rep.exhausted:
                exhausted = True
                break
            if rep.added == 0:
                break
    r = Report("gen", [args.p2], seed=seed)
    # non-document lines are comments so the output parses as a structure file
    r.add(f"# points requested: {args.points}",
          f"# saturation level: {args.saturate}",
          f"# final size: {oracle.size}",
          f"# saturation record: {sorted(oracle.saturation.items())}",
          f"# budget exhausted: {exhausted}")
    r.add("", "# transcript:")
    for entry in oracle.log:
        r.add(f"#   {entry.op} {entry.detail}")
    r.add("", *_structure_lines(oracle.current, "generated"))
    r.emit()
    return INCONCLUSIVE if exhausted else 0


def cmd_types(args) -> int:
    s = load_structure(args.input)
    census = enumerate_types(s, args.n, params=args.params, distinct=args.distinct)
    r = Report("types", [args.input])
    r.add(f"arity: {args.n}", f"parameters: {list(args.params)}",
          f"distinct tuples only: {args.distinct}",
          f"distinct types: {len(census.entries)}",
          f"tuples counted: {census.total}")
    rows = [[t.fingerprint, str(c)] for t, c in census.entries]
    r.table(["type", "count"], rows, args.format)
    r.emit()
    return 0


def _grown_oracle(args, seed: int, need_level: int):
    """Grow, then saturate to the level the subcommand's base sizes
    require.  Levels up to 2 are stabilized over the whole universe;
    higher levels run as a single pass over the freshly grown prefix,
    since each pass enumerates subsets of everything already present and
    repeated high-level passes blow up combinatorially."""
    p2 = load_p2(args.p2)
    oracle = new_generic(p2, seed)
    grow_random(oracle, args.points)
    level = max(args.saturate, need_level)
    if level > 2:
        saturate(oracle, level, new_point_budget=args.budget)
    else:
        saturate_until_stable(oracle, level, new_point_budget=args.budget)
    return oracle


def cmd_acl(args) -> int:
    seed = _resolve_seed(args)
    _check_bounds(args.d)
    # the budget is strict, so no run grows past points + budget
    _check_base_points(args.base, args.points + args.budget)
    oracle = _grown_oracle(args, seed, len(args.base) + 1)
    rep = acl_approx(oracle, args.base, d=args.d, growth_budget=args.growth_budget)
    r = Report("acl", [args.p2], seed=seed)
    r.add(f"base: {list(rep.base)}", f"duplication bound d: {rep.d}",
          f"growth budget: {args.growth_budget}", f"points added while probing: {rep.added}",
          f"inconclusive entries: {rep.inconclusive}")
    rows = [[str(e.element), e.verdict, str(e.count)] for e in rep.entries]
    r.table(["element", "verdict", "realizations"], rows, args.format)
    r.add(f"algebraic closure: {sorted(rep.closure)}")
    r.emit()
    return INCONCLUSIVE if rep.inconclusive else 0


def cmd_triviality(args) -> int:
    seed = _resolve_seed(args)
    _check_bounds(args.d, args.max_b)
    oracle = _grown_oracle(args, seed, args.max_b + 1)
    rep = check_triviality(oracle, args.max_b, d=args.d,
                           growth_budget=args.growth_budget)
    r = Report("triviality", [args.p2], seed=seed)
    r.add(f"max base size: {args.max_b}", f"duplication bound d: {args.d}",
          f"bases checked: {rep.bases_checked}",
          f"growth budget: {args.growth_budget}", f"points added while probing: {rep.added}",
          f"inconclusive entries: {rep.inconclusive}",
          f"verdict: {rep.verdict}")
    if rep.counterexample:
        a, b = rep.counterexample
        r.add(f"counterexample: element {a} algebraic over {list(b)} "
              "but over no singleton of it")
    r.emit()
    return _exit_code(rep.verdict, "trivial", "nontrivial")


def cmd_degenerate(args) -> int:
    seed = _resolve_seed(args)
    _check_degeneracy_bounds(args.rho, args.max_b, args.max_c, args.d)
    oracle = _grown_oracle(args, seed, args.max_b + args.max_c + 1)
    rep = check_degenerate_dependence(oracle, args.rho, max_b=args.max_b,
                                      max_c=args.max_c, d=args.d,
                                      growth_budget=args.growth_budget)
    r = Report("degenerate", [args.p2], seed=seed)
    r.add(f"rho: {args.rho}", f"max |B|: {args.max_b}", f"max |C|: {args.max_c}",
          f"dependencies examined: {rep.dependencies}",
          f"witnesses recorded: {len(rep.witnesses)}",
          f"growth budget: {args.growth_budget}", f"points added while probing: {rep.added}",
          f"inconclusive entries: {rep.inconclusive}",
          f"verdict: {rep.verdict}")
    if rep.counterexample:
        a, bb, cb = rep.counterexample
        r.add(f"counterexample: element {a} depends on {list(bb)} "
              f"over {list(cb)} with no small witness set")
    r.emit()
    return _exit_code(rep.verdict, "degenerate", "counterexample")


def cmd_example412(args) -> int:
    seed = _resolve_seed(args)
    checks = (["claim1", "e-def", "claim3", "separation", "claim2", "reduct"]
              if args.check == "all" else [args.check])
    if "claim2" in checks:
        _check_claim2_counts(args.pairs, args.trials)
    if "reduct" in checks and args.nmax < 3:
        raise InputError(f"the reduct check needs nmax >= 3, got {args.nmax}")
    p2 = graph_p2()
    oracle = new_generic(p2, seed)
    grow_random(oracle, args.base_size)
    saturate_until_stable(oracle, 2, new_point_budget=args.budget)
    f2 = oracle.current
    d2 = build_double(f2, oracle.saturation)
    r = Report("example412", seed=seed)
    r.add(f"base size requested: {args.base_size}",
          f"2-stable base size: {f2.size}",
          f"cover size: {d2.size}")
    failed = False
    inconclusive = False
    q2 = quotient(d2)
    mstar = build_expansion_star(d2)
    qstar = quotient(d2, ambient=mstar)
    for check in checks:
        r.add("")
        if check == "claim1":
            rep = verify_claim1(d2)
            r.add(f"claim1 (pair-level adjacency equivalences): {rep.verdict} "
                  f"on {rep.pairs_checked} ordered pairs")
            failed |= not rep.holds
        elif check == "e-def":
            rep = e_definability_check(d2)
            r.add(f"bond definability (equal or no common neighbour): {rep.verdict} "
                  f"on {rep.pairs_checked} pairs")
            failed |= not rep.matches
        elif check == "claim3":
            rep = verify_claim3(q2)
            r.add(f"claim3 (one 2-type of distinct classes): {rep.verdict} "
                  f"on {rep.pairs_checked} ordered pairs; "
                  f"base cases {rep.case_counts}")
            failed |= not rep.holds
        elif check == "separation":
            try:
                rep = three_type_separation(q2)
                r.add(f"3-type separation: witness {rep.even_triple} vs "
                      f"{rep.odd_triple}, pairwise types match: {rep.pairwise_match}")
            except ConfigurationNotFoundError as e:
                r.add(f"3-type separation: not found ({e})")
                failed = True
        elif check == "claim2":
            saturate(oracle, args.pairs + 1, new_point_budget=args.budget)
            d3 = build_double(oracle.current, oracle.saturation)
            try:
                rep = verify_claim2(d3, args.pairs, args.trials, seed=seed)
                r.add(f"claim2 (pair-closed maps extend): {rep.successes}/"
                      f"{rep.trials} trials at n={rep.n}, sampling prefix "
                      f"{rep.prefix}")
                failed |= not rep.holds
            except SaturationError as e:
                r.add(f"claim2: refused ({e})")
                inconclusive = True
        elif check == "reduct":
            g = from_quotient(q2, args.nmax)
            g0 = pair_family_universe(q2, args.nmax)
            gstar0 = pair_family_universe(qstar, args.nmax)
            rep_neg = is_reduct(g0, g, min(args.nmax, 3))
            rep_pos = is_reduct(gstar0, g, args.nmax)
            r.add(f"reduct of plain pair-family: {rep_neg.verdict}"
                  + (f" at arity {rep_neg.failing_arity}" if not rep_neg.holds else ""),
                  f"reduct of marked pair-family: {rep_pos.verdict} up to "
                  f"arity {args.nmax}")
            failed |= rep_neg.holds or not rep_pos.holds
    if args.emit_structures:
        outdir = Path(args.emit_structures)
        outdir.mkdir(parents=True, exist_ok=True)
        files = {
            "f.txt": structure_document(d2.base, name="base"),
            "m.txt": structure_document(d2.m, name="cover"),
            "mstar.txt": structure_document(mstar, name="marked-cover"),
            "quotient_types.txt": save_typed_universe(
                from_quotient(q2, 3), "quotient-types"),
            "pair_family.txt": save_typed_universe(
                pair_family_universe(q2, 3), "pair-family"),
            "marked_pair_family.txt": save_typed_universe(
                pair_family_universe(qstar, 3), "marked-pair-family"),
        }
        for fname, text in files.items():
            (outdir / fname).write_text(text)
        r.add("", f"emitted {len(files)} files to {outdir}")
    r.emit()
    if failed:
        return 1
    return INCONCLUSIVE if inconclusive else 0


def cmd_zeroone(args) -> int:
    seed = _resolve_seed(args)
    if args.full is not None and args.full < 0:
        raise InputError(f"full must be >= 0, got {args.full}")
    p2 = load_p2(args.p2)
    axioms = []
    for text in args.axiom or []:
        axioms.append(parse_axiom(p2.vocab, text))
    if args.full is not None:
        for k in range(args.full + 1):
            axioms.extend(full_extension_axioms(p2, k))
    if not axioms:
        axioms = [ax for k in (1, 2) for ax in full_extension_axioms(p2, k)]
    rep = convergence_report(p2, axioms, args.sizes, args.trials, seed=seed)
    r = Report("zeroone", [args.p2], seed=seed)
    r.add(f"axioms: {len(axioms)}", f"trials per size: {rep.trials}",
          "note: sampling is labelled-uniform, independent across points "
          "and pairs")
    for i, ax in enumerate(rep.axioms):
        r.add(f"axiom {i}: {ax.label()}"
              + ("  [incompatible]" if i in rep.incompatible else ""))
    header = ["n"] + [f"axiom {i}" for i in range(len(axioms))] + ["joint"]
    rows = []
    for si, n in enumerate(rep.sizes):
        est = rep.estimates[si]
        cells = [str(n)]
        for i in range(len(axioms)):
            lo, hi = est.interval(i)
            cells.append(f"{est.frequency(i):.4f} [{lo:.4f},{hi:.4f}]")
        cells.append(f"{est.point_estimate:.4f}")
        rows.append(cells)
    r.table(header, rows, args.format)
    if rep.non_monotonic:
        for i, drops in sorted(rep.non_monotonic.items()):
            r.add(f"non-monotonic: axiom {i} drops beyond interval overlap "
                  f"at sizes {drops}")
    else:
        r.add("no non-monotonic drops beyond 95% interval overlap")
    r.emit()
    return 0


def cmd_reduct(args) -> int:
    source = parse_typed_universe(Path(args.source).read_text())
    target = parse_typed_universe(Path(args.target).read_text())
    nmax = min(args.nmax, source.n_max, target.n_max)
    rep = is_reduct(source, target, nmax)
    r = Report("reduct", [args.source, args.target])
    r.add(f"carrier: {source.size}", f"arity bound: {nmax}"
          + (f" (clamped from {args.nmax})" if nmax != args.nmax else ""),
          f"verdict: {rep.verdict}"
          + (f" at arity {rep.failing_arity}" if not rep.holds else f" up to {nmax}"))
    if rep.counterexample:
        a, b, key = rep.counterexample
        r.add(f"counterexample: tuples {a} and {b} share source type {key} "
              "but differ in the target")
    r.emit()
    return 0 if rep.holds else 1


# ---------------------------------------------------------------------------
# parser


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; the empty string is the empty tuple."""
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _seed_opt(p):
    p.add_argument("--seed", type=int, default=None,
                   help="64-bit seed (default: FRAISSE_SEED or 0)")


def _format_opt(p):
    p.add_argument("--format", choices=("text", "csv"), default="text",
                   help="table output format")


def _oracle_opts(p):
    p.add_argument("--points", type=int, default=16,
                   help="points to grow before saturating")
    p.add_argument("--saturate", type=int, default=2,
                   help="saturation level (up to 2: stabilized; "
                        "higher: one pass over the grown points)")
    p.add_argument("--budget", type=int, default=512,
                   help="new-point budget for saturation")
    p.add_argument("--d", type=int, default=5,
                   help="duplication bound separating algebraic from not")
    p.add_argument("--growth-budget", type=int, default=500,
                   help="new-point budget while probing closures")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraisse",
        description="Finite relational structures: amalgamation classes, "
                    "permission-set samplers, generic oracles, type and "
                    "closure analysis, doubled covers, reduct checks.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check-hp",
                       help="hereditary closure of a permission set",
                       description="Checks the hereditary property: every "
                                   "substructure of a permitted structure is "
                                   "again permitted.")
    p.add_argument("--p2", required=True, help="permission-set file")
    p.set_defaults(func=cmd_check_hp)

    p = sub.add_parser("check-adequate",
                       help="1-adequacy of a two-point permission set",
                       description="Checks 1-adequacy: hereditarily closed, "
                                   "contains the empty structure and a "
                                   "2-point member, and every pair of "
                                   "permitted point types is jointly realized "
                                   "on distinct points.")
    p.add_argument("--p2", required=True, help="permission-set file")
    p.set_defaults(func=cmd_check_adequate)

    p = sub.add_parser("check-ap",
                       help="amalgamation property over bounded triples",
                       description="Searches amalgams for every triple of "
                                   "permitted structures within the bounds; "
                                   "a definite failure is a counterexample, "
                                   "a skipped triple makes the verdict "
                                   "inconclusive.")
    p.add_argument("--p2", required=True, help="permission-set file")
    p.add_argument("--amalgam-bound", type=int, default=8)
    p.add_argument("--triple-bound", type=int,
                   help="largest triple size (default: the file's bound)")
    p.set_defaults(func=cmd_check_ap)

    p = sub.add_parser("enum",
                       help="permitted structures of a size, up to isomorphism",
                       description="Enumerates the structures all of whose "
                                   "point and pair patterns are permitted.")
    p.add_argument("--p2", required=True, help="permission-set file")
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("gen",
                       help="seeded generic structure approximation",
                       description="Grows a random permitted structure and "
                                   "saturates its one-point extension "
                                   "patterns, emitting the structure and a "
                                   "replayable transcript.")
    p.add_argument("--p2", required=True, help="permission-set file")
    _seed_opt(p)
    p.add_argument("--points", type=int, default=16)
    p.add_argument("--saturate", type=int, default=0,
                   help="saturation level (0 = skip)")
    p.add_argument("--passes", type=int, default=1,
                   help="saturation passes to run")
    p.add_argument("--budget", type=int, default=256)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("types",
                       help="census of tuple types of a structure",
                       description="Counts the quantifier-free tuple types "
                                   "of a structure at one arity, optionally "
                                   "relative to parameter points.")
    p.add_argument("--in", dest="input", required=True, help="structure file")
    p.add_argument("--n", type=int, required=True, help="tuple arity")
    p.add_argument("--params", type=_int_list, default="",
                   help="comma-separated parameters")
    p.add_argument("--distinct", action="store_true",
                   help="count only tuples of distinct points")
    _format_opt(p)
    p.set_defaults(func=cmd_types)

    p = sub.add_parser("acl",
                       help="algebraic-closure approximation over a base",
                       description="Classifies elements as algebraic or not "
                                   "over a base by counting realizations of "
                                   "their type and growing the structure "
                                   "to duplicate the non-algebraic ones.")
    p.add_argument("--p2", required=True, help="permission-set file")
    _seed_opt(p)
    _oracle_opts(p)
    p.add_argument("--base", type=_int_list, default="",
                   help="comma-separated base points")
    _format_opt(p)
    p.set_defaults(func=cmd_acl, points=8)

    p = sub.add_parser("triviality",
                       help="whether closure reduces to singleton closures",
                       description="Checks that every element algebraic over "
                                   "a small base is already algebraic over "
                                   "one of its points.")
    p.add_argument("--p2", required=True, help="permission-set file")
    _seed_opt(p)
    _oracle_opts(p)
    p.add_argument("--max-b", type=int, default=3, help="largest base size")
    p.set_defaults(func=cmd_triviality, points=6)

    p = sub.add_parser("degenerate",
                       help="small witness sets for every dependence",
                       description="Checks that whenever an element depends "
                                   "on a set B over C, some subset of B of "
                                   "size below the arity bound already "
                                   "carries the dependence.")
    p.add_argument("--p2", required=True, help="permission-set file")
    _seed_opt(p)
    _oracle_opts(p)
    p.add_argument("--rho", type=int, default=2,
                   help="arity bound rho; witnesses have size < rho")
    p.add_argument("--max-b", type=int, default=3)
    p.add_argument("--max-c", type=int, default=3)
    p.set_defaults(func=cmd_degenerate, points=5)

    p = sub.add_parser("example412",
                       help="doubled-cover construction, end to end",
                       description="Builds the doubled cover of a seeded "
                                   "random-graph approximation and runs the "
                                   "pair-level adjacency equivalences, bond "
                                   "definability, quotient 2-type collapse, "
                                   "3-type separation, map-extension trials, "
                                   "and the reduct verdicts.")
    _seed_opt(p)
    p.add_argument("--base-size", type=int, default=32)
    p.add_argument("--budget", type=int, default=2048)
    p.add_argument("--check", default="all",
                   choices=("all", "claim1", "claim2", "claim3", "e-def",
                            "separation", "reduct"))
    p.add_argument("--pairs", type=int, default=2,
                   help="pairs in the domain of sampled maps")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--nmax", type=int, default=3,
                   help="arity bound for the reduct check, at least 3")
    p.add_argument("--emit-structures", default=None, metavar="DIR",
                   help="write base, cover, marked cover, and quotient "
                        "type tables up to arity 3 to a directory")
    p.set_defaults(func=cmd_example412)

    p = sub.add_parser("zeroone",
                       help="extension-axiom frequencies in uniform samples",
                       description="Samples permitted structures uniformly "
                                   "and tabulates how often extension axioms "
                                   "hold, with 95% intervals across sizes.")
    p.add_argument("--p2", required=True, help="permission-set file")
    _seed_opt(p)
    p.add_argument("--axiom", action="append",
                   help="axiom in mini-format, e.g. 'ext 2: adj | adj'; "
                        "repeatable")
    p.add_argument("--full", type=int, default=None, metavar="K",
                   help="add every axiom with up to K base points")
    p.add_argument("--sizes", type=_int_list, default="10,20,50,100,200")
    p.add_argument("--trials", type=int, default=200)
    _format_opt(p)
    p.set_defaults(func=cmd_zeroone)

    p = sub.add_parser("reduct",
                       help="type-partition refinement between universes",
                       description="Decides whether the target's types are "
                                   "determined by the source's on a shared "
                                   "carrier, arity by arity.")
    p.add_argument("--source", required=True, help="typed-universe file")
    p.add_argument("--target", required=True, help="typed-universe file")
    p.add_argument("--nmax", type=int, default=3)
    p.set_defaults(func=cmd_reduct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for opt in ("budget", "growth_budget", "passes", "saturate"):
            if getattr(args, opt, 0) < 0:
                raise InputError(f"{opt} must be >= 0, got {getattr(args, opt)}")
        return args.func(args)
    except (SaturationError, ExtensionError) as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return INCONCLUSIVE
    except ConfigurationNotFoundError as e:
        print(f"not found: {e}", file=sys.stderr)
        return 1
    except (FraisseError, FileNotFoundError, IsADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
