"""Benchmark of the fraisse library and CLI: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: classes, oracle, analyses, sampling (see workloads.py).

Every pass is a fresh single-threaded process (`workloads.py`), so the
library's caches start cold as they do for a CLI user; passes run one
after another, a closed loop with one client.  Pass i derives its
inputs from (workload, seed, i).

--trace 0 runs passes until the next one would end after S seconds (at
least 3) and prints the end-to-end metrics, each the median over
passes; ok_share is successful checks over attempted ones.  Times are
scaled by a calibration loop timed next to every phase segment, which
cancels the throughput swings of a shared machine (see NOTES.md); the
unscaled seconds are printed on the `# pass` lines.

--trace 1 runs pass 0 once untraced and twice traced, and prints the
per-layer metrics of the traced passes: call and result counts, self
times, the tracing overhead and the share of traced time the wrapped
functions account for.  It also checks that counts repeat exactly
between the two traced passes, that reports are byte-identical to the
untraced pass, and that no wrapper is left installed.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Runs only with the library's sources in ./src; exits non-zero otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
PASS_TIMEOUT = 150.0     # seconds; one pass takes a few seconds today
RUN_LIMIT = 160.0        # start no pass that could end after this


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, index: int, trace: bool, prepared: dict) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(index), "--trace", str(int(trace)),
           "--prepared", json.dumps(prepared)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise PassError(f"pass {index} of {workload} ran past {PASS_TIMEOUT} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass {index} of {workload} exited {proc.returncode}:\n"
                        + proc.stderr[-2000:])
    out = json.loads(lines[-1])
    out["setup_raw"] = out["ready"] - spawned
    out["setup_s"] = out["setup_raw"] * out["setup_scale"]
    out["wall"] = sum(out["scaled"].values())
    return out


def _median(passes, key):
    return statistics.median(key(p) for p in passes)


def end_to_end(workload: str, seed: int, seconds: float):
    passes: list[dict] = []
    prepare = workloads.preparer(workload, seed)
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        mean = elapsed / len(passes) if passes else 0.0
        if len(passes) >= MIN_PASSES and elapsed + mean > seconds:
            break
        if passes and elapsed + 2 * mean > RUN_LIMIT:
            break
        index = len(passes)
        passes.append(run_pass(workload, seed, index, False, prepare(index)))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": (_median(passes, lambda p: p["wall"]), "s"),
        "setup_s": (_median(passes, lambda p: p["setup_s"]), "s"),
        "peak_rss_mb": (_median(passes, lambda p: p["rss_mb"]), "MB"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
        "phase1_s": (_median(passes, lambda p: p["scaled"].get("phase1", 0.0)), "s"),
        "phase2_s": (_median(passes, lambda p: p["scaled"].get("phase2", 0.0)), "s"),
    }
    notes = [f"passes: {len(passes)}; unscaled seconds and calibration loops follow"]
    notes += [f"pass {i}: setup {p['setup_raw']:.4f} phase1 {p['raw'].get('phase1', 0):.4f} "
              f"phase2 {p['raw'].get('phase2', 0):.4f} calibration "
              + " ".join(f"{c:.4f}" for c in p["calibration"])
              for i, p in enumerate(passes)]
    notes += [m for p in passes for m in p["messages"]]
    return attempted, failed, metrics, notes


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name.endswith("_coverage"):
        return "ratio"
    return "count"


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def per_layer(workload: str, seed: int):
    prepared = workloads.preparer(workload, seed)(0)
    plain = run_pass(workload, seed, 0, False, prepared)
    traced = [run_pass(workload, seed, 0, True, prepared) for _ in range(2)]
    attempted = sum(p["attempted"] for p in [plain, *traced])
    failed = sum(p["failed"] for p in [plain, *traced])
    notes = [m for p in [plain, *traced] for m in p["messages"]]

    def check(ok, what):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            notes.append(what)

    a, b = (p["layers"] for p in traced)
    for name in sorted(a):
        if _unit(name) == "count":
            check(a[name] == b.get(name), f"{name} differs between traced passes: "
                                          f"{a[name]} vs {b.get(name)}")
    for p in traced:
        check(p["digests"] == plain["digests"], "traced report differs from untraced")
        check(not p["leftover"], f"wrappers left installed: {p['leftover']}")

    metrics = {}
    for name in sorted(a):
        value = a[name] if _unit(name) == "count" else (a[name] + b[name]) / 2
        metrics[name] = (value, _unit(name))
    traced_wall = (traced[0]["wall"] + traced[1]["wall"]) / 2
    metrics["trace.overhead_ratio"] = (traced_wall / plain["wall"], "ratio")
    canon = plain["canon_ms"]
    metrics["structures.canonical_key.samples"] = (len(canon), "count")
    metrics["structures.canonical_key.p50_ms"] = (
        _percentile(canon, 0.5) if canon else 0.0, "ms")
    metrics["structures.canonical_key.p99_ms"] = (
        _percentile(canon, 0.99) if canon else 0.0, "ms")
    return attempted, failed, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fraisse" / "__init__.py").is_file():
        print(f"no fraisse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            attempted, failed, metrics, notes = per_layer(args.workload, args.seed)
        else:
            attempted, failed, metrics, notes = end_to_end(
                args.workload, args.seed, args.seconds)
    except PassError as exc:
        print(exc, file=sys.stderr)
        return 1
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
