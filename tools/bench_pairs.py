"""Alternating parent/change pairs of the benchmark, summarized per metric.

Extracts a ``git archive`` of the parent revision into a temporary
directory, then runs ``perfbench/run.py`` once in that tree and once in
this checkout (its working tree, uncommitted edits included) per pair,
alternating which side goes first.  For each metric of the last run's
JSON line it prints each side's median and quartiles, the gap between
the medians, the parent's interquartile range, and the pairs the change
won, in the form the changelog uses:

    images_per_s  3.06 -> 4.42  (IQR 0.22; 10/10)

A metric's better direction is read from ``BENCHMARK.json``.  The script
only reads ``perfbench/``; each run cleans up its own work directory.
Run from the repository root, for example:

    python tools/bench_pairs.py --parent HEAD --workload erns50-tencrop --pairs 10 --seed 1
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(tree: Path, args) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its last-line JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if not p.stdout.strip():
        raise SystemExit(f"bench_pairs: no result from {tree}: {p.stderr.strip()[-500:]}")
    return json.loads(p.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (one value is all three)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(results: dict[str, list[dict]], better: dict[str, str]) -> list[str]:
    """One line per metric: medians, quartiles, the parent's IQR and the pairs won."""
    lines = []
    for name in results["parent"][0]["metrics"]:
        side = {k: [r["metrics"][name]["value"] for r in rs] for k, rs in results.items()}
        (p1, pm, p3), (c1, cm, c3) = quartiles(side["parent"]), quartiles(side["change"])
        sign = -1 if better.get(name) == "lower" else 1
        won = sum(sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"]))
        lines.append(
            f"{name:28s} {pm:.6g} -> {cm:.6g}  (IQR {p3 - p1:.4g}; {won}/{len(side['parent'])})"
            f"  parent [{p1:.6g}, {p3:.6g}]  change [{c1:.6g}, {c3:.6g}]"
            f"  gap {cm - pm:+.4g} ({(cm / pm - 1) * 100 if pm else float('nan'):+.1f}%)"
        )
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent = Path(tmp)
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent, filter="data")
        trees = {"parent": parent, "change": ROOT}
        results: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(trees[side], args)
                results[side].append(res)
                status = "ok" if res["correct"] and not res["failed"] else f"FAILED {res['failed']}"
                print(f"pair {i + 1}/{args.pairs} {side:6s} {status}", file=sys.stderr, flush=True)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"pairs={args.pairs} parent={args.parent}: medians parent -> change "
          f"(parent IQR; pairs the change won)")
    for r in ("parent", "change"):
        bad = sum(not x["correct"] or x["failed"] for x in results[r])
        print(f"{r} runs with failures: {bad}/{args.pairs}")
    print("\n".join(summarize(results, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
