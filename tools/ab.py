"""Alternating parent/change runs of the benchmark, summarised per metric.

Usage::

    python3 tools/ab.py PARENT_TREE CHANGE_TREE [--pairs N] [--seconds S] [--seed S0]

``PARENT_TREE`` and ``CHANGE_TREE`` are two checkouts of the repository.
Pair ``i`` runs each tree's own ``perfbench/run.py --workload all`` with
seed ``S0 + i``, one run after the other; even pairs start with the
parent, odd pairs with the change. Only one benchmark process runs at a
time.

For every workload and end-to-end metric that the parent's
``BENCHMARK.json`` declares, the script prints the median of each side,
the quartiles of each side, and the pairs the change won (ties count for
neither). A metric is marked "unresolved" where the parent's interquartile
spread, relative to its median, exceeds the metric's bound. Every run that
reports ``"correct": false`` or ``failed > 0`` is printed before the table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_tree(tree: Path, seed: int, seconds: float) -> dict:
    """The JSON result line of one ``run.py --workload all`` in ``tree``."""
    command = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", "all",
               "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(benchmark: dict, runs: list[tuple[int, dict, dict]]) -> list[str]:
    lines = [f"{'workload':<16} {'metric':<12} {'parent → change (median)':>30} "
             f"{'parent quartiles':>22} {'change quartiles':>22} {'won':>6}"]
    for workload in benchmark["workloads"]:
        for spec in benchmark["end_to_end"]:
            key = f"{workload['name']}.{spec['name']}"
            parent = [p["metrics"][key]["value"] for _, p, _ in runs]
            change = [c["metrics"][key]["value"] for _, _, c in runs]
            sign = 1 if spec["better"] == "higher" else -1
            won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            p_mid, c_mid = statistics.median(parent), statistics.median(change)
            p_q, c_q = quartiles(parent), quartiles(change)
            spread = (p_q[1] - p_q[0]) / p_mid if p_mid else 0.0
            note = "  unresolved" if spread > spec["bound"] else ""
            lines.append(
                f"{workload['name']:<16} {spec['name']:<12} "
                f"{p_mid:>14.4g} → {c_mid:<13.4g} "
                f"[{p_q[0]:>9.4g}, {p_q[1]:>9.4g}] [{c_q[0]:>9.4g}, {c_q[1]:>9.4g}] "
                f"{won:>3}/{len(runs)}{note}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for tree in (args.parent_tree, args.change_tree):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {tree}")
    benchmark = json.loads((args.parent_tree / "BENCHMARK.json").read_text("utf-8"))

    runs: list[tuple[int, dict, dict]] = []
    for i in range(args.pairs):
        seed = args.seed + i
        sides = {}
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = args.parent_tree if side == "parent" else args.change_tree
            sides[side] = run_tree(tree, seed, args.seconds)
            print(f"# pair {i + 1}/{args.pairs} seed {seed}: {side} done", flush=True)
        runs.append((seed, sides["parent"], sides["change"]))

    for seed, *results in runs:
        for side, result in zip(("parent", "change"), results):
            if not result["correct"] or result["failed"] > 0:
                print(f"seed {seed} {side}: correct {result['correct']}, "
                      f"failed {result['failed']} of {result['attempted']}")
    print("\n".join(summarise(benchmark, runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
