"""Paired A/B runs of the serving benchmark: a parent tree against a change.

Usage (from any directory)::

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python benchmarks/ab.py --parent ../parent --change . \\
        --workloads batch-general,warm-connect --pairs 10 --seed 1

Each pair runs ``BENCHMARK.json``'s command (``perfbench/run.py``) once in
each tree, on the same workload and seed, for ``run_seconds``; pair ``i``
uses seed ``--seed + i`` and starts with the parent when ``i`` is even, the
change when it is odd, so a drift of the host's load hits both sides
alike.  Both sides run with ``PYTHONDONTWRITEBYTECODE=1`` after their
``__pycache__`` directories are cleared: a side holding bytecode caches
imports faster, which ``setup_s`` would read as a gain.

For each workload and end-to-end metric the runner prints each side's
median [Q1-Q3] over the pairs, the pairs the change won, and one verdict
(see :func:`verdict`); then each side's failed/attempted operations.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Wins a gain needs, as a share of the pairs (9 of 10).
GAIN_WINS = 0.9


def quartiles(values):
    """Return ``(Q1, median, Q3)`` of a sample (inclusive method)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent, change, better):
    """How many pairs the change won: pair ``i`` is ``(parent[i], change[i])``."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def verdict(parent, change, better, bound):
    """Classify one metric's paired runs; the first rule that holds wins.

    * ``gain``: the change won at least 9 of 10 pairs and its median is
      better than the parent's by more than the parent's Q1-Q3 spread;
    * ``worse``: the change's median is worse than the parent's by more
      than ``bound`` (a fraction of the parent's median);
    * ``unresolved``: the parent's Q1-Q3 spread is wider than ``bound``
      (again a fraction of its median), so the runs cannot tell -- unless
      every run of the change reads better than every run of the parent;
    * ``within bound``: none of these.
    """
    p_q1, p_median, p_q3 = quartiles(parent)
    _c_q1, c_median, _c_q3 = quartiles(change)
    spread = p_q3 - p_q1
    gap = p_median - c_median if better == "lower" else c_median - p_median
    if wins(parent, change, better) >= GAIN_WINS * len(parent) and gap > spread:
        return "gain"
    if -gap > bound * abs(p_median):
        return "worse"
    dominates = (
        max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    )
    if spread > bound * abs(p_median) and not dominates:
        return "unresolved"
    return "within bound"


def clear_bytecode(tree: Path) -> None:
    """Remove every ``__pycache__`` directory under ``tree``."""
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(tree: Path, command, workload: str, seed: int, seconds: float) -> dict:
    """Run the benchmark command once in ``tree``; return its result line."""
    clear_bytecode(tree)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = list(command) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv)} failed in {tree} (exit {done.returncode}):\n"
            f"{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pairs(parent: Path, change: Path, spec: dict, workload: str, pairs: int, seed: int):
    """Alternate the two trees over ``pairs`` pairs; return both run lists."""
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = parent if side == "parent" else change
            result = run_once(tree, spec["command"], workload, seed + i, spec["run_seconds"])
            runs[side].append(result)
            print(
                f"  {workload} pair {i + 1}/{pairs} seed {seed + i} {side}: "
                + " ".join(
                    f"{name}={entry['value']:.4g}"
                    for name, entry in result["metrics"].items()
                ),
                file=sys.stderr,
                flush=True,
            )
    return runs


def report(spec: dict, workload: str, runs: dict) -> list:
    """Return the printed table rows of one workload's paired runs."""
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        rows.append(
            (
                workload,
                name,
                _summary(parent),
                _summary(change),
                f"{wins(parent, change, metric['better'])}/{len(parent)}",
                verdict(parent, change, metric["better"], metric["bound"]),
            )
        )
    return rows


def _summary(values) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}-{q3:.4g}]"


def _failures(runs) -> str:
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    return f"{failed}/{attempted}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent tree")
    parser.add_argument("--change", type=Path, default=ROOT, help="the changed tree")
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [entry["name"] for entry in spec["workloads"]]
    )
    rows, failures = [], []
    for workload in workloads:
        runs = run_pairs(parent, change, spec, workload, args.pairs, args.seed)
        rows += report(spec, workload, runs)
        failures.append(
            (workload, _failures(runs["parent"]), _failures(runs["change"]))
        )
    header = (
        "workload",
        "metric",
        "parent median [Q1-Q3]",
        "change median [Q1-Q3]",
        "wins",
        "verdict",
    )
    widths = [max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    for workload, parent_failed, change_failed in failures:
        print(f"{workload}: failed/attempted parent {parent_failed}, change {change_failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
