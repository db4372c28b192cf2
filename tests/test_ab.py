"""The paired A/B runner of ``benchmarks/ab.py`` on canned runs.

The verdict function decides what a pull request may claim from paired
benchmark runs, so its four outcomes are pinned here on hand-made
samples; the runner itself is driven end to end against two fake trees
whose benchmark command prints canned result lines.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _load(alias, path):
    spec = importlib.util.spec_from_file_location(alias, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load("bench_ab", REPO / "benchmarks" / "ab.py")

PARENT = [100.0, 104.0, 96.0, 101.0, 99.0, 103.0, 97.0, 102.0, 98.0, 100.0]


def test_quartiles_and_wins():
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.wins([1, 2, 3], [0, 3, 2], "lower") == 2
    assert ab.wins([1, 2, 3], [0, 3, 2], "higher") == 1


def test_a_gain_needs_nine_of_ten_wins_and_a_gap_past_the_spread():
    faster = [value * 1.5 for value in PARENT]
    assert ab.verdict(PARENT, faster, "higher", 0.25) == "gain"
    # lower-is-better metrics mirror it
    assert ab.verdict(PARENT, [value / 1.5 for value in PARENT], "lower", 0.25) == "gain"
    # two lost pairs: 8/10 is no gain, even with a large median gap
    two_lost = faster[:8] + [PARENT[8] - 1, PARENT[9] - 1]
    assert ab.wins(PARENT, two_lost, "higher") == 8
    assert ab.verdict(PARENT, two_lost, "higher", 0.25) != "gain"
    # every pair won, but by less than the parent's Q1-Q3 spread
    q1, _median, q3 = ab.quartiles(PARENT)
    nudged = [value + (q3 - q1) / 4 for value in PARENT]
    assert ab.verdict(PARENT, nudged, "higher", 0.25) == "within bound"


@pytest.mark.parametrize("better, factor", [("lower", 1.3), ("higher", 0.7)])
def test_worse_past_the_bound(better, factor):
    change = [value * factor for value in PARENT]
    assert ab.verdict(PARENT, change, better, 0.25) == "worse"
    # inside the bound it is only noise
    assert ab.verdict(PARENT, change, better, 0.5) == "within bound"


def test_unresolved_when_the_parents_spread_exceeds_the_bound():
    noisy = [40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 50.0, 150.0, 100.0]
    assert ab.verdict(noisy, noisy, "lower", 0.25) == "unresolved"
    # a real regression is still reported as one
    assert ab.verdict(noisy, [v * 2 for v in noisy], "lower", 0.25) == "worse"
    # a change better in every run than the parent in any run is resolved,
    # even when it wins too few pairs by too little to claim a gain
    better = [value - 1.0 for value in noisy]
    assert ab.verdict(noisy, [30.0] * 10, "lower", 0.25) == "within bound"
    assert ab.verdict(noisy, better, "lower", 0.25) == "unresolved"


FAKE_BENCH = """\
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
value = float(open("value.txt").read()) + int(args["--seed"])
with open("../calls.txt", "a") as log:
    log.write(os.path.basename(os.getcwd()) + " " + args["--seed"] + "\\n")
print(json.dumps({"detail": {"steal_share": 0.0}}))
print(json.dumps({
    "correct": True,
    "attempted": 4,
    "failed": 0 if os.environ.get("PYTHONDONTWRITEBYTECODE") == "1" else 4,
    "metrics": {
        "answers_per_s": {"value": value, "unit": "1/s"},
        "rpc_p50_ms": {"value": 1000.0 / value, "unit": "ms"},
    },
}))
"""


def _fake_tree(root: Path, value: float) -> Path:
    root.mkdir()
    (root / "bench.py").write_text(FAKE_BENCH, encoding="utf-8")
    (root / "value.txt").write_text(str(value), encoding="utf-8")
    (root / "__pycache__").mkdir()
    spec = {
        "command": [sys.executable, "bench.py"],
        "run_seconds": 1,
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [
            {"name": "answers_per_s", "better": "higher", "bound": 0.25},
            {"name": "rpc_p50_ms", "better": "lower", "bound": 0.25},
        ],
    }
    (root / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    return root


def test_runner_alternates_sides_and_prints_verdicts(tmp_path, capsys):
    parent = _fake_tree(tmp_path / "parent", 100.0)
    change = _fake_tree(tmp_path / "change", 150.0)
    argv = ["--parent", str(parent), "--change", str(change), "--pairs", "3",
            "--seed", "5", "--workloads", "w2"]
    assert ab.main(argv) == 0
    printed = capsys.readouterr().out
    rows = [line.split() for line in printed.splitlines()]
    assert ["w2", "answers_per_s", "gain"] == [rows[1][i] for i in (0, 1, -1)]
    assert ["w2", "rpc_p50_ms", "gain"] == [rows[2][i] for i in (0, 1, -1)]
    assert "w2: failed/attempted parent 0/12, change 0/12" in printed
    # one seed per pair, the parent first on even pairs
    assert (tmp_path / "calls.txt").read_text().split("\n")[:-1] == [
        "parent 5", "change 5", "change 6", "parent 6", "parent 7", "change 7"
    ]
    # both sides ran without bytecode caches
    assert not (parent / "__pycache__").exists()
    assert not (change / "__pycache__").exists()
