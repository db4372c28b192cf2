"""Workload specs, the phase runner, and the ``python -m repro`` CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import ValidationError
from repro.runtime.workload import QueryMix, WorkloadSpec, run_workload

TINY_SPEC = {
    "name": "tiny",
    "schema": {"generator": "random_62_chordal_graph",
               "params": {"blocks": 4, "rng": 11}},
    "queries": [{"count": 5, "terminals": 3, "seed": 1},
                {"count": 3, "terminals": 2, "objective": "side", "side": 2}],
    "batch_size": 4,
}


# ----------------------------------------------------------------------
# spec parsing and validation
# ----------------------------------------------------------------------
def test_spec_round_trips_through_dict_and_json():
    spec = WorkloadSpec.from_dict(TINY_SPEC)
    again = WorkloadSpec.from_dict(spec.to_dict())
    assert again == spec
    assert WorkloadSpec.from_json(json.dumps(spec.to_dict())) == spec


def test_spec_builds_deterministic_schema_and_queries():
    spec = WorkloadSpec.from_dict(TINY_SPEC)
    g1, g2 = spec.build_schema(), spec.build_schema()
    assert g1 == g2
    r1 = spec.build_requests(g1)
    r2 = spec.build_requests(g2)
    assert [r.terminals for r in r1] == [r.terminals for r in r2]
    assert len(r1) == 8
    assert sum(1 for r in r1 if r.objective == "side") == 3


@pytest.mark.parametrize(
    "broken",
    [
        {"schema": {"generator": "nope"}, "queries": {"count": 1}},
        {"schema": {"generator": "random_62_chordal_graph"}, "queries": []},
        {"schema": {"generator": "random_62_chordal_graph"},
         "queries": {"count": 0}},
        {"schema": {"generator": "random_62_chordal_graph"},
         "queries": {"count": 1, "objective": "maximise"}},
        {"schema": {"generator": "random_62_chordal_graph"},
         "queries": {"count": 1}, "surprise": True},
        {"schema": {"generator": "random_62_chordal_graph"},
         "queries": {"count": 1, "terminals": 2, "mystery": 1}},
        # typo'd generator kwarg: caught at spec validation, not mid-run
        {"schema": {"generator": "random_62_chordal_graph",
                    "params": {"block": 8}},
         "queries": {"count": 1}},
        "not an object",
    ],
)
def test_spec_validation_rejects_broken_input(broken):
    with pytest.raises(ValidationError):
        if isinstance(broken, str):
            WorkloadSpec.from_json(json.dumps(broken))
        else:
            WorkloadSpec.from_dict(broken)


def test_query_mix_validation():
    with pytest.raises(ValidationError):
        QueryMix(count=1, side=3)
    with pytest.raises(ValidationError):
        QueryMix(count=1, terminals=0)


# ----------------------------------------------------------------------
# the phase runner
# ----------------------------------------------------------------------
def test_run_workload_phases_and_consistency(tmp_path):
    spec = WorkloadSpec.from_dict(TINY_SPEC)
    report = run_workload(spec, cache_dir=str(tmp_path / "cache"))
    names = [phase.name for phase in report.phases]
    assert names == ["serial-cold", "serial-warm", "disk-populate", "disk-warm"]
    assert report.checksums_consistent
    assert report.queries == 8
    assert report.disk_warm_ratio is not None
    assert dict(report.solver_histogram)  # at least one solver recorded
    assert report.phase("disk-warm").checksum == report.checksum
    assert report.phase("missing") is None
    # the report serialises cleanly
    parsed = json.loads(report.to_json())
    assert parsed["checksums_consistent"] is True


def test_run_workload_serial_only_and_no_cold():
    spec = WorkloadSpec.from_dict(TINY_SPEC)
    report = run_workload(spec, include_cold=False)
    assert [phase.name for phase in report.phases] == ["serial-warm"]
    assert report.disk_warm_ratio is None


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------
def run_cli(*args, cwd=None):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=300, env=env, cwd=cwd,
    )


def test_cli_run_executes_spec_and_writes_report(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    report_path = tmp_path / "report.json"

    proc = run_cli(
        "run", str(spec_path),
        "--cache-dir", str(tmp_path / "cache"),
        "--json", str(report_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "CONSISTENT" in proc.stdout
    assert "disk-warm / serial-warm" in proc.stdout
    report = json.loads(report_path.read_text())
    assert report["checksums_consistent"] is True
    assert {p["name"] for p in report["phases"]} >= {
        "serial-cold", "serial-warm", "disk-warm",
    }


def test_cli_json_to_stdout_and_no_cold(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    proc = run_cli("run", str(spec_path), "--no-cold", "--json", "-")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [p["name"] for p in report["phases"]] == ["serial-warm"]


def test_cli_spec_template_round_trips():
    proc = run_cli("spec-template")
    assert proc.returncode == 0
    spec = WorkloadSpec.from_json(proc.stdout)
    assert spec.generator == "random_62_chordal_graph"
    assert dict(spec.params)["blocks"] == 170  # the 515-vertex acceptance workload


def test_cli_rejects_broken_spec(tmp_path):
    spec_path = tmp_path / "broken.json"
    spec_path.write_text("{not json")
    proc = run_cli("run", str(spec_path))
    assert proc.returncode == 2
    assert "error:" in proc.stderr

    proc = run_cli("run", str(tmp_path / "missing.json"))
    assert proc.returncode == 2


# ----------------------------------------------------------------------
# churn: spec plumbing and the mutation phases
# ----------------------------------------------------------------------
CHURN_SPEC = {
    **TINY_SPEC,
    "churn": {"edits": 6, "queries_per_edit": 2, "terminals": 3, "seed": 5},
}


def test_churn_spec_round_trips_and_validates():
    spec = WorkloadSpec.from_dict(CHURN_SPEC)
    assert spec.churn is not None and spec.churn.edits == 6
    assert WorkloadSpec.from_dict(spec.to_dict()) == spec
    for broken in (
        {**CHURN_SPEC, "churn": {"edits": 0}},
        {**CHURN_SPEC, "churn": {"edits": 2, "kinds": ["explode"]}},
        {**CHURN_SPEC, "churn": {"edits": 2, "kinds": []}},
        {**CHURN_SPEC, "churn": {"edits": 2, "surprise": 1}},
        {**CHURN_SPEC, "churn": "lots"},
    ):
        with pytest.raises(ValidationError):
            WorkloadSpec.from_dict(broken)


def test_churn_phases_verify_against_the_oracle():
    report = run_workload(
        WorkloadSpec.from_dict(CHURN_SPEC), include_cold=False
    )
    names = [phase.name for phase in report.phases]
    assert names == ["serial-warm", "churn-incremental", "churn-oracle"]
    groups = {phase.name: phase.group for phase in report.phases}
    assert groups["serial-warm"] == "main"
    assert groups["churn-incremental"] == groups["churn-oracle"] == "churn"
    # the churn phases answered mutated schemas: same checksum as each
    # other (that is the oracle contract), different from the main group
    incremental = report.phase("churn-incremental")
    oracle = report.phase("churn-oracle")
    assert incremental.checksum == oracle.checksum
    assert incremental.checksum != report.checksum
    assert incremental.queries == oracle.queries == 12
    assert report.checksums_consistent
    assert report.churn_speedup is not None
    parsed = json.loads(report.to_json())
    assert parsed["churn_speedup"] == report.churn_speedup
    assert {p["group"] for p in parsed["phases"]} == {"main", "churn"}


def test_churn_without_verify_runs_one_phase():
    spec = WorkloadSpec.from_dict(
        {**CHURN_SPEC, "churn": {**CHURN_SPEC["churn"], "verify": False}}
    )
    report = run_workload(spec, include_cold=False)
    assert [phase.name for phase in report.phases] == [
        "serial-warm", "churn-incremental",
    ]
    assert report.churn_speedup is None
    assert report.checksums_consistent


def test_cli_runs_churn_spec_end_to_end(tmp_path):
    spec_path = tmp_path / "churn.json"
    spec_path.write_text(json.dumps(CHURN_SPEC))
    proc = run_cli("run", str(spec_path), "--no-cold")
    assert proc.returncode == 0, proc.stderr
    assert "churn-incremental" in proc.stdout
    assert "churn-oracle" in proc.stdout
    assert "churn speedup" in proc.stdout
    assert "CONSISTENT" in proc.stdout


def test_cli_spec_template_includes_a_churn_mix():
    proc = run_cli("spec-template")
    spec = WorkloadSpec.from_json(proc.stdout)
    assert spec.churn is not None
    assert spec.churn.verify is False  # the 515-vertex oracle is opt-in


def test_churn_never_mutates_outside_the_allowlist():
    import itertools
    import random

    from repro.graphs import BipartiteGraph
    from repro.runtime.workload import _churn_step

    graph = BipartiteGraph(left=["a"], right=[1], edges=[("a", 1)])
    rng = random.Random(0)
    fresh = itertools.count(1)
    assert _churn_step(graph, rng, ("drop-edge",), fresh) == "drop-edge"
    # no edges left: a pure-deletion allowlist must fail loudly instead
    # of silently growing the schema with an excluded mutation kind
    with pytest.raises(ValidationError, match="no churn kind"):
        _churn_step(graph, rng, ("drop-edge",), fresh)
    assert graph.vertices() == {"a", 1}  # nothing grew
