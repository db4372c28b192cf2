"""``python -m repro run``: the serial preset of the load runner.

``repro run`` reads a :class:`~repro.load.spec.LoadSpec`, compiles it
with :func:`~repro.load.schedule.build_plan` and replays the plan in
process on one client as phases (:func:`~repro.load.runner.run_phases`):
serial-cold, serial-warm for a plan without mutations, and with a cache
directory disk-populate and disk-warm.  Every phase must reproduce the
serial oracle's checksum; the oracle rebuilds a mutated tenant's context
from scratch after every edit.
"""

import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import ValidationError
from repro.load import LoadSpec, build_plan, run_phases, serial_oracle_checksum
from repro.load.report import build_report
from repro.load.runner import build_graphs, build_registry
from repro.load.schedule import churn_edits
from repro.load.spec import CHURN_KINDS

TINY_SPEC = {
    "name": "tiny",
    "tenants": [
        {
            "name": "t0",
            "schema": {
                "generator": "random_62_chordal_graph",
                "params": {"blocks": 4, "rng": 11},
            },
        }
    ],
    "arrival": {"requests": 8},
    "profile": {"connect": 3, "batch": 1},
    "batch_size": 2,
    "seed": 1,
}

#: A pre-5.0 ``repro run`` spec: the shape ``repro run`` no longer reads.
OLD_SHAPE_SPEC = {
    "name": "tiny",
    "schema": {"generator": "random_62_chordal_graph",
               "params": {"blocks": 4, "rng": 11}},
    "queries": [{"count": 5, "terminals": 3, "seed": 1}],
    "batch_size": 4,
}


# ----------------------------------------------------------------------
# spec parsing and validation
# ----------------------------------------------------------------------
def test_spec_round_trips_through_dict_and_json():
    for data in (TINY_SPEC, {**TINY_SPEC, "objective": "side", "side": 2}):
        spec = LoadSpec.from_dict(data)
        assert LoadSpec.from_dict(spec.to_dict()) == spec
        assert LoadSpec.from_json(json.dumps(spec.to_dict())) == spec
    side = LoadSpec.from_dict({**TINY_SPEC, "objective": "side", "side": 2})
    assert (side.objective, side.side) == ("side", 2)


def test_spec_builds_deterministic_schema_and_queries():
    spec = LoadSpec.from_dict(TINY_SPEC)
    g1, g2 = build_graphs(spec), build_graphs(spec)
    assert g1 == g2
    plan = build_plan(spec, g1)
    assert plan == build_plan(spec, g2)
    assert len(plan) == 8
    assert {op.op for op in plan} <= {"connect", "batch"}
    assert all(op.write_seq is None for op in plan)  # nothing mutates


@pytest.mark.parametrize(
    "broken",
    [
        OLD_SHAPE_SPEC,
        {**TINY_SPEC, "objective": "maximise"},
        {**TINY_SPEC, "side": 3},
        {**TINY_SPEC, "terminals": 0},
        {**TINY_SPEC, "mutate": {"kinds": ["explode"]}},
        {**TINY_SPEC, "mutate": {"kinds": []}},
        # typo'd generator kwarg: caught at spec validation, not mid-run
        {**TINY_SPEC, "tenants": [
            {"name": "t0", "schema": {"generator": "random_62_chordal_graph",
                                      "params": {"block": 8}}}]},
        "not an object",
    ],
)
def test_spec_validation_rejects_broken_input(broken):
    with pytest.raises(ValidationError):
        if isinstance(broken, str):
            LoadSpec.from_json(json.dumps(broken))
        else:
            LoadSpec.from_dict(broken)


def test_query_mix_validation():
    spec = LoadSpec.from_dict(TINY_SPEC)
    for field, value in (("side", 3), ("objective", "maximise"), ("terminals", 0)):
        with pytest.raises(ValidationError):
            dataclasses.replace(spec, **{field: value})
    # the parser checks JSON types: a bool is not a side
    with pytest.raises(ValidationError, match="'side' must be an integer"):
        LoadSpec.from_dict({**TINY_SPEC, "side": True})


# ----------------------------------------------------------------------
# the phase runner
# ----------------------------------------------------------------------
def test_run_workload_phases_and_consistency(tmp_path):
    spec = LoadSpec.from_dict(TINY_SPEC)
    report = run_phases(spec, cache_dir=str(tmp_path / "cache"))
    names = [name for name, _, _ in report.phases]
    assert names == ["serial-cold", "serial-warm", "disk-populate", "disk-warm"]
    oracle = serial_oracle_checksum(spec)
    assert report.oracle_checksum == oracle
    assert {checksum for _, _, checksum in report.phases} == {oracle}
    assert report.checksum == oracle
    assert report.mode == "serial" and report.requests == 8
    assert report.ok()
    # the report serialises cleanly, phases included
    parsed = json.loads(report.to_json())
    assert parsed["ok"] is True
    assert [phase["name"] for phase in parsed["phases"]] == names


def test_run_workload_serial_only_and_no_cold():
    spec = LoadSpec.from_dict(TINY_SPEC)
    report = run_phases(spec)
    assert [name for name, _, _ in report.phases] == ["serial-cold", "serial-warm"]
    assert report.ok()
    # the cold phase always runs: the 4.x include_cold switch is gone
    with pytest.raises(TypeError):
        run_phases(spec, include_cold=False)


def test_a_phase_that_differs_from_the_oracle_fails_the_report():
    spec = LoadSpec.from_dict(TINY_SPEC)
    good = build_report(
        spec, "serial", [], 0.1, checksum="a", oracle_checksum="a",
        phases=(("serial-cold", 0.1, "a"), ("serial-warm", 0.1, "a")),
    )
    bad = build_report(
        spec, "serial", [], 0.1, checksum="a", oracle_checksum="a",
        phases=(("serial-cold", 0.1, "a"), ("disk-warm", 0.1, "b")),
    )
    assert good.ok() and "verify: MATCH" in good.render_text()
    assert not bad.ok() and "verify: MISMATCH" in bad.render_text()
    # without an oracle (verify off) phases are timed, not judged
    unverified = build_report(
        spec, "serial", [], 0.1, checksum="a",
        phases=(("serial-cold", 0.1, "a"), ("disk-warm", 0.1, "b")),
    )
    assert unverified.ok()


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
    assert "verify: MATCH" in proc.stdout
    assert "phase disk-warm" in proc.stdout
    report = json.loads(report_path.read_text())
    assert report["ok"] is True
    assert {p["name"] for p in report["phases"]} == {
        "serial-cold", "serial-warm", "disk-populate", "disk-warm",
    }
    assert {p["checksum"] for p in report["phases"]} == {report["oracle_checksum"]}


def test_cli_json_to_stdout_and_no_cold(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    proc = run_cli("run", str(spec_path), "--json", "-")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [p["name"] for p in report["phases"]] == ["serial-cold", "serial-warm"]
    # --no-cold is gone in 5.0.0: argparse refuses it with exit 2
    proc = run_cli("run", str(spec_path), "--no-cold")
    assert proc.returncode == 2
    assert "--no-cold" in proc.stderr


def test_cli_spec_template_round_trips():
    proc = run_cli("load", "spec-template")
    assert proc.returncode == 0
    spec = LoadSpec.from_json(proc.stdout)
    assert spec.name == "multi-tenant-mixed"
    assert build_plan(spec, build_graphs(spec))  # run and load both accept it
    # the separate 4.x `repro run` template is gone
    assert run_cli("spec-template").returncode == 2


def test_cli_rejects_broken_spec(tmp_path):
    spec_path = tmp_path / "broken.json"
    spec_path.write_text("{not json")
    proc = run_cli("run", str(spec_path))
    assert proc.returncode == 2
    assert "error:" in proc.stderr

    proc = run_cli("run", str(tmp_path / "missing.json"))
    assert proc.returncode == 2

    old = tmp_path / "old.json"
    old.write_text(json.dumps(OLD_SHAPE_SPEC))
    proc = run_cli("run", str(old))
    assert proc.returncode == 2
    assert "unknown load spec field(s): ['queries', 'schema']" in proc.stderr


# ----------------------------------------------------------------------
# churn: four-kind mutation traffic and the fresh-context oracle
# ----------------------------------------------------------------------
#: The CI churn smoke spec: enough edits of every kind (a dozen, two of
#: them dropped edges) that a stale incremental rebind shows in answers.
CHURN_SPEC = {
    "name": "churn",
    "tenants": [
        {
            "name": "t0",
            "schema": {
                "generator": "random_62_chordal_graph",
                "params": {"blocks": 10, "rng": 1985},
            },
            "token": "tk",
        }
    ],
    "arrival": {"requests": 48},
    "profile": {"connect": 3, "mutate": 1},
    "mutate": {"kinds": list(CHURN_KINDS)},
    "seed": 5,
}


def test_churn_spec_round_trips_and_validates():
    spec = LoadSpec.from_dict(CHURN_SPEC)
    assert spec.mutate_kinds == CHURN_KINDS
    assert LoadSpec.from_dict(spec.to_dict()) == spec
    for broken in (
        {**CHURN_SPEC, "mutate": {"kinds": ["explode"]}},
        {**CHURN_SPEC, "mutate": {"kinds": []}},
        {**CHURN_SPEC, "mutate": {"kinds": "grow-leaf"}},
        {**CHURN_SPEC, "mutate": {"kinds": ["grow-leaf"], "surprise": 1}},
        {**CHURN_SPEC, "mutate": "lots"},
    ):
        with pytest.raises(ValidationError):
            LoadSpec.from_dict(broken)


def test_churn_phases_verify_against_the_oracle():
    spec = LoadSpec.from_dict(CHURN_SPEC)
    plan = build_plan(spec, build_graphs(spec))
    first_edit = next(op.index for op in plan if op.op == "mutate")
    assert any(op.op == "connect" and op.index > first_edit for op in plan)
    report = run_phases(spec)
    # replaying edits on an edited schema is another workload: no warm phase
    assert [name for name, _, _ in report.phases] == ["serial-cold"]
    assert report.checksum == report.oracle_checksum
    assert report.ok()
    # the answers are on mutated schemas: not the static workload's
    static = dict(CHURN_SPEC, profile={"connect": 3})
    assert report.checksum != serial_oracle_checksum(LoadSpec.from_dict(static))
    # and the oracle rebuilds the mutated tenant's context after every edit
    oracle = build_registry(spec, fresh_context={"t0"}).record("t0").config
    assert (oracle.incremental, oracle.cache_size) == (False, 1)


def test_churn_without_verify_runs_one_phase():
    spec = LoadSpec.from_dict({**CHURN_SPEC, "verify": False})
    report = run_phases(spec)
    assert [name for name, _, _ in report.phases] == ["serial-cold"]
    assert report.oracle_checksum == ""
    assert report.ok()


def test_cli_runs_churn_spec_end_to_end(tmp_path):
    spec_path = tmp_path / "churn.json"
    spec_path.write_text(json.dumps(CHURN_SPEC))
    proc = run_cli("run", str(spec_path))
    assert proc.returncode == 0, proc.stderr
    assert "mutate" in proc.stdout
    assert "phase serial-cold" in proc.stdout
    assert "serial-warm" not in proc.stdout
    assert "verify: MATCH" in proc.stdout


def test_cli_spec_template_includes_a_churn_mix():
    proc = run_cli("load", "spec-template")
    spec = LoadSpec.from_json(proc.stdout)
    assert dict(spec.profile)["mutate"] > 0
    assert spec.mutate_kinds == CHURN_KINDS
    assert spec.tokened_tenants()


def test_churn_never_mutates_outside_the_allowlist():
    from repro.graphs import BipartiteGraph

    graph = BipartiteGraph(left=["a"], right=[1], edges=[("a", 1)])
    rng = random.Random(0)
    fresh = itertools.count(1)
    edits = churn_edits(graph, rng, ("drop-edge",), fresh)
    assert edits == [{"op": "remove_edge", "u": "a", "v": 1}]
    # no edges left: a pure-deletion allowlist must fail loudly instead
    # of silently growing the schema with an excluded mutation kind
    with pytest.raises(ValidationError, match="no churn kind"):
        churn_edits(graph, rng, ("drop-edge",), fresh)
    assert graph.vertices() == {"a", 1}  # nothing grew
