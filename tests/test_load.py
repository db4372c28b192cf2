"""The open-loop load & soak harness (``repro.load``).

Five layers, matching the package:

* **spec**: JSON validation (typed rejections -- a wrong JSON type is
  never coerced --, unknown-key refusal) and round-tripping;
* **schedule**: :func:`build_plan` as a pure function of the spec --
  identical plans across calls, seeded Poisson arrivals, plan-order
  sequencing of every op on a mutated tenant;
* **report**: nearest-rank quantiles, budget evaluation (latency,
  unexpected-error rates, achieved-rate floor), render/serialise;
* **determinism** (the harness's core claim): the same spec seed yields
  the same request sequence and the same verify-mode checksum across
  repeat runs, across worker counts, and across transports -- all equal
  to the single-threaded serial oracle (property-tested over seeds),
  also when queries and four-kind churn share one tenant;
* **soak**: the leak monitor's verdict rule (plateau passes, growth
  fails, warmup and allowances respected) and the detector-of-the-
  detector regression: a deliberately leaky probe must be flagged.
"""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exceptions import ValidationError
from repro.load import (
    Budgets,
    LoadReport,
    LoadSpec,
    SoakMonitor,
    build_plan,
    run_load,
    run_soak,
    serial_oracle_checksum,
)
from repro.load.clients import InProcessTransport, run_plan, samples_checksum
from repro.load.report import OpSample, build_report, evaluate_budgets, quantile
from repro.load.runner import SMOKE_SPEC, TEMPLATE, build_graphs, build_registry
from repro.load.schedule import arrival_offsets
from repro.load.soak import SoakReport


def tiny_spec(**overrides) -> LoadSpec:
    """A fast two-tenant spec crossing every op kind (sub-second to run)."""
    data = {
        "name": "tiny",
        "tenants": [
            {
                "name": "t0",
                "schema": {
                    "generator": "random_62_chordal_graph",
                    "params": {"blocks": 3, "rng": 2},
                },
            },
            {
                "name": "churn",
                "schema": {
                    "generator": "random_62_chordal_graph",
                    "params": {"blocks": 2, "rng": 3},
                },
                "token": "tk",
                "limits": {"max_batch_requests": 6},
            },
        ],
        "arrival": {"schedule": "fixed", "rate": 500.0, "requests": 24},
        "profile": {
            "connect": 4,
            "batch": 2,
            "interpret": 2,
            "enumerate": 2,
            "mutate": 2,
            "bad_auth": 1,
            "over_quota": 1,
        },
        "batch_size": 2,
        "enumerate": {"budget": 2, "pages": 2},
        "clients": 3,
        "seed": 5,
    }
    data.update(overrides)
    return LoadSpec.from_dict(data)


# ----------------------------------------------------------------------
# spec: validation and round-trips
# ----------------------------------------------------------------------
class TestLoadSpec:
    def test_round_trips_through_dict_and_json(self):
        spec = tiny_spec()
        assert LoadSpec.from_dict(spec.to_dict()) == spec
        assert LoadSpec.from_json(spec.to_json()) == spec

    def test_committed_smoke_and_template_specs_validate(self):
        smoke = LoadSpec.from_dict(SMOKE_SPEC)
        assert smoke.soak is not None
        template = LoadSpec.from_dict(TEMPLATE)
        assert LoadSpec.from_dict(template.to_dict()) == template

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ({"tenants": []}, "non-empty list"),
            ({"profile": {"connect": 1, "sabotage": 1}}, "unknown profile"),
            ({"profile": {"connect": -1}}, "non-negative"),
            ({"profile": {"bad_auth": 1}}, "service-op"),
            ({"arrival": {"schedule": "bursty"}}, "'fixed' or 'poisson'"),
            ({"arrival": {"rate": 0}}, "rate must be > 0"),
            ({"clients": 0}, "clients"),
            ({"surprise_key": 1}, "unknown load spec"),
            ({"budgets": {"latency_ms": {"connect": {"p42": 5}}}}, "p42"),
            ({"budgets": {"error_rates": {"internal": 1.5}}}, "within"),
            ({"soak": {"cycles": 1}}, "cycles"),
            ({"soak": {"cycles": 3, "warmup": 3}}, "warmup"),
            ({"soak": {"allowed_growth": {"phlogiston": 1}}}, "probe"),
            # JSON types are checked, never coerced
            ({"clients": "four"}, "'clients' must be an integer"),
            ({"terminals": None}, "'terminals' must be an integer"),
            ({"profile": {"connect": 2.7}}, "'profile.connect' must be an integer"),
            ({"enumerate": {"reconnect": "false"}},
             "'enumerate.reconnect' must be a boolean"),
            ({"clients": True}, "'clients' must be an integer"),
        ],
    )
    def test_rejections_are_typed(self, mutation, match):
        data = tiny_spec().to_dict()
        data.update(mutation)
        with pytest.raises(ValidationError, match=match):
            LoadSpec.from_dict(data)

    def test_mutate_requires_a_tokened_tenant(self):
        data = tiny_spec().to_dict()
        data["tenants"] = [data["tenants"][0]]  # token-free only
        with pytest.raises(ValidationError, match="token"):
            LoadSpec.from_dict(data)

    def test_invalid_json_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            LoadSpec.from_json("{nope")


# ----------------------------------------------------------------------
# schedule: the plan is a pure function of the spec
# ----------------------------------------------------------------------
class TestSchedule:
    def test_fixed_arrivals_are_the_lattice(self):
        assert arrival_offsets("fixed", 100.0, 4, seed=9) == [
            0.0, 0.01, 0.02, 0.03,
        ]

    def test_poisson_arrivals_are_seeded_and_monotone(self):
        first = arrival_offsets("poisson", 200.0, 50, seed=7)
        again = arrival_offsets("poisson", 200.0, 50, seed=7)
        other = arrival_offsets("poisson", 200.0, 50, seed=8)
        assert first == again
        assert first != other
        assert all(b >= a for a, b in zip(first, first[1:]))

    def test_build_plan_is_deterministic(self):
        spec = tiny_spec()
        plan_a = build_plan(spec, build_graphs(spec))
        plan_b = build_plan(spec, build_graphs(spec))
        assert plan_a == plan_b
        assert len(plan_a) == spec.arrival.requests

    def test_mutations_carry_a_per_tenant_write_sequence(self):
        """Every op on a mutated tenant -- queries included -- carries its
        plan-order position there; ops on unmutated tenants carry none."""
        spec = tiny_spec(arrival={"schedule": "fixed", "rate": 500.0,
                                  "requests": 120})
        graphs = build_graphs(spec)
        plan = build_plan(spec, graphs)
        churn = [op for op in plan if op.tenant == "churn"]
        assert [op.write_seq for op in churn] == list(range(len(churn)))
        assert {"mutate", "connect"} <= {op.op for op in churn}
        assert all(op.write_seq is None for op in plan if op.tenant == "t0")
        # planning evolves private copies: the caller's schemas are untouched
        assert graphs == build_graphs(spec)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        schedule=st.sampled_from(["fixed", "poisson"]),
        requests=st.integers(min_value=1, max_value=60),
    )
    def test_same_seed_same_request_sequence(self, seed, schedule, requests):
        """Satellite of the determinism claim: the planned request
        sequence is a function of (seed, spec) alone."""
        spec = tiny_spec(
            seed=seed,
            arrival={"schedule": schedule, "rate": 300.0, "requests": requests},
        )
        plan_a = build_plan(spec, build_graphs(spec))
        plan_b = build_plan(spec, build_graphs(spec))
        assert plan_a == plan_b


# ----------------------------------------------------------------------
# report: quantiles and budgets
# ----------------------------------------------------------------------
def _sample(index, op, latency_ms, *, error="", expected=False, digest="d"):
    return OpSample(
        index=index,
        op=op,
        tenant="t0",
        latency_s=latency_ms / 1000.0,
        error=error,
        expected=expected,
        digest=None if error and not expected else digest,
    )


class TestReport:
    def test_quantile_is_nearest_rank(self):
        values = list(range(1, 101))
        assert quantile(values, 0.50) == 50
        assert quantile(values, 0.99) == 99
        assert quantile(values, 0.999) == 100
        assert quantile([7.0], 0.999) == 7.0
        assert quantile([], 0.5) == 0.0

    def test_latency_budget_violation_and_no_samples(self):
        budgets = Budgets.from_dict(
            {"latency_ms": {"connect": {"p99": 1.0}, "batch": {"p50": 10.0}}}
        )
        samples = [_sample(i, "connect", 5.0) for i in range(10)]
        report = build_report(
            tiny_spec(), "in-process", samples, duration_s=1.0,
            checksum="x", oracle_checksum="x",
        )
        violations = evaluate_budgets(
            budgets, report.op_stats, {}, requests=10,
            offered_rate=10.0, achieved_rate=10.0,
        )
        assert any("connect.p99" in line for line in violations)
        assert any("no samples" in line for line in violations)

    def test_error_budgets_count_only_unexpected_errors(self):
        budgets = Budgets.from_dict({"error_rates": {"auth": 0.0, "*": 0.25}})
        # expected auth rejections are scripted traffic, not violations
        assert evaluate_budgets(
            budgets, [], {"internal": 1}, requests=10,
            offered_rate=10.0, achieved_rate=10.0,
        ) == []
        lines = evaluate_budgets(
            budgets, [], {"auth": 1, "internal": 3}, requests=10,
            offered_rate=10.0, achieved_rate=10.0,
        )
        assert any("'auth'" in line for line in lines)
        assert any("'*'" in line for line in lines)

    def test_achieved_rate_floor(self):
        budgets = Budgets.from_dict({"min_achieved_fraction": 0.9})
        lines = evaluate_budgets(
            budgets, [], {}, requests=10, offered_rate=100.0, achieved_rate=50.0,
        )
        assert any("below budget" in line for line in lines)

    def test_checksum_mismatch_fails_the_report(self):
        spec = tiny_spec()
        samples = [_sample(0, "connect", 1.0)]
        good = build_report(spec, "in-process", samples, 0.1,
                            checksum="a", oracle_checksum="a")
        bad = build_report(spec, "in-process", samples, 0.1,
                           checksum="a", oracle_checksum="b")
        assert good.ok() and not bad.ok()
        assert "MISMATCH" in bad.render_text()

    def test_report_serialises(self):
        spec = tiny_spec()
        report = build_report(
            spec, "in-process", [_sample(0, "connect", 1.0)], 0.1,
            checksum="a", oracle_checksum="a",
        )
        data = json.loads(report.to_json())
        assert data["spec"] == "tiny"
        assert data["ok"] is True
        by_op = {entry["op"]: entry for entry in data["ops"]}
        assert by_op["connect"]["count"] == 1


# ----------------------------------------------------------------------
# determinism: concurrent runs reproduce the serial oracle
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_concurrent_run_matches_serial_oracle_across_worker_counts(self):
        spec = tiny_spec()
        oracle = serial_oracle_checksum(spec)
        for clients in (1, 2, 4):
            report = run_load(
                spec, mode="in-process", clients=clients, pace=False,
            )
            assert report.checksum == oracle, f"clients={clients}"
            assert report.ok()

    def test_queries_and_mutations_on_one_tenant_match_the_oracle(self):
        """One tokened tenant takes both queries and four-kind churn: every
        op runs in plan order there, so any client count reproduces the
        serial oracle, which rebuilds the context after every edit."""
        spec = tiny_spec(
            tenants=[tiny_spec().to_dict()["tenants"][1]],
            arrival={"schedule": "fixed", "rate": 500.0, "requests": 40},
            profile={"connect": 3, "batch": 1, "interpret": 1,
                     "enumerate": 1, "mutate": 2},
        )
        plan = build_plan(spec, build_graphs(spec))
        assert {op.op for op in plan} >= {"connect", "mutate", "enumerate"}
        assert all(op.tenant == "churn" for op in plan)
        oracle = serial_oracle_checksum(spec, plan)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the client threads finely
        try:
            for clients in (1, 2, 4, 8):
                report = run_load(
                    spec, mode="in-process", clients=clients, pace=False,
                    soak=False,
                )
                assert report.checksum == oracle, f"clients={clients}"
                assert report.unexpected_errors == 0
                assert report.ok()
        finally:
            sys.setswitchinterval(interval)

    def test_repeat_runs_are_identical(self):
        spec = tiny_spec()
        first = run_load(spec, mode="in-process", pace=False)
        second = run_load(spec, mode="in-process", pace=False)
        assert first.checksum == second.checksum == first.oracle_checksum

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_verify_checksum_is_seed_deterministic(self, seed):
        """Satellite: same LoadSpec seed => identical request sequence and
        identical verify checksums across runs and worker counts."""
        spec = tiny_spec(
            seed=seed,
            arrival={"schedule": "poisson", "rate": 500.0, "requests": 12},
        )
        plan = build_plan(spec, build_graphs(spec))
        assert plan == build_plan(spec, build_graphs(spec))
        oracle = serial_oracle_checksum(spec, plan)
        assert oracle == serial_oracle_checksum(spec)
        concurrent = run_load(spec, mode="in-process", clients=3, pace=False)
        assert concurrent.checksum == oracle

    def test_expected_errors_are_part_of_the_checksum(self):
        """Scripted auth/quota rejections digest as error:<kind> -- a server
        that stops rejecting them changes the checksum."""
        spec = tiny_spec()
        plan = build_plan(spec, build_graphs(spec))
        transport = InProcessTransport(build_registry(spec), spec)
        samples, _ = run_plan(plan, transport, clients=1, pace=False)
        by_op = {s.op: s for s in samples}
        assert by_op["bad_auth"].digest == "error:auth"
        assert by_op["over_quota"].digest == "error:quota"
        assert by_op["bad_auth"].expected
        # flipping one digest flips the checksum
        tampered = [
            OpSample(**{**s.__dict__, "digest": "error:internal"})
            if s.op == "bad_auth"
            else s
            for s in samples
        ]
        assert samples_checksum(tampered) != samples_checksum(samples)


# ----------------------------------------------------------------------
# soak: the leak monitor and the leaky-stub regression
# ----------------------------------------------------------------------
class TestSoak:
    def test_monitor_passes_a_plateau_and_flags_growth(self):
        readings = {"flat": [5, 9, 9, 9], "leaky": [5, 9, 11, 13]}
        cursor = {"i": 0}
        monitor = SoakMonitor(
            {
                "flat": lambda: readings["flat"][cursor["i"]],
                "leaky": lambda: readings["leaky"][cursor["i"]],
            },
            warmup=1,
        )
        for i in range(4):
            cursor["i"] = i
            monitor.sample()
        leaks = monitor.leaks()
        assert len(leaks) == 1 and "leaky" in leaks[0]

    def test_monitor_respects_warmup_and_allowance(self):
        fills_then_flat = iter([0, 100, 100])
        monitor = SoakMonitor({"cache": lambda: next(fills_then_flat)}, warmup=1)
        for _ in range(3):
            monitor.sample()
        assert monitor.leaks() == []  # the 0 -> 100 jump was warmup
        wobble = iter([0, 10, 12])
        tolerant = SoakMonitor(
            {"cache": lambda: next(wobble)},
            warmup=1,
            allowed_growth=(("cache", 5),),
        )
        for _ in range(3):
            tolerant.sample()
        assert tolerant.leaks() == []

    def test_soak_run_on_a_correct_stack_plateaus(self):
        spec = tiny_spec(
            soak={"cycles": 3, "queries_per_cycle": 2, "edits_per_cycle": 1,
                  "warmup": 1},
        )
        report = run_soak(spec)
        assert isinstance(report, SoakReport)
        assert report.ok(), f"unexpected leaks: {report.leaks}"
        sampled = dict(report.samples)
        assert set(sampled) == {"schema_contexts", "oracle_rows", "disk_bytes"}
        assert all(len(values) == 3 for values in sampled.values())

    def test_deliberately_leaky_probe_is_flagged(self):
        """Satellite: the leak detector itself is under test -- inject a
        stub that grows every cycle and the soak verdict must fail."""
        spec = tiny_spec(
            soak={"cycles": 4, "queries_per_cycle": 1, "edits_per_cycle": 0,
                  "warmup": 1},
        )
        counter = {"rows": 0}

        def leaky_rows():
            counter["rows"] += 2  # rows that are never evicted, every cycle
            return counter["rows"]

        report = run_soak(
            spec,
            probes_override={
                "oracle_rows": leaky_rows,
                "flat": lambda: 1,
            },
        )
        assert not report.ok()
        assert any("oracle_rows" in leak for leak in report.leaks)
        assert not any("flat" in leak for leak in report.leaks)

    def test_leaky_soak_fails_the_load_report(self):
        spec = tiny_spec()
        soak = SoakReport(
            cycles=3,
            samples=(("disk_bytes", (1.0, 2.0, 3.0)),),
            leaks=("disk_bytes grew from 2 to 3 (+1 > allowed 0) over 2 "
                   "post-warmup cycles",),
        )
        report = build_report(
            spec, "in-process", [_sample(0, "connect", 1.0)], 0.1,
            checksum="a", oracle_checksum="a", soak=soak,
        )
        assert not report.ok()
        assert any("soak leak" in line for line in report.budget_violations)
        assert "LEAK" in report.render_text()


# ----------------------------------------------------------------------
# runner + CLI: end to end over both transports
# ----------------------------------------------------------------------
class TestRunnerAndCli:
    def test_wire_mode_matches_the_serial_oracle(self):
        from test_server import running_server

        spec = tiny_spec()
        with running_server() as server:
            report = run_load(
                spec, mode="wire", host="127.0.0.1", port=server.port,
            )
        assert report.mode == "wire"
        assert report.checksum == report.oracle_checksum
        assert report.ok(), report.budget_violations

    def test_side_objective_traffic_in_process_and_over_the_wire(self):
        from test_server import running_server

        spec = tiny_spec(objective="side", side=2)
        report = run_load(spec, mode="in-process", pace=False, soak=False)
        assert report.ok() and report.checksum == report.oracle_checksum
        with running_server() as server:
            wire = run_load(
                spec, mode="wire", host="127.0.0.1", port=server.port,
                soak=False,
            )
        assert wire.ok(), wire.budget_violations
        assert wire.checksum == report.checksum == wire.oracle_checksum
        # the objective reached the service: Steiner traffic digests apart
        assert report.checksum != serial_oracle_checksum(tiny_spec())

    def test_wire_mode_rejects_missing_port(self):
        with pytest.raises(ValidationError, match="port"):
            run_load(tiny_spec(), mode="wire")
        with pytest.raises(ValidationError, match="mode"):
            run_load(tiny_spec(), mode="smoke-signals")

    def test_cli_in_process_run_exits_zero(self, tmp_path, capsys):
        from repro.runtime.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(tiny_spec().to_json(), encoding="utf-8")
        json_path = tmp_path / "report.json"
        code = main(
            ["load", str(spec_path), "--in-process", "--json", str(json_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: PASS" in out
        assert json.loads(json_path.read_text())["ok"] is True

    def test_cli_load_spec_template_round_trips(self, capsys):
        from repro.runtime.cli import main

        assert main(["load", "spec-template"]) == 0
        printed = capsys.readouterr().out
        spec = LoadSpec.from_json(printed)
        assert spec.name == "multi-tenant-mixed"

    def test_cli_rejects_bad_specs_with_exit_2(self, tmp_path, capsys):
        from repro.runtime.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}', encoding="utf-8")
        assert main(["load", str(bad), "--in-process"]) == 2
        assert main(["load", "--in-process"]) == 2
        assert main(["load", str(bad), "--in-process", "--connect", "x:1"]) == 2
        assert "error:" in capsys.readouterr().err
        mistyped = tmp_path / "mistyped.json"
        mistyped.write_text(
            json.dumps({**tiny_spec().to_dict(), "clients": "four"}),
            encoding="utf-8",
        )
        assert main(["load", str(mistyped), "--in-process"]) == 2
        assert "'clients' must be an integer" in capsys.readouterr().err

    def test_cli_budget_violation_exits_one(self, tmp_path, capsys):
        from repro.runtime.cli import main

        spec = tiny_spec(
            budgets={"latency_ms": {"connect": {"p50": 0.0001}}},
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json(), encoding="utf-8")
        assert main(["load", str(spec_path), "--in-process"]) == 1
        assert "verdict: FAIL" in capsys.readouterr().out

    def test_report_extra_carries_mode_fields(self):
        report = run_load(tiny_spec(), mode="in-process", pace=False)
        assert isinstance(report, LoadReport)
        assert report.requests == 24
        assert report.retries >= 0
