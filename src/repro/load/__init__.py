"""`repro.load`: the one workload model -- load, soak, chaos and serial runs.

Benchmarks (``benchmarks/``) measure closed-loop single-client
throughput: one caller, one request in flight, wall time divided by
query count.  That number says nothing about tail latency under
contention, error behaviour at admission limits, or slow resource leaks
-- the failure modes a service for millions of users actually dies of.
This package is the other half of the measurement story:

* :class:`~repro.load.spec.LoadSpec` -- a JSON description of a
  workload: tenants (schema generator + auth token + quotas), an
  arrival schedule (fixed-rate or Poisson, seeded -- no ambient clock
  in any decision), a mixed traffic profile (Steiner or side-objective
  connect/batch/interpret, paged enumeration with
  resume-across-reconnect, authenticated four-kind mutation churn,
  deliberate auth/quota error traffic), latency and error **budgets**,
  and an optional soak section;
* :func:`~repro.load.schedule.build_plan` -- compiles a spec into a
  deterministic list of :class:`~repro.load.schedule.PlannedOp`: same
  spec, same plan, byte for byte (mutations are planned edit lists
  drawn by :func:`~repro.load.schedule.churn_edits`, the one churn
  generator);
* :mod:`~repro.load.clients` -- executes a plan with many concurrent
  simulated clients, either **in-process** (a
  :class:`~repro.server.registry.SchemaRegistry` driven directly, auth
  and quotas included) or **over the wire** (blocking
  :class:`~repro.server.client.ReproClient` sessions against a live
  :class:`~repro.server.app.ReproServer`);
* :class:`~repro.load.report.LoadReport` -- per-op p50/p99/p999
  latency, achieved-vs-offered rate, an error taxonomy keyed on the
  server's typed error kinds, and pass/fail verdicts for every declared
  budget;
* :mod:`~repro.load.soak` -- N cycles of churn+query+enumerate traffic
  with resource probes sampled between cycles
  (:class:`~repro.load.soak.SoakMonitor`), flagging monotonic growth in
  oracle rows, schema contexts, or disk-cache bytes;
* :func:`~repro.load.runner.run_load` -- the orchestrator behind
  ``python -m repro load`` (see ``docs/load.md``), and
  :func:`~repro.load.runner.run_phases`, its serial preset behind
  ``python -m repro run`` (cold, warm and disk-cached phases; see
  ``docs/runtime.md``);
* :mod:`~repro.load.chaos` -- chaos mode (``python -m repro load
  --chaos``): a supervisor SIGKILLs and restarts the server at points
  scheduled by a :class:`~repro.faults.plan.FaultPlan` while traffic is
  in flight, and the run passes only if the answer checksum still
  equals the serial oracle's (see ``docs/resilience.md``).

Verify mode replays every planned operation against a **serial oracle**
(one in-process client, plan order, mutated tenants rebuilt from
scratch after every edit) and compares answer checksums, so a run
doubles as an end-to-end correctness test: identical checksums are
guaranteed for the same seed regardless of client count, transport or
phase.
"""

from repro.load.chaos import CHAOS_SPEC, chaos_spec, default_fault_plan, run_chaos
from repro.load.report import LoadReport, OpStats
from repro.load.runner import run_load, run_phases, serial_oracle_checksum
from repro.load.schedule import PlannedOp, build_plan
from repro.load.soak import SoakMonitor, SoakReport, run_soak
from repro.load.spec import ArrivalSpec, Budgets, LoadSpec, SoakSpec, TenantSpec

__all__ = [
    "ArrivalSpec",
    "Budgets",
    "CHAOS_SPEC",
    "LoadReport",
    "LoadSpec",
    "OpStats",
    "PlannedOp",
    "SoakMonitor",
    "SoakReport",
    "SoakSpec",
    "TenantSpec",
    "build_plan",
    "chaos_spec",
    "default_fault_plan",
    "run_chaos",
    "run_load",
    "run_phases",
    "run_soak",
    "serial_oracle_checksum",
]
