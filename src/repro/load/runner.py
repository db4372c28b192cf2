"""Load-run orchestration: transports, verify oracle, smoke spec, server spawn.

:func:`run_load` is the one call behind ``python -m repro load``: build
the schemas, compile the plan, execute it over the chosen transport
(in-process registry or a live server), replay the serial verify
oracle, run the optional soak phase, and fold everything into a
:class:`~repro.load.report.LoadReport`.  :func:`run_phases` is its
serial preset behind ``python -m repro run``: the same plan, replayed in
process on one client as cold, warm and disk-cached phases.

The **serial oracle** (:func:`serial_oracle_checksum`) replays the exact
same plan through an :class:`~repro.load.clients.InProcessTransport` on
one client in plan order -- no concurrency, no sockets, no pacing -- on
a registry where every tenant the plan mutates rebuilds its context
from scratch after each edit.  Its checksum is the ground truth every
run must reproduce: matching checksums mean every answer (and every
scripted rejection) that crossed threads, sockets, reconnects,
admission retries, incremental rebinds and disk replays was
byte-equivalent to the quiet serial answer.

:data:`SMOKE_SPEC` is the committed CI acceptance spec -- small enough
for a pull-request gate, wide enough to cross every op kind, both error
paths, a soak phase and two tenant populations.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time
from typing import Collection, Dict, Optional, Tuple

from repro.exceptions import ValidationError
from repro.load.clients import (
    InProcessTransport,
    WireTransport,
    run_plan,
    samples_checksum,
)
from repro.load.report import LoadReport, build_report
from repro.load.schedule import build_plan
from repro.load.spec import LoadSpec

#: The CI acceptance spec behind ``python -m repro load --smoke``.
SMOKE_SPEC: dict = {
    "name": "load-smoke",
    "tenants": [
        {
            "name": "alpha",
            "schema": {
                "generator": "random_62_chordal_graph",
                "params": {"blocks": 4, "rng": 11},
            },
        },
        {
            "name": "beta",
            "schema": {
                "generator": "random_alpha_schema_graph",
                "params": {"relations": 5, "rng": 7},
            },
        },
        {
            "name": "churn",
            "schema": {
                "generator": "random_62_chordal_graph",
                "params": {"blocks": 3, "rng": 5},
            },
            "token": "smoke-token",
            "limits": {"max_batch_requests": 8},
        },
    ],
    "arrival": {"schedule": "poisson", "rate": 60.0, "requests": 60, "seed": 1},
    "profile": {
        "connect": 5,
        "batch": 2,
        "interpret": 2,
        "enumerate": 2,
        "mutate": 2,
        "bad_auth": 1,
        "over_quota": 1,
    },
    "terminals": 3,
    "batch_size": 3,
    "enumerate": {"budget": 2, "pages": 2, "reconnect": True},
    "clients": 4,
    "seed": 42,
    "verify": True,
    "budgets": {
        "latency_ms": {
            "connect": {"p99": 10000.0},
            "interpret": {"p99": 15000.0},
        },
        "error_rates": {"internal": 0.0, "protocol": 0.0},
        "min_achieved_fraction": 0.02,
    },
    "soak": {
        "cycles": 3,
        "queries_per_cycle": 4,
        "edits_per_cycle": 1,
        "warmup": 1,
    },
}

#: The starter spec printed by ``python -m repro load spec-template``.
TEMPLATE: dict = {
    "name": "multi-tenant-mixed",
    "tenants": [
        {
            "name": "queries-a",
            "schema": {
                "generator": "random_62_chordal_graph",
                "params": {"blocks": 12, "rng": 11},
            },
        },
        {
            "name": "queries-b",
            "schema": {
                "generator": "random_gamma_schema_graph",
                "params": {"blocks": 6, "rng": 23},
            },
        },
        {
            "name": "churn",
            "schema": {
                "generator": "random_62_chordal_graph",
                "params": {"blocks": 8, "rng": 5},
            },
            "token": "change-me",
            "limits": {"max_batch_requests": 64, "max_inflight": 32},
        },
    ],
    "arrival": {
        "schedule": "poisson",
        "rate": 200.0,
        "requests": 1000,
        "seed": 1,
    },
    "profile": {
        "connect": 6,
        "batch": 2,
        "interpret": 2,
        "enumerate": 2,
        "mutate": 1,
        "bad_auth": 1,
        "over_quota": 1,
    },
    "terminals": 3,
    "batch_size": 4,
    "enumerate": {"budget": 3, "pages": 3, "reconnect": True},
    "clients": 8,
    "seed": 42,
    "verify": True,
    "budgets": {
        "latency_ms": {
            "connect": {"p50": 250.0, "p99": 2000.0, "p999": 5000.0},
            "enumerate": {"p99": 5000.0},
        },
        "error_rates": {"internal": 0.0, "transport": 0.01},
        "min_achieved_fraction": 0.5,
    },
    "soak": {
        "cycles": 6,
        "queries_per_cycle": 8,
        "edits_per_cycle": 2,
        "warmup": 2,
        "allowed_growth": {"disk_bytes": 0},
    },
}


def smoke_spec() -> LoadSpec:
    """The parsed CI smoke spec."""
    return LoadSpec.from_dict(SMOKE_SPEC)


def build_graphs(spec: LoadSpec) -> Dict[str, object]:
    """Generate every tenant's initial schema (deterministic per spec)."""
    return {tenant.name: tenant.build_schema() for tenant in spec.tenants}


def build_registry(
    spec: LoadSpec,
    *,
    metrics=None,
    cache_dir=None,
    fresh_context: Collection[str] = (),
):
    """Build a fresh :class:`SchemaRegistry` populated with the spec's tenants.

    Schemas are regenerated (not shared with any other run), so every
    registry starts from the pristine state -- mutations in one run can
    never bleed into another.  Tenants named in ``fresh_context`` rebuild
    their context from scratch after every edit (``incremental=False``
    and a one-slot context cache, so no earlier structure is reused):
    the oracle's view of a mutated tenant.
    """
    from repro.metrics import MetricsRegistry
    from repro.server.registry import SchemaRegistry

    registry = SchemaRegistry(
        capacity=max(2, len(spec.tenants)),
        cache_dir=cache_dir,
        metrics=metrics if metrics is not None else MetricsRegistry(),
    )
    for tenant in spec.tenants:
        overrides = dict(tenant.config)
        if tenant.name in fresh_context:
            overrides.update(incremental=False, cache_size=1)
        registry.create(
            tenant.name,
            tenant.build_schema(),
            config_overrides=overrides,
            limits=dict(tenant.limits),
            token=tenant.token,
        )
    return registry


def serial_oracle_checksum(spec: LoadSpec, plan=None) -> str:
    """Replay the plan serially in-process; return the ground-truth checksum."""
    if plan is None:
        plan = build_plan(spec, build_graphs(spec))
    mutated = {op.tenant for op in plan if op.op == "mutate"}
    transport = InProcessTransport(
        build_registry(spec, fresh_context=mutated), spec
    )
    samples, _ = run_plan(plan, transport, clients=1, pace=False)
    return samples_checksum(samples)


def run_phases(spec: LoadSpec, *, cache_dir=None, metrics=None) -> LoadReport:
    """Replay the spec's plan in process, phase by phase (``repro run``).

    Each phase runs the whole plan on the executor with one client and
    no pacing, against a registry of its own:

    * ``serial-cold`` -- a fresh registry: classification plus every solve;
    * ``serial-warm`` -- the same registry again, only when the plan has
      no mutations (replaying edits on an edited schema would be another
      workload);
    * ``disk-populate`` / ``disk-warm`` -- only with ``cache_dir``: a
      fresh registry that stores every answer there, then another that
      replays them from disk.

    Every phase's checksum must equal the serial oracle's (when
    ``spec.verify``); :meth:`~repro.load.report.LoadReport.ok` says
    whether they all did.  Op statistics and budgets come from
    ``serial-cold``; the soak section is ``repro load``'s alone.  Wall
    times go to the ``repro_phase_seconds{phase}`` gauge of ``metrics``
    (a fresh :class:`~repro.metrics.MetricsRegistry` when ``None``),
    which every phase's services also collect into.
    """
    from repro.metrics import MetricsRegistry

    metrics = metrics if metrics is not None else MetricsRegistry()
    phase_seconds = metrics.gauge(
        "repro_phase_seconds", "Wall time of each `repro run` phase.", ("phase",)
    )
    plan = build_plan(spec, build_graphs(spec))
    phases = []

    def replay(name: str, registry):
        samples, seconds = run_plan(
            plan, InProcessTransport(registry, spec), clients=1, pace=False
        )
        phase_seconds.labels(phase=name).set(seconds)
        phases.append((name, seconds, samples_checksum(samples)))
        return samples, seconds

    registry = build_registry(spec, metrics=metrics)
    cold, duration = replay("serial-cold", registry)
    if not any(op.op == "mutate" for op in plan):
        replay("serial-warm", registry)
    if cache_dir is not None:
        for name in ("disk-populate", "disk-warm"):
            replay(name, build_registry(spec, metrics=metrics, cache_dir=cache_dir))
    return build_report(
        spec,
        "serial",
        cold,
        duration,
        checksum=phases[0][2],
        oracle_checksum=serial_oracle_checksum(spec, plan) if spec.verify else "",
        phases=tuple(phases),
    )


def run_load(
    spec: LoadSpec,
    *,
    mode: str = "in-process",
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    clients: Optional[int] = None,
    pace: bool = True,
    soak: bool = True,
) -> LoadReport:
    """Execute one load spec end to end and return its report.

    ``mode`` is ``"in-process"`` (drive a fresh registry on this
    process's threads) or ``"wire"`` (drive the server at
    ``host:port``; the spec's tenants are created there first,
    idempotently).  ``clients`` overrides the spec's concurrency,
    ``pace=False`` disables open-loop arrival pacing (as-fast-as-
    possible replay, used by benchmarks), and ``soak=False`` skips the
    spec's soak section (the CLI runs it; unit tests often don't).
    """
    if mode not in ("in-process", "wire"):
        raise ValidationError(f"unknown load mode {mode!r}")
    graphs = build_graphs(spec)
    plan = build_plan(spec, graphs)
    if mode == "wire":
        if port is None:
            raise ValidationError("wire mode needs the server's RPC port")
        _create_tenants(spec, host, port)
        transport = WireTransport(host, port, spec)
    else:
        transport = InProcessTransport(build_registry(spec), spec)
    try:
        samples, duration = run_plan(
            plan,
            transport,
            clients=clients if clients is not None else spec.clients,
            pace=pace,
        )
    finally:
        transport.close()
    checksum = samples_checksum(samples)
    oracle_checksum = ""
    if spec.verify:
        oracle_checksum = serial_oracle_checksum(spec, plan)
    soak_report = None
    if soak and spec.soak is not None:
        from repro.load.soak import run_soak

        soak_report = run_soak(spec)
    report = build_report(
        spec,
        mode,
        samples,
        duration,
        checksum=checksum,
        oracle_checksum=oracle_checksum,
        soak=soak_report,
    )
    return report


def _create_tenants(spec: LoadSpec, host: str, port: int) -> None:
    """Register the spec's tenants on a live server (idempotent)."""
    from repro.server.client import ReproClient

    with ReproClient(host, port) as client:
        for tenant in spec.tenants:
            client.create_schema(
                tenant.name,
                tenant.build_schema(),
                config=dict(tenant.config) or None,
                limits=dict(tenant.limits) or None,
                token=tenant.token,
                exist_ok=True,
            )


# ----------------------------------------------------------------------
# subprocess server management (the CLI's default wire target)
# ----------------------------------------------------------------------
_BANNER = re.compile(r"listening on ([\d.]+):(\d+)")


def spawn_server(
    *,
    cache_dir: Optional[str] = None,
    timeout: float = 30.0,
    port: int = 0,
) -> Tuple[subprocess.Popen, str, int]:
    """Start ``python -m repro serve``; return (proc, host, port).

    ``port=0`` (the default) binds a free port; the chaos supervisor
    passes the *previous* incarnation's port so clients holding a dead
    address reconnect to the restarted server without rediscovery.
    Reads the child's stdout until the listening banner appears.  The
    caller owns the process -- pass it to :func:`stop_server` when done.
    """
    command = [sys.executable, "-m", "repro", "serve", "--port", str(port)]
    if cache_dir is not None:
        command += ["--cache-dir", cache_dir]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + timeout
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            if process.poll() is not None:
                raise ValidationError(
                    "server subprocess exited before listening "
                    f"(code {process.returncode})"
                )
            time.sleep(0.05)
            continue
        match = _BANNER.search(line)
        if match:
            return process, match.group(1), int(match.group(2))
    process.kill()
    raise ValidationError("server subprocess did not print its banner in time")


def stop_server(process: subprocess.Popen, timeout: float = 15.0) -> int:
    """Drain a spawned server (SIGTERM, bounded wait); return its exit code."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=5.0)
    if process.stdout is not None:
        process.stdout.close()
    return process.returncode if process.returncode is not None else -1


__all__ = [
    "SMOKE_SPEC",
    "TEMPLATE",
    "build_graphs",
    "build_registry",
    "run_load",
    "run_phases",
    "serial_oracle_checksum",
    "smoke_spec",
    "spawn_server",
    "stop_server",
]
