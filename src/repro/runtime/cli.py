"""Command-line entry point: ``python -m repro run <spec.json>``.

The CLI executes a :class:`~repro.runtime.workload.WorkloadSpec` through
the full phase matrix -- serial cold, serial warm, (with
``--cache-dir``) disk-populate and disk-warm, and (with a ``churn`` mix
in the spec) the schema-evolution phases churn-incremental and
churn-oracle -- prints a human-readable summary, and optionally writes
the complete :class:`~repro.runtime.workload.WorkloadReport` as JSON.
The process exits non-zero when any phase disagrees with its checksum
group on the canonical answers, so the CLI doubles as a deterministic
end-to-end check (including "incremental churn answers == fresh-context
oracle answers").

Subcommands::

    python -m repro run spec.json --cache-dir .repro-cache
    python -m repro spec-template          # print a starter spec
    python -m repro serve --port 7463      # multi-tenant connection server
    python -m repro load --smoke           # open-loop load & soak harness
    python -m repro load spec-template     # print a starter load spec

``serve`` starts the :class:`~repro.server.app.ReproServer` (see
``docs/server.md``) and drains gracefully on SIGTERM/SIGINT: it stops
accepting, finishes in-flight requests, flushes the disk cache, then
exits 0.

``load`` executes a :class:`~repro.load.spec.LoadSpec` (see
``docs/load.md``): by default it spawns a ``serve`` subprocess and
drives it over the wire; ``--connect HOST:PORT`` targets a server you
already run, and ``--in-process`` skips sockets entirely.  The exit
code follows the report verdict -- 0 when every budget held and the
verify checksum matched, 1 otherwise, 2 for an invalid spec.

See ``docs/runtime.md`` for the caching guide.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.exceptions import ValidationError
from repro.runtime.workload import WorkloadReport, WorkloadSpec, run_workload

#: The starter spec printed by ``spec-template``: the 515-vertex
#: (6,2)-chordal acceptance workload, including a schema-churn phase
#: (``verify`` is off because the fresh-context oracle would re-run the
#: full Theorem 1 recognition after every edit at this schema size; the
#: CI smoke spec runs a smaller schema with the oracle on).
TEMPLATE = {
    "name": "chordal-515",
    "schema": {"generator": "random_62_chordal_graph",
               "params": {"blocks": 170, "rng": 1985}},
    "queries": [{"count": 2000, "terminals": 3, "objective": "steiner", "seed": 7}],
    "batch_size": None,
    "seed": 0,
    "churn": {"edits": 25, "queries_per_edit": 8, "terminals": 3,
              "seed": 11, "verify": False},
}


def _build_parser() -> argparse.ArgumentParser:
    """Return the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Run declarative minimal-connection workloads "
            "(cold vs warm, optionally disk-cached)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="execute a workload spec and report phase timings"
    )
    run.add_argument("spec", help="path to a workload spec JSON file ('-' = stdin)")
    run.add_argument(
        "--cache-dir", default=None,
        help="enable the persistent result cache and run the disk phases",
    )
    run.add_argument(
        "--no-cold", action="store_true",
        help="skip the serial-cold phase (classification + first solves)",
    )
    run.add_argument(
        "--json", dest="json_path", default=None,
        help="write the full report as JSON to this path ('-' = stdout)",
    )
    run.add_argument(
        "--metrics-out", dest="metrics_path", default=None,
        help=(
            "write the run's metrics in Prometheus text exposition format "
            "to this path (e.g. metrics.prom)"
        ),
    )

    commands.add_parser(
        "spec-template", help="print a starter workload spec to stdout"
    )

    serve = commands.add_parser(
        "serve", help="start the multi-tenant connection server"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="interface to bind (default: loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="RPC port (default: 0 = pick a free port and print it)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=0,
        help="HTTP port for GET /metrics (default: 0 = pick a free port)",
    )
    serve.add_argument(
        "--capacity", type=int, default=8,
        help="tenants kept bound in memory before LRU eviction (default: 8)",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="persistent result cache shared by all tenants (disk-warm rebinds)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds to wait for in-flight requests on shutdown (default: 10)",
    )

    load = commands.add_parser(
        "load", help="open-loop load & soak harness against the server"
    )
    load.add_argument(
        "spec", nargs="?", default=None,
        help=(
            "path to a load spec JSON file ('-' = stdin, "
            "'spec-template' = print a starter load spec)"
        ),
    )
    load.add_argument(
        "--smoke", action="store_true",
        help="run the built-in CI acceptance spec instead of a spec file",
    )
    load.add_argument(
        "--in-process", action="store_true",
        help="drive a fresh in-process registry (no sockets, no subprocess)",
    )
    load.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help=(
            "drive an already-running server "
            "(default: spawn a `serve` subprocess for the run)"
        ),
    )
    load.add_argument(
        "--clients", type=int, default=None,
        help="concurrent simulated clients (overrides the spec)",
    )
    load.add_argument(
        "--no-soak", action="store_true",
        help="skip the spec's soak section (burst phase only)",
    )
    load.add_argument(
        "--chaos", action="store_true",
        help=(
            "chaos mode: SIGKILL and restart the spawned server at "
            "scheduled points mid-run; pass requires the answer checksum "
            "to still match the serial oracle (query-only specs; "
            "with --smoke, runs the committed chaos spec)"
        ),
    )
    load.add_argument(
        "--kills", type=int, default=2,
        help="scheduled server kills in chaos mode (default: 2)",
    )
    load.add_argument(
        "--json", dest="json_path", default=None,
        help="write the full LoadReport as JSON to this path ('-' = stdout)",
    )
    return parser


def _load_spec(path: str) -> WorkloadSpec:
    """Read and validate the spec file (``-`` reads stdin)."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise ValidationError(f"cannot read spec {path!r}: {error}") from error
    return WorkloadSpec.from_json(text)


def _print_summary(report: WorkloadReport) -> None:
    """Print the human-readable phase table and headline ratios."""
    print(f"workload  : {report.spec['name']}")
    print(
        f"schema    : {report.vertices} vertices / {report.edges} edges "
        f"({report.spec['schema']['generator']})"
    )
    print(f"queries   : {report.queries}")
    print()
    print(f"{'phase':<18} {'seconds':>10} {'q/s':>10}")
    for phase in report.phases:
        rate = phase.queries / phase.seconds if phase.seconds > 0 else float("inf")
        print(f"{phase.name:<18} {phase.seconds:>10.3f} {rate:>10.1f}")
    print()
    if report.disk_warm_ratio is not None:
        print(f"disk-warm / serial-warm ratio       : {report.disk_warm_ratio:.2f}")
    if report.churn_speedup is not None:
        print(f"churn speedup (oracle / incremental): {report.churn_speedup:.2f}x")
    solvers = ", ".join(f"{name}={count}" for name, count in report.solver_histogram)
    guarantees = ", ".join(
        f"{name}={count}" for name, count in report.guarantee_histogram
    )
    print(f"solvers   : {solvers}")
    print(f"guarantees: {guarantees}")
    oracle = report.cache_stats.get("distance_oracle")
    if oracle:
        print(
            "oracle    : "
            f"hits={oracle.get('hits', 0)} misses={oracle.get('misses', 0)} "
            f"evictions={oracle.get('evictions', 0)} "
            f"invalidated={oracle.get('invalidated', 0)}"
        )
    _print_metrics(report.metrics_summary)
    status = "CONSISTENT" if report.checksums_consistent else "MISMATCH"
    print(f"answers   : {status} (checksum {report.checksum[:16]}...)")


def _print_metrics(summary: dict) -> None:
    """Print the metrics roll-up section (omitted for a NullRegistry run)."""
    if not summary:
        return
    print()
    print("metrics")
    line = f"  queries observed : {summary.get('queries_observed', 0)}"
    if "latency_p50_ms" in summary:
        line += (
            f"  (p50 {summary['latency_p50_ms']:.3f} ms, "
            f"p99 {summary['latency_p99_ms']:.3f} ms)"
        )
    print(line)
    for key, label in (
        ("schema_cache_hit_rate", "schema-cache hit rate"),
        ("oracle_hit_rate", "oracle hit rate"),
    ):
        if key in summary:
            print(f"  {label:<17}: {summary[key]:.1%}")
    if "rebinds" in summary:
        outcomes = ", ".join(
            f"{outcome}={int(count)}"
            for outcome, count in sorted(summary["rebinds"].items())
        )
        print(f"  rebinds          : {outcomes}")
    if "disk_replays" in summary:
        print(f"  disk replays     : {int(summary['disk_replays'])}")


def _serve(args: argparse.Namespace) -> int:
    """Run the connection server until SIGTERM/SIGINT, then drain."""
    import asyncio
    import signal

    from repro.server.app import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        metrics_port=args.metrics_port,
        capacity=args.capacity,
        cache_dir=args.cache_dir,
        drain_grace=args.drain_grace,
    )

    async def _run() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, server.request_drain)
        print(
            f"repro-server listening on {server.host}:{server.port} "
            f"(metrics: http://{server.host}:{server.metrics_port}/metrics)",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # signal raced the handler installation
        pass
    print("repro-server drained cleanly", flush=True)
    return 0


def _load_cmd(args: argparse.Namespace) -> int:
    """Run the ``load`` subcommand; returns the process exit code."""
    from repro.load import LoadSpec, run_load
    from repro.load.runner import TEMPLATE as LOAD_TEMPLATE
    from repro.load.runner import smoke_spec, spawn_server, stop_server

    if args.spec == "spec-template":
        try:
            print(json.dumps(LOAD_TEMPLATE, indent=2))
        except BrokenPipeError:
            pass
        return 0

    try:
        if args.smoke:
            if args.chaos:
                from repro.load.chaos import chaos_spec

                spec = chaos_spec()
            else:
                spec = smoke_spec()
        elif args.spec == "-":
            spec = LoadSpec.from_json(sys.stdin.read())
        elif args.spec is not None:
            try:
                with open(args.spec, "r", encoding="utf-8") as handle:
                    spec = LoadSpec.from_json(handle.read())
            except OSError as error:
                raise ValidationError(
                    f"cannot read load spec {args.spec!r}: {error}"
                ) from error
        else:
            raise ValidationError(
                "provide a load spec path, '-', 'spec-template', or --smoke"
            )
        if args.in_process and args.connect:
            raise ValidationError("--in-process and --connect are exclusive")

        if args.chaos:
            from repro.load.chaos import run_chaos

            if args.connect:
                raise ValidationError(
                    "--chaos must own the server process it kills; "
                    "it cannot target --connect"
                )
            report = run_chaos(
                spec,
                mode="in-process" if args.in_process else "wire",
                kills=args.kills,
                clients=args.clients,
            )
        elif args.in_process:
            report = run_load(
                spec, mode="in-process",
                clients=args.clients, soak=not args.no_soak,
            )
        elif args.connect:
            host, _, port_text = args.connect.rpartition(":")
            if not host or not port_text.isdigit():
                raise ValidationError(
                    f"--connect expects HOST:PORT, got {args.connect!r}"
                )
            report = run_load(
                spec, mode="wire", host=host, port=int(port_text),
                clients=args.clients, soak=not args.no_soak,
            )
        else:
            process, host, port = spawn_server()
            try:
                report = run_load(
                    spec, mode="wire", host=host, port=port,
                    clients=args.clients, soak=not args.no_soak,
                )
            finally:
                stop_server(process)
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.json_path == "-":
        print(report.to_json())
    else:
        print(report.render_text())
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
                handle.write("\n")
            print(f"report: {args.json_path}")
    return 0 if report.ok() else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "serve":
        return _serve(args)

    if args.command == "load":
        return _load_cmd(args)

    if args.command == "spec-template":
        try:
            print(json.dumps(TEMPLATE, indent=2))
        except BrokenPipeError:  # `python -m repro spec-template | head`
            pass
        return 0

    try:
        spec = _load_spec(args.spec)
        report = run_workload(
            spec,
            cache_dir=args.cache_dir,
            include_cold=not args.no_cold,
        )
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.json_path == "-":
        print(report.to_json())
    else:
        _print_summary(report)
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
                handle.write("\n")
            print(f"report    : {args.json_path}")
    if args.metrics_path:
        with open(args.metrics_path, "w", encoding="utf-8") as handle:
            handle.write(report.metrics_text)
        if args.json_path != "-":
            print(f"metrics   : {args.metrics_path}")

    return 0 if report.checksums_consistent else 1
