"""Command-line entry point: ``python -m repro``.

Subcommands::

    python -m repro run spec.json --cache-dir .repro-cache  # serial phases
    python -m repro load --smoke           # open-loop load & soak harness
    python -m repro load spec-template     # print a starter spec
    python -m repro serve --port 7463      # multi-tenant connection server

``run`` and ``load`` read the same :class:`~repro.load.spec.LoadSpec`
and compile it to the same plan.  ``run`` is the serial preset
(:func:`~repro.load.runner.run_phases`): it replays the plan in process
on one client as phases -- ``serial-cold``, ``serial-warm`` when the
plan has no mutations, and with ``--cache-dir`` ``disk-populate`` and
``disk-warm`` -- and compares each phase with the serial oracle, which
rebuilds every mutated tenant from scratch after each edit.  ``load``
executes the plan open-loop (see ``docs/load.md``): by default it
spawns a ``serve`` subprocess and drives it over the wire;
``--connect HOST:PORT`` targets a server you already run, and
``--in-process`` skips sockets entirely.  Both exit 0 when every budget
held and every checksum matched the oracle, 1 otherwise, and 2 for an
invalid spec (a pre-5.0 ``repro run`` spec included; see
``docs/migration.md``).

``serve`` starts the :class:`~repro.server.app.ReproServer` (see
``docs/server.md``) and drains gracefully on SIGTERM/SIGINT: it stops
accepting, finishes in-flight requests, flushes the disk cache, then
exits 0.

See ``docs/runtime.md`` for the caching guide.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.exceptions import ValidationError


def _build_parser() -> argparse.ArgumentParser:
    """Return the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Run minimal-connection workloads: serial phases (cold vs warm, "
            "optionally disk-cached), open-loop load, or the server."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="replay a load spec serially as phases against the oracle"
    )
    run.add_argument("spec", help="path to a load spec JSON file ('-' = stdin)")
    run.add_argument(
        "--cache-dir", default=None,
        help="enable the persistent result cache and run the disk phases",
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
            "'spec-template' = print a starter spec for `load` and `run`)"
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


def _read_spec(path: str):
    """Read and validate a load spec file (``-`` reads stdin)."""
    from repro.load import LoadSpec

    if path == "-":
        return LoadSpec.from_json(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ValidationError(f"cannot read spec {path!r}: {error}") from error
    return LoadSpec.from_json(text)


def _emit(report, json_path: Optional[str]) -> int:
    """Print (and optionally write) a report; return its exit code."""
    if json_path == "-":
        print(report.to_json())
    else:
        print(report.render_text())
        if json_path:
            with open(json_path, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
                handle.write("\n")
            print(f"report: {json_path}")
    return 0 if report.ok() else 1


def _run_cmd(args: argparse.Namespace) -> int:
    """Run the ``run`` subcommand (serial phases); returns the exit code."""
    from repro.load import run_phases
    from repro.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    try:
        report = run_phases(
            _read_spec(args.spec), cache_dir=args.cache_dir, metrics=metrics
        )
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    code = _emit(report, args.json_path)
    if args.metrics_path:
        with open(args.metrics_path, "w", encoding="utf-8") as handle:
            handle.write(metrics.render_text())
        if args.json_path != "-":
            print(f"metrics: {args.metrics_path}")
    return code


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
    from repro.load import run_load
    from repro.load.runner import TEMPLATE, smoke_spec, spawn_server, stop_server

    if args.spec == "spec-template":
        try:
            print(json.dumps(TEMPLATE, indent=2))
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
        elif args.spec is not None:
            spec = _read_spec(args.spec)
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
    return _emit(report, args.json_path)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    if args.command == "load":
        return _load_cmd(args)
    return _run_cmd(args)
