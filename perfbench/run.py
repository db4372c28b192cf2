"""Wire-level serving benchmark of the repro connection server.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm-connect --seed 1 --seconds 10 --trace 0

Each run builds its inputs from ``--seed``, replays them serially on
fresh in-process services (the oracle every wire answer is checked
against), starts ``perfbench/server.py`` subprocesses and drives them
over real sockets as a closed loop (one client per connection, the next
request sent when the previous reply is decoded).

``--trace 0`` sets up the server :data:`SETUPS` times, half before and
half after one measured phase (``setup_s`` is the median of the
least-stolen ones: spawn -> first verified answer on every standing
tenant), warms the measured server up,
measures for ``--seconds`` and prints the end-to-end metrics, each rate
and percentile over the least-stolen of :data:`WINDOWS` windows of the
phase.
``--trace 1`` measures half the time on an untraced server (per-operation
client latencies, the baseline throughput) and half on a traced one (the
layer spans of ``tracing.py``) and prints the per-layer metrics.  The
last stdout line is the JSON result; the line before it carries the
count-based layer metrics read from the server's ``stats``/``metrics``
RPCs.  See ``perfbench/README.md`` for what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter, sleep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Server set-ups per untraced run, half before and half after the
#: measured phase; ``setup_s`` is the median of the quiet ones.
SETUPS = 6
#: The measured phase is cut into this many equal time windows; each
#: end-to-end rate and percentile is taken over the ops of the quiet ones.
WINDOWS = 10
#: A set-up or window is quiet when its steal share -- the CPU time the
#: hypervisor of a shared host withheld from this machine -- is at most
#: this, or at most the median over its peers (so at least half are kept).
#: A burst of the host's load thus moves the metrics little; at this share
#: latencies still read as on an idle host.
QUIET_STEAL = 0.02
#: Socket deadline of every RPC (a cold create on a slow box stays far below).
RPC_TIMEOUT = 60.0
#: How long a server may take to print its port, and to drain.
SPAWN_TIMEOUT = 60.0

END_TO_END = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "rpc_p50_ms": "ms",
    "rpc_p95_ms": "ms",
    "server_peak_rss_mb": "MB",
}

SOLVER_METRICS = ("chordal-elimination", "dreyfus-wagner", "kmb", "algorithm1-indexed")

#: span name -> (metric, statistic): "mean" is the mean inclusive duration
#: per call, "self" the mean self time per call, "per_change" the total
#: duration per schema change (mutate or cold create) of the phase.
SPAN_METRICS = {
    "server.encode_result": ("server.encode_result_ms", "mean"),
    "server.decode_schema": ("server.decode_schema_ms", "mean"),
    "api.connect": ("api.connect_self_ms", "self"),
    "api.batch": ("api.batch_self_ms", "self"),
    "engine.cache.fingerprint": ("engine.cache.fingerprint_ms", "mean"),
    "engine.cache.context_build": ("engine.cache.context_build_ms", "mean"),
    "engine.cache.side_plan": ("engine.cache.side_plan_ms", "mean"),
    "classification.classify": ("classification.ms_per_change", "per_change"),
    "dynamic.delta_between": ("dynamic.delta_between_ms", "mean"),
    "dynamic.apply_delta": ("dynamic.apply_delta_ms", "mean"),
    "dynamic.block_classify": ("dynamic.block_classify_ms", "mean"),
    "dynamic.editor_commit": ("dynamic.editor_commit_ms", "mean"),
    "engine.planner.plan": ("engine.planner.plan_ms", "self"),
    "graphs.subgraph": ("graphs.subgraph_ms", "mean"),
    "graphs.spanning_tree": ("graphs.spanning_tree_ms", "mean"),
    "steiner.prune": ("steiner.prune_ms", "mean"),
    "steiner.dreyfus_wagner": ("steiner.dreyfus_wagner_ms", "mean"),
    "steiner.kmb": ("steiner.kmb_ms", "mean"),
    "kernels.oracle.fill": ("kernels.oracle.fill_ms", "mean"),
}
for _solver in SOLVER_METRICS:
    SPAN_METRICS[f"engine.registry.solve.{_solver}"] = (
        f"engine.registry.solve_ms.{_solver}",
        "mean",
    )

#: every per-layer metric a traced run prints, with its unit
PER_LAYER = {
    "connect_p50_ms": "ms",
    "connect_p99_ms": "ms",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "mutate_p50_ms": "ms",
    "post_mutate_connect_p50_ms": "ms",
    "cold_first_answer_p50_ms": "ms",
    "failed_frac": "ratio",
    "trace.answers_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "server.rpc_tax_ms": "ms",
    "engine.cache.hit_ratio": "ratio",
    "classification.calls_per_change": "count",
    "dynamic.blocks_reclassified_per_mutate": "count",
    "dynamic.rebind_fallbacks": "count",
    "kernels.oracle.hit_ratio": "ratio",
    "kernels.oracle.invalidated_rows_per_mutate": "count",
    **{metric: "ms" for metric, _stat in SPAN_METRICS.values()},
    **{f"engine.registry.share.{solver}": "ratio" for solver in SOLVER_METRICS},
}

#: Prometheus samples read before and after a measured phase (a family
#: name alone takes every label value).  The schema-cache and oracle
#: gauges are snapshots of the last tenant the server rendered, so they
#: are exact only with one live tenant; the rebind counter is exact.
SCRAPED = (
    "repro_rebind_total",
    "repro_schema_cache.hits",
    "repro_schema_cache.misses",
    "repro_schema_cache.rebind_fallbacks",
    "repro_distance_oracle.hits",
    "repro_distance_oracle.misses",
    "repro_distance_oracle.invalidated",
)
_SAMPLE = re.compile(r'^(\w+)\{\w+="([^"]*)"\}\s+(\S+)$')


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def percentile(values, p: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def cpu_ticks() -> list:
    """The machine's cumulative CPU tick counters, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as stat:
        return [int(field) for field in stat.readline().split()[1:]]


def scrape(client) -> dict:
    """Counter and gauge samples of :data:`SCRAPED`, from the ``metrics`` RPC."""
    samples = {}
    for line in client.call("metrics")["text"].splitlines():
        match = _SAMPLE.match(line)
        if match is None:
            continue
        key = f"{match.group(1)}.{match.group(2)}"
        if match.group(1) in SCRAPED or key in SCRAPED:
            samples[key] = float(match.group(3))
    return samples


class Server:
    """One ``perfbench/server.py`` subprocess."""

    def __init__(self, log_path: Path, trace_out=None) -> None:
        command = [sys.executable, str(HERE / "server.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=self._log
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], SPAWN_TIMEOUT)
            line = self.proc.stdout.readline().decode() if ready else ""
            if not line.startswith("PORT "):
                raise RuntimeError(f"server did not start (see {log_path.name})")
            self.port = int(line.split()[1])
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        """The server's user + system CPU time so far, over all its threads."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """Drain (SIGTERM) and reap the server; kill it if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SPAWN_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Session:
    """A started server, its client connections, and its set-up cost.

    ``setup.seconds`` is the wall time from spawn to the first verified
    answer on every standing tenant; ``setup_cpu`` is the server's CPU time
    at that point (set-up is CPU-bound, so the two differ little).
    """

    def __init__(self, workload, tmp: Path, label: str, trace_out=None) -> None:
        from repro.server.client import ReproClient

        from workloads import Op, Phase, connect_op, rpc

        self.setup = Phase()
        self.clients = []
        # the client's heap holds every answer kept so far: collect it now
        # so that no collection pass stalls the timed set-up
        gc.collect()
        gc.disable()
        ticks = cpu_ticks()
        start = perf_counter()
        self.server = Server(tmp / f"{label}.log", trace_out)
        try:
            self.clients = [
                ReproClient(port=self.server.port, timeout=RPC_TIMEOUT)
                for _ in range(workload.connections)
            ]
            client = self.clients[0]
            standing = workload.standing()
            for tenant, schema, _terminals, _params, _digest in standing:
                _response, seconds, error = rpc(
                    client, "create_schema", tenant=tenant, schema=schema
                )
                self.setup.ops.append(Op("create_schema", seconds, error=error))
            for tenant, _schema, terminals, params, digest in standing:
                op = connect_op(client, "probe", tenant, terminals, digest, **params)
                self.setup.ops.append(op)
                if op.failed():
                    op.error = op.error or "setup probe answer differs from the oracle"
            self.setup.seconds = perf_counter() - start
            self.setup_cpu = self.server.cpu_seconds()
            self.setup.steal_share = _steal_share(ticks, cpu_ticks())
        except BaseException:
            self.close()
            raise
        finally:
            gc.enable()
        workload.bind()

    def run(self, workload, seconds: float):
        """Warm up, then measure a closed loop for ``seconds``.

        Two ``ping`` RPCs bracket the measured phase (a traced server
        records them as marks); the count-based layer metrics are scraped
        just outside the bracket, and the ``stats`` RPC is read after it.
        """
        from workloads import Phase

        warm = Phase()
        workload.warmup(self.clients, warm)
        before = scrape(self.clients[0])
        self.clients[0].call("ping")
        phase = Phase()
        gc.collect()
        gc.disable()
        try:
            start = phase.start = perf_counter()
            deadline = start + seconds
            threads = [
                threading.Thread(
                    target=workload.session, args=(index, client, deadline, phase)
                )
                for index, client in enumerate(self.clients)
            ]
            threads.append(
                threading.Thread(
                    target=_sample_ticks, args=(start, seconds / WINDOWS, phase.ticks)
                )
            )
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            phase.seconds = perf_counter() - start
        finally:
            gc.enable()
        phase.steal_share = _steal_share(phase.ticks[0], phase.ticks[-1])
        self.clients[0].call("ping")
        after = scrape(self.clients[0])
        counts = {key: after[key] - before.get(key, 0.0) for key in after}
        registry = self.clients[0].call("stats")["registry"]
        counts["registry.live"] = registry["live"]
        for field in ("mutations", "evictions"):
            counts[f"registry.{field}"] = sum(
                tenant[field] for tenant in registry["tenants"].values()
            )
        return warm, phase, counts

    def close(self) -> None:
        """Close the clients and stop the server."""
        for client in self.clients:
            client.close()
        self.server.stop()


def _verify(phases):
    attempted = failed = 0
    for phase in phases:
        for op in phase.ops:
            attempted += 1
            failed += op.failed()
    return attempted, failed


def _sample_ticks(start: float, width: float, out: list) -> None:
    """Append the machine's tick counters now and at the end of each window."""
    out.append(cpu_ticks())
    for index in range(1, WINDOWS + 1):
        sleep(max(0.0, start + index * width - perf_counter()))
        out.append(cpu_ticks())


def _steal_share(before, after) -> float:
    """The share of the machine's CPU ticks between two samples that the
    hypervisor withheld (``/proc/stat``'s "steal" column)."""
    ticks = [b - a for a, b in zip(before, after)]
    return ticks[7] / max(sum(ticks), 1)


def _quiet(phases):
    """The phases whose steal share is quiet (see :data:`QUIET_STEAL`)."""
    calm = max(QUIET_STEAL, statistics.median(phase.steal_share for phase in phases))
    return [phase for phase in phases if phase.steal_share <= calm]


def _quiet_windows(phase, seconds: float):
    """Cut a measured phase into :data:`WINDOWS` windows; keep the quiet ones.

    A window holds the ops that ended in its time slice (the last one also
    those that ended after the deadline).
    """
    from workloads import Phase

    width = seconds / WINDOWS
    windows = [Phase() for _ in range(WINDOWS)]
    for index, window in enumerate(windows):
        window.start = phase.start + index * width
        window.seconds = width
        window.steal_share = _steal_share(phase.ticks[index], phase.ticks[index + 1])
    windows[-1].seconds = phase.seconds - (WINDOWS - 1) * width
    for op in phase.ops:
        index = min(int((op.end - phase.start) / width), WINDOWS - 1)
        windows[index].ops.append(op)
    return windows, _quiet(windows)


def _answers(phase) -> int:
    return sum(len(op.payloads) for op in phase.ops)


def _latencies_ms(phase, *kinds):
    return [op.seconds * 1000.0 for op in phase.ops if not kinds or op.kind in kinds]


# ----------------------------------------------------------------------
# the two run modes
# ----------------------------------------------------------------------
def untraced_run(workload, seconds: float, tmp: Path):
    """End-to-end metrics: one measured phase amid :data:`SETUPS` set-ups.

    The set-ups are spread over the run -- half before the measured phase,
    half after -- so their median is not one burst of the machine's load.
    """
    sessions = []

    def set_up():
        sessions.append(Session(workload, tmp, f"setup-{len(sessions)}"))
        return sessions[-1]

    for _ in range(SETUPS // 2 - 1):
        set_up().close()
    session = set_up()
    try:
        warm, phase, counts = session.run(workload, seconds)
        rss = session.server.peak_rss_mb()
    finally:
        session.close()
    while len(sessions) < SETUPS:
        set_up().close()
    phases = [session.setup for session in sessions]
    setups = [setup.seconds for setup in _quiet(phases)]
    attempted, failed = _verify(phases + [warm, phase])
    windows, quiet = _quiet_windows(phase, seconds)
    latencies = [ms for window in quiet for ms in _latencies_ms(window)]
    metrics = {
        "setup_s": statistics.median(setups),
        "answers_per_s": sum(_answers(window) for window in quiet)
        / sum(window.seconds for window in quiet),
        "rpc_p50_ms": percentile(latencies, 50),
        "rpc_p95_ms": percentile(latencies, 95),
        "server_peak_rss_mb": rss,
    }
    detail = {
        "setups_s": [setup.seconds for setup in phases],
        "setups_steal_share": [setup.steal_share for setup in phases],
        "setups_cpu_s": [session.setup_cpu for session in sessions],
        "windows": {
            "steal_share": [window.steal_share for window in windows],
            "kept": [window in quiet for window in windows],
            "answers_per_s": [_answers(window) / window.seconds for window in windows],
            "rpc_p95_ms": [percentile(_latencies_ms(window), 95) for window in windows],
        },
        "kept_ops": len(latencies),
        "measured_ops": len(phase.ops),
        "steal_share": phase.steal_share,
        "measured_s": phase.seconds,
        "engine.cache.hit_ratio": _hit_ratio(phase),
        "counts": counts,
    }
    return metrics, detail, attempted, failed


def traced_run(workload, seconds: float, tmp: Path):
    """Per-layer metrics: an untraced half, then a traced half."""
    from tracing import summarize

    half = seconds / 2.0
    plain = Session(workload, tmp, "untraced")
    try:
        plain_warm, plain_phase, _counts = plain.run(workload, half)
    finally:
        plain.close()
    trace_path = tmp / "trace.json"
    traced = Session(workload, tmp, "traced", trace_out=trace_path)
    try:
        traced_warm, traced_phase, counts = traced.run(workload, half)
    finally:
        traced.close()
    with open(trace_path, encoding="utf-8") as handle:
        summary = summarize(json.load(handle))
    attempted, failed = _verify(
        [plain.setup, plain_warm, plain_phase, traced.setup, traced_warm, traced_phase]
    )
    metrics = _client_ladder(plain_phase, attempted, failed)
    untraced_rate = _answers(plain_phase) / plain_phase.seconds
    traced_rate = _answers(traced_phase) / traced_phase.seconds
    metrics["trace.answers_per_s"] = traced_rate
    metrics["trace.overhead_ratio"] = untraced_rate / traced_rate if traced_rate else 0.0
    layers, totals = _layer_metrics(traced_phase, summary, counts)
    metrics.update(layers)
    detail = {
        "untraced_answers_per_s": untraced_rate,
        "layer_totals": totals,
        "spans": {name: entry["calls"] for name, entry in summary["names"].items()},
        "counts": counts,
    }
    return metrics, detail, attempted, failed


def _client_ladder(phase, attempted, failed) -> dict:
    connect = _latencies_ms(phase, "connect")
    batch = _latencies_ms(phase, "batch")
    return {
        "connect_p50_ms": percentile(connect, 50),
        "connect_p99_ms": percentile(connect, 99),
        "batch_p50_ms": percentile(batch, 50),
        "batch_p90_ms": percentile(batch, 90),
        "mutate_p50_ms": percentile(_latencies_ms(phase, "mutate"), 50),
        "post_mutate_connect_p50_ms": percentile(
            _latencies_ms(phase, "post_mutate_connect"), 50
        ),
        "cold_first_answer_p50_ms": percentile(
            [seconds * 1000.0 for seconds in phase.cold_first_answer], 50
        ),
        "failed_frac": failed / attempted,
    }


def _hit_ratio(phase) -> float:
    hits = [
        payload["provenance"]["cache_hit"] for op in phase.ops for payload in op.payloads
    ]
    return sum(hits) / len(hits) if hits else 0.0


def _layer_metrics(phase, summary, counts):
    """Per-layer metrics of a traced phase, and the raw totals behind them.

    Totals that grow with throughput or with ``--seconds`` are divided by
    the operations that cause them, so a faster server does not read as
    more layer work: block classifications and oracle invalidations per
    ``mutate``, classification per schema change (``mutate`` or cold
    ``create_schema``; 0 with no change), solver calls per answer.
    """
    names = summary["names"]
    mutates = sum(op.kind == "mutate" for op in phase.ops)
    changes = mutates + sum(op.kind == "create_schema" for op in phase.ops)
    answers = _answers(phase)
    metrics = {}
    for span, (metric, statistic) in SPAN_METRICS.items():
        entry = names.get(span)
        if entry is None:
            metrics[metric] = 0.0
        elif statistic == "per_change":
            metrics[metric] = entry["total_ms"] / max(changes, 1)
        else:
            key = "self_ms" if statistic == "self" else "total_ms"
            metrics[metric] = entry[key] / entry["calls"]
    deltas = summary["counters"]
    classify = names.get("classification.classify")
    totals = {
        "mutates": mutates,
        "changes": changes,
        "answers": answers,
        "classification.calls": classify["calls"] if classify else 0,
        "classification.busy_ms": classify["total_ms"] if classify else 0.0,
        "dynamic.blocks_reclassified": deltas["blocks_classified"],
        "kernels.oracle.invalidated_rows": deltas["oracle_invalidated"],
    }
    for solver in SOLVER_METRICS:
        entry = names.get(f"engine.registry.solve.{solver}")
        calls = entry["calls"] if entry else 0
        totals[f"engine.registry.calls.{solver}"] = calls
        metrics[f"engine.registry.share.{solver}"] = calls / answers if answers else 0.0
    metrics["classification.calls_per_change"] = totals["classification.calls"] / max(
        changes, 1
    )
    metrics["dynamic.blocks_reclassified_per_mutate"] = deltas["blocks_classified"] / max(
        mutates, 1
    )
    metrics["kernels.oracle.invalidated_rows_per_mutate"] = deltas[
        "oracle_invalidated"
    ] / max(mutates, 1)
    taxes = []
    for op in phase.ops:
        if op.kind in ("connect", "batch", "post_mutate_connect") and op.payloads:
            request_id = op.payloads[0]["provenance"].get("request_id")
            if request_id in summary["api_ms"]:
                taxes.append(op.seconds * 1000.0 - summary["api_ms"][request_id])
    metrics["server.rpc_tax_ms"] = statistics.mean(taxes) if taxes else 0.0
    metrics["engine.cache.hit_ratio"] = _hit_ratio(phase)
    lookups = deltas["oracle_hits"] + deltas["oracle_misses"]
    metrics["kernels.oracle.hit_ratio"] = deltas["oracle_hits"] / lookups if lookups else 0.0
    metrics["dynamic.rebind_fallbacks"] = counts.get("repro_rebind_total.fallback", 0.0)
    return metrics, totals


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.build_oracle()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        run = traced_run if args.trace else untraced_run
        metrics, detail, attempted, failed = run(workload, args.seconds, Path(tmp))
    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
