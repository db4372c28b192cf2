"""Declarative workloads: specs, the phase runner, and provenance-rich reports.

A :class:`WorkloadSpec` is a JSON-friendly description of a complete
experiment: which schema to generate (generator name + parameters), what
query traffic to run against it (one or more :class:`QueryMix` entries:
count, terminals per query, objective, seeds), how to page it (batch
size), and optionally a *churn* phase
(:class:`ChurnMix`): interleaved schema mutations and queries that
exercise the incremental dynamic-schema machinery of ``repro.dynamic``.
:func:`run_workload` executes a spec through every interesting
configuration -- serial cold, serial warm, (with a cache directory)
disk-populate and disk-warm, and (with a churn mix) the
mutation phases -- and returns a :class:`WorkloadReport` with per-phase
wall times, speedups, a solver/guarantee histogram, and determinism
checksums asserting that every phase of a group produced identical
answers (the churn phases answer *mutated* schemas, so they form their
own checksum group, verified against a fresh-context oracle).

This is the workload layer behind the ``python -m repro run`` CLI
(:mod:`repro.runtime.cli`).

Examples
--------
>>> spec = WorkloadSpec.from_dict({
...     "name": "tiny",
...     "schema": {"generator": "random_62_chordal_graph",
...                "params": {"blocks": 4, "rng": 11}},
...     "queries": {"count": 6, "terminals": 3},
... })
>>> report = run_workload(spec)
>>> report.queries, report.checksums_consistent
(6, True)
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.config import ServiceConfig
from repro.api.request import ConnectionRequest
from repro.api.result import ConnectionResult
from repro.api.service import ConnectionService
from repro.datasets.generators import (
    random_62_chordal_graph,
    random_alpha_schema_graph,
    random_beta_schema_graph,
    random_gamma_schema_graph,
    random_terminals,
)
from repro.dynamic.editor import SchemaEditor
from repro.exceptions import ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.metrics import MetricsRegistry, NullRegistry

#: Schema generators a spec may name (an allowlist: specs are data, and
#: data must not execute arbitrary callables).
GENERATORS = {
    "random_62_chordal_graph": random_62_chordal_graph,
    "random_alpha_schema_graph": random_alpha_schema_graph,
    "random_beta_schema_graph": random_beta_schema_graph,
    "random_gamma_schema_graph": random_gamma_schema_graph,
}


@dataclass(frozen=True)
class QueryMix:
    """One homogeneous slice of a workload's query traffic.

    Attributes
    ----------
    count:
        Number of queries drawn for this mix.
    terminals:
        Terminal-set size per query (sampled from the schema's largest
        connected component, so every query is feasible).
    objective:
        ``"steiner"`` or ``"side"`` (Definition 8 vs. Definition 9).
    side:
        The minimised side for ``"side"`` queries (``None`` defers to the
        service's default).
    seed:
        Optional per-mix RNG seed; defaults to a value derived from the
        spec-level seed and the mix position.
    """

    count: int
    terminals: int = 3
    objective: str = "steiner"
    side: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValidationError("query mix count must be >= 1")
        if self.terminals < 1:
            raise ValidationError("query mix terminals must be >= 1")
        if self.objective not in ("steiner", "side"):
            raise ValidationError(
                f"query mix objective must be 'steiner' or 'side', got "
                f"{self.objective!r}"
            )
        if self.side is not None and self.side not in (1, 2):
            raise ValidationError("query mix side must be 1 or 2")


#: Mutation kinds a churn mix may request (an allowlist, like GENERATORS).
CHURN_KINDS = ("grow-leaf", "prune-leaf", "drop-edge", "attach-block")


@dataclass(frozen=True)
class ChurnMix:
    """The schema-evolution slice of a workload: edits interleaved with queries.

    Attributes
    ----------
    edits:
        Number of mutation steps.  Each step applies one editor
        transaction (a single-edge edit or a small block attachment,
        drawn from ``kinds``) and then answers ``queries_per_edit``
        fresh queries against the mutated schema.
    kinds:
        Allowed mutation kinds, a subset of :data:`CHURN_KINDS`:
        ``grow-leaf`` (new pendant concept), ``prune-leaf`` (drop a
        degree-1 concept), ``drop-edge`` (remove an association),
        ``attach-block`` (glue a small complete bipartite block onto an
        existing concept, as one multi-edit transaction).
    queries_per_edit / terminals:
        Query traffic per mutation step (terminal sets are sampled from
        the mutated schema's largest component, so they stay feasible).
    seed:
        Optional churn RNG seed; defaults to a value derived from the
        spec-level seed.
    verify:
        When ``True`` (default) the churn traffic is answered twice --
        once by an incremental service, once by a fresh-context oracle
        that fully rebuilds after every mutation -- and the two answer
        streams must agree checksum-for-checksum.  Disable for very
        large schemas where the oracle's per-step Theorem 1 recognition
        is prohibitive.
    """

    edits: int
    kinds: Tuple[str, ...] = CHURN_KINDS
    queries_per_edit: int = 4
    terminals: int = 3
    seed: Optional[int] = None
    verify: bool = True

    def __post_init__(self) -> None:
        if self.edits < 1:
            raise ValidationError("churn edits must be >= 1")
        if self.queries_per_edit < 1:
            raise ValidationError("churn queries_per_edit must be >= 1")
        if self.terminals < 1:
            raise ValidationError("churn terminals must be >= 1")
        object.__setattr__(self, "kinds", tuple(self.kinds))
        if not self.kinds:
            raise ValidationError("churn kinds must not be empty")
        unknown = sorted(set(self.kinds) - set(CHURN_KINDS))
        if unknown:
            raise ValidationError(
                f"unknown churn kind(s) {unknown}; known: {list(CHURN_KINDS)}"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete, JSON-serialisable workload description.

    Attributes
    ----------
    name:
        Free-form label, echoed into the report.
    generator:
        Key into :data:`GENERATORS`.
    params:
        Keyword arguments for the generator (e.g. ``{"blocks": 170,
        "rng": 1985}``); must be JSON-representable.
    mixes:
        The query traffic, as a tuple of :class:`QueryMix`.
    batch_size:
        Split the traffic into batches of this size (``None`` = one
        batch), modelling paged arrival of requests.
    seed:
        Base RNG seed for query sampling.
    churn:
        Optional :class:`ChurnMix` describing the schema-evolution phase
        (``None`` = static schema, no churn phases).
    """

    name: str
    generator: str
    params: Tuple[Tuple[str, Any], ...]
    mixes: Tuple[QueryMix, ...]
    batch_size: Optional[int] = None
    seed: int = 0
    churn: Optional[ChurnMix] = None

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise ValidationError(
                f"unknown schema generator {self.generator!r}; known: "
                f"{sorted(GENERATORS)}"
            )
        try:
            # bind (without calling) so a typo'd or missing parameter is a
            # spec validation error, not a TypeError mid-run
            inspect.signature(GENERATORS[self.generator]).bind(**dict(self.params))
        except TypeError as error:
            raise ValidationError(
                f"invalid params for generator {self.generator!r}: {error}"
            ) from error
        if not self.mixes:
            raise ValidationError("a workload needs at least one query mix")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1 (or None)")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadSpec":
        """Build a spec from its dict/JSON form (validating everything).

        Expected shape::

            {"name": str,
             "schema": {"generator": str, "params": {...}},
             "queries": {...} | [{...}, ...],   # QueryMix fields
             "batch_size": int|null, "seed": int}
        """
        if not isinstance(data, dict):
            raise ValidationError("a workload spec must be a JSON object")
        unknown = set(data) - {"name", "schema", "queries", "batch_size", "seed", "churn"}
        if unknown:
            raise ValidationError(f"unknown spec field(s): {sorted(unknown)}")
        schema = data.get("schema")
        if not isinstance(schema, dict) or "generator" not in schema:
            raise ValidationError(
                "spec needs a 'schema' object with a 'generator' name"
            )
        params = schema.get("params", {})
        if not isinstance(params, dict):
            raise ValidationError("'schema.params' must be an object")
        queries = data.get("queries")
        if isinstance(queries, dict):
            queries = [queries]
        if not isinstance(queries, list) or not queries:
            raise ValidationError(
                "spec needs 'queries': a query-mix object or non-empty list"
            )
        mixes = []
        for entry in queries:
            if not isinstance(entry, dict):
                raise ValidationError("each query mix must be an object")
            mix_unknown = set(entry) - {"count", "terminals", "objective", "side", "seed"}
            if mix_unknown:
                raise ValidationError(
                    f"unknown query-mix field(s): {sorted(mix_unknown)}"
                )
            mixes.append(QueryMix(**entry))
        churn_data = data.get("churn")
        churn: Optional[ChurnMix] = None
        if churn_data is not None:
            if not isinstance(churn_data, dict):
                raise ValidationError("'churn' must be an object (or omitted)")
            churn_unknown = set(churn_data) - {
                "edits", "kinds", "queries_per_edit", "terminals", "seed",
                "verify",
            }
            if churn_unknown:
                raise ValidationError(
                    f"unknown churn field(s): {sorted(churn_unknown)}"
                )
            churn = ChurnMix(**churn_data)
        return cls(
            name=str(data.get("name", "workload")),
            generator=schema["generator"],
            params=tuple(sorted(params.items())),
            mixes=tuple(mixes),
            batch_size=data.get("batch_size"),
            seed=int(data.get("seed", 0)),
            churn=churn,
        )

    @classmethod
    def from_json(cls, text: str) -> "WorkloadSpec":
        """Parse a spec from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValidationError(f"spec is not valid JSON: {error}") from error
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        """Return the canonical dict form (round-trips through ``from_dict``)."""
        data = {
            "name": self.name,
            "schema": {"generator": self.generator, "params": dict(self.params)},
            "queries": [
                {
                    "count": mix.count,
                    "terminals": mix.terminals,
                    "objective": mix.objective,
                    "side": mix.side,
                    "seed": mix.seed,
                }
                for mix in self.mixes
            ],
            "batch_size": self.batch_size,
            "seed": self.seed,
        }
        if self.churn is not None:
            data["churn"] = {
                "edits": self.churn.edits,
                "kinds": list(self.churn.kinds),
                "queries_per_edit": self.churn.queries_per_edit,
                "terminals": self.churn.terminals,
                "seed": self.churn.seed,
                "verify": self.churn.verify,
            }
        return data

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def build_schema(self):
        """Generate the schema graph this spec describes (deterministic)."""
        return GENERATORS[self.generator](**dict(self.params))

    def build_requests(self, graph) -> List[ConnectionRequest]:
        """Sample the spec's query traffic against a generated schema."""
        requests: List[ConnectionRequest] = []
        for position, mix in enumerate(self.mixes):
            seed = mix.seed if mix.seed is not None else self.seed * 1000003 + position
            rng = random.Random(seed)
            for _ in range(mix.count):
                terminals = random_terminals(graph, mix.terminals, rng=rng)
                requests.append(
                    ConnectionRequest.of(
                        terminals, objective=mix.objective, side=mix.side
                    )
                )
        return requests


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseResult:
    """Wall time and context for one executed phase of a workload run.

    ``group`` scopes the determinism contract: phases of the same group
    must agree on the answer checksum.  The static phases all answer the
    same schema and share group ``"main"``; the churn phases answer a
    *mutating* schema and form group ``"churn"`` of their own.
    """

    name: str
    seconds: float
    queries: int
    checksum: str
    group: str = "main"

    def to_dict(self) -> dict:
        """Return the JSON form of this phase."""
        return {
            "name": self.name,
            "seconds": round(self.seconds, 6),
            "queries": self.queries,
            "checksum": self.checksum,
            "group": self.group,
        }


@dataclass(frozen=True)
class WorkloadReport:
    """Everything one workload run produced, ready for JSON serialisation.

    ``checksum`` is a digest over the canonical answers (trees, costs,
    guarantees, solvers -- no timings, no cache flags); every phase of a
    checksum group must reproduce its group's digest, and
    ``checksums_consistent`` says whether they all did.
    ``disk_warm_ratio`` compares warm phases only, so it measures the
    steady-state effect of persistence rather than the one-off
    classification cost;
    ``churn_speedup`` compares the incremental churn phase against the
    fresh-context oracle (``None`` without churn or with
    ``verify=false``).
    """

    spec: dict
    vertices: int
    edges: int
    queries: int
    phases: Tuple[PhaseResult, ...]
    checksum: str
    checksums_consistent: bool
    solver_histogram: Tuple[Tuple[str, int], ...]
    guarantee_histogram: Tuple[Tuple[str, int], ...]
    disk_warm_ratio: Optional[float] = None
    churn_speedup: Optional[float] = None
    cache_stats: dict = field(default_factory=dict)
    metrics_summary: dict = field(default_factory=dict)
    metrics_text: str = field(default="", repr=False)

    def phase(self, name: str) -> Optional[PhaseResult]:
        """Return the named phase (``None`` when it was not run)."""
        for phase in self.phases:
            if phase.name == name:
                return phase
        return None

    def to_dict(self) -> dict:
        """Return the JSON form of the full report."""
        return {
            "spec": self.spec,
            "schema": {"vertices": self.vertices, "edges": self.edges},
            "queries": self.queries,
            "phases": [phase.to_dict() for phase in self.phases],
            "checksum": self.checksum,
            "checksums_consistent": self.checksums_consistent,
            "solver_histogram": dict(self.solver_histogram),
            "guarantee_histogram": dict(self.guarantee_histogram),
            "disk_warm_ratio": self.disk_warm_ratio,
            "churn_speedup": self.churn_speedup,
            "cache_stats": self.cache_stats,
            # the full exposition text ships separately (--metrics-out);
            # the report carries the condensed roll-up only
            "metrics": self.metrics_summary,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Return the report as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


def canonical_checksum(results: Sequence[ConnectionResult]) -> str:
    """Digest the *answers* of a result sequence, ignoring run conditions.

    Covers terminals, objective, tree vertices and edges, cost, guarantee,
    rank, solver, instance class and plan reason; excludes wall times and
    cache flags, which legitimately differ between cold/warm/disk phases.  Two runs of the same workload must agree on this digest --
    :func:`run_workload` asserts it across every phase.
    """
    hasher = hashlib.sha256()
    for result in results:
        record = result.to_dict(include_timing=False)
        provenance = record.get("provenance", {})
        provenance.pop("cache_hit", None)
        provenance.pop("result_cache", None)
        # the kernel lane is a run condition, not an answer
        provenance.pop("backend", None)
        record["tree_vertices"] = sorted(repr(v) for v in result.tree.vertices())
        record["tree_edges"] = sorted(
            "|".join(sorted((repr(u), repr(v)))) for u, v in result.tree.edges()
        )
        hasher.update(
            json.dumps(record, sort_keys=True, default=repr).encode("utf-8")
        )
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# churn: deterministic schema mutations interleaved with queries
# ----------------------------------------------------------------------
def _opposite_side(graph, vertex) -> Optional[int]:
    """Side for a fresh neighbour of ``vertex`` (``None`` on plain graphs)."""
    if isinstance(graph, BipartiteGraph):
        return 3 - graph.side_of(vertex)
    return None


def _churn_step(graph, rng: random.Random, kinds: Sequence[str], fresh_ids) -> str:
    """Apply one mutation transaction to ``graph``; return the kind applied.

    The kind is drawn from ``kinds``; inapplicable draws (no leaf to
    prune, no edge to drop) fall through to the next candidate.  When
    *no* allowed kind applies -- possible only for allowlists without a
    growth kind, e.g. pure ``drop-edge`` churn on a schema that ran out
    of edges -- the step raises instead of silently mutating outside the
    allowlist.  All choices go through repr-sorted orderings and the
    supplied RNG, so replaying the same seed against an equal graph
    reproduces the same evolution -- which is how the churn oracle
    re-derives the exact schema history.
    """
    candidates = list(kinds)
    rng.shuffle(candidates)
    for kind in candidates:
        if kind == "grow-leaf":
            anchor = rng.choice(graph.sorted_vertices())
            vertex = ("churn", next(fresh_ids))
            with SchemaEditor(graph) as tx:
                tx.add_vertex(vertex, side=_opposite_side(graph, anchor))
                tx.add_edge(vertex, anchor)
            return kind
        if kind == "prune-leaf":
            leaves = [v for v in graph.sorted_vertices() if graph.degree(v) == 1]
            if not leaves:
                continue
            with SchemaEditor(graph) as tx:
                tx.remove_vertex(rng.choice(leaves))
            return kind
        if kind == "drop-edge":
            edges = sorted(
                (tuple(sorted(edge, key=repr)) for edge in graph.edges()), key=repr
            )
            if not edges:
                continue
            u, v = rng.choice(edges)
            with SchemaEditor(graph) as tx:
                tx.remove_edge(u, v)
            return kind
        if kind == "attach-block":
            anchor = rng.choice(graph.sorted_vertices())
            partner = ("churn", next(fresh_ids))
            first = ("churn", next(fresh_ids))
            second = ("churn", next(fresh_ids))
            anchor_side = (
                graph.side_of(anchor) if isinstance(graph, BipartiteGraph) else None
            )
            with SchemaEditor(graph) as tx:
                tx.add_vertex(partner, side=anchor_side)
                tx.add_vertex(first, side=_opposite_side(graph, anchor))
                tx.add_vertex(second, side=_opposite_side(graph, anchor))
                for hub in (anchor, partner):
                    for spoke in (first, second):
                        tx.add_edge(hub, spoke)
            return kind
    raise ValidationError(
        f"no churn kind of {sorted(set(kinds))} is applicable to the current "
        "schema (nothing left to prune or drop); include 'grow-leaf' or "
        "'attach-block' for an always-applicable mutation mix"
    )


def _run_churn_side(
    base_graph, churn: ChurnMix, seed: int, config: ServiceConfig
) -> Tuple[List[ConnectionResult], float]:
    """Answer the churn traffic once; return ``(results, seconds)``.

    Both churn phases call this with an equal starting graph and the same
    seed -- only ``config.incremental`` differs -- so they replay the
    identical mutation/query history.  The service is warmed (context
    built, first query answered) before the clock starts: what the phase
    measures is the steady-state cost of *keeping up with mutations*, not
    the one-off cold classification every other phase also pays.
    """
    graph = base_graph.copy()
    service = ConnectionService(
        schema=graph, config=config.with_overrides(cache_dir=None)
    )
    rng = random.Random(seed)
    fresh_ids = itertools.count(1)
    service.connect(random_terminals(graph, churn.terminals, rng=rng))
    results: List[ConnectionResult] = []
    started = perf_counter()
    for _ in range(churn.edits):
        _churn_step(graph, rng, churn.kinds, fresh_ids)
        requests = [
            ConnectionRequest.of(
                random_terminals(graph, churn.terminals, rng=rng)
            )
            for _ in range(churn.queries_per_edit)
        ]
        results.extend(service.batch(requests))
    return results, perf_counter() - started


# ----------------------------------------------------------------------
# the phase runner
# ----------------------------------------------------------------------
def _run_batches(execute, requests: List[ConnectionRequest], batch_size: Optional[int]):
    """Run ``execute`` over the request list in ``batch_size`` chunks."""
    if batch_size is None:
        return list(execute(requests))
    results: List[ConnectionResult] = []
    for start in range(0, len(requests), batch_size):
        results.extend(execute(requests[start: start + batch_size]))
    return results


def run_workload(
    spec: WorkloadSpec,
    *,
    cache_dir: Optional[str] = None,
    include_cold: bool = True,
    base_config: Optional[ServiceConfig] = None,
) -> WorkloadReport:
    """Execute a workload spec through every configuration and report.

    Phases (each over the full request list, in ``batch_size`` chunks):

    1. ``serial-cold`` -- fresh service, empty caches: pays classification
       plus every solve (skipped with ``include_cold=False``).
    2. ``serial-warm`` -- same service again: the in-memory steady state.
    3. ``disk-populate`` / ``disk-warm`` -- only with ``cache_dir``: a
       caching service computes-and-stores, then a *fresh* service replays
       everything from disk (no classification, no solving).
    4. ``churn-incremental`` / ``churn-oracle`` -- only with a churn mix:
       interleaved mutation+query traffic answered by an incremental
       service, then (``verify=true``) replayed by a fresh-context oracle
       that fully rebuilds after every mutation.  The two churn phases
       answer mutated schemas, so they form their own checksum group.

    Every phase's answers are digested with :func:`canonical_checksum`;
    the report flags any in-group disagreement.  ``disk_warm_ratio`` is
    disk-warm over serial-warm (< 1 means the disk replay beats in-memory
    solving);
    ``churn_speedup`` is churn-oracle over churn-incremental (how much
    faster the incremental service keeps up with schema evolution).
    """
    config = base_config if base_config is not None else ServiceConfig()
    if config.metrics is None:
        # one per-run registry shared by every phase's services, so the
        # report's metrics section describes this run alone (an injected
        # registry -- including a NullRegistry -- is honoured as-is)
        config = config.with_overrides(metrics=MetricsRegistry())
    registry = config.metrics

    graph = spec.build_schema()
    requests = spec.build_requests(graph)
    phases: List[PhaseResult] = []
    checksums: List[str] = []
    by_solver: Dict[str, int] = {}
    by_guarantee: Dict[str, int] = {}

    churn_checksums: List[str] = []

    phase_seconds = registry.gauge(
        "repro_phase_seconds", "Wall time of each workload phase.", ("phase",)
    )
    phase_queries = registry.gauge(
        "repro_phase_queries", "Queries answered by each workload phase.", ("phase",)
    )
    phases_total = registry.counter(
        "repro_phases_total", "Workload phases executed.", ("group",)
    )

    def record_phase(name, seconds, results, group="main"):
        phase_seconds.labels(phase=name).set(seconds)
        phase_queries.labels(phase=name).set(len(results))
        phases_total.labels(group=group).inc()
        checksum = canonical_checksum(results)
        (checksums if group == "main" else churn_checksums).append(checksum)
        phases.append(
            PhaseResult(
                name=name,
                seconds=seconds,
                queries=len(results),
                checksum=checksum,
                group=group,
            )
        )
        return results

    service = ConnectionService(schema=graph, config=config)

    if include_cold:
        started = perf_counter()
        cold = _run_batches(service.batch, requests, spec.batch_size)
        record_phase("serial-cold", perf_counter() - started, cold)

    started = perf_counter()
    warm = _run_batches(service.batch, requests, spec.batch_size)
    record_phase("serial-warm", perf_counter() - started, warm)
    for result in warm:
        by_solver[result.provenance.solver] = (
            by_solver.get(result.provenance.solver, 0) + 1
        )
        by_guarantee[result.guarantee.value] = (
            by_guarantee.get(result.guarantee.value, 0) + 1
        )

    disk_warm_ratio = None
    disk_stats = None
    if cache_dir is not None:
        caching_config = config.with_overrides(cache_dir=cache_dir)
        populate_service = ConnectionService(schema=graph, config=caching_config)
        started = perf_counter()
        populated = _run_batches(populate_service.batch, requests, spec.batch_size)
        record_phase("disk-populate", perf_counter() - started, populated)

        replay_service = ConnectionService(schema=graph, config=caching_config)
        started = perf_counter()
        replayed = _run_batches(replay_service.batch, requests, spec.batch_size)
        disk_seconds = perf_counter() - started
        record_phase("disk-warm", disk_seconds, replayed)
        disk_stats = replay_service.cache_stats().get("disk")
        warm_phase = next(p for p in phases if p.name == "serial-warm")
        if warm_phase.seconds > 0:
            disk_warm_ratio = disk_seconds / warm_phase.seconds

    churn_speedup = None
    if spec.churn is not None:
        churn = spec.churn
        churn_seed = (
            churn.seed if churn.seed is not None else spec.seed * 2000003 + 17
        )
        incremental_results, incremental_seconds = _run_churn_side(
            graph, churn, churn_seed, config.with_overrides(incremental=True)
        )
        record_phase(
            "churn-incremental", incremental_seconds, incremental_results,
            group="churn",
        )
        if churn.verify:
            # cache_size=1 makes "fresh context per mutation" literal:
            # every step changes the structure, so consecutive lookups
            # can never hit a one-slot LRU -- without it, an edit that
            # restores a recently-seen structure could be served from
            # the oracle's context cache, skipping the rebuild the
            # oracle exists to pay
            oracle_results, oracle_seconds = _run_churn_side(
                graph, churn, churn_seed,
                config.with_overrides(incremental=False, cache_size=1),
            )
            record_phase(
                "churn-oracle", oracle_seconds, oracle_results, group="churn"
            )
            if incremental_seconds > 0:
                churn_speedup = oracle_seconds / incremental_seconds

    # final snapshot: the serving service's engine counters (schema
    # cache + distance oracle) cover every static phase it answered; the
    # disk replay service contributes only its "disk" counters
    cache_stats = dict(service.cache_stats())
    if disk_stats is not None:
        cache_stats["disk"] = disk_stats

    # rendering runs the snapshot collectors, so the exposition text and
    # the condensed summary both see final cache/oracle counters
    metrics_text = registry.render_text()
    metrics_summary = _metrics_summary(registry, cache_stats)

    return WorkloadReport(
        spec=spec.to_dict(),
        vertices=graph.number_of_vertices(),
        edges=graph.number_of_edges(),
        queries=len(requests),
        phases=tuple(phases),
        checksum=checksums[0] if checksums else "",
        checksums_consistent=(
            len(set(checksums)) <= 1 and len(set(churn_checksums)) <= 1
        ),
        solver_histogram=tuple(sorted(by_solver.items())),
        guarantee_histogram=tuple(sorted(by_guarantee.items())),
        disk_warm_ratio=disk_warm_ratio,
        churn_speedup=churn_speedup,
        cache_stats=cache_stats,
        metrics_summary=metrics_summary,
        metrics_text=metrics_text,
    )


def _metrics_summary(registry: MetricsRegistry, cache_stats: dict) -> dict:
    """Condense a run's registry and cache counters for the CLI report.

    Latency quantiles come from the family-level roll-up of the query
    histogram (:meth:`~repro.metrics.Histogram.merged`); hit rates from
    the final ``cache_stats`` snapshot.  Keys are omitted rather than
    reported as zero when a subsystem saw no traffic, and a
    :class:`~repro.metrics.NullRegistry` yields an empty summary.
    """
    summary: Dict[str, Any] = {}
    if isinstance(registry, NullRegistry):
        return summary
    latency = registry.get("repro_query_latency_seconds")
    if latency is not None:
        merged = latency.merged()
        summary["queries_observed"] = merged.count
        if merged.count:
            summary["latency_p50_ms"] = round(merged.quantile(0.5) * 1000.0, 4)
            summary["latency_p99_ms"] = round(merged.quantile(0.99) * 1000.0, 4)
    hits = cache_stats.get("hits", 0)
    misses = cache_stats.get("misses", 0)
    if hits + misses:
        summary["schema_cache_hit_rate"] = round(hits / (hits + misses), 4)
    oracle = cache_stats.get("distance_oracle", {})
    lookups = oracle.get("hits", 0) + oracle.get("misses", 0)
    if lookups:
        summary["oracle_hit_rate"] = round(oracle.get("hits", 0) / lookups, 4)
    rebinds = registry.get("repro_rebind_total")
    if rebinds is not None:
        outcomes = {
            key[0]: child.value
            for key, child in rebinds.children()
            if child.value
        }
        if outcomes:
            summary["rebinds"] = outcomes
    replays = registry.get("repro_disk_replays_total")
    if replays is not None and replays.value:
        summary["disk_replays"] = replays.value
    return summary
