"""Span recording for the traced server run, and the per-layer summary of it.

The benchmark's server launcher (``server.py``) calls :func:`install`
before it builds a :class:`repro.server.ReproServer`.  ``install`` replaces
the public entry point of each layer -- at the name its caller looks it
up by, since several modules import functions by name -- with a wrapper
that records one span per call: ``(span id, name, start, end, parent span
id, request id)``.  The parent is carried in a :mod:`contextvars` variable,
so it follows the RPC handler's task into the ``asyncio.to_thread`` worker
that runs the solve; the request id is the one the server's
``request_scope`` stamps (:func:`repro.api.context.current_request`).
Nothing under ``src/`` changes: the wrappers live only in the traced
server process.

Spans stay in memory and are written once, when the server drains.  Two
``ping`` RPCs bracket the measured phase; the wrapper on ``_cmd_ping``
records a *mark* holding the time and the cumulative layer counters
(oracle hits/misses/invalidations, blocks classified), so the summary
covers only the measured phase.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
from collections import defaultdict
from time import perf_counter

_PARENT: "contextvars.ContextVar" = contextvars.ContextVar("perfbench_span", default=None)

#: (module, attribute path, span name): every call through the named
#: attribute becomes one span.  Functions are patched in each module that
#: imports them by name, because that is where the callers look them up.
SPAN_SITES = (
    ("repro.server.app", "encode_wire_result", "server.encode_result"),
    ("repro.server.app", "decode_schema", "server.decode_schema"),
    ("repro.api.service", "ConnectionService.connect", "api.connect"),
    ("repro.api.service", "ConnectionService.batch", "api.batch"),
    ("repro.api.service", "plan_query", "engine.planner.plan"),
    ("repro.engine.cache", "schema_fingerprint", "engine.cache.fingerprint"),
    ("repro.engine.cache", "schema_digest", "engine.cache.fingerprint"),
    ("repro.engine.cache", "SchemaContext.__init__", "engine.cache.context_build"),
    ("repro.engine.cache", "SchemaContext.side_plan", "engine.cache.side_plan"),
    ("repro.engine.cache", "SchemaContext.apply_delta", "dynamic.apply_delta"),
    ("repro.engine.cache", "classify_bipartite_graph", "classification.classify"),
    ("repro.dynamic.blocks", "classify_bipartite_graph", "classification.classify"),
    ("repro.dynamic.blocks", "BlockClassifier.classify", "dynamic.block_classify"),
    ("repro.dynamic.delta", "SchemaDelta.between", "dynamic.delta_between"),
    ("repro.dynamic.editor", "SchemaEditor.commit", "dynamic.editor_commit"),
    ("repro.engine.registry", "steiner_tree_dreyfus_wagner", "steiner.dreyfus_wagner"),
    ("repro.engine.registry", "kou_markowsky_berman", "steiner.kmb"),
    ("repro.engine.registry", "spanning_tree", "graphs.spanning_tree"),
    ("repro.steiner.exact", "spanning_tree", "graphs.spanning_tree"),
    ("repro.steiner.heuristics", "spanning_tree", "graphs.spanning_tree"),
    ("repro.engine.registry", "prune_non_terminal_leaves", "steiner.prune"),
    ("repro.steiner.exact", "prune_non_terminal_leaves", "steiner.prune"),
    ("repro.steiner.heuristics", "prune_non_terminal_leaves", "steiner.prune"),
    ("repro.graphs.bipartite", "BipartiteGraph.subgraph", "graphs.subgraph"),
    ("repro.graphs.graph", "Graph.subgraph", "graphs.subgraph"),
)

#: Kernel-lane methods that materialise distance-oracle rows (a miss).
FILL_METHODS = (
    "bfs_levels_row",
    "bfs_parents_row",
    "grouped_bfs_levels",
    "grouped_bfs_parents",
)


class Recorder:
    """In-memory span store plus the layer objects whose counters it sums."""

    def __init__(self) -> None:
        self.spans = []
        self.marks = []
        self._ids = itertools.count(1)
        self._oracle_stats = []
        self._block_classifiers = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def span(self, fn, name, label=None):
        """Wrap a synchronous callable so every call records one span.

        ``label(args, result)`` may refine the span name from the call
        (the solver that answered a plan).
        """
        from repro.api.context import current_request

        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = _PARENT.get()
            token = _PARENT.set(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                _PARENT.reset(token)
                scope = current_request()
                spans.append(
                    (
                        sid,
                        label(args, result) if label is not None else name,
                        start,
                        end,
                        parent,
                        scope.request_id if scope is not None else None,
                    )
                )

        return wrapper

    # ------------------------------------------------------------------
    # counters and marks
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """Sum the cumulative counters of every tracked layer object."""
        totals = {"oracle_hits": 0, "oracle_misses": 0, "oracle_invalidated": 0}
        for stats in self._oracle_stats:
            totals["oracle_hits"] += stats.hits
            totals["oracle_misses"] += stats.misses
            totals["oracle_invalidated"] += stats.invalidated
        totals["blocks_classified"] = sum(
            classifier.stats()["blocks_classified"]
            for classifier in self._block_classifiers
        )
        return totals

    def mark(self) -> None:
        """Record a phase boundary: the time and the cumulative counters."""
        self.marks.append({"t": perf_counter(), "counters": self.counters()})

    def dump(self, path: str) -> None:
        """Write every span and mark as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "marks": self.marks}, handle)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every span site; call before any server or service exists."""
        from repro.engine.batch import InterpretationEngine
        from repro.kernels.backend import resolve_backend
        from repro.server.app import ReproServer

        for module_name, path, name in SPAN_SITES:
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.span(raw.__func__, name)))
            else:
                setattr(owner, attr, self.span(raw, name))

        def solver_label(args, result):
            plan = args[2]
            solver = plan.solver
            if result is not None:
                solver = result.metadata.get("solver", solver)
            return f"engine.registry.solve.{solver}"

        InterpretationEngine.execute_plan = self.span(
            InterpretationEngine.execute_plan, None, label=solver_label
        )
        lane = type(resolve_backend(None))
        for method in FILL_METHODS:
            setattr(lane, method, self.span(getattr(lane, method), "kernels.oracle.fill"))
        self._track_layer_objects(ReproServer)

    def _track_layer_objects(self, server_cls) -> None:
        from repro.dynamic.blocks import BlockClassifier
        from repro.engine.cache import SchemaCache

        recorder = self
        cache_init = SchemaCache.__init__
        classifier_init = BlockClassifier.__init__
        ping = server_cls._cmd_ping

        @functools.wraps(cache_init)
        def tracked_cache_init(cache, *args, **kwargs):
            cache_init(cache, *args, **kwargs)
            recorder._oracle_stats.append(cache.oracle_stats)

        @functools.wraps(classifier_init)
        def tracked_classifier_init(classifier, *args, **kwargs):
            classifier_init(classifier, *args, **kwargs)
            recorder._block_classifiers.append(classifier)

        @functools.wraps(ping)
        async def marking_ping(server, *args, **kwargs):
            recorder.mark()
            return await ping(server, *args, **kwargs)

        SchemaCache.__init__ = tracked_cache_init
        BlockClassifier.__init__ = tracked_classifier_init
        server_cls._cmd_ping = marking_ping


def _resolve(module_name: str, path: str):
    """Return ``(owner, attribute)`` for a dotted path inside a module."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


# ----------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------
def summarize(trace: dict) -> dict:
    """Reduce a dumped trace to per-name statistics over the measured phase.

    The phase runs from the first mark to the last; a span counts when it
    lies inside it.  Self time is a span's duration minus the durations of
    its direct children (children of one span never overlap: a request's
    layers run one after another on one thread).  Returns
    ``{"names": {name: {"calls", "total_ms", "self_ms"}}, "api_ms":
    {request_id: ms}, "counters": {...}}``, the counters being end-minus-
    start deltas.
    """
    marks = trace["marks"]
    if len(marks) < 2:
        raise ValueError("trace has no measured phase (expected two marks)")
    begin, end = marks[0]["t"], marks[-1]["t"]
    inside = [span for span in trace["spans"] if span[2] >= begin and span[3] <= end]
    children = defaultdict(float)
    for _sid, _name, start, stop, parent, _rid in inside:
        if parent is not None:
            children[parent] += stop - start
    names = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    api_ms = {}
    for sid, name, start, stop, _parent, request_id in inside:
        duration = stop - start
        entry = names[name]
        entry["calls"] += 1
        entry["total_ms"] += duration * 1000.0
        entry["self_ms"] += (duration - children.get(sid, 0.0)) * 1000.0
        if name in ("api.connect", "api.batch") and request_id is not None:
            api_ms[request_id] = duration * 1000.0
    first, last = marks[0]["counters"], marks[-1]["counters"]
    counters = {key: last[key] - first[key] for key in first}
    return {"names": dict(names), "api_ms": api_ms, "counters": counters}
