"""Differential pinning of the numpy kernel lane against the array lane.

The kernel-backend registry (:mod:`repro.kernels.backend`) promises that
the ``"numpy"`` lane is a pure *speed* choice: every row, tree, checksum
and provenance record (minus the informational ``backend`` stamp itself)
is **byte-identical** to the zero-dependency ``"array"`` lane.  This
suite is that promise, executed:

* hypothesis differentials over arbitrary / bipartite graphs for all
  four kernel entry points (single and grouped, levels and parents),
  compared ``tobytes()``-for-``tobytes()``;
* service-level workloads (batches, editor churn, the parallel executor
  with the shared-memory transport) answered once per lane and compared
  via :func:`~repro.runtime.workload.canonical_checksum`;
* the shm adoption path: a numpy-lane scratch over ``memoryview`` casts
  into a shared segment answers identically to the array lane on the
  same bytes.

The whole module skips when numpy is not importable -- the array lane is
then the only lane, and :mod:`tests.test_numpy_optional` proves the rest
of the suite never touches numpy at all.
"""

import random

import pytest
from hypothesis import given
from strategies import (
    COMMON_SETTINGS,
    bipartite_graphs,
    chordal_bipartite_graphs,
    small_graphs,
)

from repro.api import ConnectionRequest, ConnectionService, ServiceConfig
from repro.datasets.generators import (
    random_62_chordal_graph,
    random_alpha_schema_graph,
    random_terminals,
)
from repro.graphs.generators import (
    large_bipartite_tree,
    large_block_chain,
    large_terminal_ids,
)
from repro.graphs.indexed import to_indexed
from repro.kernels import numpy_available, resolve_backend
from repro.kernels.backend import ArrayBackend
from repro.runtime.workload import canonical_checksum

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy lane not installed"
)


def lanes():
    """Return fresh (array, numpy) backend instances."""
    return resolve_backend("array"), resolve_backend("numpy")


def assert_rows_byte_identical(graph):
    """All four kernel entry points agree byte-for-byte on ``graph``."""
    indexed, _ = to_indexed(graph)
    arr, npy = lanes()
    arr_scratch = arr.scratch(indexed)
    npy_scratch = npy.scratch(indexed)
    sources = list(range(indexed.n))
    for source in sources:
        a = arr.bfs_levels_row(indexed, source, arr_scratch)
        b = npy.bfs_levels_row(indexed, source, npy_scratch)
        assert a.tobytes() == b.tobytes()
        a = arr.bfs_parents_row(indexed, source, arr_scratch)
        b = npy.bfs_parents_row(indexed, source, npy_scratch)
        assert a.tobytes() == b.tobytes()
    for rows_a, rows_b in (
        (
            arr.grouped_bfs_levels(indexed, sources, arr_scratch),
            npy.grouped_bfs_levels(indexed, sources, npy_scratch),
        ),
        (
            arr.grouped_bfs_parents(indexed, sources, arr_scratch),
            npy.grouped_bfs_parents(indexed, sources, npy_scratch),
        ),
    ):
        assert len(rows_a) == len(rows_b)
        for a, b in zip(rows_a, rows_b):
            assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# kernel-level byte identity (hypothesis differential)
# ----------------------------------------------------------------------
@given(graph=small_graphs(max_vertices=9))
@COMMON_SETTINGS
def test_lanes_byte_identical_on_arbitrary_graphs(graph):
    assert_rows_byte_identical(graph)


@given(graph=bipartite_graphs())
@COMMON_SETTINGS
def test_lanes_byte_identical_on_bipartite_graphs(graph):
    assert_rows_byte_identical(graph)


@given(graph=chordal_bipartite_graphs())
@COMMON_SETTINGS
def test_lanes_byte_identical_on_chordal_bipartite_graphs(graph):
    assert_rows_byte_identical(graph)


def test_lanes_byte_identical_multiword_grouped_frontier():
    """> 64 sources forces multiple uint64 frontier words per vertex."""
    rng = random.Random(7)
    graph = large_bipartite_tree(400, rng=rng)
    arr, npy = lanes()
    sources = [rng.randrange(graph.n) for _ in range(130)]  # dupes included
    rows_a = arr.grouped_bfs_levels(graph, sources, arr.scratch(graph))
    rows_b = npy.grouped_bfs_levels(graph, sources, npy.scratch(graph))
    for a, b in zip(rows_a, rows_b):
        assert a.tobytes() == b.tobytes()


def test_lanes_byte_identical_at_scale():
    """One 10^5-vertex spot check: the regime the numpy lane exists for."""
    graph = large_block_chain(8000, 2, 2)
    arr, npy = lanes()
    sources = large_terminal_ids(graph, 12, rng=random.Random(11))
    for rows_a, rows_b in (
        (
            arr.grouped_bfs_levels(graph, sources, arr.scratch(graph)),
            npy.grouped_bfs_levels(graph, sources, npy.scratch(graph)),
        ),
    ):
        for a, b in zip(rows_a, rows_b):
            assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# shm adoption: the numpy lane runs on the exact bytes the segment ships
# ----------------------------------------------------------------------
def test_numpy_lane_adopts_shared_memory_bytes():
    from repro.engine.cache import SchemaContext
    from repro.kernels import attach_segment, create_segment, shared_memory_available

    if not shared_memory_available():
        pytest.skip("POSIX shared memory unavailable")
    graph = random_62_chordal_graph(40, rng=random.Random(3))
    context = SchemaContext(graph)
    segment = create_segment(context.indexed, context.index, context.report)
    try:
        shm, attached_graph, _, _ = attach_segment(segment.name)
        try:
            arr, npy = lanes()
            scratch = npy.scratch(attached_graph)  # adopts the segment bytes
            for source in range(0, attached_graph.n, 7):
                a = arr.bfs_parents_row(context.indexed, source)
                b = npy.bfs_parents_row(attached_graph, source, scratch)
                assert a.tobytes() == b.tobytes()
        finally:
            # every zero-copy view must die before the segment handle
            # closes (close() refuses while exported pointers exist)
            del scratch, attached_graph
            shm.close()
    finally:
        segment.close()
        segment.unlink()


# ----------------------------------------------------------------------
# service-level workloads: one lane per service, identical checksums
# ----------------------------------------------------------------------
def _service_checksums(schema, requests, backend):
    service = ConnectionService(
        schema=schema, config=ServiceConfig(kernel_backend=backend)
    )
    return canonical_checksum(service.batch(list(requests)))


def test_workload_checksums_identical_across_lanes():
    rng = random.Random(19)
    schema = random_62_chordal_graph(60, rng=rng)
    requests = [
        ConnectionRequest.of(random_terminals(schema, rng.randint(2, 4), rng=rng))
        for _ in range(12)
    ]
    assert _service_checksums(schema, requests, "array") == _service_checksums(
        schema, requests, "numpy"
    )


def test_general_class_batch_identical_across_lanes():
    """Dreyfus-Wagner, KMB and Algorithm 1 side plans, all on oracle rows."""
    rng = random.Random(41)
    schema = random_alpha_schema_graph(30, rng=rng)
    requests = [
        ConnectionRequest.of(random_terminals(schema, k, rng=rng))
        for k in (3, 4, 5, 9, 10)
    ]
    requests += [
        ConnectionRequest.of(random_terminals(schema, k, rng=rng), objective="side", side=2)
        for k in (3, 5)
    ]
    answers = {}
    for backend in ("array", "numpy"):
        service = ConnectionService(
            schema=schema, config=ServiceConfig(kernel_backend=backend)
        )
        results = service.batch(list(requests))
        answers[backend] = (
            [result.provenance.solver for result in results],
            canonical_checksum(results),
        )
    expected_solvers = ["dreyfus-wagner"] * 3 + ["kmb"] * 2 + ["algorithm1-indexed"] * 2
    assert answers["array"][0] == expected_solvers
    assert answers["numpy"] == answers["array"]


def test_provenance_identical_across_lanes_minus_backend_stamp():
    rng = random.Random(23)
    schema = random_62_chordal_graph(30, rng=rng)
    terminals = random_terminals(schema, 3, rng=rng)
    records = []
    for backend in ("array", "numpy"):
        service = ConnectionService(
            schema=schema, config=ServiceConfig(kernel_backend=backend)
        )
        service.connect(terminals)  # warm: pin identical cache_hit flags
        record = service.connect(terminals).to_dict(include_timing=False)
        assert record["provenance"].pop("backend") == backend
        records.append(record)
    assert records[0] == records[1]


def test_editor_churn_identical_across_lanes():
    from repro.dynamic.editor import SchemaEditor

    rng = random.Random(31)

    def run(backend):
        schema = random_62_chordal_graph(40, rng=random.Random(5))
        service = ConnectionService(
            schema=schema, config=ServiceConfig(kernel_backend=backend)
        )
        sums = []
        local = random.Random(7)
        for _ in range(6):
            terminals = random_terminals(schema, 3, rng=local)
            sums.append(canonical_checksum([service.connect(terminals)]))
            left = sorted(schema.left(), key=repr)
            right = sorted(schema.right(), key=repr)
            u = left[local.randrange(len(left))]
            v = right[local.randrange(len(right))]
            with SchemaEditor(schema) as editor:
                if schema.has_edge(u, v) and schema.degree(u) > 1 and schema.degree(v) > 1:
                    editor.remove_edge(u, v)
                else:
                    editor.add_edge(u, v)
        return sums

    del rng
    assert run("array") == run("numpy")


def test_parallel_executor_identical_across_lanes():
    from repro.runtime import ParallelExecutor

    schema = random_62_chordal_graph(50, rng=random.Random(13))
    local = random.Random(17)
    batches = [
        random_terminals(schema, local.randint(2, 4), rng=local) for _ in range(8)
    ]
    sums = {}
    for backend in ("array", "numpy"):
        service = ConnectionService(
            schema=schema, config=ServiceConfig(kernel_backend=backend)
        )
        with ParallelExecutor(workers=2, service=service) as executor:
            results = executor.batch(batches)
        sums[backend] = canonical_checksum(results)
    assert sums["array"] == sums["numpy"]


# ----------------------------------------------------------------------
# registry resolution semantics
# ----------------------------------------------------------------------
def test_auto_resolves_numpy_when_available():
    assert resolve_backend("auto").name == "numpy"


def test_foreign_scratch_is_rebuilt_not_corrupted():
    """Handing one lane the other lane's scratch must transparently rebuild."""
    graph = large_bipartite_tree(50, rng=random.Random(2))
    arr, npy = lanes()
    numpy_scratch = npy.scratch(graph)
    array_scratch = arr.scratch(graph)
    a = arr.bfs_levels_row(graph, 0, numpy_scratch)  # wrong lane's scratch
    b = npy.bfs_levels_row(graph, 0, array_scratch)  # and vice versa
    assert a.tobytes() == b.tobytes()


def test_array_backend_is_default_without_env(monkeypatch):
    from repro.kernels.backend import BACKEND_ENV

    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert resolve_backend(None).name == "array"
    assert isinstance(resolve_backend(None), ArrayBackend)


def test_env_selects_lane(monkeypatch):
    from repro.kernels.backend import BACKEND_ENV

    monkeypatch.setenv(BACKEND_ENV, "numpy")
    assert resolve_backend(None).name == "numpy"
