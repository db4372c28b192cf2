"""Correctness of the persistent result cache (`repro.runtime.diskcache`).

Pins the three safety properties the runtime's disk layer promises:

* **invalidation** -- mutating a schema (bumping ``mutation_version``)
  changes its structural digest, so stale entries are never replayed;
* **robustness** -- corrupted, truncated, old-version or semantically
  broken cache files are ignored and rebuilt, never crash the service;
* **fidelity** -- a replayed result is answer-identical to the computed
  one, across service instances (simulating process restarts).
"""

import pickle

import pytest

from repro.api import ConnectionService, ServiceConfig
from repro.core.classification import ChordalityReport, classify_bipartite_graph
from repro.datasets.generators import (
    random_62_chordal_graph,
    random_alpha_schema_graph,
    random_terminals,
)
from repro.engine.cache import schema_digest
from repro.exceptions import ValidationError
from repro.graphs import BipartiteGraph
from repro.runtime.codec import encode_result, request_key
from repro.runtime.diskcache import FORMAT_VERSION, DiskCache
from repro.load.clients import canonical_checksum


def small_schema() -> BipartiteGraph:
    return random_62_chordal_graph(5, rng=7)


def caching_service(graph, tmp_path) -> ConnectionService:
    return ConnectionService(
        schema=graph, config=ServiceConfig(cache_dir=str(tmp_path / "cache"))
    )


# ----------------------------------------------------------------------
# fidelity
# ----------------------------------------------------------------------
def test_replay_is_answer_identical_across_service_instances(tmp_path, monkeypatch):
    graph = small_schema()
    queries = [random_terminals(graph, 3, rng=i) for i in range(6)]

    first = caching_service(graph, tmp_path)
    computed = first.batch(queries)
    assert all(r.provenance.result_cache is None for r in computed)

    # a fresh service over the same cache dir simulates a process restart
    second = caching_service(graph, tmp_path)
    solves = []
    monkeypatch.setattr(second.engine, "execute_plan", lambda *args: solves.append(args))
    replayed = second.batch(queries)
    assert all(r.provenance.result_cache == "disk" for r in replayed)
    assert canonical_checksum(replayed) == canonical_checksum(computed)
    # the replay keyed an unclassified context: it classified no block and
    # solved nothing
    context, _ = second._context(None)
    assert context._blocks.stats()["blocks_classified"] == 0
    assert solves == []


def test_disk_report_warm_starts_classification(tmp_path):
    graph = small_schema()
    first = caching_service(graph, tmp_path)
    first.connect(random_terminals(graph, 3, rng=0))

    second = caching_service(graph, tmp_path)
    # a *new* query (not in the result cache) still skips classification:
    # the stored report seeds the rebuilt context
    result = second.connect(random_terminals(graph, 3, rng=99))
    assert result.provenance.result_cache is None
    digest = schema_digest(graph)
    disk = second._disk_cache()
    assert disk.load_report(digest) == classify_bipartite_graph(graph)


def test_connect_and_batch_share_the_store(tmp_path):
    graph = small_schema()
    query = random_terminals(graph, 3, rng=5)
    caching_service(graph, tmp_path).connect(query)
    replay = caching_service(graph, tmp_path).batch([query])[0]
    assert replay.provenance.result_cache == "disk"


# ----------------------------------------------------------------------
# invalidation
# ----------------------------------------------------------------------
def test_mutation_version_bump_invalidates_disk_entries(tmp_path):
    graph = small_schema()
    service = caching_service(graph, tmp_path)
    terminals = sorted(graph.left(), key=repr)[:2]
    before = service.connect(terminals)
    assert service.connect(terminals).provenance.result_cache == "disk"

    # structural mutation: add a shortcut relation adjacent to both
    # terminals, making a cheaper connection possible
    version = graph.mutation_version
    graph.add_to_side(("r", "shortcut"), 2)
    graph.add_edge(terminals[0], ("r", "shortcut"))
    graph.add_edge(terminals[1], ("r", "shortcut"))
    assert graph.mutation_version > version

    after = service.connect(terminals)
    # the stale entry (keyed under the old digest) must not be replayed
    assert after.provenance.result_cache is None
    assert after.cost <= before.cost
    # and the new digest gets its own entry
    assert service.connect(terminals).provenance.result_cache == "disk"


def test_distinct_schemas_never_share_entries(tmp_path):
    g1 = random_62_chordal_graph(4, rng=1)
    g2 = random_62_chordal_graph(4, rng=2)
    assert schema_digest(g1) != schema_digest(g2)
    config = ServiceConfig(cache_dir=str(tmp_path / "cache"))
    s1 = ConnectionService(schema=g1, config=config)
    terminals = random_terminals(g1, 2, rng=3)
    s1.connect(terminals)
    shared = [t for t in terminals if g2.has_vertex(t)]
    if shared:
        s2 = ConnectionService(schema=g2, config=config)
        result = s2.connect(shared)
        assert result.provenance.result_cache is None


# ----------------------------------------------------------------------
# robustness: corrupted / old-version / foreign files
# ----------------------------------------------------------------------
def stored_result_files(cache_root):
    return sorted(cache_root.rglob("results/*.pkl"))


def test_corrupted_result_file_is_ignored_and_rebuilt(tmp_path):
    graph = small_schema()
    query = random_terminals(graph, 3, rng=4)
    service = caching_service(graph, tmp_path)
    computed = service.connect(query)

    files = stored_result_files(tmp_path)
    assert files
    for path in files:
        path.write_bytes(b"\x80totally not a pickle")

    fresh = caching_service(graph, tmp_path)
    result = fresh.connect(query)
    assert result.provenance.result_cache is None  # recomputed, no crash
    assert result.cost == computed.cost
    assert fresh._disk_cache().invalid >= 1
    # the rebuild overwrote the corrupted entry
    assert fresh.connect(query).provenance.result_cache == "disk"


def test_truncated_and_empty_files_are_ignored(tmp_path):
    graph = small_schema()
    query = random_terminals(graph, 3, rng=4)
    service = caching_service(graph, tmp_path)
    service.connect(query)
    for path in stored_result_files(tmp_path):
        path.write_bytes(path.read_bytes()[: 10])
    report_files = sorted((tmp_path / "cache").rglob("report.pkl"))
    for path in report_files:
        path.write_bytes(b"")

    fresh = caching_service(graph, tmp_path)
    result = fresh.connect(query)
    assert result.provenance.result_cache is None


def test_old_format_version_is_ignored(tmp_path):
    graph = small_schema()
    query = random_terminals(graph, 3, rng=4)
    service = caching_service(graph, tmp_path)
    service.connect(query)

    # rewrite every stored record claiming a different format version --
    # exactly what a future library version's files would look like if
    # they ever landed on this path
    for path in stored_result_files(tmp_path):
        with open(path, "rb") as handle:
            record = pickle.load(handle)
        record["format"] = FORMAT_VERSION + 1
        with open(path, "wb") as handle:
            pickle.dump(record, handle)

    fresh = caching_service(graph, tmp_path)
    assert fresh.connect(query).provenance.result_cache is None
    assert fresh._disk_cache().invalid >= 1


def test_a_5x_report_under_v1_is_never_served(tmp_path):
    """Format 2 retires the seven-field reports of 5.x.

    A 5.x report pickle unpickles into the five-field report: the
    ``isinstance`` check passes, but ``v1_alpha`` is missing.  Files
    under ``v1/`` are never read, so a service over such a directory
    answers like a fresh one.
    """
    graph = random_alpha_schema_graph(12, rng=2)  # V2-alpha, one beta-cyclic block
    digest = schema_digest(graph)
    stale = ChordalityReport.__new__(ChordalityReport)
    stale.__dict__.update(
        chordal_41=False, chordal_61=True, chordal_62=True, v1_chordal=True,
        v1_conformal=True, v2_chordal=True, v2_conformal=True,
    )
    old = tmp_path / "cache" / "v1" / digest / "report.pkl"
    old.parent.mkdir(parents=True)
    with open(old, "wb") as handle:
        pickle.dump({"format": 1, "kind": "report", "data": stale}, handle)
    with open(old, "rb") as handle:
        loaded = pickle.load(handle)["data"]
    assert isinstance(loaded, ChordalityReport) and not hasattr(loaded, "v1_alpha")

    assert FORMAT_VERSION == 2
    assert DiskCache(tmp_path / "cache").load_report(digest) is None
    cached = caching_service(graph, tmp_path)
    fresh = ConnectionService(schema=graph.copy())
    assert cached.classification() == fresh.classification()
    assert cached.classification() == classify_bipartite_graph(graph)
    queries = [random_terminals(graph, 4, rng=seed) for seed in range(4)]
    for options in ({}, {"objective": "side", "side": 2}):
        served = [cached.connect(query, **options) for query in queries]
        expected = [fresh.connect(query, **options) for query in queries]
        assert canonical_checksum(served) == canonical_checksum(expected)
    assert cached._disk_cache().stats()["invalid"] == 0


def test_semantically_broken_payload_is_ignored(tmp_path):
    graph = small_schema()
    query = random_terminals(graph, 3, rng=4)
    service = caching_service(graph, tmp_path)
    service.connect(query)

    for path in stored_result_files(tmp_path):
        with open(path, "rb") as handle:
            record = pickle.load(handle)
        # structurally valid record, nonsense payload
        record["data"] = {"version": 1, "garbage": True}
        with open(path, "wb") as handle:
            pickle.dump(record, handle)

    fresh = caching_service(graph, tmp_path)
    assert fresh.connect(query).provenance.result_cache is None
    disk = fresh.cache_stats()["disk"]
    # the report replays (one hit); the broken result never did, so it
    # counts as invalid only and is recomputed
    assert (disk["hits"], disk["invalid"], disk["misses"]) == (1, 1, 0)


def test_wrong_kind_record_is_ignored(tmp_path):
    disk = DiskCache(tmp_path / "cache")
    disk.store_result("digest", "key", {"version": 1})
    # read it back as a report: kind mismatch must be a miss
    path = disk._result_path("digest", "key")
    assert disk._read(path, kind="report") is None
    assert disk.invalid == 1


def test_unwritable_cache_degrades_gracefully(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    disk = DiskCache(target)  # writes under a path that cannot be a dir
    disk.store_result("digest", "key", {"version": 1})
    assert disk.store_errors == 1
    assert disk.load_result("digest", "key") is None


# ----------------------------------------------------------------------
# keys and config
# ----------------------------------------------------------------------
def test_request_key_covers_effective_limits_and_solver():
    from repro.api import ConnectionRequest

    base = ConnectionRequest.of(["A", "B"])
    assert request_key(base) == request_key(ConnectionRequest.of(["B", "A"]))
    assert request_key(base) != request_key(
        ConnectionRequest.of(["A", "B"], solver="kmb")
    )
    assert request_key(base) != request_key(
        ConnectionRequest.of(["A", "B"], objective="side", side=1)
    )
    # the *effective* limit is keyed: the same request under a different
    # config resolves to different thresholds, hence a different key
    assert request_key(base, ServiceConfig()) != request_key(
        base, ServiceConfig(exact_terminal_limit=2)
    )
    # tags annotate provenance but never change the answer -> same key
    assert request_key(base) == request_key(
        ConnectionRequest.of(["A", "B"], tags={"tenant": "t1"})
    )


def test_cache_dir_validation():
    with pytest.raises(ValidationError):
        ServiceConfig(cache_dir=123)


def test_encode_round_trip_matches_to_dict(tmp_path):
    from repro.runtime.codec import decode_result

    graph = small_schema()
    service = ConnectionService(schema=graph)
    result = service.connect(random_terminals(graph, 3, rng=8))
    payload = pickle.loads(pickle.dumps(encode_result(result)))
    clone = decode_result(payload, graph=graph, request=result.request)
    assert clone.to_dict(include_timing=False) == result.to_dict(include_timing=False)
    assert clone.tree.vertices() == result.tree.vertices()
    assert clone.tree.edge_set() == result.tree.edge_set()
