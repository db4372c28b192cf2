"""Budget-exhaustion resume semantics of `EnumerationStream`, and the reprs.

Satellite of the runtime PR: the stream's pause/resume contract is now
documented explicitly (see the class docstring) and pinned here; the
request/result ``__repr__`` implementations must stay compact -- no
schema dumps in log lines.
"""

import pytest

from repro.api import ConnectionRequest, ConnectionService
from repro.datasets.generators import random_62_chordal_graph, random_terminals
from repro.exceptions import ValidationError
from repro.graphs import BipartiteGraph


def tiny_graph() -> BipartiteGraph:
    return BipartiteGraph(
        left=["a", "b"],
        right=[1, 2, 3],
        edges=[("a", 1), ("b", 1), ("a", 2), ("b", 2), ("a", 3), ("b", 3)],
    )


# ----------------------------------------------------------------------
# budget pause vs. exhaustion
# ----------------------------------------------------------------------
def test_budget_pause_is_distinguishable_from_exhaustion():
    service = ConnectionService(schema=tiny_graph())
    stream = service.enumerate(["a", "b"], budget=2)

    page = list(stream)
    assert len(page) == 2
    assert stream.paused and not stream.exhausted
    assert stream.budget_remaining == 0


def test_extend_budget_resumes_exactly_where_it_paused():
    service = ConnectionService(schema=tiny_graph())
    reference = [
        (r.cost, sorted(map(repr, r.tree.vertices())))
        for r in service.enumerate(["a", "b"])  # unbounded: the full stream
    ]

    stream = service.enumerate(["a", "b"], budget=1)
    collected = []
    while True:
        collected.extend(
            (r.cost, sorted(map(repr, r.tree.vertices()))) for r in stream
        )
        if stream.exhausted:
            break
        assert stream.paused
        stream.extend_budget(1)

    # no repeats, no gaps, same order: the paged walk IS the full stream
    assert collected == reference
    costs = [cost for cost, _ in collected]
    assert costs == sorted(costs)
    assert not stream.paused  # exhausted streams are not 'paused'


def test_resumed_stream_continues_rank_numbering():
    service = ConnectionService(schema=tiny_graph())
    stream = service.enumerate(["a", "b"], budget=2)
    first_page = stream.take(5)
    assert [r.rank for r in first_page] == [1, 2]
    stream.extend_budget(2)
    second_page = stream.take(5)
    assert [r.rank for r in second_page] == [3, 4]


def test_zero_budget_starts_paused():
    service = ConnectionService(schema=tiny_graph())
    stream = service.enumerate(["a", "b"], budget=0)
    assert list(stream) == []
    assert stream.paused and not stream.exhausted
    stream.extend_budget(1)
    assert len(stream.take(5)) == 1


def test_extend_budget_is_noop_on_unbounded_and_exhausted_streams():
    service = ConnectionService(schema=tiny_graph())
    unbounded = service.enumerate(["a", "b"])
    unbounded.extend_budget(3)  # no-op, must not raise
    everything = list(unbounded)
    assert unbounded.exhausted and not unbounded.paused
    unbounded.extend_budget(10)
    assert list(unbounded) == []
    assert len(everything) >= 3

    with pytest.raises(ValidationError):
        unbounded.extend_budget(-1)


def test_paused_is_a_false_positive_at_the_exact_boundary():
    # the documented caveat: budget spent on the last existing connection
    service = ConnectionService(schema=tiny_graph())
    total = len(list(service.enumerate(["a", "b"])))
    stream = service.enumerate(["a", "b"], budget=total)
    assert len(list(stream)) == total
    assert stream.paused and not stream.exhausted  # cannot know it's dry yet
    stream.extend_budget(1)
    assert stream.take(1) == []                    # the next pull settles it
    assert stream.exhausted and not stream.paused


def test_first_result_is_optimal_later_results_are_not():
    service = ConnectionService(schema=tiny_graph())
    results = list(service.enumerate(["a", "b"], budget=3))
    assert results[0].is_optimal()
    assert all(not r.is_optimal() for r in results[1:])


# ----------------------------------------------------------------------
# reprs
# ----------------------------------------------------------------------
def test_request_repr_is_compact_and_omits_defaults():
    request = ConnectionRequest.of(["B", "A"])
    assert repr(request) == "ConnectionRequest(terminals=('A', 'B'), objective='steiner')"

    graph = random_62_chordal_graph(30, rng=1)
    attached = ConnectionRequest.of(
        ["x"], schema=graph, solver="kmb", policy="require-optimal",
        tags={"tenant": "t"},
    )
    text = repr(attached)
    # the schema is elided to its type: no vertex dump in log lines
    assert "schema=<BipartiteGraph>" in text
    assert "solver='kmb'" in text and "policy='require-optimal'" in text
    assert "tags={'tenant': 't'}" in text
    assert len(text) < 200


def test_result_repr_is_compact():
    graph = random_62_chordal_graph(30, rng=1)
    service = ConnectionService(schema=graph)
    result = service.connect(random_terminals(graph, 3, rng=2))
    text = repr(result)
    assert text.startswith("ConnectionResult(cost=")
    assert "guarantee='optimal'" in text
    assert "solver=" in text
    assert len(text) < 250

    side_result = service.connect(
        random_terminals(graph, 2, rng=3), objective="side", side=2
    )
    assert "objective='side'" in repr(side_result)
    assert "side_cost=" in repr(side_result)


def test_disk_replay_shows_in_repr(tmp_path):
    from repro.api import ServiceConfig

    graph = random_62_chordal_graph(5, rng=4)
    config = ServiceConfig(cache_dir=str(tmp_path))
    service = ConnectionService(schema=graph, config=config)
    query = random_terminals(graph, 2, rng=5)
    service.connect(query)
    replay = service.connect(query)
    assert "result_cache='disk'" in repr(replay)


# ----------------------------------------------------------------------
# degenerate terminal sets: explicit ValidationErrors, pinned trivial cases
# ----------------------------------------------------------------------
def test_stream_rejects_empty_terminal_set_eagerly():
    service = ConnectionService(schema=tiny_graph())
    with pytest.raises(ValidationError, match="non-empty"):
        service.enumerate([])


def test_stream_rejects_unknown_terminals_eagerly():
    service = ConnectionService(schema=tiny_graph())
    with pytest.raises(ValidationError, match="not vertices"):
        service.enumerate(["a", "ghost"])


def test_stream_on_a_single_terminal_is_valid_and_ranked():
    service = ConnectionService(schema=tiny_graph())
    stream = service.enumerate(["a"], budget=3)
    results = stream.take(3)
    assert [r.rank for r in results] == [1, 2, 3]
    assert results[0].tree.vertices() == {"a"}
    assert results[0].guarantee.value == "optimal"
    # later results are strictly valid (connected supersets), non-optimal
    assert all(r.cost >= 1 for r in results[1:])
    assert all(r.guarantee.value == "heuristic" for r in results[1:])


def test_generator_guard_raises_validation_error_not_pep479():
    # defense in depth: even the raw generator refuses an empty terminal
    # set with a library error instead of tripping PEP 479
    from repro.api.stream import _connection_solutions
    from repro.steiner.problem import SteinerInstance

    graph = tiny_graph()
    instance = SteinerInstance(graph, ["a"])
    object.__setattr__(instance, "terminals", frozenset())
    with pytest.raises(ValidationError, match="non-empty"):
        next(_connection_solutions(graph, instance, None))


def test_connect_and_batch_reject_degenerate_terminals():
    service = ConnectionService(schema=tiny_graph())
    with pytest.raises(ValidationError, match="non-empty"):
        service.connect([])
    with pytest.raises(ValidationError, match="not vertices"):
        service.connect(["ghost"])
    with pytest.raises(ValidationError, match="non-empty"):
        service.batch([["a", "b"], []])
    with pytest.raises(ValidationError, match="not vertices"):
        service.batch([["a", "b"], ["a", "ghost"]])
    # single terminals stay valid through every entry point
    assert service.connect(["a"]).cost == 1
