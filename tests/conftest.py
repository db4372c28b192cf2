"""Shared fixtures for the test-suite."""

from __future__ import annotations

import gc
import random
import sys
import warnings

import pytest

from repro.datasets import figures
from repro.graphs import BipartiteGraph, Graph


@pytest.fixture
def rng():
    """A deterministic random generator for tests."""
    return random.Random(20260613)


@pytest.fixture
def triangle():
    """The complete graph on three vertices."""
    return Graph(edges=[("a", "b"), ("b", "c"), ("a", "c")])


@pytest.fixture
def path4():
    """A path a - b - c - d."""
    return Graph(edges=[("a", "b"), ("b", "c"), ("c", "d")])


@pytest.fixture
def square():
    """A 4-cycle (the smallest non-chordal graph)."""
    return Graph(edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


@pytest.fixture
def six_cycle_bipartite():
    """A chordless 6-cycle as a bipartite graph."""
    graph = BipartiteGraph(left=["A", "B", "C"], right=[1, 2, 3])
    for u, v in [("A", 1), ("B", 1), ("B", 2), ("C", 2), ("C", 3), ("A", 3)]:
        graph.add_edge(u, v)
    return graph


@pytest.fixture
def fig2():
    return figures.figure2_graph()


@pytest.fixture
def fig3a():
    return figures.figure3a_graph()


@pytest.fixture
def fig3b():
    return figures.figure3b_graph()


@pytest.fixture
def fig3c():
    return figures.figure3c_graph()


@pytest.fixture
def fig5():
    return figures.figure5_graph()


@pytest.fixture
def fig11():
    return figures.figure11_graph()


def pytest_sessionfinish(session, exitstatus):
    """Under ``python -X dev``, fail the session when the collector finds a leaked resource.

    A socket or file left open in a reference cycle warns only when the
    garbage collector frees it, at the end of the session, where the
    warning cannot fail a test even under ``-W error::ResourceWarning``.
    So collect here, record every ResourceWarning and fail the run on
    any.  CI runs the server suites this way.
    """
    if not sys.flags.dev_mode:
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    for leak in leaks:
        print(f"leaked resource: {leak.message}", file=sys.stderr)
    if leaks:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
