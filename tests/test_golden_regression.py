"""Golden regression fixtures: the paper's figures, pinned to known-good outputs.

``tests/golden/figures.json`` serialises, for every worked figure of the
paper, the structural facts (sizes, chordality class) together with the
covers, orderings and tree costs the algorithms produce on deterministic
query sets (``tree_cost`` from per-query ``ConnectionService.connect``,
``engine_tree_cost`` from ``ConnectionService.batch``).
``tests/golden/engine_queries.json`` pins the batch path on a seeded
large schema.  Refactors of the graph core, the solvers or
the engine must reproduce these byte-identical values; intentional
behaviour changes are made visible by regenerating:

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_regression.py

and reviewing the diff of the JSON files.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.api import ConnectionService
from repro.core import classify_bipartite_graph
from repro.chordality.mcs import mcs_elimination_ordering
from repro.datasets import figures
from repro.datasets.generators import random_62_chordal_graph, random_terminals
from repro.exceptions import NotApplicableError
from repro.graphs.traversal import vertices_in_same_component
from repro.steiner.algorithm1 import lemma1_ordering

GOLDEN_DIR = Path(__file__).parent / "golden"
FIGURES_PATH = GOLDEN_DIR / "figures.json"
ENGINE_PATH = GOLDEN_DIR / "engine_queries.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


def _figure_graphs():
    """The named bipartite instances the paper's narrative works through."""
    return {
        "figure1_schema": figures.figure1_relational_schema().schema_graph(),
        "figure2": figures.figure2_graph(),
        "figure3a": figures.figure3a_graph(),
        "figure3b": figures.figure3b_graph(),
        "figure3c": figures.figure3c_graph(),
        "figure5": figures.figure5_graph(),
        "figure11": figures.figure11_graph(),
    }


def _query_sets(graph):
    """Deterministic feasible terminal pairs/triples for one graph."""
    vertices = graph.sorted_vertices()
    candidates = []
    if len(vertices) >= 2:
        candidates.append([vertices[0], vertices[-1]])
        candidates.append([vertices[0], vertices[len(vertices) // 2]])
    if len(vertices) >= 3:
        candidates.append([vertices[0], vertices[1], vertices[-1]])
    feasible = []
    seen = set()
    for terminals in candidates:
        key = frozenset(map(repr, terminals))
        if len(key) < 2 or key in seen:
            continue
        seen.add(key)
        if vertices_in_same_component(graph, terminals):
            feasible.append(terminals)
    return feasible


def _compute_figures_payload():
    payload = {}
    for name, graph in sorted(_figure_graphs().items()):
        report = classify_bipartite_graph(graph)
        service = ConnectionService(schema=graph)
        entry = {
            "vertices": graph.number_of_vertices(),
            "edges": graph.number_of_edges(),
            "class": report.strongest_class,
            "chordal_41": report.chordal_41,
            "chordal_61": report.chordal_61,
            "chordal_62": report.chordal_62,
            "v1_alpha": report.v1_alpha,
            "v2_alpha": report.v2_alpha,
            "mcs_ordering": [repr(v) for v in mcs_elimination_ordering(graph)],
        }
        ordering = lemma1_ordering(graph, 2)
        entry["lemma1_ordering_side2"] = (
            [repr(v) for v in ordering] if ordering is not None else None
        )
        queries = []
        query_sets = _query_sets(graph)
        batched = ConnectionService(schema=graph).batch(query_sets)
        for terminals, batched_result in zip(query_sets, batched):
            steiner = service.connect(terminals).solution
            record = {
                "terminals": sorted(map(repr, terminals)),
                "tree_cost": steiner.vertex_count(),
                "tree_vertices": sorted(map(repr, steiner.tree.vertices())),
                "cover": sorted(
                    map(repr, steiner.metadata.get("cover", steiner.tree.vertices()))
                ),
                "engine_tree_cost": batched_result.cost,
                "optimal": steiner.optimal,
            }
            try:
                side = service.connect(terminals, objective="side", side=2)
                record["side2_cost"] = side.side_cost
            except NotApplicableError:  # pragma: no cover - defensive
                record["side2_cost"] = None
            queries.append(record)
        entry["queries"] = queries
        payload[name] = entry
    return payload


def _compute_engine_payload():
    graph = random_62_chordal_graph(12, rng=2026)
    queries = [
        sorted(random_terminals(graph, 3, rng=seed), key=repr) for seed in range(12)
    ]
    solutions = [
        result.solution for result in ConnectionService(schema=graph).batch(queries)
    ]
    return {
        "schema": {
            "generator": "random_62_chordal_graph(12, rng=2026)",
            "vertices": graph.number_of_vertices(),
            "edges": graph.number_of_edges(),
        },
        "queries": [
            {
                "terminals": [repr(t) for t in terminals],
                "tree_cost": solution.vertex_count(),
                "solver": solution.metadata.get("solver"),
                "optimal": solution.optimal,
            }
            for terminals, solution in zip(queries, solutions)
        ],
    }


def _load_or_regen(path: Path, compute):
    current = compute()
    if REGEN:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    if not path.exists():
        # a missing fixture must fail loudly, never silently self-pin
        pytest.fail(
            f"golden fixture {path} is missing; regenerate deliberately with "
            "REPRO_REGEN_GOLDEN=1 and commit the file"
        )
    stored = json.loads(path.read_text())
    return current, stored


def test_figures_match_golden():
    """Every figure's covers, orderings and tree costs equal the pinned values."""
    current, stored = _load_or_regen(FIGURES_PATH, _compute_figures_payload)
    assert current == stored


def test_engine_queries_match_golden():
    """The batch path reproduces the pinned costs on the seeded schema."""
    current, stored = _load_or_regen(ENGINE_PATH, _compute_engine_payload)
    assert current == stored


def test_golden_files_are_wellformed():
    """Loader sanity: files exist, parse, and carry the expected shape."""
    for path in (FIGURES_PATH, ENGINE_PATH):
        assert path.exists(), f"{path} missing; run with REPRO_REGEN_GOLDEN=1"
        data = json.loads(path.read_text())
        assert data, f"{path} is empty"
    figures_data = json.loads(FIGURES_PATH.read_text())
    for name, entry in figures_data.items():
        assert {"vertices", "edges", "class", "queries"} <= set(entry), name
        for record in entry["queries"]:
            assert record["tree_cost"] == record["engine_tree_cost"], (
                f"{name}: batch and per-query answers disagree in the golden data"
            )
            assert record["tree_cost"] >= len(record["terminals"])
    engine_data = json.loads(ENGINE_PATH.read_text())
    assert all(q["optimal"] for q in engine_data["queries"])


@pytest.mark.skipif(not REGEN, reason="only meaningful while regenerating")
def test_regeneration_is_deterministic():
    """Two consecutive computations of the payloads are identical."""
    assert _compute_figures_payload() == _compute_figures_payload()
    assert _compute_engine_payload() == _compute_engine_payload()
