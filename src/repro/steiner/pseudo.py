"""Exact pseudo-Steiner solver by exhaustive search (baseline / ground truth).

The pseudo-Steiner problem w.r.t. side ``V_i`` (Definition 9) minimises the
number of ``V_i``-vertices of a tree over the terminals; vertices of the
other side are free.  A subset ``S`` of ``V_i`` admits such a tree iff the
terminals lie in one connected component of the subgraph induced by
``S ∪ V_{3-i}`` (together with the terminals themselves), so exhaustive
search by increasing ``|S|`` yields the optimum.  Algorithm 1
(:mod:`repro.steiner.algorithm1`) is validated against this solver on every
randomly generated instance in the test-suite.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

from repro.exceptions import DisconnectedTerminalsError, ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Vertex
from repro.graphs.spanning import spanning_tree
from repro.graphs.traversal import component_containing, vertices_in_same_component
from repro.steiner.problem import (
    SteinerInstance,
    SteinerSolution,
    prune_non_terminal_leaves,
)


def pseudo_steiner_bruteforce(
    graph: BipartiteGraph,
    terminals: Iterable[Vertex],
    side: int,
    max_extra: Optional[int] = None,
) -> SteinerSolution:
    """Exact pseudo-Steiner tree w.r.t. ``V_side`` by exhaustive search.

    Parameters
    ----------
    side:
        The side (1 or 2) whose vertex count is minimised.
    max_extra:
        Optional cap on the number of optional ``V_side`` vertices to add
        beyond the terminals (bounds worst-case time in tests).
    """
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side!r}")
    if not isinstance(graph, BipartiteGraph):
        raise ValidationError("pseudo-Steiner problems require a bipartite graph")
    instance = SteinerInstance(graph, terminals)
    instance.require_feasible()
    terminal_set = set(instance.terminals)
    side_vertices = graph.side(side)
    other_vertices = graph.side(3 - side)
    mandatory_side = terminal_set & side_vertices
    optional_side = sorted(side_vertices - terminal_set, key=repr)
    bound = len(optional_side) if max_extra is None else min(max_extra, len(optional_side))

    for extra in range(bound + 1):
        for subset in combinations(optional_side, extra):
            kept = set(subset) | mandatory_side | other_vertices | terminal_set
            induced = graph.subgraph(kept)
            if not vertices_in_same_component(induced, terminal_set):
                continue
            component = component_containing(induced, next(iter(terminal_set)))
            tree = spanning_tree(induced.subgraph(component))
            tree = prune_non_terminal_leaves(tree, terminal_set)
            solution = SteinerSolution(
                tree=tree,
                instance=instance,
                method="pseudo-bruteforce",
                side=side,
                optimal=True,
            )
            solution.metadata["optimal_side_count"] = len(mandatory_side) + extra
            return solution
    raise DisconnectedTerminalsError(
        "no connecting side-subset found within the allowed size"
    )
