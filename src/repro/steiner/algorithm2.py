"""Algorithm 2 (Theorem 5): exact Steiner trees on (6,2)-chordal bipartite graphs.

Lemma 5 shows that in a (6,2)-chordal bipartite graph *every* nonredundant
cover of a terminal set is minimum.  Consequently the following trivial
procedure is exact and runs in ``O(|V| * |A|)``:

1. restrict to the connected component containing the terminals;
2. scan the non-terminal vertices in any order and delete each one whose
   removal leaves a cover of the terminals (the result is a nonredundant,
   hence minimum, cover);
3. return any spanning tree of the surviving cover.

By Theorem 1(ii) the applicable graphs are exactly the incidence graphs of
gamma-acyclic database schemas.  On graphs outside the class the procedure
still returns a *nonredundant* cover, which is a natural heuristic; the
returned solution is then flagged as not guaranteed optimal.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.chordality.mn_chordal import is_62_chordal_bipartite
from repro.core.covers import greedy_elimination_cover
from repro.exceptions import NotApplicableError
from repro.graphs.bipartite import BipartiteGraph, is_bipartite
from repro.graphs.graph import Graph, Vertex
from repro.graphs.spanning import spanning_tree
from repro.steiner.problem import (
    SteinerInstance,
    SteinerSolution,
    prune_non_terminal_leaves,
)


def steiner_algorithm2(
    graph: Graph,
    terminals: Iterable[Vertex],
    ordering: Optional[Sequence[Vertex]] = None,
    check: bool = True,
    applicable: Optional[bool] = None,
) -> SteinerSolution:
    """Run Algorithm 2 and return a Steiner tree.

    Parameters
    ----------
    graph:
        The host graph.  The optimality guarantee requires it to be a
        (6,2)-chordal bipartite graph.
    terminals:
        The terminal set ``P``.
    ordering:
        Optional elimination order for Step 1.  By Corollary 5 every order
        yields a minimum cover on (6,2)-chordal graphs; the default is the
        deterministic sorted order.
    check:
        When ``True`` (default) a :class:`NotApplicableError` is raised if
        the graph is not (6,2)-chordal bipartite; when ``False`` the
        procedure still runs and returns a nonredundant cover, flagged as
        not guaranteed optimal.
    applicable:
        Optional precomputed answer to "is the graph (6,2)-chordal
        bipartite?".  Callers that classify the schema once and then issue
        many queries pass it to skip the per-query re-classification,
        which otherwise dominates the running time on large schemas.
    """
    instance = SteinerInstance(graph, terminals)
    instance.require_feasible()
    terminal_set = set(instance.terminals)

    if applicable is None:
        applicable = is_bipartite(graph) and is_62_chordal_bipartite(
            graph if isinstance(graph, BipartiteGraph) else BipartiteGraph.from_graph(graph)
        )
    if check and not applicable:
        raise NotApplicableError(
            "Algorithm 2 requires a (6,2)-chordal bipartite graph"
        )

    # the elimination returns the terminals' component of the surviving
    # graph, so the cover needs no second walk
    cover = graph.subgraph(
        greedy_elimination_cover(
            graph, terminal_set, ordering=ordering, removal_batches=False
        )
    )
    tree = spanning_tree(cover)
    tree = prune_non_terminal_leaves(tree, terminal_set)
    solution = SteinerSolution(
        tree=tree,
        instance=instance,
        method="algorithm2",
        optimal=applicable,
    )
    solution.metadata["cover"] = set(cover.vertices())
    return solution


def nonredundant_cover_tree(
    graph: Graph, terminals: Iterable[Vertex], ordering: Optional[Sequence[Vertex]] = None
) -> SteinerSolution:
    """Run the Algorithm 2 elimination as a heuristic on an arbitrary graph.

    This is exactly :func:`steiner_algorithm2` with ``check=False``; it is
    exposed separately so that benchmark code reads naturally when the
    procedure is used as a baseline outside its guarantee class.
    """
    return steiner_algorithm2(graph, terminals, ordering=ordering, check=False)
