"""Algorithm 1 (Theorem 3): polynomial pseudo-Steiner trees.

On a ``V_i``-chordal, ``V_i``-conformal bipartite graph the pseudo-Steiner
problem with respect to ``V_i`` -- connect the terminals with a tree using
as few ``V_i``-vertices as possible -- is solvable in ``O(|V| * |A|)`` time
(Theorem 4).  The algorithm is:

1. restrict to the connected component containing the terminal set ``P``;
2. order the ``V_i``-vertices as in Lemma 1.  By Theorem 4 this ordering is
   obtained from the (restricted) maximum cardinality search on the
   associated alpha-acyclic hypergraph ``H_i(G)``: take the MCS edge
   ordering, which satisfies the running intersection property, and reverse
   it;
3. scan the ordering: drop ``v`` together with its private neighbours
   ``Adj*(v)`` whenever the remainder is still a cover of ``P``;
4. return any spanning tree of the surviving cover (a ``V_i``-minimum cover
   by Theorem 3).

The database reading: on an alpha-acyclic schema, answering a query that
mentions a set of attributes/relations through the *fewest relations*
possible is tractable, even though minimising attributes + relations
together is NP-hard (Theorem 2).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.covers import greedy_elimination_cover
from repro.exceptions import NotApplicableError, ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Vertex
from repro.graphs.spanning import spanning_tree
from repro.graphs.traversal import component_containing
from repro.hypergraphs.conversions import hypergraph_of_side
from repro.hypergraphs.tarjan_yannakakis import reverse_running_intersection_ordering
from repro.steiner.problem import (
    SteinerInstance,
    SteinerSolution,
    prune_non_terminal_leaves,
)


def lemma1_ordering(graph: BipartiteGraph, side: int) -> Optional[List[Vertex]]:
    """Return an ordering of the ``V_side`` vertices satisfying Lemma 1.

    The graph should be connected and ``V_side``-chordal /
    ``V_side``-conformal; in that case the reverse of a running-intersection
    ordering of the hyperedges of ``H_side(G)`` is returned.  ``None`` is
    returned when no running-intersection ordering exists (i.e. the
    hypergraph is not alpha-acyclic).

    Vertices of ``V_side`` with no neighbours (possible only in degenerate
    graphs) are appended at the end: they can always be eliminated first by
    the caller and never matter for connectivity.
    """
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side!r}")
    hypergraph = hypergraph_of_side(graph, side=side)
    ordering = reverse_running_intersection_ordering(hypergraph)
    if ordering is None:
        return None
    isolated = sorted(
        (v for v in graph.side(side) if graph.degree(v) == 0), key=repr
    )
    return isolated + ordering


def pseudo_steiner_algorithm1(
    graph: BipartiteGraph,
    terminals: Iterable[Vertex],
    side: int = 2,
    check: bool = True,
    applicable: Optional[bool] = None,
) -> SteinerSolution:
    """Run Algorithm 1 and return a pseudo-Steiner tree w.r.t. ``V_side``.

    Parameters
    ----------
    graph:
        The bipartite host graph.
    terminals:
        The terminal set ``P`` (vertices of either side).
    side:
        The side whose vertex count is minimised (the paper states the
        algorithm for ``V_2``; both are supported by symmetry).
    check:
        When ``True`` (default) the structural precondition -- the
        component containing the terminals must be ``V_side``-chordal and
        ``V_side``-conformal, i.e. ``H_side`` alpha-acyclic -- is verified
        and a :class:`NotApplicableError` is raised if it fails.  When
        ``False`` the algorithm still runs (and still returns *some*
        nonredundant cover) but optimality is no longer guaranteed and the
        returned solution is flagged accordingly.
    applicable:
        Optional precomputed answer to the structural precondition.  When
        omitted, the Lemma 1 ordering decides it: by Theorem 1(v)/(vi) the
        component is ``V_side``-chordal and ``V_side``-conformal exactly
        when ``H_side`` is alpha-acyclic, that is, exactly when the
        ordering exists.  A whole-graph verdict is sound here because
        alpha-acyclicity is preserved by restriction to connected
        components; callers holding a cached
        :class:`~repro.core.classification.ChordalityReport` may pass it.

    Returns
    -------
    SteinerSolution
        With ``side`` set and ``optimal=True`` exactly when the
        precondition holds and a Lemma 1 ordering was found.
    """
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side!r}")
    if not isinstance(graph, BipartiteGraph):
        raise ValidationError("Algorithm 1 requires a bipartite graph")
    instance = SteinerInstance(graph, terminals)
    instance.require_feasible()
    terminal_set = set(instance.terminals)

    component_vertices = component_containing(graph, next(iter(terminal_set)))
    component = graph.subgraph(component_vertices)

    # by Theorem 1(v)/(vi) the ordering exists exactly when the
    # precondition holds, so it decides it unless the caller knows it
    ordering = lemma1_ordering(component, side)
    precondition_holds = ordering is not None if applicable is None else applicable
    if check and not precondition_holds:
        raise NotApplicableError(
            f"the component containing the terminals is not V{side}-chordal "
            f"and V{side}-conformal; Algorithm 1 does not apply"
        )

    # Theorem 3 needs a Lemma 1 ordering: without one the answer is only
    # nonredundant, whatever ``applicable`` claimed
    optimal = precondition_holds and ordering is not None
    if ordering is None:
        if check:
            raise NotApplicableError(
                "no running-intersection ordering exists; the associated "
                "hypergraph is not alpha-acyclic"
            )
        ordering = sorted(component.side(side), key=repr)

    # Step 2: scan the ordering, dropping v and Adj*(v) while the
    # terminals stay connected
    cover_vertices = greedy_elimination_cover(
        component, terminal_set, ordering=ordering, removal_batches=True
    )
    cover = component.subgraph(cover_vertices)
    tree = spanning_tree(cover)
    tree = prune_non_terminal_leaves(tree, terminal_set)
    solution = SteinerSolution(
        tree=tree,
        instance=instance,
        method="algorithm1",
        side=side,
        optimal=optimal,
    )
    solution.metadata["cover"] = set(cover_vertices)
    solution.metadata["ordering"] = list(ordering)
    return solution
