"""Classification of bipartite graphs by chordality / acyclicity class.

The paper's results attach a different algorithmic status to each class:

========================  =======================================  =========================
bipartite graph class     associated schema class (Theorem 1)      minimal-connection status
========================  =======================================  =========================
(4,1)-chordal (forest)    Berge-acyclic                            trivial (unique paths)
(6,2)-chordal             gamma-acyclic                            Steiner in P (Algorithm 2)
(6,1)-chordal             beta-acyclic                             pseudo-Steiner in P (both
                                                                   sides); Steiner open
``V_i``-chordal+conformal alpha-acyclic (w.r.t. that side)         pseudo-Steiner w.r.t.
                                                                   ``V_i`` in P (Algorithm 1);
                                                                   Steiner NP-complete
general bipartite         cyclic                                   Steiner NP-complete
========================  =======================================  =========================

:func:`classify_bipartite_graph` evaluates every membership by walking down
this table on integer ids (see its docstring); the resulting
:class:`ChordalityReport` is what the engine's planner uses to pick an
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.exceptions import BipartitenessError
from repro.graphs.bipartite import BipartiteGraph, is_bipartite
from repro.graphs.cycles import is_forest
from repro.graphs.graph import Graph
from repro.hypergraphs.acyclicity import acyclicity_degree
from repro.hypergraphs.conversions import hypergraph_of_side
from repro.hypergraphs.reduction import (
    gamma_reduces,
    nest_point_order,
    running_intersection_order,
)


@dataclass(frozen=True)
class ChordalityReport:
    """Membership of one bipartite graph in every class used by the paper."""

    chordal_41: bool
    chordal_61: bool
    chordal_62: bool
    #: ``V_1``-chordal and ``V_1``-conformal: ``H_1`` alpha-acyclic.
    v1_alpha: bool
    #: ``V_2``-chordal and ``V_2``-conformal: ``H_2`` alpha-acyclic.
    v2_alpha: bool

    @property
    def strongest_class(self) -> str:
        """Name of the strongest symmetric class the graph belongs to."""
        if self.chordal_41:
            return "(4,1)-chordal"
        if self.chordal_62:
            return "(6,2)-chordal"
        if self.chordal_61:
            return "(6,1)-chordal"
        if self.v1_alpha and self.v2_alpha:
            return "V1- and V2-alpha"
        if self.v1_alpha:
            return "V1-alpha"
        if self.v2_alpha:
            return "V2-alpha"
        return "general"

    def steiner_tractable(self) -> bool:
        """Is the full Steiner problem known to be polynomial on this graph?"""
        return self.chordal_62 or self.chordal_41

    def pseudo_steiner_tractable(self, side: int) -> bool:
        """Is the pseudo-Steiner problem w.r.t. ``V_side`` known polynomial?"""
        if side == 1:
            return self.v1_alpha or self.chordal_61 or self.chordal_62 or self.chordal_41
        if side == 2:
            return self.v2_alpha or self.chordal_61 or self.chordal_62 or self.chordal_41
        raise ValueError(f"side must be 1 or 2, got {side!r}")


#: The report of a forest, (4,1)-chordal: every class holds.
FOREST_REPORT = ChordalityReport(
    chordal_41=True,
    chordal_61=True,
    chordal_62=True,
    v1_alpha=True,
    v2_alpha=True,
)

#: The report of a (6,2)-chordal graph that is not a forest.
GAMMA_REPORT = ChordalityReport(
    chordal_41=False,
    chordal_61=True,
    chordal_62=True,
    v1_alpha=True,
    v2_alpha=True,
)

#: The report of a (6,1)-chordal graph that is not (6,2)-chordal.
BETA_REPORT = ChordalityReport(
    chordal_41=False,
    chordal_61=True,
    chordal_62=False,
    v1_alpha=True,
    v2_alpha=True,
)


def classify_bipartite_graph(graph: Graph) -> ChordalityReport:
    """Return the :class:`ChordalityReport` of a bipartite graph.

    A plain :class:`Graph` is accepted as long as it is bipartite (a
    2-colouring is computed); otherwise :class:`BipartitenessError` is
    raised.

    The classification walks down the Theorem 1 hierarchy and stops at the
    first class the graph belongs to, testing ``H_2(G)`` on integer ids:

    1. a forest is (4,1)-chordal and belongs to every class;
    2. else, when Fagin's reduction empties ``H_2`` (gamma-acyclic, i.e.
       (6,2)-chordal), every class but (4,1) holds;
    3. else, when nest-point elimination removes every node of ``H_2``
       (beta-acyclic, i.e. (6,1)-chordal), the (6,1)-chordality and both
       side fields hold;
    4. only a beta-cyclic graph runs the side tests: one restricted
       maximum cardinality search per side
       (:func:`~repro.hypergraphs.reduction.running_intersection_order`),
       on ``H_2`` and on its dual ``H_1``.

    Steps 2 and 3 rest on Berge ⊂ gamma ⊂ beta ⊂ alpha and on
    beta-acyclicity being self-dual: ``H_1`` is the dual of ``H_2``, so it
    is beta-acyclic, hence alpha-acyclic, too.  Theorem 1(v)/(vi) make
    alpha-acyclicity of ``H_i`` the one fact behind ``V_i``-chordality
    plus ``V_i``-conformality, which is what step 4 decides.
    """
    if isinstance(graph, BipartiteGraph):
        bipartite = graph
    else:
        if not is_bipartite(graph):
            raise BipartitenessError("classification requires a bipartite graph")
        bipartite = BipartiteGraph.from_graph(graph)
    # a forest has fewer edges than vertices: most blocks skip the scan
    if bipartite.number_of_edges() < bipartite.number_of_vertices() and is_forest(
        bipartite
    ):
        return FOREST_REPORT
    nodes = {vertex: index for index, vertex in enumerate(bipartite.left())}
    edges = [
        [nodes[vertex] for vertex in bipartite.neighbors(hub)]
        for hub in bipartite.right()
    ]
    if gamma_reduces(len(nodes), edges):
        return GAMMA_REPORT
    if nest_point_order(len(nodes), edges) is not None:
        return BETA_REPORT
    dual: List[List[int]] = [[] for _ in nodes]
    for hub, members in enumerate(edges):
        for node in members:
            dual[node].append(hub)
    return ChordalityReport(
        chordal_41=False,
        chordal_61=False,
        chordal_62=False,
        v1_alpha=running_intersection_order(len(edges), dual) is not None,
        v2_alpha=running_intersection_order(len(nodes), edges) is not None,
    )


def chordality_class(graph: Graph) -> str:
    """Return the name of the strongest class (see :class:`ChordalityReport`)."""
    return classify_bipartite_graph(graph).strongest_class


def schema_acyclicity_degree(graph: BipartiteGraph, side: int = 2) -> str:
    """Return the acyclicity degree of the schema hypergraph ``H_side(G)``.

    Convenience bridge between the graph view and the database view: the
    answer is one of ``"berge"``, ``"gamma"``, ``"beta"``, ``"alpha"`` or
    ``"cyclic"``.
    """
    hypergraph = hypergraph_of_side(graph, side=side)
    if hypergraph.number_of_edges() == 0:
        return "berge"
    return acyclicity_degree(hypergraph)
