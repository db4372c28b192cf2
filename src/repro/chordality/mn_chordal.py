"""``(m, n)``-chordality of graphs (Definition 4).

A graph is ``(m, n)``-chordal when every cycle with at least ``m`` vertices
has at least ``n`` chords.  The paper only needs even ``m`` on bipartite
graphs and uses three members of the family:

* ``(4, 1)``-chordal   = chordal; for bipartite graphs this means *acyclic*;
* ``(6, 1)``-chordal   = "chordal bipartite" for bipartite graphs;
* ``(6, 2)``-chordal   = every cycle of length >= 6 has at least two chords.

Two flavours of test are provided:

* the **definitional** check :func:`is_mn_chordal`, which enumerates simple
  cycles and counts chords (exponential, used as ground truth on small and
  medium instances);
* **efficient specialised tests** for the three classes above, routed
  through Theorem 1: acyclicity for (4,1), beta-acyclicity of the
  associated hypergraph (nest-point elimination) for (6,1),
  gamma-acyclicity (Fagin's reduction) for (6,2).  The test-suite
  validates the specialised tests against the definitional one.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import BipartitenessError
from repro.graphs.bipartite import BipartiteGraph, is_bipartite
from repro.graphs.cycles import find_cycle_with_few_chords, is_forest
from repro.graphs.graph import Graph
from repro.hypergraphs.acyclicity import is_beta_acyclic, is_gamma_acyclic
from repro.hypergraphs.conversions import hypergraph_of_side


def is_mn_chordal(
    graph: Graph, m: int, n: int, max_cycle_length: Optional[int] = None
) -> bool:
    """Definitional ``(m, n)``-chordality by cycle enumeration.

    Parameters
    ----------
    m:
        Minimum cycle length (number of vertices) to which the requirement
        applies; must be at least 4.
    n:
        Minimum number of chords required of such cycles; at least 1.
    max_cycle_length:
        Optional cap on the explored cycle length -- only pass this when a
        structural argument guarantees longer cycles cannot be the only
        violators (the library itself never relies on a cap).

    Notes
    -----
    Cycle enumeration is exponential; this function is meant for ground
    truth on instances with up to a few dozen vertices.
    """
    if m < 4:
        raise ValueError("m must be at least 4")
    if n < 1:
        raise ValueError("n must be at least 1")
    witness = find_cycle_with_few_chords(
        graph, min_length=m, max_chords=n - 1, max_length=max_cycle_length
    )
    return witness is None


def _require_bipartite(graph: Graph) -> BipartiteGraph:
    if isinstance(graph, BipartiteGraph):
        return graph
    if not is_bipartite(graph):
        raise BipartitenessError("this chordality test requires a bipartite graph")
    return BipartiteGraph.from_graph(graph)


def is_41_chordal_bipartite(graph: Graph) -> bool:
    """Efficient (4,1)-chordality test for bipartite graphs.

    A bipartite graph contains no triangles, so a chord of a 4-cycle is
    impossible and (4,1)-chordality is equivalent to acyclicity (the paper
    notes this right after Theorem 1(i)).
    """
    _require_bipartite(graph)
    return is_forest(graph)


def is_61_chordal_bipartite(graph: Graph, method: str = "beta") -> bool:
    """(6,1)-chordality ("chordal bipartite") test.

    ``method="beta"`` routes through Theorem 1(iii): the graph is
    (6,1)-chordal iff its associated hypergraph is beta-acyclic, tested by
    nest-point elimination in polynomial time.  ``method="cycles"`` runs the
    definitional check.
    """
    bipartite = _require_bipartite(graph)
    if method == "cycles":
        return is_mn_chordal(bipartite, 6, 1)
    if method != "beta":
        raise ValueError(f"unknown method {method!r}")
    if bipartite.number_of_edges() == 0:
        return True
    hypergraph = hypergraph_of_side(bipartite, side=2)
    if hypergraph.number_of_edges() == 0:
        return True
    return is_beta_acyclic(hypergraph, method="nest")


def is_62_chordal_bipartite(graph: Graph, method: str = "gamma") -> bool:
    """(6,2)-chordality test.

    ``method="gamma"`` routes through Theorem 1(ii): the graph is
    (6,2)-chordal iff its associated hypergraph is gamma-acyclic, tested
    by Fagin's reduction rules in near-linear time.  ``method="cycles"``
    runs the definitional check.
    """
    bipartite = _require_bipartite(graph)
    if method == "cycles":
        return is_mn_chordal(bipartite, 6, 2)
    if method != "gamma":
        raise ValueError(f"unknown method {method!r}")
    if bipartite.number_of_edges() == 0:
        return True
    hypergraph = hypergraph_of_side(bipartite, side=2)
    if hypergraph.number_of_edges() == 0:
        return True
    return is_gamma_acyclic(hypergraph)


def is_chordal_bipartite(graph: Graph, method: str = "beta") -> bool:
    """Alias of :func:`is_61_chordal_bipartite` using the standard name."""
    return is_61_chordal_bipartite(graph, method=method)
