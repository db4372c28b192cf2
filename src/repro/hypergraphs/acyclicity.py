"""Acyclicity degrees of hypergraphs: Berge, gamma, beta, alpha.

The four classical acyclicity notions form a strict hierarchy

    Berge-acyclic  ⊂  gamma-acyclic  ⊂  beta-acyclic  ⊂  alpha-acyclic,

and Theorem 1 of the paper identifies each of them with a chordality
property of the incidence bipartite graph.  For each notion this module
offers a *definitional* test (driven by the cycle searches of
:mod:`repro.hypergraphs.berge_cycles` or by Definition 7) and an
*efficient* test; the test-suite cross-validates the two on random
hypergraphs, which protects the rest of the library against a subtle
mistake in either implementation.

Efficient tests
---------------
* **Berge**: a hypergraph has no Berge cycle iff its incidence bipartite
  graph is a forest and no two edges share two nodes (the forest check
  subsumes this).
* **beta**: nest-point elimination.  A node is a *nest point* when the
  edges containing it form a chain under inclusion; a hypergraph is
  beta-acyclic iff repeatedly deleting nest points (dropping emptied
  edges) erases every node.  The elimination runs on integer ids with a
  worklist (:func:`repro.hypergraphs.reduction.nest_point_order`).
* **gamma**: Fagin's reduction rules
  (:func:`repro.hypergraphs.reduction.gamma_reduces`), near-linear.  The
  ``"pattern"`` method -- beta-acyclicity plus the ``O(|E|^3)`` scan for
  the length-3 gamma pattern of Definition 6 -- is kept as an independent
  reference for the test-suite.
* **alpha**: GYO reduction, or equivalently maximum cardinality search +
  running intersection (Tarjan & Yannakakis), or the definitional
  "chordal primal graph and conformal" of Definition 7.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.hypergraphs.berge_cycles import (
    find_berge_cycle,
    find_beta_cycle,
    find_gamma_cycle,
    find_gamma_triple,
)
from repro.hypergraphs.conformality import is_conformal
from repro.hypergraphs.conversions import incidence_graph, primal_graph
from repro.hypergraphs.gyo import is_alpha_acyclic_gyo
from repro.hypergraphs.hypergraph import Hypergraph, Node
from repro.hypergraphs.reduction import gamma_reduces, nest_point_order
from repro.hypergraphs.tarjan_yannakakis import is_alpha_acyclic_mcs

DEGREES = ("berge", "gamma", "beta", "alpha", "cyclic")


# ----------------------------------------------------------------------
# Berge acyclicity
# ----------------------------------------------------------------------
def is_berge_acyclic(hypergraph: Hypergraph, method: str = "incidence") -> bool:
    """Return ``True`` when the hypergraph has no Berge cycle.

    ``method`` is ``"incidence"`` (linear: the incidence graph must be a
    forest) or ``"search"`` (definitional cycle search).
    """
    if method == "search":
        return find_berge_cycle(hypergraph) is None
    if method != "incidence":
        raise ValueError(f"unknown method {method!r}")
    from repro.graphs.cycles import is_forest

    if hypergraph.number_of_edges() == 0:
        return True
    return is_forest(_incidence(hypergraph))


def _incidence(hypergraph: Hypergraph):
    """Incidence graph with labels made collision-free."""
    nodes = hypergraph.nodes()
    labels = set(hypergraph.edge_labels())
    if nodes & labels:
        # rebuild with wrapped labels to avoid collisions
        safe = Hypergraph(nodes=nodes)
        for label, members in hypergraph.edge_items():
            safe.add_edge(members, label=("__edge__", label))
        hypergraph = safe
    return incidence_graph(hypergraph)


# ----------------------------------------------------------------------
# beta acyclicity
# ----------------------------------------------------------------------
def is_nest_point(hypergraph: Hypergraph, node: Node) -> bool:
    """Return ``True`` when the edges containing ``node`` form an inclusion chain."""
    containing = [hypergraph.edge(label) for label in hypergraph.edges_containing(node)]
    containing.sort(key=len)
    for first, second in zip(containing, containing[1:]):
        if not first <= second:
            return False
    return True


def _on_ids(hypergraph: Hypergraph) -> Tuple[List[Node], List[List[int]]]:
    """Return ``(nodes, edges)``: repr-sorted nodes and edges as id lists."""
    nodes = sorted(hypergraph.nodes(), key=repr)
    ids = {node: index for index, node in enumerate(nodes)}
    return nodes, [[ids[node] for node in members] for members in hypergraph.edges()]


def nest_point_elimination_order(hypergraph: Hypergraph) -> Optional[List[Node]]:
    """Return a nest-point elimination order of the nodes, or ``None``.

    The order removes one nest point at a time (a greedy choice is safe:
    removing a nest point never destroys beta-acyclicity, and in a
    beta-acyclic hypergraph a nest point always exists), always the
    repr-smallest one available, isolated nodes included.  ``None`` is
    returned when the process gets stuck, i.e. the hypergraph is
    beta-cyclic.
    """
    nodes, edges = _on_ids(hypergraph)
    order = nest_point_order(len(nodes), edges)
    if order is None:
        return None
    return [nodes[index] for index in order]


def is_beta_acyclic(hypergraph: Hypergraph, method: str = "nest") -> bool:
    """Return ``True`` when the hypergraph has no beta cycle.

    ``method`` is ``"nest"`` (nest-point elimination, polynomial) or
    ``"search"`` (definitional beta-cycle search, exponential).
    """
    if method == "search":
        return find_beta_cycle(hypergraph) is None
    if method != "nest":
        raise ValueError(f"unknown method {method!r}")
    return nest_point_elimination_order(hypergraph) is not None


# ----------------------------------------------------------------------
# gamma acyclicity
# ----------------------------------------------------------------------
def is_gamma_acyclic(hypergraph: Hypergraph, method: str = "reduction") -> bool:
    """Return ``True`` when the hypergraph has no gamma cycle.

    ``method`` is ``"reduction"`` (Fagin's reduction rules, near-linear),
    ``"pattern"`` (beta-acyclicity via nest points plus the cubic scan for
    the length-3 gamma pattern) or ``"search"`` (definitional gamma-cycle
    search).
    """
    if method == "reduction":
        nodes, edges = _on_ids(hypergraph)
        return gamma_reduces(len(nodes), edges)
    if method == "search":
        return find_gamma_cycle(hypergraph) is None
    if method != "pattern":
        raise ValueError(f"unknown method {method!r}")
    if find_gamma_triple(hypergraph) is not None:
        return False
    return is_beta_acyclic(hypergraph, method="nest")


# ----------------------------------------------------------------------
# alpha acyclicity
# ----------------------------------------------------------------------
def is_alpha_acyclic(hypergraph: Hypergraph, method: str = "gyo") -> bool:
    """Return ``True`` when the hypergraph is alpha-acyclic.

    ``method``:

    * ``"gyo"`` -- GYO reduction (default);
    * ``"mcs"`` -- maximum cardinality search + running intersection;
    * ``"definition"`` -- Definition 7: chordal primal graph + conformal.
    """
    if method == "gyo":
        return is_alpha_acyclic_gyo(hypergraph)
    if method == "mcs":
        return is_alpha_acyclic_mcs(hypergraph)
    if method == "definition":
        from repro.chordality.chordal import is_chordal

        return is_chordal(primal_graph(hypergraph)) and is_conformal(
            hypergraph, method="cliques"
        )
    raise ValueError(f"unknown method {method!r}")


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------
def acyclicity_degree(hypergraph: Hypergraph) -> str:
    """Return the strongest acyclicity degree satisfied by the hypergraph.

    The result is one of ``"berge"``, ``"gamma"``, ``"beta"``, ``"alpha"``
    or ``"cyclic"`` (meaning not even alpha-acyclic).  The hierarchy is
    checked from the strongest notion downwards.
    """
    if is_berge_acyclic(hypergraph):
        return "berge"
    if is_gamma_acyclic(hypergraph):
        return "gamma"
    if is_beta_acyclic(hypergraph):
        return "beta"
    if is_alpha_acyclic(hypergraph):
        return "alpha"
    return "cyclic"


def satisfies_degree(hypergraph: Hypergraph, degree: str) -> bool:
    """Return ``True`` when the hypergraph is at least ``degree``-acyclic."""
    if degree not in DEGREES:
        raise ValueError(f"unknown acyclicity degree {degree!r}")
    if degree == "cyclic":
        return True
    checks = {
        "berge": is_berge_acyclic,
        "gamma": is_gamma_acyclic,
        "beta": is_beta_acyclic,
        "alpha": is_alpha_acyclic,
    }
    return checks[degree](hypergraph)
