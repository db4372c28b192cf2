"""Maximum cardinality search on hypergraphs (Tarjan & Yannakakis, 1984).

The paper's Algorithm 1 (Theorem 3) needs an ordering of the vertices of
one side of the bipartite graph -- equivalently of the hyperedges of the
associated alpha-acyclic hypergraph -- that satisfies the two properties of
Lemma 1 (connected suffixes + a suffix running-intersection property).
Theorem 4 obtains it from the *restricted maximum cardinality search* of
Tarjan and Yannakakis and then reverses the produced ordering.

This module implements:

* :func:`mcs_edge_ordering` -- the maximum-cardinality-search ordering of
  the hyperedges ("restricted MCS"): repeatedly pick the edge containing
  the largest number of already-marked nodes, then mark its nodes;
* :func:`satisfies_running_intersection` -- check the (prefix) running
  intersection property of an edge ordering;
* :func:`running_intersection_ordering` -- an MCS ordering validated
  against the running intersection property (the classical linear-time
  alpha-acyclicity test, implemented here in straightforward quadratic
  form);
* :func:`is_alpha_acyclic_mcs` -- alpha-acyclicity via the above.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.hypergraphs.hypergraph import EdgeLabel, Hypergraph, Node


def mcs_edge_ordering(
    hypergraph: Hypergraph, start: Optional[EdgeLabel] = None
) -> List[EdgeLabel]:
    """Return a maximum-cardinality-search ordering of the hyperedges.

    Starting from ``start`` (or the lexicographically smallest label), the
    next edge is always one that shares the largest number of nodes with
    the union of the already-chosen edges; ties are broken first by larger
    edge size and then lexicographically, which keeps the output
    deterministic.  Edges sharing no node with the current union are only
    chosen when no other option remains (new connected component).
    """
    labels = hypergraph.edge_labels()
    if not labels:
        return []
    if start is None:
        start = labels[0]
    if not hypergraph.has_edge_label(start):
        raise ValueError(f"unknown start edge {start!r}")
    ordering = [start]
    chosen = {start}
    marked: Set[Node] = set(hypergraph.edge(start))
    # the lexicographic tie-break depends on the label alone: one key each
    reverse_reprs = {label: _reverse_repr(label) for label in labels}
    while len(ordering) < len(labels):
        best_label = None
        best_key = None
        for label in labels:
            if label in chosen:
                continue
            members = hypergraph.edge(label)
            key = (len(members & marked), len(members), reverse_reprs[label])
            if best_key is None or key > best_key:
                best_key = key
                best_label = label
        ordering.append(best_label)
        chosen.add(best_label)
        marked |= hypergraph.edge(best_label)
    return ordering


def _reverse_repr(label: EdgeLabel) -> Tuple[int, ...]:
    """Key that makes *smaller* reprs win inside a max() comparison.

    The sentinel ``1`` lies above every negated code point, so a repr wins
    over every longer repr it is a prefix of (``1`` over ``10``), exactly
    as in string order.
    """
    return tuple(-ord(ch) for ch in repr(label)) + (1,)


def satisfies_running_intersection(
    hypergraph: Hypergraph, ordering: Sequence[EdgeLabel]
) -> bool:
    """Check the (prefix) running intersection property of an edge ordering.

    The ordering ``e_1, ..., e_q`` satisfies the property when for every
    ``i >= 2`` there is a ``j < i`` with
    ``e_i ∩ (e_1 ∪ ... ∪ e_{i-1}) ⊆ e_j``.
    """
    ordering = list(ordering)
    if set(ordering) != set(hypergraph.edge_labels()) or len(ordering) != len(
        hypergraph.edge_labels()
    ):
        raise ValueError("ordering must list every hyperedge exactly once")
    union: Set[Node] = set()
    for index, label in enumerate(ordering):
        members = hypergraph.edge(label)
        if index > 0:
            intersection = members & union
            if intersection and not any(
                intersection <= hypergraph.edge(ordering[j]) for j in range(index)
            ):
                return False
            if not intersection:
                # a new connected component is acceptable; nothing to check
                pass
        union |= members
    return True


def running_intersection_ordering(
    hypergraph: Hypergraph,
) -> Optional[List[EdgeLabel]]:
    """Return an edge ordering with the running intersection property, or ``None``.

    For alpha-acyclic hypergraphs the maximum cardinality search ordering
    always works (Tarjan & Yannakakis); for cyclic ones no ordering exists,
    so ``None`` is returned after the MCS candidate fails.
    """
    ordering = mcs_edge_ordering(hypergraph)
    if not ordering:
        return []
    if satisfies_running_intersection(hypergraph, ordering):
        return ordering
    return None


def is_alpha_acyclic_mcs(hypergraph: Hypergraph) -> bool:
    """Alpha-acyclicity via maximum cardinality search + RIP validation."""
    if hypergraph.number_of_edges() == 0:
        return True
    return running_intersection_ordering(hypergraph) is not None


def reverse_running_intersection_ordering(
    hypergraph: Hypergraph,
) -> Optional[List[EdgeLabel]]:
    """Return an ordering satisfying the paper's *suffix* formulation.

    Lemma 1 / Theorem 4 use the reversed convention: for every ``i`` there
    is ``j_i > i`` with ``e_i ∩ (e_{i+1} ∪ ... ∪ e_q) ⊆ e_{j_i}``.  This is
    simply the reverse of a prefix running-intersection ordering.
    """
    ordering = running_intersection_ordering(hypergraph)
    if ordering is None:
        return None
    return list(reversed(ordering))


def satisfies_suffix_running_intersection(
    hypergraph: Hypergraph, ordering: Sequence[EdgeLabel]
) -> bool:
    """Check the suffix running-intersection property used by Lemma 1."""
    return satisfies_running_intersection(hypergraph, list(reversed(list(ordering))))
