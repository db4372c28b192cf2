"""Near-linear alpha-, beta- and gamma-acyclicity recognition on integer ids.

The recognisers take a hypergraph in its most compact form -- nodes
``0 .. node_count - 1`` and a sequence of edges, each an iterable of node
ids (duplicate edges allowed) -- so the Theorem 1 classifier
(:func:`repro.core.classification.classify_bipartite_graph`) and the
Algorithm 1 plans (:meth:`repro.engine.cache.SchemaContext.side_plan`) can
run them straight off a bipartite graph's adjacency, without building a
labelled :class:`~repro.hypergraphs.hypergraph.Hypergraph` first.

* :func:`gamma_reduces` -- **Fagin's reduction** for gamma-acyclicity
  (Fagin, "Degrees of acyclicity for hypergraphs and relational database
  schemes", JACM 1983; D'Atri & Moscarini, IPL 1988).  Repeatedly delete

  1. a node lying in at most one edge,
  2. an edge with at most one node,
  3. one of two equal edges,
  4. one of two *twin* nodes (nodes lying in exactly the same edges);

  the hypergraph is gamma-acyclic iff this empties it.  Every rule
  preserves gamma-(a)cyclicity in both directions, so the verdict does not
  depend on the order in which rules fire.  It replaces the ``O(|E|^3)``
  scan of :func:`~repro.hypergraphs.berge_cycles.find_gamma_triple`.
* :func:`nest_point_order` -- **nest-point elimination** for
  beta-acyclicity with a worklist: a node is a nest point when the edges
  containing it form an inclusion chain, and the hypergraph is
  beta-acyclic iff repeatedly deleting nest points deletes every node.
  Deleting a node only changes the edges that contained it, so only the
  nodes that shared one of those edges are re-tested.
* :func:`running_intersection_order` -- the **restricted maximum
  cardinality search** of Tarjan & Yannakakis (SIAM J. Comput. 13(3),
  1984) for alpha-acyclicity: the MCS edge order has the running
  intersection property iff the hypergraph is alpha-acyclic, and checking
  it against each edge's parent edge takes linear time.  The label-space
  GYO reduction and the quadratic MCS of
  :mod:`repro.hypergraphs.tarjan_yannakakis` are its references; no
  serving path runs them.

The reduction treats nodes and edges symmetrically (rules 1/2 and 3/4 are
each other's duals).  Twins and duplicates are found through Zobrist
signatures: every node and every edge owns a fixed pseudo-random
machine-word key, and every edge (node) keeps the XOR of its members' (containing
edges') keys, updated in ``O(1)`` per deletion.  A signature table files
the live items seen under each signature; a match is confirmed by set
equality before anything is deleted, so a signature collision can cost time
but never change the verdict.  A deletion re-queues only the sets it
shrank, which makes the whole reduction ``O(|N| + |E| + sum |e|)``
expected time.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Iterable, List, Optional, Sequence, Set, Tuple

#: Salt of the Zobrist keys.  Key ``i`` is ``hash((i, salt))``: tuples
#: of ints hash identically in every run (no hash randomisation) and well
#: mixed, and a collision costs at most one set comparison.
_ZOBRIST_SALT = 0x1983


def _keys(count: int) -> List[int]:
    """Return ``count`` pseudo-random keys for ids ``0 .. count - 1``."""
    return [hash((index, _ZOBRIST_SALT)) for index in range(count)]


def _incidence(
    node_count: int, edges: Sequence[Iterable[int]]
) -> Tuple[List[Set[int]], List[Set[int]]]:
    """Return ``(members, incident)``: node sets per edge, edge sets per node."""
    members = [set(edge) for edge in edges]
    incident: List[Set[int]] = [set() for _ in range(node_count)]
    for index, edge in enumerate(members):
        for node in edge:
            incident[node].add(index)
    return members, incident


class _Side:
    """The nodes or the edges of the hypergraph under reduction."""

    __slots__ = ("sets", "keys", "sigs", "alive", "left", "dirty", "seen")

    def __init__(self, sets: List[Set[int]], keys: List[int]) -> None:
        self.sets = sets  # per item: the ids of its peers on the other side
        self.keys = keys
        self.sigs = [0] * len(sets)
        self.alive = [True] * len(sets)
        self.left = len(sets)
        self.dirty = list(range(len(sets)))
        self.seen: dict = {}

    def has_twin(self, item: int) -> bool:
        """Is a live item with ``item``'s exact peer set on file?  Else file it."""
        signature = self.sigs[item]
        bucket = [
            other
            for other in self.seen.get(signature, ())
            if other != item and self.alive[other] and self.sigs[other] == signature
        ]
        if any(self.sets[other] == self.sets[item] for other in bucket):
            return True
        bucket.append(item)
        self.seen[signature] = bucket
        return False


def _drain(side: _Side, other: _Side) -> None:
    """Apply the deletion rules to every dirty item of ``side``."""
    while side.dirty:
        item = side.dirty.pop()
        if not side.alive[item]:
            continue
        peers = side.sets[item]
        if len(peers) > 1 and not side.has_twin(item):
            continue
        # at most one peer (rules 1/2) or a twin of a live item (rules 3/4)
        side.alive[item] = False
        side.left -= 1
        key = side.keys[item]
        for peer in peers:
            other.sets[peer].discard(item)
            other.sigs[peer] ^= key
            other.dirty.append(peer)
        side.sets[item] = set()


def gamma_reduces(node_count: int, edges: Sequence[Iterable[int]]) -> bool:
    """Return ``True`` when Fagin's reduction empties the hypergraph.

    That is, when the hypergraph on nodes ``0 .. node_count - 1`` with the
    given edges is gamma-acyclic (see the module docstring for the rules).

    Examples
    --------
    >>> gamma_reduces(3, [{0, 1}, {1, 2}])             # a path
    True
    >>> gamma_reduces(3, [{0, 1, 2}, {0, 1}, {1, 2}])  # a gamma triple
    False
    """
    members, incident = _incidence(node_count, edges)
    keys = _keys(max(node_count, len(members)))
    nodes = _Side(incident, keys)
    hyperedges = _Side(members, keys)
    for side, other in ((nodes, hyperedges), (hyperedges, nodes)):
        for item, peers in enumerate(side.sets):
            for peer in peers:
                side.sigs[item] ^= other.keys[peer]
    while nodes.dirty or hyperedges.dirty:
        _drain(nodes, hyperedges)
        _drain(hyperedges, nodes)
    return nodes.left == 0 and hyperedges.left == 0


def _is_nest_point(members: List[Set[int]], containing: Set[int]) -> bool:
    """Do the edges in ``containing`` form an inclusion chain?"""
    chain = sorted((members[index] for index in containing), key=len)
    return all(
        smaller <= larger for smaller, larger in zip(chain, islice(chain, 1, None))
    )


def nest_point_order(
    node_count: int, edges: Sequence[Iterable[int]]
) -> Optional[List[int]]:
    """Return a nest-point elimination order of all nodes, or ``None``.

    ``None`` means the elimination got stuck: the hypergraph is
    beta-cyclic.  Removing a nest point never turns another nest point
    into a non-nest point (shrinking every edge of a chain by one node
    keeps it a chain), so the set of available nest points only grows;
    the order always removes the *smallest* available id, which makes it
    deterministic and equal to the order of the textbook loop that
    rescans every node after each removal.

    Examples
    --------
    >>> nest_point_order(3, [{0, 1}, {1, 2}])
    [0, 1, 2]
    >>> nest_point_order(3, [{0, 1}, {1, 2}, {0, 2}]) is None  # a beta cycle
    True
    """
    members, incident = _incidence(node_count, edges)
    queued = [False] * node_count
    available: List[int] = []
    for node in range(node_count):
        if _is_nest_point(members, incident[node]):
            queued[node] = True
            available.append(node)  # ascending ids: already a heap
    order: List[int] = []
    while available:
        node = heapq.heappop(available)
        order.append(node)
        touched: Set[int] = set()
        for index in incident[node]:
            edge = members[index]
            edge.discard(node)
            touched |= edge
        incident[node] = set()
        for other in touched:
            if not queued[other] and _is_nest_point(members, incident[other]):
                queued[other] = True
                heapq.heappush(available, other)
    return order if len(order) == node_count else None


def running_intersection_order(
    node_count: int, edges: Sequence[Iterable[int]]
) -> Optional[List[int]]:
    """Return the restricted-MCS order of the edges, or ``None`` when alpha-cyclic.

    The order starts with edge 0; each next edge is one with the most
    marked nodes (a node is marked once an edge containing it is in the
    order), ties going to the larger edge and then to the smaller index --
    the order :func:`~repro.hypergraphs.tarjan_yannakakis.mcs_edge_ordering`
    produces when edge labels sort like their indices.  A heap with lazy
    deletion keeps the candidates.

    The running intersection property is checked by the parent-edge rule:
    an edge's already-marked nodes must all lie in the edge that marked
    the latest of them.  By Tarjan & Yannakakis the hypergraph is
    alpha-acyclic iff every edge passes, so ``None`` is a verdict, not a
    failed heuristic.  Empty edges are allowed and come last.  Time
    ``O((|E| + sum |e|) log |E|)``.

    Examples
    --------
    >>> running_intersection_order(4, [{0, 1}, {2, 3}, {1, 2}])
    [0, 2, 1]
    >>> running_intersection_order(3, [{0, 1}, {1, 2}, {0, 2}]) is None  # a triangle
    True
    """
    members = [frozenset(edge) for edge in edges]
    if not members:
        return []
    incident: List[List[int]] = [[] for _ in range(node_count)]
    for index, edge in enumerate(members):
        for node in edge:
            incident[node].append(index)
    sizes = [len(edge) for edge in members]
    count = [0] * len(members)
    done = [False] * len(members)
    marked_at = [-1] * node_count  # the order position of the edge that marked it
    heap = [(0, -size, index) for index, size in enumerate(sizes)]
    heapq.heapify(heap)
    order: List[int] = []
    pick = 0
    while True:
        done[pick] = True
        position = len(order)
        order.append(pick)
        edge = members[pick]
        seen = [node for node in edge if marked_at[node] >= 0]
        if seen:
            parent = members[order[max(marked_at[node] for node in seen)]]
            if not parent.issuperset(seen):
                return None
        for node in edge:
            if marked_at[node] < 0:
                marked_at[node] = position
                for other in incident[node]:
                    if not done[other]:
                        count[other] += 1
                        heapq.heappush(heap, (-count[other], -sizes[other], other))
        while heap:
            negated, _, pick = heapq.heappop(heap)
            if not done[pick] and -negated == count[pick]:
                break
        else:
            return order
