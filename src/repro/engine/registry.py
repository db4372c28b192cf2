"""Solver registry: instance classes and the solvers registered for them.

The paper attaches a different algorithmic status to each chordality
class; the engine mirrors that table as a registry mapping *instance
classes* to named solver callables:

==================  ====================================================
instance class      default solvers
==================  ====================================================
``chordal``         ``chordal-elimination`` (Lemma 5 fast lane, exact)
``side-chordal``    ``algorithm1-indexed`` (Lemma 1 ordering, exact)
``general``         ``dreyfus-wagner`` / ``bruteforce`` (exact, small),
                    ``kmb`` (2-approximation, any size)
==================  ====================================================

Every solver takes ``(context, terminals)`` (plus ``side`` for the
pseudo-Steiner ones), where ``context`` is a cached
:class:`~repro.engine.cache.SchemaContext`, and returns a
:class:`~repro.steiner.problem.SteinerSolution` whose tree lives on the
*original* hashable-vertex schema graph -- the indexed backend is an
internal fast lane, never visible in results.  Custom solvers can be
registered to experiment with alternative strategies without touching the
planner.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.engine.cache import SchemaContext
from repro.exceptions import DisconnectedTerminalsError, NotApplicableError
from repro.graphs.graph import Vertex
from repro.graphs.indexed import indexed_elimination_cover, iter_bits
from repro.graphs.spanning import spanning_tree
from repro.steiner.exact import steiner_tree_bruteforce, steiner_tree_dreyfus_wagner
from repro.steiner.heuristics import kou_markowsky_berman
from repro.steiner.problem import (
    SteinerInstance,
    SteinerSolution,
    prune_non_terminal_leaves,
)
from repro.steiner.pseudo import pseudo_steiner_bruteforce


class InstanceClass(Enum):
    """The engine's coarse view of the paper's class hierarchy."""

    CHORDAL = "chordal"  # (4,1)- or (6,2)-chordal: Steiner in P (Lemma 5)
    SIDE_CHORDAL = "side-chordal"  # V_i-chordal + conformal: pseudo-Steiner in P
    GENERAL = "general"  # no polynomial guarantee applies


Solver = Callable[..., SteinerSolution]


class SolverRegistry:
    """Named solver callables, with the class table used by the planner."""

    def __init__(self) -> None:
        self._solvers: Dict[str, Solver] = {}
        self._objectives: Dict[str, Sequence[str]] = {}

    def register(
        self, name: str, solver: Solver, objectives: Optional[Sequence[str]] = None
    ) -> None:
        """Register ``solver`` under ``name`` (overwrites silently).

        ``objectives`` declares which objective(s) the solver actually
        optimises (``"steiner"`` and/or ``"side"``); the service façade
        refuses explicit-solver requests whose objective is not declared,
        because the result's ``optimal`` flag would certify the wrong
        quantity.  ``None`` (the default for custom solvers) means
        "undeclared": no compatibility check is enforced, and any prior
        declaration for the name is *kept* -- re-registering a wrapped
        stock solver must not silently disable the objective guard.
        """
        self._solvers[name] = solver
        if objectives is not None:
            self._objectives[name] = tuple(objectives)

    def objectives_of(self, name: str) -> Optional[Sequence[str]]:
        """Return the declared objectives for ``name`` (``None`` = undeclared)."""
        return self._objectives.get(name)

    def get(self, name: str) -> Solver:
        """Return the solver registered under ``name``."""
        try:
            return self._solvers[name]
        except KeyError:
            raise KeyError(f"no solver registered under {name!r}") from None

    def names(self) -> List[str]:
        """Return the registered solver names (sorted)."""
        return sorted(self._solvers)

    def __contains__(self, name: str) -> bool:
        return name in self._solvers


# ----------------------------------------------------------------------
# solver implementations
# ----------------------------------------------------------------------
def solve_chordal_elimination(context: SchemaContext, terminals: Iterable[Vertex]) -> SteinerSolution:
    """Exact Steiner trees on (6,2)-chordal schemas via Lemma 5.

    Lemma 5 guarantees that *every* nonredundant cover is minimum, so the
    solver may start from any cover and eliminate down to nonredundancy:

    1. seed with the union of BFS shortest paths from one terminal to the
       others (one indexed BFS, a connected cover);
    2. greedily drop redundant vertices of the seed (bitset connectivity
       checks inside the small seed set only);
    3. return a spanning tree of the surviving cover.

    The per-query cost is ``O(|V| + |A|)`` plus work proportional to the
    seed size -- independent of the number of vertices eliminated, which is
    what makes the batched path scale where the full elimination scan of
    Algorithm 2 does not.  The objective value always matches Algorithm 2's
    (both are minimum by Lemma 5); tie-breaking may choose a different,
    equally small cover.
    """
    instance = SteinerInstance(context.graph, terminals)
    terminal_ids = sorted(context.index.encode(instance.terminals))
    indexed = context.indexed
    root = terminal_ids[0]
    # the oracle caches the parent row per root across queries: a batch
    # whose terminal sets overlap pays one BFS per distinct root, not one
    # per query (the rows carry bfs_parents' exact tie-break semantics,
    # so the seeded covers -- and the returned trees -- are unchanged)
    parents = context.distance_oracle.parents(root)
    if any(parents[t] < 0 for t in terminal_ids):
        raise DisconnectedTerminalsError(
            "the terminals do not lie in a single connected component"
        )

    # 1. seed cover: union of BFS shortest paths root -> terminal
    seed: Set[int] = set(terminal_ids)
    for terminal in terminal_ids:
        current = terminal
        while current != root:
            current = parents[current]
            seed.add(current)

    # 2. nonredundant elimination inside the seed (ascending id order)
    cover = _eliminate_within(indexed, seed, terminal_ids)

    # 3. spanning tree of the cover, mapped back to the original labels
    labels = context.index.decode_set(cover)
    tree = spanning_tree(context.graph.subgraph(labels))
    tree = prune_non_terminal_leaves(tree, instance.terminals)
    solution = SteinerSolution(
        tree=tree,
        instance=instance,
        method="engine-chordal-elimination",
        optimal=context.report.steiner_tractable(),
    )
    solution.metadata["cover"] = set(labels)
    return solution


def _eliminate_within(indexed, seed: Set[int], terminal_ids: Sequence[int]) -> Set[int]:
    """Drop redundant seed vertices; return the terminals' component (ids).

    One ascending-id pass suffices for nonredundancy: a vertex whose
    removal disconnects the terminals at scan time stays essential as the
    set only shrinks afterwards.
    """
    bits = indexed.bits
    terminal_set = set(terminal_ids)
    root = terminal_ids[0]
    needed = len(terminal_set)
    alive_mask = 0
    for vertex in seed:
        alive_mask |= 1 << vertex
    for vertex in sorted(seed):
        if vertex in terminal_set:
            continue
        candidate_mask = alive_mask & ~(1 << vertex)
        if _mask_terminals_connected(bits, candidate_mask, root, terminal_set, needed):
            alive_mask = candidate_mask
    # terminals' component of the surviving set
    component = _mask_component(bits, alive_mask, root)
    return component


def _mask_terminals_connected(
    bits: List[int], alive_mask: int, root: int, terminal_set: Set[int], needed: int
) -> bool:
    reached = _mask_component_mask(bits, alive_mask, root)
    found = sum(1 for t in terminal_set if reached >> t & 1)
    return found == needed


def _mask_component_mask(bits: List[int], alive_mask: int, root: int) -> int:
    """Return the bitmask of the alive vertices reachable from ``root``."""
    reached = 1 << root
    frontier = reached
    while frontier:
        neighbors = 0
        for vertex in iter_bits(frontier):
            neighbors |= bits[vertex]
        frontier = neighbors & alive_mask & ~reached
        reached |= frontier
    return reached


def _mask_component(bits: List[int], alive_mask: int, root: int) -> Set[int]:
    return set(iter_bits(_mask_component_mask(bits, alive_mask, root)))


def solve_algorithm1_indexed(
    context: SchemaContext, terminals: Iterable[Vertex], side: int = 2
) -> SteinerSolution:
    """Algorithm 1 on the indexed backend with cached Lemma 1 orderings.

    The component restriction, the structural precondition and the Lemma 1
    elimination ordering are all read from the schema context (computed
    once per component); only the Step 2 elimination runs per query, on the
    array fast lane.  Produces the same cover as
    :func:`~repro.steiner.algorithm1.pseudo_steiner_algorithm1` because the
    ordering and the elimination semantics are identical.
    """
    instance = SteinerInstance(context.graph, terminals)
    terminal_ids = sorted(context.index.encode(instance.terminals))
    plan = context.side_plan(side, terminal_ids[0])
    if any(t not in plan.component for t in terminal_ids):
        raise DisconnectedTerminalsError(
            "the terminals do not lie in a single connected component"
        )
    if not plan.applicable:
        raise NotApplicableError(
            f"the component containing the terminals is not V{side}-chordal "
            f"and V{side}-conformal; Algorithm 1 does not apply"
        )
    if plan.ordering is None:
        raise NotApplicableError(
            "no running-intersection ordering exists; the associated "
            "hypergraph is not alpha-acyclic"
        )
    cover_ids = indexed_elimination_cover(
        context.indexed,
        terminal_ids,
        ordering=plan.ordering,
        removal_batches=True,
        restrict=plan.component,
    )
    labels = context.index.decode_set(cover_ids)
    tree = spanning_tree(context.graph.subgraph(labels))
    tree = prune_non_terminal_leaves(tree, instance.terminals)
    solution = SteinerSolution(
        tree=tree,
        instance=instance,
        method="engine-algorithm1",
        side=side,
        optimal=True,
    )
    solution.metadata["cover"] = set(labels)
    solution.metadata["ordering"] = context.index.decode(plan.ordering)
    return solution


def solve_dreyfus_wagner(context: SchemaContext, terminals: Iterable[Vertex]) -> SteinerSolution:
    """Exact Dreyfus-Wagner dynamic program (small terminal sets).

    Runs on the context's ids; the terminals' distance rows come from the
    cross-query distance oracle, so a batch whose terminal sets overlap
    pays one BFS per distinct terminal.
    """
    return steiner_tree_dreyfus_wagner(
        context.graph,
        terminals,
        indexed=context.indexed,
        index=context.index,
        oracle=context.distance_oracle,
    )


def solve_bruteforce(context: SchemaContext, terminals: Iterable[Vertex]) -> SteinerSolution:
    """Exhaustive subset enumeration (few optional vertices)."""
    return steiner_tree_bruteforce(context.graph, terminals)


def solve_kmb(
    context: SchemaContext, terminals: Iterable[Vertex], side: Optional[int] = None
) -> SteinerSolution:
    """KMB 2-approximation fed by the context's cached BFS rows.

    The metric closure reads only distances between terminal pairs, so
    they are read off the distance oracle's id rows; no label-space row is
    decoded or kept outside the oracle's memory budget.
    """
    terminal_list = sorted(set(terminals), key=repr)
    # validate membership first so unknown terminals raise the library's
    # ValidationError rather than a bare GraphError from the index
    SteinerInstance(context.graph, terminal_list)
    ids = context.index.encode(terminal_list)
    oracle = context.distance_oracle
    distances = {}
    for terminal, source in zip(terminal_list, ids):
        row = oracle.levels(source)
        distances[terminal] = {
            other: row[target]
            for other, target in zip(terminal_list, ids)
            if row[target] >= 0
        }
    solution = kou_markowsky_berman(context.graph, terminal_list, distances=distances)
    if side is not None:
        solution.side = side
    return solution


def solve_pseudo_bruteforce(
    context: SchemaContext, terminals: Iterable[Vertex], side: int = 2
) -> SteinerSolution:
    """Exhaustive pseudo-Steiner baseline (few optional side vertices)."""
    terminal_list = sorted(set(terminals), key=repr)
    return pseudo_steiner_bruteforce(context.graph, terminal_list, side)


def default_registry() -> SolverRegistry:
    """Return a registry populated with the stock solvers."""
    registry = SolverRegistry()
    registry.register(
        "chordal-elimination", solve_chordal_elimination, objectives=("steiner",)
    )
    registry.register(
        "algorithm1-indexed", solve_algorithm1_indexed, objectives=("side",)
    )
    registry.register("dreyfus-wagner", solve_dreyfus_wagner, objectives=("steiner",))
    registry.register("bruteforce", solve_bruteforce, objectives=("steiner",))
    registry.register("kmb", solve_kmb, objectives=("steiner", "side"))
    registry.register(
        "pseudo-bruteforce", solve_pseudo_bruteforce, objectives=("side",)
    )
    return registry
