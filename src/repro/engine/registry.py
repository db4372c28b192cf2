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
from math import isqrt
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.engine.cache import SchemaContext
from repro.exceptions import DisconnectedTerminalsError, NotApplicableError
from repro.graphs.graph import Vertex
from repro.graphs.indexed import indexed_elimination_cover, indexed_pruned_tree, iter_bits
from repro.steiner.exact import steiner_tree_bruteforce, steiner_tree_dreyfus_wagner
from repro.steiner.heuristics import kou_markowsky_berman
from repro.steiner.problem import SteinerInstance, SteinerSolution
from repro.steiner.pseudo import pseudo_steiner_bruteforce

# spanning_tree and prune_non_terminal_leaves stay bound here although the
# solvers build their trees on ids: the per-layer tracing of
# perfbench/tracing.py patches these names
from repro.graphs.spanning import spanning_tree  # noqa: F401
from repro.steiner.problem import prune_non_terminal_leaves  # noqa: F401


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
    seed = _seed_cover(parents, terminal_ids)

    # 2. nonredundant elimination inside the seed (ascending id order)
    cover = _eliminate_within(indexed, seed, terminal_ids)

    # 3. spanning tree of the cover, built on ids, decoded once
    solution = SteinerSolution(
        tree=indexed_pruned_tree(cover, terminal_ids, context.index.labels),
        instance=instance,
        method="engine-chordal-elimination",
        optimal=context.report.steiner_tractable(),
    )
    solution.metadata["cover"] = context.index.decode_set(cover)
    return solution


def chordal_elimination_work(
    context: SchemaContext, terminals: Iterable[Vertex], limit: int
) -> Optional[int]:
    """Bound the steps of a warm :func:`solve_chordal_elimination`, without running it.

    With the root's BFS parent row already cached, the answer reads each
    seed vertex's row once and runs at most one seed-local search per
    seed vertex, each over at most the seed; so ``s * s`` plus the seed's
    degree sum, for a seed of ``s`` vertices, bounds its Python-level
    steps within a small constant factor.  Returns that bound, or
    ``None`` when it passes ``limit`` or is not known without work: a
    context not classified yet, a terminal the schema lacks, no cached
    parent row for the root (the answer would first run a BFS over the
    whole component), or terminals in different components.  Reads only,
    and stops walking the seed once it passes ``isqrt(limit)`` vertices.
    """
    ids = context.index.ids
    oracle = context._oracle
    if (
        context._report is None
        or oracle is None
        or any(t not in ids for t in terminals)
    ):
        return None
    terminal_ids = sorted(ids[t] for t in terminals)
    if not terminal_ids:
        return None
    parents = oracle.cached_parents(terminal_ids[0])
    if parents is None or any(parents[t] < 0 for t in terminal_ids):
        return None
    seed = _seed_cover(parents, terminal_ids, isqrt(limit))
    if seed is None:
        return None
    indptr = context.indexed.indptr
    work = len(seed) ** 2 + sum(indptr[v + 1] - indptr[v] for v in seed)
    return work if work <= limit else None


def _seed_cover(
    parents, terminal_ids: Sequence[int], limit: Optional[int] = None
) -> Optional[Set[int]]:
    """The union of the BFS-tree paths from each terminal to the root ``terminal_ids[0]``.

    A walk stops at the first vertex already in the seed, whose path to
    the root is in it too, so the seed costs its own size to build;
    ``None`` as soon as it would hold more than ``limit`` vertices.
    """
    cap = len(parents) if limit is None else limit
    seed = {terminal_ids[0]}
    for terminal in terminal_ids:
        current = terminal
        while current not in seed:
            if len(seed) >= cap:
                return None
            seed.add(current)
            current = parents[current]
    return seed


def _cover_tree(context: SchemaContext, cover: Set[int], terminal_ids: Sequence[int]):
    """The pruned spanning tree of a connected id cover, as a label graph."""
    row = context.indexed.row
    adjacency = {v: [u for u in row(v) if u in cover] for v in cover}
    return indexed_pruned_tree(adjacency, terminal_ids, context.index.labels)


def _eliminate_within(indexed, seed: Set[int], terminal_ids: Sequence[int]) -> Dict[int, List[int]]:
    """Drop redundant seed vertices; return the cover: each id with its cover neighbours.

    The seed is renumbered ``0 .. s - 1`` in ascending id order, so every
    vertex set is an ``s``-bit mask: work and memory scale with the seed,
    not the schema.  One ascending pass suffices for nonredundancy: a
    vertex whose removal disconnects the terminals at scan time stays
    essential as the set only shrinks, and one with at most one alive
    neighbour never disconnects the rest.
    """
    order = sorted(seed)
    local = {vertex: i for i, vertex in enumerate(order)}
    row = indexed.row
    masks = [sum(1 << local[u] for u in row(vertex) if u in local) for vertex in order]
    terminals = sum(1 << local[terminal] for terminal in terminal_ids)
    root = local[terminal_ids[0]]
    alive = (1 << len(order)) - 1
    for i, mask in enumerate(masks):
        bit = 1 << i
        if terminals & bit:
            continue
        neighbours = mask & alive
        if not neighbours & (neighbours - 1) or (
            _reached(masks, alive ^ bit, root, terminals) & terminals == terminals
        ):
            alive ^= bit
    cover = _reached(masks, alive, root)
    return {
        order[i]: [order[j] for j in iter_bits(masks[i] & cover)]
        for i in iter_bits(cover)
    }


def _reached(masks: List[int], alive: int, root: int, goal: int = -1) -> int:
    """Return the mask of the ``alive`` local vertices reachable from ``root``.

    The walk stops early once every bit of ``goal`` is reached (the
    default ``-1`` has every bit set, so it walks the whole reach).
    """
    reached = frontier = 1 << root
    while frontier and reached & goal != goal:
        neighbours = 0
        while frontier:
            low = frontier & -frontier
            neighbours |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = neighbours & alive & ~reached
        reached |= frontier
    return reached


def solve_algorithm1_indexed(
    context: SchemaContext, terminals: Iterable[Vertex], side: int = 2
) -> SteinerSolution:
    """Algorithm 1 on the indexed backend with cached Lemma 1 orderings.

    The component restriction, the Lemma 1 elimination ordering (whose
    absence is the structural precondition's failure) and the block-cut
    tree are all read from the schema context (computed once per
    component); only the Step 2 elimination runs per query, on the array
    fast lane, and only inside the plan's
    :meth:`~repro.engine.cache.SidePlan.region`: the blocks on the
    block-cut-tree paths between the terminals.

    Every simple path between two terminals stays inside those blocks, so
    each removal there matches the whole-component scan's decision, and
    that scan removes every ``V_side`` vertex outside them.  It visits only
    ``V_side`` vertices, though, so it keeps every neighbour of a surviving
    one; adding those back (a no-op when the region is the component)
    gives the same cover as
    :func:`~repro.steiner.algorithm1.pseudo_steiner_algorithm1`.
    """
    instance = SteinerInstance(context.graph, terminals)
    terminal_ids = sorted(context.index.encode(instance.terminals))
    plan = context.side_plan(side, terminal_ids[0])
    if any(t not in plan.component for t in terminal_ids):
        raise DisconnectedTerminalsError(
            "the terminals do not lie in a single connected component"
        )
    if plan.ordering is None:
        raise NotApplicableError(
            f"the component containing the terminals is not V{side}-chordal "
            f"and V{side}-conformal; Algorithm 1 does not apply"
        )
    indexed = context.indexed
    cover_ids = indexed_elimination_cover(
        indexed,
        terminal_ids,
        ordering=plan.ordering,
        removal_batches=True,
        restrict=plan.region(terminal_ids),
    )
    sides, row = indexed.sides, indexed.row
    cover_ids.update([u for v in cover_ids if sides[v] == side for u in row(v)])
    solution = SteinerSolution(
        tree=_cover_tree(context, cover_ids, terminal_ids),
        instance=instance,
        method="engine-algorithm1",
        side=side,
        optimal=True,
    )
    solution.metadata["cover"] = context.index.decode_set(cover_ids)
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
    """KMB 2-approximation on the context's ids and distance oracle.

    The metric closure reads the terminals' level rows and every closure
    edge expands along a cached parent row, so a batch whose terminal sets
    overlap pays one BFS per distinct terminal and row kind.
    """
    solution = kou_markowsky_berman(
        context.graph,
        terminals,
        indexed=context.indexed,
        index=context.index,
        oracle=context.distance_oracle,
    )
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
