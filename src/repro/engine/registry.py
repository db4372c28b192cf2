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
*original* hashable-vertex schema graph.  The id solvers hand it over on
the context's ids (its label tree and its cover decode on first read);
:meth:`~repro.engine.batch.InterpretationEngine.execute_plan` numbers the
label trees of the others by the same ids.  Custom solvers can be
registered to experiment with alternative strategies without touching the
planner.
"""

from __future__ import annotations

from enum import Enum
from math import isqrt
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.engine.cache import SchemaContext, SidePlan
from repro.exceptions import DisconnectedTerminalsError, NotApplicableError
from repro.graphs.graph import Vertex
from repro.graphs.indexed import indexed_pruned_tree, iter_bits
from repro.steiner.exact import steiner_tree_bruteforce, steiner_tree_dreyfus_wagner
from repro.steiner.heuristics import kou_markowsky_berman
from repro.steiner.problem import OnIds, SteinerInstance, SteinerSolution
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

    # 3. spanning tree of the cover, on ids (labels decode on first read)
    solution = SteinerSolution(
        ids=indexed_pruned_tree(cover, terminal_ids),
        index=context.index,
        instance=instance,
        method="engine-chordal-elimination",
        optimal=context.report.steiner_tractable(),
    )
    solution.metadata["cover"] = OnIds(cover, set)
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
    """The pruned spanning tree of a connected id cover, on ids."""
    row = context.indexed.row
    adjacency = {v: [u for u in row(v) if u in cover] for v in cover}
    return indexed_pruned_tree(adjacency, terminal_ids)


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
    """Algorithm 1 on ids, with cached Lemma 1 orderings and Step 2 block by block.

    The component restriction, the Lemma 1 elimination ordering (whose
    absence is the structural precondition's failure) and the block-cut
    tree are all read from the schema context (computed once per
    component); only Step 2 runs per query.  With two or more terminals it
    runs in :func:`_block_scan`, one block of the plan's
    :meth:`~repro.engine.cache.SidePlan.region` at a time; with one it has
    a closed form (:func:`_lone_terminal_cover`).

    Every simple path between two terminals stays inside the region, so
    each removal there matches the whole-component scan's decision, and
    that scan removes every ``V_side`` vertex outside it.  It visits only
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
    if len(terminal_ids) == 1:
        cover_ids = _lone_terminal_cover(plan.ordering, indexed, terminal_ids[0], side)
    else:
        cover_ids = _block_scan(plan, indexed, terminal_ids)
    sides, row = indexed.sides, indexed.row
    cover_ids.update([u for v in cover_ids if sides[v] == side for u in row(v)])
    solution = SteinerSolution(
        ids=_cover_tree(context, cover_ids, terminal_ids),
        index=context.index,
        instance=instance,
        method="engine-algorithm1",
        side=side,
        optimal=True,
    )
    solution.metadata["cover"] = OnIds(cover_ids, set)
    solution.metadata["ordering"] = plan.ordering_ids
    return solution


def _block_scan(plan: SidePlan, indexed, terminal_ids: Sequence[int]) -> Set[int]:
    """Step 2 of Algorithm 1 for two or more terminals, each removal decided in one block.

    Equal to ``indexed_elimination_cover(indexed, terminal_ids,
    ordering=plan.ordering, removal_batches=True,
    restrict=plan.region(terminal_ids))``, the scan of the region the
    blocks on the block-cut-tree paths between the terminals span.  Let
    ``S`` be the nodes on those paths.  The *ports* of a block of ``S``
    are its terminals and its vertices whose cut node is in ``S``.  Every
    leaf of ``S`` is a terminal's node, so every block of ``S`` has two
    ports or more, and every branch at a cut node of ``S`` holds a
    terminal.  The scan walks ``plan.ordering``:

    * a port is kept: removing it would cut two of those branches apart;
    * any other candidate lies in exactly one block ``B`` of ``S``; its
      batch (it and the alive neighbours whose only alive neighbour it is)
      is read from ``B``'s masks and kept whole if it holds a port;
    * otherwise the batch goes exactly when ``B``'s ports stay connected
      inside ``B``'s alive vertices.  A first search asks whether the
      candidate's neighbours outside the batch stay connected to each
      other: every piece the removal could cut off holds one of them, so
      then the ports stay connected too.  Only when that fails does a
      search from a port decide.

    That is the region scan.  A simple terminal-terminal path meets ``B``
    only between two ports, and a path that leaves ``B`` comes back
    through the same cut vertex, so "the terminals stay connected" and
    "``B``'s ports stay connected inside ``B``" are one test.  A cut-vertex
    port keeps an alive neighbour in its other block of ``S`` (its branch
    there holds a terminal), so the region scan never lists it in a
    batch, and a block batch that holds one would cut it off from ``B``'s
    other ports: both scans keep it.  The cover is, per block of ``S``,
    the alive vertices connected to its ports.
    """
    tree = plan.blocks
    nodes = tree.spanned_nodes(terminal_ids)
    node_of = tree.node_of
    terminal_set = set(terminal_ids)
    blocks: List[int] = []  # block nodes of S, by slot
    ports: List[int] = []  # each slot's port mask
    where: Dict[int, Tuple[int, int]] = {}  # candidate -> (slot, bit index)
    for node in nodes:
        members = tree.members[node]
        if not members:
            continue  # a cut node
        slot, mask = len(blocks), 0
        for i, vertex in enumerate(members):
            home = node_of[vertex]
            if vertex in terminal_set or (home != node and home in nodes):
                mask |= 1 << i
            else:
                where[vertex] = (slot, i)
        blocks.append(node)
        ports.append(mask)
    full = [(1 << len(tree.members[node])) - 1 for node in blocks]
    alive = full[:]
    masks_of: List[Optional[List[int]]] = [None] * len(blocks)
    for vertex in plan.ordering:
        hit = where.get(vertex)
        if hit is None:
            continue
        slot, i = hit
        masks = masks_of[slot]
        if masks is None:
            masks = masks_of[slot] = tree.block_masks(blocks[slot], indexed.row)
        bit, live, goal = 1 << i, alive[slot], ports[slot]
        if not live & bit:
            continue  # went in an earlier batch
        batch = bit
        for j in iter_bits(masks[i] & live):
            if masks[j] & live == bit:
                batch |= 1 << j
        if batch & goal:
            continue
        rest = live ^ batch
        left = masks[i] & rest  # the candidate's neighbours that stay
        if (
            not left
            or _reached(masks, rest, _low(left), left) & left == left
            or _reached(masks, rest, _low(goal), goal) & goal == goal
        ):
            alive[slot] = rest
    cover: Set[int] = set()
    for slot, node in enumerate(blocks):
        members, live = tree.members[node], alive[slot]
        if live == full[slot]:
            cover.update(members)
            continue
        live = _reached(masks_of[slot], live, _low(ports[slot]))
        cover.update(members[i] for i in iter_bits(live))
    return cover


def _low(mask: int) -> int:
    """Return the index of the lowest set bit of a nonzero ``mask``."""
    return (mask & -mask).bit_length() - 1


def _lone_terminal_cover(
    ordering: Sequence[int], indexed, terminal: int, side: int
) -> Set[int]:
    """Algorithm 1's cover for one terminal ``t``, in closed form.

    ``{t}`` plus its neighbours when ``t`` is a ``V_side`` vertex;
    otherwise ``{t, h}`` plus the neighbours of ``h``, the last
    neighbour of ``t`` in ``ordering``; ``{t}`` when ``t`` has none.
    This is the whole-component scan with the add-back step.  With one
    terminal every connectivity test holds, so the scan removes each
    ``V_side`` candidate with its batch unless the batch holds ``t``:

    * ``t`` in ``V_side``: no batch holds ``t`` (no candidate is its
      neighbour), so every other ``V_side`` vertex goes; each neighbour of
      ``t`` keeps the alive neighbour ``t``, so none is in a batch.  The
      terminal's component is ``t`` with its neighbours.
    * ``t`` in ``V_other``: a batch holds ``t`` exactly when its candidate
      is ``t``'s only alive neighbour.  Every neighbour of ``t`` before
      ``h`` in the ordering goes, since ``h`` is still alive beside it;
      ``h``'s batch holds ``t``, so ``h`` stays, and so does each of its
      neighbours, which keeps the alive neighbour ``h``.  Every other
      ``V_side`` vertex goes, and the component is ``h`` with its
      neighbours, ``t`` among them.

    Either way every ``V_side`` vertex of the component is ``t`` or ``h``,
    whose neighbours are all in it, so the add-back adds nothing.
    """
    row = indexed.row
    hub: Optional[int] = terminal
    if indexed.sides[terminal] != side:
        neighbours = set(row(terminal))
        hub = next((v for v in reversed(ordering) if v in neighbours), None)
        if hub is None:
            return {terminal}
    return {terminal, hub, *row(hub)}


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
