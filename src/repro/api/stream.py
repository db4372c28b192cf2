"""Streaming enumeration of connections in non-decreasing size.

The paper's interactive scenario (Section 1) does not stop at the minimal
connection: when the cheapest reading is not the intended one, the system
proposes *further* connections in increasing size until the user picks.
:class:`EnumerationStream` makes that loop a first-class API object -- a
lazy, resumable iterator of :class:`~repro.api.result.ConnectionResult`
objects whose costs never decrease, with a budget knob so an interactive
front end can pull a page at a time and come back for more.

Enumeration is exhaustive over auxiliary-vertex subsets and therefore
meant for schema-sized graphs (tens of vertices), not arbitrary inputs;
the ``max_extra`` bound caps the explored auxiliary count.
"""

from __future__ import annotations

from itertools import combinations
from time import perf_counter
from typing import Iterator, List, Optional

from repro.api.request import ConnectionRequest, validate_terminals
from repro.api.result import ConnectionResult, Guarantee, Provenance
from repro.exceptions import ValidationError
from repro.graphs.graph import Graph
from repro.graphs.indexed import GraphIndex
from repro.graphs.spanning import spanning_tree
from repro.graphs.traversal import component_containing, vertices_in_same_component
from repro.steiner.problem import SteinerInstance, SteinerSolution


def _connection_solutions(
    graph: Graph, instance: SteinerInstance, max_extra: Optional[int]
) -> Iterator[SteinerSolution]:
    """Yield distinct connection trees over ``instance`` by increasing size.

    For each auxiliary count ``extra`` (ascending) every ``extra``-subset of
    the optional vertices is tested; a subset is reported only when its
    union with the terminals induces a connected subgraph using exactly the
    chosen objects (otherwise the same connection would reappear for every
    superset of its auxiliary vertices).  The first yielded tree is a
    minimum connection by construction.
    """
    terminal_set = frozenset(instance.terminals)
    if not terminal_set:
        # defense in depth: the stream validates before building this
        # generator, but a bare ``next(iter(...))`` on an empty set below
        # would surface as PEP 479's RuntimeError (or, pre-3.7, silently
        # truncate the stream) -- an explicit error keeps the failure in
        # the library's taxonomy even if a future caller skips validation
        raise ValidationError("enumeration requires a non-empty terminal set")
    root = next(iter(terminal_set))
    optional = sorted(graph.vertices() - terminal_set, key=repr)
    bound = len(optional) if max_extra is None else min(max_extra, len(optional))
    seen_vertex_sets = set()
    first = True
    for extra in range(bound + 1):
        for subset in combinations(optional, extra):
            kept = terminal_set | set(subset)
            induced = graph.subgraph(kept)
            if not vertices_in_same_component(induced, terminal_set):
                continue
            component = component_containing(induced, root)
            if frozenset(component) != frozenset(kept):
                continue
            tree = spanning_tree(induced.subgraph(component))
            key = frozenset(tree.vertices())
            if key in seen_vertex_sets:
                continue
            seen_vertex_sets.add(key)
            yield SteinerSolution(
                tree=tree,
                instance=instance,
                method="ranked-enumeration",
                optimal=first,
            )
            first = False


class EnumerationStream:
    """Lazy, resumable stream of connections in non-decreasing size.

    Iterating yields :class:`~repro.api.result.ConnectionResult` objects
    whose ``cost`` values never decrease; the first result is a minimum
    connection (``guarantee=OPTIMAL``), later results are the alternative
    readings an interactive interface would progressively disclose
    (``guarantee=HEURISTIC``: they are valid connections but not minimal).

    The stream is *budgeted* and *resumable*: when ``budget`` connections
    have been yielded, iteration pauses (``StopIteration``) but the
    underlying enumeration state is kept, so :meth:`extend_budget` followed
    by further iteration continues exactly where the stream stopped.
    :meth:`take` pulls one page of results.

    Budget-exhaustion resume semantics (the precise contract):

    * A budget pause and true exhaustion both surface as ``StopIteration``
      -- a ``for`` loop cannot tell them apart.  Inspect :attr:`paused`
      (equivalently ``budget_remaining == 0`` with :attr:`exhausted` still
      ``False``) to distinguish "come back with more budget" from "there
      are no further connections".  At the exact boundary -- the budget
      ran out on the last connection that exists -- :attr:`paused` is a
      false positive (the stream has not yet *attempted* the next
      connection, so it cannot know none remains); the next pull after
      :meth:`extend_budget` settles it by flipping :attr:`exhausted`.
    * :meth:`extend_budget` re-arms a paused stream; the next ``next()``
      yields exactly the connection that would have come next -- no
      repeats, no gaps, and the non-decreasing cost order is preserved
      across the pause.  ``rank`` keeps counting from where it stopped.
    * On an unbounded stream (``budget=None``) :meth:`extend_budget` is a
      no-op, and once :attr:`exhausted` is ``True`` no amount of budget
      yields further results.
    * ``budget=0`` is valid: the stream starts paused and yields nothing
      until extended.

    With ``index`` (the schema context's
    :class:`~repro.graphs.indexed.GraphIndex`), every yielded tree is also
    numbered by its ids, which is the form the wire renders.
    """

    def __init__(
        self,
        graph: Graph,
        request: ConnectionRequest,
        *,
        index: Optional[GraphIndex] = None,
        instance_class: str,
        cache_hit: bool,
        budget: Optional[int] = None,
        max_extra: Optional[int] = None,
    ) -> None:
        if budget is not None and budget < 0:
            raise ValidationError("budget must be non-negative")
        if max_extra is not None and max_extra < 0:
            raise ValidationError("max_extra must be non-negative")
        # degenerate terminal sets fail here, eagerly and explicitly --
        # never from inside the lazy generator: an empty query must not
        # surface as a silent empty stream or a PEP 479 RuntimeError.
        # (A single terminal is valid: the stream opens with the trivial
        # one-vertex connection, rank 1 OPTIMAL, then the supersets.)
        validate_terminals(graph, request.terminals)
        self._request = request
        self._instance = SteinerInstance(graph, request.terminals)
        self._instance.require_feasible()
        self._generator = _connection_solutions(graph, self._instance, max_extra)
        self._index = index
        self._instance_class = instance_class
        self._cache_hit = cache_hit
        self._budget = budget
        self._yielded = 0
        self._exhausted = False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def request(self) -> ConnectionRequest:
        """The request this stream enumerates for."""
        return self._request

    @property
    def yielded(self) -> int:
        """How many connections the stream has produced so far."""
        return self._yielded

    @property
    def budget_remaining(self) -> Optional[int]:
        """Connections left before the stream pauses (``None`` = unbounded)."""
        if self._budget is None:
            return None
        return max(0, self._budget - self._yielded)

    @property
    def exhausted(self) -> bool:
        """``True`` once the enumeration itself (not just the budget) ran dry."""
        return self._exhausted

    @property
    def paused(self) -> bool:
        """``True`` when the stream stopped on budget, not (known) exhaustion.

        A paused stream resumes after :meth:`extend_budget`; an exhausted
        one never yields again.  ``StopIteration`` alone cannot tell the
        two apart -- this flag can, with one caveat: when the budget runs
        out on the very last existing connection, the stream has not yet
        attempted the next one, so ``paused`` stays ``True`` until a pull
        after :meth:`extend_budget` discovers the well is dry.
        """
        return (
            not self._exhausted
            and self._budget is not None
            and self._yielded >= self._budget
        )

    def extend_budget(self, extra: int) -> None:
        """Allow ``extra`` more connections, resuming a budget-paused stream."""
        if extra < 0:
            raise ValidationError("extra must be non-negative")
        if self._budget is not None:
            self._budget += extra

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def __iter__(self) -> "EnumerationStream":
        return self

    def __next__(self) -> ConnectionResult:
        if self._exhausted:
            raise StopIteration
        if self._budget is not None and self._yielded >= self._budget:
            raise StopIteration
        start = perf_counter()
        try:
            solution = next(self._generator)
        except StopIteration:
            self._exhausted = True
            raise
        self._yielded += 1
        if self._index is not None:
            solution.index_on(self._index)
        provenance = Provenance(
            solver="ranked-enumeration",
            instance_class=self._instance_class,
            plan="exhaustive subset enumeration in non-decreasing connection size",
            cache_hit=self._cache_hit,
            wall_time_ms=(perf_counter() - start) * 1000.0,
            tags=dict(self._request.tags),
        )
        return ConnectionResult(
            request=self._request,
            solution=solution,
            guarantee=Guarantee.OPTIMAL if solution.optimal else Guarantee.HEURISTIC,
            provenance=provenance,
            rank=self._yielded,
        )

    def take(self, count: int) -> List[ConnectionResult]:
        """Return up to ``count`` further connections (a page of results)."""
        page: List[ConnectionResult] = []
        for _ in range(count):
            try:
                page.append(next(self))
            except StopIteration:
                break
        return page
