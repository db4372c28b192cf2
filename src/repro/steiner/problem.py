"""Problem and solution objects for Steiner / pseudo-Steiner computations.

Definition 8 (Steiner problem): given a graph ``G`` and a terminal set
``P``, find a subgraph ``T`` of ``G`` that is a tree containing ``P`` and
has the minimum number of vertices.

Definition 9 (pseudo-Steiner problem w.r.t. ``V_i``): same, but only the
number of ``V_i``-vertices of the tree is minimised.

The :class:`SteinerSolution` object produced by every solver in
:mod:`repro.steiner` carries the tree, the objective values and a
:meth:`SteinerSolution.validate` method that re-checks the Definition 8
validity conditions against the host graph, so experiments never trust a
solver blindly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Set

from repro.exceptions import DisconnectedTerminalsError, ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph, Vertex
from repro.graphs.spanning import is_tree
from repro.graphs.traversal import vertices_in_same_component


@dataclass(frozen=True)
class SteinerInstance:
    """A Steiner-problem instance: a host graph and a terminal set.

    Parameters
    ----------
    graph:
        The host graph (a :class:`Graph` or :class:`BipartiteGraph`).
    terminals:
        The set ``P`` of vertices to be connected.  Must be non-empty and a
        subset of the graph's vertices.
    """

    graph: Graph
    terminals: FrozenSet[Vertex]

    def __init__(self, graph: Graph, terminals: Iterable[Vertex]) -> None:
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "terminals", frozenset(terminals))
        self._validate()

    def _validate(self) -> None:
        if not self.terminals:
            raise ValidationError("the terminal set P must be non-empty")
        missing = [t for t in self.terminals if t not in self.graph]
        if missing:
            raise ValidationError(
                f"terminals {sorted(missing, key=repr)!r} are not vertices of the graph"
            )

    def is_feasible(self) -> bool:
        """Return ``True`` when all terminals lie in one connected component."""
        return vertices_in_same_component(self.graph, self.terminals)

    def require_feasible(self) -> None:
        """Raise :class:`DisconnectedTerminalsError` when infeasible."""
        if not self.is_feasible():
            raise DisconnectedTerminalsError(
                "the terminals do not lie in a single connected component"
            )

    def terminal_list(self):
        """Return the terminals as a deterministically sorted list."""
        return sorted(self.terminals, key=repr)


class OnIds:
    """A metadata value a solver left on ids: a ``set`` or ``list`` of labels.

    :class:`SolutionMetadata` decodes it on first read; the wire renderer
    reads ``ids`` directly and may keep the value's rendered text in
    ``text`` (one side plan's Lemma 1 ordering is one shared instance, so
    its text is rendered once per plan).
    """

    __slots__ = ("ids", "kind", "text")

    def __init__(self, ids: Iterable[int], kind: type) -> None:
        self.ids = ids
        self.kind = kind
        self.text: Optional[str] = None

    def decode(self, labels):
        """Return the label value: ``{labels[i], ...}`` or ``[labels[i], ...]``."""
        if self.kind is set:
            return {labels[i] for i in self.ids}
        return [labels[i] for i in self.ids]


class SolutionMetadata(dict):
    """A solution's metadata dict, whose :class:`OnIds` entries decode on first read.

    Every read path (item access, ``get``, iteration over items or
    values, copies, comparison, ``dict(...)``, pickling) sees labels;
    ``dict.items(metadata)`` is the renderer's view, with :class:`OnIds`
    values left as they are.
    """

    __slots__ = ("_labels",)

    def __init__(self, labels=None) -> None:
        super().__init__()
        self._labels = labels

    def _decode(self, key, value):
        if type(value) is OnIds:
            value = value.decode(self._labels)
            dict.__setitem__(self, key, value)
        return value

    def _decode_all(self) -> "SolutionMetadata":
        for key, value in list(dict.items(self)):
            self._decode(key, value)
        return self

    def __getitem__(self, key):
        return self._decode(key, dict.__getitem__(self, key))

    def get(self, key, default=None):
        return self[key] if key in self else default

    def setdefault(self, key, default=None):
        if key not in self:
            dict.__setitem__(self, key, default)
        return self[key]

    def pop(self, key, *default):
        value = dict.pop(self, key, *default)
        return value.decode(self._labels) if type(value) is OnIds else value

    def popitem(self):
        self._decode_all()
        return dict.popitem(self)

    def __iter__(self):
        # defined so that dict(...) and {**...} read through __getitem__
        return dict.__iter__(self)

    def items(self):
        return dict.items(self._decode_all())

    def values(self):
        return dict.values(self._decode_all())

    def copy(self) -> dict:
        return dict(self._decode_all())

    def __eq__(self, other):
        if isinstance(other, SolutionMetadata):
            other._decode_all()
        return dict.__eq__(self._decode_all(), other)

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __repr__(self) -> str:
        return dict.__repr__(self._decode_all())

    def __reduce__(self):
        return dict, (dict(self._decode_all()),)


class SteinerSolution:
    """A (pseudo-)Steiner tree together with bookkeeping metadata.

    A solver that works in label space passes ``tree``; the engine's id
    solvers pass ``ids`` (an :class:`~repro.graphs.indexed.IdTree`) and the
    ``index`` whose labels they number, and the label :attr:`tree` is then
    decoded on first access only -- a served answer goes to the wire
    without it (:func:`repro.server.codec.encode_wire_result` reads the
    ids).

    Attributes
    ----------
    tree:
        The tree produced by a solver, as a :class:`Graph`.
    instance:
        The instance that was solved.
    method:
        Human-readable name of the solver that produced the tree.
    side:
        For pseudo-Steiner solutions, the side (1 or 2) whose vertex count
        was minimised; ``None`` for plain Steiner solutions.
    optimal:
        Whether the solver guarantees optimality for its objective.
    metadata:
        A :class:`SolutionMetadata` dict; entries a solver keeps on ids
        decode to labels on first read.
    ids, index:
        The tree on ids and the :class:`~repro.graphs.indexed.GraphIndex`
        numbering them, or ``None`` for a tree not indexed yet
        (:meth:`index_on`).
    """

    def __init__(
        self,
        tree: Optional[Graph] = None,
        instance: Optional[SteinerInstance] = None,
        method: str = "unspecified",
        side: Optional[int] = None,
        optimal: bool = False,
        metadata: Optional[dict] = None,
        *,
        ids=None,
        index=None,
    ) -> None:
        if (tree is None) == (ids is None) or (ids is None) != (index is None):
            raise TypeError("pass tree=, or ids= with its index=")
        self._tree = tree
        self.instance = instance
        self.method = method
        self.side = side
        self.optimal = optimal
        self.ids = ids
        self.index = index
        self.metadata = SolutionMetadata(None if index is None else index.labels)
        if metadata:
            self.metadata.update(metadata)

    @property
    def tree(self) -> Graph:
        """The answer tree as a label :class:`Graph` (decoded from ids once)."""
        if self._tree is None:
            self._tree = self.ids.decode(self.index.labels)
        return self._tree

    def index_on(self, index) -> None:
        """Number a label-space tree by ``index``, a :class:`~repro.graphs.indexed.GraphIndex`.

        The label tree is kept.  A solution already on ids is left alone,
        and so is one with a vertex that none of the index's labels stands
        for (:meth:`~repro.graphs.indexed.GraphIndex.number`).
        """
        if self.ids is None:
            ids = index.number(self._tree)
            if ids is not None:
                self.ids, self.index = ids, index
                if isinstance(self.metadata, SolutionMetadata):
                    self.metadata._labels = index.labels

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SteinerSolution):
            return NotImplemented
        return (
            self.tree == other.tree
            and self.instance == other.instance
            and (self.method, self.side, self.optimal) == (other.method, other.side, other.optimal)
            and self.metadata == other.metadata
        )

    def __repr__(self) -> str:
        return (
            f"SteinerSolution(method={self.method!r}, vertices={self.vertex_count()}, "
            f"side={self.side!r}, optimal={self.optimal!r})"
        )

    # ------------------------------------------------------------------
    # objective values
    # ------------------------------------------------------------------
    def vertex_count(self) -> int:
        """Return ``|V'|``, the Steiner objective of Definition 8."""
        if self._tree is None:
            return len(self.ids.vertices)
        return self._tree.number_of_vertices()

    def steiner_vertices(self) -> Set[Vertex]:
        """Return the non-terminal ("auxiliary") vertices used by the tree."""
        return self.tree.vertices() - set(self.instance.terminals)

    def auxiliary_count(self) -> int:
        """Return the number of auxiliary (non-terminal) vertices.

        This is the paper's "number of auxiliary concepts the user must be
        shown" and differs from :meth:`vertex_count` by ``|P|``.
        """
        return len(self.steiner_vertices())

    def side_count(self, side: Optional[int] = None) -> int:
        """Return the number of tree vertices on the given side.

        ``side`` defaults to the solution's own ``side`` attribute; the
        instance graph must be bipartite.
        """
        chosen = side if side is not None else self.side
        if chosen is None:
            raise ValidationError("no side specified for side_count")
        graph = self.instance.graph
        if not isinstance(graph, BipartiteGraph):
            raise ValidationError("side_count requires a bipartite instance graph")
        return sum(1 for v in self.tree.vertices() if graph.side_of(v) == chosen)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def is_valid(self) -> bool:
        """Return ``True`` when the tree satisfies Definition 8's conditions."""
        try:
            self.validate()
        except ValidationError:
            return False
        return True

    def validate(self) -> None:
        """Raise :class:`ValidationError` unless the tree is a valid answer.

        Checks: the tree is a tree, it is a subgraph of the host graph, and
        it contains every terminal.
        """
        if not is_tree(self.tree):
            raise ValidationError("the produced subgraph is not a tree")
        graph = self.instance.graph
        for vertex in self.tree.vertices():
            if vertex not in graph:
                raise ValidationError(f"tree vertex {vertex!r} is not in the host graph")
        for u, v in self.tree.edges():
            if not graph.has_edge(u, v):
                raise ValidationError(f"tree edge ({u!r}, {v!r}) is not in the host graph")
        for terminal in self.instance.terminals:
            if terminal not in self.tree:
                raise ValidationError(f"terminal {terminal!r} is missing from the tree")

    def summary(self) -> dict:
        """Return a small dict with the headline numbers (for reports)."""
        result = {
            "method": self.method,
            "vertices": self.vertex_count(),
            "auxiliary": self.auxiliary_count(),
            "optimal": self.optimal,
        }
        if self.side is not None:
            result["side"] = self.side
            result["side_count"] = self.side_count()
        return result


def prune_non_terminal_leaves(tree: Graph, terminals: Iterable[Vertex]) -> Graph:
    """Iteratively remove non-terminal leaves from a tree.

    The result is still a tree containing every terminal, and it is never
    larger than the input; every heuristic and several exact post-processing
    steps use this clean-up.
    """
    protected = set(terminals)
    pruned = tree.copy()
    changed = True
    while changed:
        changed = False
        for vertex in list(pruned.vertices()):
            if vertex in protected:
                continue
            if pruned.degree(vertex) <= 1 and pruned.number_of_vertices() > 1:
                pruned.remove_vertex(vertex)
                changed = True
    return pruned
