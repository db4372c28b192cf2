"""Relational schemas and their graph / hypergraph views.

A relational schema is a set of relation schemes, each a named set of
attributes.  The paper studies such schemas through two lenses:

* the **hypergraph** whose nodes are attributes and whose hyperedges are
  the relation schemes (the classical view of Beeri-Fagin-Maier-Yannakakis
  and Fagin, used by Definition 7 and Theorem 1);
* the **bipartite schema graph** with attributes on ``V_1`` and relation
  names on ``V_2`` (the view Sections 1 and 3 use for the minimal
  connection problem).

:class:`RelationalSchema` keeps both views in sync and exposes the
acyclicity / chordality classifications the rest of the library provides.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping

from repro.core.classification import ChordalityReport
from repro.exceptions import ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.indexed import to_indexed
from repro.hypergraphs.acyclicity import acyclicity_degree, satisfies_degree
from repro.hypergraphs.conversions import incidence_graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.semantic.instance import Database, Relation
from repro.utils.rng import RandomLike, ensure_rng

Attribute = Hashable


class RelationalSchema:
    """A relational database schema: named relation schemes over attributes.

    Parameters
    ----------
    schemes:
        Mapping from relation name to an iterable of attributes.

    Examples
    --------
    >>> schema = RelationalSchema({"R": ["a", "b"], "S": ["b", "c"]})
    >>> schema.acyclicity_degree()
    'berge'
    """

    def __init__(self, schemes: Mapping[str, Iterable[Attribute]]) -> None:
        self._schemes: Dict[str, FrozenSet[Attribute]] = {}
        for name, attributes in schemes.items():
            attribute_set = frozenset(attributes)
            if not attribute_set:
                raise ValidationError(f"relation scheme {name!r} has no attributes")
            self._schemes[name] = attribute_set

    # ------------------------------------------------------------------
    # basic access
    # ------------------------------------------------------------------
    def relation_names(self) -> List[str]:
        """Return the relation names in deterministic order."""
        return sorted(self._schemes)

    def attributes(self) -> FrozenSet[Attribute]:
        """Return the set of all attributes mentioned by the schema."""
        result = set()
        for scheme in self._schemes.values():
            result |= scheme
        return frozenset(result)

    def scheme(self, name: str) -> FrozenSet[Attribute]:
        """Return the attribute set of one relation scheme."""
        if name not in self._schemes:
            raise ValidationError(f"unknown relation {name!r}")
        return self._schemes[name]

    def schemes(self) -> Dict[str, FrozenSet[Attribute]]:
        """Return a copy of the full name -> attributes mapping."""
        return dict(self._schemes)

    def relations_containing(self, attribute: Attribute) -> List[str]:
        """Return the names of the relations whose scheme contains ``attribute``."""
        return [name for name in self.relation_names() if attribute in self._schemes[name]]

    def __len__(self) -> int:
        return len(self._schemes)

    # ------------------------------------------------------------------
    # structural views
    # ------------------------------------------------------------------
    def hypergraph(self) -> Hypergraph:
        """Return the schema hypergraph (attributes = nodes, schemes = edges)."""
        hypergraph = Hypergraph(nodes=self.attributes())
        for name in self.relation_names():
            hypergraph.add_edge(self._schemes[name], label=name)
        return hypergraph

    def schema_graph(self) -> BipartiteGraph:
        """Return the bipartite schema graph (attributes on ``V_1``, relations on ``V_2``)."""
        return incidence_graph(self.hypergraph(), node_side=1)

    # ------------------------------------------------------------------
    # classifications
    # ------------------------------------------------------------------
    def acyclicity_degree(self) -> str:
        """Return ``"berge"``, ``"gamma"``, ``"beta"``, ``"alpha"`` or ``"cyclic"``."""
        return acyclicity_degree(self.hypergraph())

    def is_acyclic(self, degree: str = "alpha") -> bool:
        """Return ``True`` when the schema is at least ``degree``-acyclic."""
        return satisfies_degree(self.hypergraph(), degree)

    def chordality_report(self) -> ChordalityReport:
        """Return the chordality classification of the schema graph.

        Classified blockwise, like every schema the engine serves.
        """
        # function-level import: repro.dynamic sits above repro.semantic
        from repro.dynamic.blocks import BlockClassifier

        return BlockClassifier().classify(to_indexed(self.schema_graph())[0]).report()

    # ------------------------------------------------------------------
    # instances
    # ------------------------------------------------------------------
    def empty_database(self) -> Database:
        """Return a database with one empty relation per scheme."""
        return Database(
            Relation(name, sorted(self._schemes[name], key=repr))
            for name in self.relation_names()
        )

    def random_database(
        self,
        rows_per_relation: int = 8,
        domain_size: int = 6,
        rng: RandomLike = None,
    ) -> Database:
        """Return a database with random small-domain rows (for experiments).

        Values are drawn from ``0 .. domain_size - 1`` per attribute, which
        gives joins a realistic mix of matches and misses.
        """
        generator = ensure_rng(rng)
        database = Database()
        for name in self.relation_names():
            attributes = sorted(self._schemes[name], key=repr)
            relation = Relation(name, attributes)
            for _ in range(rows_per_relation):
                relation.add_row({a: generator.randrange(domain_size) for a in attributes})
            database.add_relation(relation)
        return database


def schema_from_hypergraph(hypergraph: Hypergraph) -> RelationalSchema:
    """Build a :class:`RelationalSchema` from a hypergraph (edge labels = names)."""
    return RelationalSchema(
        {str(label): set(members) for label, members in hypergraph.edge_items()}
    )
