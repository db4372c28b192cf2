"""Query interpretation over conceptual schemas (the paper's Section 1 scenario).

A *logically independent* query is a set of object names -- attributes,
entities, relationships or relation names -- with no indication of how they
are connected.  The interpreter:

1. maps the object names onto vertices of the schema graph,
2. finds the minimal connection (Steiner tree) among them, which is "the
   interpretation requiring the fewest auxiliary concepts",
3. optionally enumerates further interpretations in order of increasing
   size (the interactive disambiguation loop of the introduction),
4. for relational schemas, translates the chosen interpretation into a join
   plan over the relations it touches and can execute it against a
   database instance.

Since 1.2.0 every interpretation is backed by a
:class:`~repro.api.result.ConnectionResult`: the
:attr:`Interpretation.result` field carries the optimality guarantee and
the provenance record (solver, instance class, cache hit, wall time) of
the connection that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Union

from repro.api.result import ConnectionResult, Guarantee, Provenance
from repro.api.service import ConnectionService
from repro.exceptions import ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.semantic.er_model import ERSchema
from repro.semantic.instance import Database, Relation
from repro.semantic.joins import answer_query_over_connection
from repro.semantic.relational import RelationalSchema
from repro.steiner.problem import SteinerSolution


@dataclass
class Interpretation:
    """One interpretation of a query: a connection over the schema graph."""

    solution: SteinerSolution
    query_objects: frozenset
    rank: int
    #: The full service answer backing this interpretation (guarantee +
    #: provenance); always set by :class:`QueryInterpreter` since 1.2.0.
    result: Optional[ConnectionResult] = None

    @classmethod
    def from_result(
        cls, result: ConnectionResult, query_objects: frozenset, rank: int
    ) -> "Interpretation":
        """Wrap a :class:`~repro.api.result.ConnectionResult`."""
        return cls(
            solution=result.solution,
            query_objects=query_objects,
            rank=rank,
            result=result,
        )

    @property
    def objects(self) -> Set:
        """All objects (vertices) used by this interpretation."""
        return set(self.solution.tree.vertices())

    @property
    def auxiliary_objects(self) -> Set:
        """The auxiliary objects the user did not mention."""
        return self.objects - set(self.query_objects)

    @property
    def guarantee(self) -> Optional[Guarantee]:
        """The optimality guarantee of the backing result (if available)."""
        return self.result.guarantee if self.result is not None else None

    @property
    def provenance(self) -> Optional[Provenance]:
        """The provenance record of the backing result (if available)."""
        return self.result.provenance if self.result is not None else None

    def describe(self) -> str:
        """Return a one-line human-readable description."""
        auxiliary = ", ".join(sorted(map(str, self.auxiliary_objects))) or "(none)"
        return (
            f"interpretation #{self.rank}: {len(self.objects)} objects, "
            f"auxiliary = {auxiliary}"
        )


class QueryInterpreter:
    """Interpret object-name queries over a schema.

    Parameters
    ----------
    schema:
        Either a :class:`RelationalSchema`, an :class:`ERSchema`, or a
        bare :class:`BipartiteGraph` (when the caller already has the
        schema graph).
    service:
        Advanced: an existing :class:`~repro.api.service.ConnectionService`
        to share (its engine and schema cache are reused).
    """

    def __init__(
        self,
        schema: Union[RelationalSchema, ERSchema, BipartiteGraph],
        service: Optional[ConnectionService] = None,
    ) -> None:
        self._relational: Optional[RelationalSchema] = None
        if isinstance(schema, RelationalSchema):
            self._relational = schema
            self._graph = schema.schema_graph()
        elif isinstance(schema, ERSchema):
            self._graph = schema.bipartite_graph()
            self._relational = schema.relational_schema()
        elif isinstance(schema, BipartiteGraph):
            self._graph = schema
        else:
            raise ValidationError(
                "schema must be a RelationalSchema, an ERSchema or a BipartiteGraph"
            )
        if service is None:
            service = ConnectionService(schema=self._graph)
        self._service = service

    # ------------------------------------------------------------------
    # schema access
    # ------------------------------------------------------------------
    @property
    def graph(self) -> BipartiteGraph:
        """The schema graph queries are interpreted on."""
        return self._graph

    @property
    def service(self) -> ConnectionService:
        """The :class:`~repro.api.service.ConnectionService` answering queries."""
        return self._service

    def known_objects(self) -> Set:
        """Return the set of valid query object names."""
        return self._graph.vertices()

    def _resolve(self, query: Iterable) -> frozenset:
        objects = frozenset(query)
        unknown = [o for o in objects if o not in self._graph]
        if unknown:
            raise ValidationError(
                f"unknown objects in query: {sorted(map(repr, unknown))}"
            )
        if not objects:
            raise ValidationError("the query must mention at least one object")
        return objects

    # ------------------------------------------------------------------
    # interpretation
    # ------------------------------------------------------------------
    def minimal_interpretation(self, query: Iterable) -> Interpretation:
        """Return the minimal-connection interpretation of the query."""
        objects = self._resolve(query)
        result = self._service.connect(objects, schema=self._graph)
        return Interpretation.from_result(result, query_objects=objects, rank=1)

    def interpretations(self, query: Iterable, limit: int = 3) -> List[Interpretation]:
        """Return up to ``limit`` interpretations ordered by increasing size.

        The first entry is a minimal connection; subsequent entries use
        more auxiliary objects and correspond to the alternatives an
        interactive interface would progressively disclose.  For a pull-
        based interface use ``service.enumerate(...)`` directly -- the
        stream is resumable and budget-aware.
        """
        objects = self._resolve(query)
        stream = self._service.enumerate(objects, schema=self._graph, budget=limit)
        return [
            Interpretation.from_result(result, query_objects=objects, rank=result.rank)
            for result in stream
        ]

    def fewest_relations_interpretation(
        self, query: Iterable, relation_side: int = 2
    ) -> Interpretation:
        """Return the interpretation minimising the number of relations used.

        This is the pseudo-Steiner variant (Definition 9): on alpha-acyclic
        schemas it is computed by Algorithm 1 in polynomial time even when
        the full minimal-connection problem is NP-hard (Theorem 2).
        """
        objects = self._resolve(query)
        result = self._service.connect(
            objects, objective="side", side=relation_side, schema=self._graph
        )
        return Interpretation.from_result(result, query_objects=objects, rank=1)

    # ------------------------------------------------------------------
    # execution against a database instance
    # ------------------------------------------------------------------
    def relations_of(self, interpretation: Interpretation, relation_side: int = 2) -> List[str]:
        """Return the relation names used by an interpretation."""
        return sorted(
            (
                v
                for v in interpretation.objects
                if self._graph.side_of(v) == relation_side
            ),
            key=repr,
        )

    def answer(
        self,
        query: Iterable,
        database: Database,
        interpretation: Optional[Interpretation] = None,
        use_semijoins: bool = True,
    ) -> Relation:
        """Answer an attribute query against a database instance.

        The interpretation defaults to the minimal one; the relations it
        uses are joined (with a semijoin reducer when possible) and the
        result is projected onto the attributes mentioned in the query.
        """
        if self._relational is None:
            raise ValidationError(
                "answering queries requires a RelationalSchema (or ERSchema)"
            )
        objects = self._resolve(query)
        chosen = interpretation or self.minimal_interpretation(objects)
        relations = self.relations_of(chosen)
        if not relations:
            # the query objects may all be relation names already
            relations = sorted(
                (o for o in objects if o in set(self._relational.relation_names())),
                key=repr,
            )
        if not relations:
            raise ValidationError("the interpretation uses no relations; nothing to join")
        attributes = [
            o
            for o in sorted(objects, key=repr)
            if o in self._relational.attributes()
        ]
        return answer_query_over_connection(
            self._relational,
            database,
            relations,
            requested_attributes=attributes or None,
            use_semijoins=use_semijoins,
        )
