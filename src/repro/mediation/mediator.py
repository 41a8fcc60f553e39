"""The mediator party: localization, decomposition, credential routing.

The mediator is the *untrusted* middle party.  What it is allowed to do:

* combine the datasources' schemas into a homogeneous global schema (the
  "embedding" of [2]) — here: a registry mapping relation names to the
  datasources managing them, plus the relations' schemas,
* split a global query into partial queries (via SQL2Algebra),
* identify the join attributes ``A_1 = A_2 = {A_join}``,
* select, for each datasource, the relevant credential subset ``CR_i``,
* and, per delivery protocol, operate on *ciphertexts only*.

What it must never see: plaintext partial results.  The leakage analysis
(Table 1 reproduction) audits the mediator's view for exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.mediation.credentials import Credential
from repro.relational import sql
from repro.relational.algebra import AlgebraNode, Join, PartialQuery
from repro.relational.schema import Schema
from repro.session import SessionRegistry, current_session_id
from repro.telemetry import tracing


@dataclass(frozen=True)
class JoinDecomposition:
    """A global join query split into its mediation ingredients."""

    tree: AlgebraNode
    partial_queries: tuple[PartialQuery, ...]
    source_names: tuple[str, ...]
    join_attributes: tuple[str, ...]
    #: The partial results' schemas, from the embedded global schema.
    schemas: tuple[Schema, ...]


@dataclass
class Mediator:
    """Registry plus decomposition logic (no data plane state)."""

    name: str = "mediator"
    #: relation name -> datasource name (the localization map).
    registry: dict[str, str] = field(default_factory=dict)
    #: relation name -> schema (the embedded global schema).
    schemas: dict[str, Schema] = field(default_factory=dict)
    #: datasource name -> property names its policies mention.
    source_properties: dict[str, frozenset[str]] = field(default_factory=dict)
    #: Apply the selection push-down optimizer during decomposition, so
    #: datasources pre-filter partial results (the Section 2 "more
    #: complex queries could be executed by the datasources" extension).
    push_down: bool = False
    #: Per-session decomposition cache: a client running a *series* of
    #: queries in one session re-decomposes each distinct query text
    #: once.  Keyed by session so no session can observe (via routing
    #: state) what another session asked; calls outside any session
    #: scope bypass the cache entirely.
    sessions: SessionRegistry = field(
        default_factory=lambda: SessionRegistry(capacity=256)
    )

    def register_source(self, source_name: str, *schemas: Schema,
                        property_names: frozenset[str] = frozenset()) -> None:
        """Contract a datasource supplying the given relations."""
        for schema in schemas:
            if schema.relation_name in self.registry:
                raise QueryError(
                    f"relation {schema.relation_name!r} already registered"
                )
            self.registry[schema.relation_name] = source_name
            self.schemas[schema.relation_name] = schema
        existing = self.source_properties.get(source_name, frozenset())
        self.source_properties[source_name] = existing | property_names

    def localize(self, relation_name: str) -> str:
        """Which datasource manages a relation (Listing 1 step 2)."""
        if relation_name not in self.registry:
            raise QueryError(f"no datasource manages {relation_name!r}")
        return self.registry[relation_name]

    # -- decomposition -------------------------------------------------------

    def decompose_join(self, query: str) -> JoinDecomposition:
        """Split a global query into one JOIN over two partial queries.

        The paper confines itself to "queries q that can be split into
        one JOIN operation and two partial queries q1 and q2"; this
        method enforces that shape and extracts the join attributes from
        the embedded global schema.
        """
        session_id = current_session_id()
        if session_id is None:
            with tracing.span("decompose_join", self.name, kind="mediation"):
                return self._decompose_join(query)
        session = self.sessions.get(session_id)
        with session.lock:
            cache: dict[str, JoinDecomposition] = session.state.setdefault(
                "decompositions", {}
            )
            cached = cache.get(query)
            if cached is not None:
                return cached
        with tracing.span(
            "decompose_join", self.name, kind="mediation", cached=False
        ):
            decomposition = self._decompose_join(query)
        with session.lock:
            cache[query] = decomposition
        return decomposition

    def _decompose_join(self, query: str) -> JoinDecomposition:
        tree = sql.parse(query)
        if self.push_down:
            from repro.relational.optimizer import push_down_selections

            tree = push_down_selections(tree, self.schemas)
        join = _find_single_join(tree)
        leaves = tree.leaves()
        if len(leaves) != 2:
            raise QueryError(
                "the delivery protocols require exactly two partial queries; "
                f"got {len(leaves)}"
            )
        schemas = []
        for leaf in leaves:
            if leaf.relation_name not in self.schemas:
                raise QueryError(f"unknown relation {leaf.relation_name!r}")
            schemas.append(self.schemas[leaf.relation_name])
        join_attributes = schemas[0].common_attributes(schemas[1])
        if not join_attributes:
            raise QueryError(
                "relations share no attributes - natural join degenerates "
                "to a cross product, which the protocols do not cover"
            )
        sources = tuple(self.localize(leaf.relation_name) for leaf in leaves)
        if sources[0] == sources[1]:
            raise QueryError(
                "both partial queries localize to the same datasource; "
                "secure mediation needs two distinct sources"
            )
        return JoinDecomposition(
            tree=tree,
            partial_queries=tuple(leaves),
            source_names=sources,
            join_attributes=join_attributes,
            schemas=tuple(schemas),
        )

    def select_credentials(
        self, source_name: str, credentials: list[Credential]
    ) -> list[Credential]:
        """The subset ``CR_i`` relevant to one datasource.

        A credential is relevant if it asserts any property name the
        source's policies mention; when a source declares no property
        interests, all credentials are forwarded (the paper leaves the
        selection strategy open).
        """
        relevant = self.source_properties.get(source_name, frozenset())
        if not relevant:
            return list(credentials)
        subset = [
            credential
            for credential in credentials
            if any(name in relevant for name, _ in credential.properties)
        ]
        return subset or list(credentials)


def _find_single_join(tree: AlgebraNode) -> Join:
    """Locate the unique Join node; reject other shapes."""
    joins: list[Join] = []

    def walk(node: AlgebraNode) -> None:
        if isinstance(node, Join):
            joins.append(node)
        for attribute in ("child", "left", "right"):
            child = getattr(node, attribute, None)
            if isinstance(child, AlgebraNode):
                walk(child)

    walk(tree)
    if len(joins) != 1:
        raise QueryError(
            f"expected exactly one JOIN in the global query, found {len(joins)}"
        )
    return joins[0]
