"""Delivery phase with the Database-as-a-Service scheme — Listing 2.

The DAS protocol (after Hacigumus et al. [13], adapted to the MMM):

1. Each source S_i partitions ``domactive(A_join)`` and maps partitions
   to index values in ``ITable_{R_i.A_join}``.
2. S_i encrypts R_i DAS-style — each tuple t becomes
   ``<etuple, a_S_join>`` with ``etuple = encrypt(t)`` (hybrid, client
   keys) and ``a_S_join`` the tuple's partition index value — and
   hybrid-encrypts the index table itself.
3. S_i sends ``<R_i^S, encrypt(ITable)>`` to the mediator.
4. The mediator forwards both encrypted index tables to the client.
5. The client decrypts the tables and translates q into the server query
   ``q_S`` (a disjunction over overlapping partition pairs) and the
   client query ``q_C``; it sends ``q_S`` to the mediator.
6. The mediator computes ``R_C = sigma_CondS(R1^S x R2^S)`` on the
   encrypted relations and returns R_C.
7. The client decrypts R_C and applies ``q_C`` (the real join-attribute
   equality) to obtain the global result.

Section 3.1 notes that the query translator could sit in any layer of
the mediation system, but details only this placement, the client, and
calls encrypting the index table "crucial".  The other placements (a
translating source, a translating mediator that reads the tables in
plaintext) and the mixed model of Mykletun/Tsudik [18], whose
non-sensitive attributes travel in plaintext, are not implemented;
``docs/decisions.md`` records why and what would bring one back.

Rows ``<etuple, a^S_join>`` are columns under the source's one
encapsulation (:class:`EncryptedRows`) in R_i^S, in R_C's two row
tables and in the hardened frames, in process and, decoded, off the
wire; only the codec knows that a table travels as a tuple or list of
``das-tuple`` records.
"""

from __future__ import annotations

import secrets
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
from operator import itemgetter
from typing import Any

from repro.core.encapsulation import source_session
from repro.core.result import MediationResult
from repro.core.steps import (
    CLIENT,
    DONE,
    MEDIATOR,
    SOURCE,
    START,
    Outbound,
    Parties,
    Step,
    collect,
    states,
)
from repro.crypto import hybrid, symmetric
from repro.crypto.engine import CryptoEngine, get_engine
from repro.crypto.rand import shuffled
from repro.errors import ProtocolError
from repro.relational import partition as partitioning
from repro.relational.algebra import natural_join
from repro.relational.encoding import decode_row, encode_row
from repro.relational.partition import IndexTable
from repro.relational.relation import Relation, Row
from repro.relational.schema import Schema
from repro.storage.base import KIND_DAS_INDEX, IndexCache, relation_fingerprint


@dataclass(frozen=True)
class DASConfig:
    """Tunable parameters of the DAS delivery phase."""

    strategy: str = "equi_depth"  # equi_depth | singleton
    buckets: int = 4

    def __post_init__(self) -> None:
        if self.strategy not in ("equi_depth", "singleton"):
            raise ProtocolError(f"unknown partition strategy {self.strategy!r}")


class EncryptedRows(Sequence):
    """Rows ``t^S = <etuple, a^S_join>`` of one source as three columns:
    the source's one encapsulation, the etuples' DEM bodies and the
    index values (``None`` for the encapsulation of a table with no
    rows, which names none).

    It indexes, iterates and compares as its ``(etuple, index_value)``
    pairs, each etuple a :class:`~repro.crypto.hybrid.HybridCiphertext`
    built on demand.  The handlers that build and read it touch only the
    columns, so no per-row object is built between the source and the
    socket, nor between the client's inbox and its DEM; only the codec
    knows that it travels as a list — or, where ``container`` says so
    (R_i^S's own rows), a tuple — of ``das-tuple`` records.
    """

    __slots__ = ("encapsulation", "bodies", "index_values", "container")

    def __init__(
        self,
        encapsulation: hybrid.Encapsulation | None,
        bodies: Sequence[bytes],
        index_values: Sequence[int],
        container: type = list,
    ) -> None:
        if len(bodies) != len(index_values):
            raise ProtocolError("encrypted rows: one index value per etuple")
        if encapsulation is None and bodies:
            raise ProtocolError("encrypted rows reference no encapsulation")
        self.encapsulation, self.bodies = encapsulation, bodies
        self.index_values, self.container = index_values, container

    def __len__(self) -> int:
        return len(self.bodies)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EncryptedRows(
                self.encapsulation, self.bodies[index],
                self.index_values[index], self.container,
            )
        return (
            hybrid.HybridCiphertext(self.encapsulation, self.bodies[index]),
            self.index_values[index],
        )

    def __iter__(self):
        return zip(
            map(partial(hybrid.HybridCiphertext, self.encapsulation), self.bodies),
            self.index_values,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EncryptedRows, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"EncryptedRows({self.container(self)!r})"

    def select(self, positions: Sequence[int]) -> "EncryptedRows":
        """The rows at ``positions``, in that order, as a list."""
        return EncryptedRows(
            self.encapsulation,
            tuple(map(self.bodies.__getitem__, positions)),
            tuple(map(self.index_values.__getitem__, positions)),
        )


def _rows(body: Any, container: type = list) -> EncryptedRows:
    """Received rows as :class:`EncryptedRows` in ``container``.

    The empty table has no wire type — it travels, and decodes, as
    ``[]`` or ``()`` — so an empty list or tuple is the empty table; any
    other body that is no :class:`EncryptedRows` is a
    :class:`ProtocolError`.
    """
    if type(body) is EncryptedRows:
        if body.container is container:
            return body
        return EncryptedRows(
            body.encapsulation, body.bodies, body.index_values, container
        )
    if type(body) in (list, tuple) and not body:
        return EncryptedRows(None, (), (), container)
    raise ProtocolError(f"encrypted rows are a {type(body).__name__}")


@dataclass(frozen=True)
class EncryptedRelation:
    """``R_i^S``: the DAS-encrypted partial result of one source.

    ``rows`` holds the source's one encapsulation, a tuple of DEM bodies
    and a tuple of index values (:class:`EncryptedRows`, a tuple).
    """

    source: str
    relation_name: str
    rows: EncryptedRows

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ServerQuery:
    """``q_S`` as data: the overlapping index-value pairs of Cond_S."""

    pairs: tuple[tuple[int, int], ...]

    def condition(self, name_1: str, name_2: str, attribute: str) -> str:
        """The paper's Cond_S formula, rendered for display: the text of
        the disjunction of conjunctions ``R1S.a = i AND R2S.a = j`` that
        :mod:`repro.relational.conditions` would print, built directly."""
        clauses = [
            f"({name_1}.{attribute} = {index_1!r} AND {name_2}.{attribute} = {index_2!r})"
            for index_1, index_2 in self.pairs
        ]
        if len(clauses) == 1:
            return clauses[0]
        return "(" + " OR ".join(clauses) + ")" if clauses else "FALSE"


@dataclass(frozen=True)
class ServerResult:
    """``R_C``, held as it travels: two tables of distinct rows and a
    position table.

    A selected row typically appears in many pairs, so each distinct
    row is kept once per side (in order of first appearance among the
    pairs) and the pairs are one packed array of big-endian ``u32``
    ``(i, j)`` row positions, 8 bytes per pair.  Each table is a list
    of rows held as columns (:class:`EncryptedRows`).  The codec and the
    size estimate read these three fields as they are.  ``positions`` is
    marked ``structural``: it is layout, not ciphertext material.
    """

    rows_1: EncryptedRows
    rows_2: EncryptedRows
    positions: bytes = field(metadata={"structural": True})

    def __post_init__(self) -> None:
        if len(self.positions) % 8:
            raise ProtocolError(
                "server-result position table is not whole (i, j) pairs"
            )
        flat = struct.unpack(f">{len(self.positions) // 4}I", self.positions)
        if max(flat[0::2], default=-1) >= len(self.rows_1) or (
            max(flat[1::2], default=-1) >= len(self.rows_2)
        ):
            raise ProtocolError(
                "server-result position table points past a row table"
            )

    def __len__(self) -> int:
        return len(self.positions) // 8


def _partition_domain(
    config: DASConfig, active_domain: tuple
) -> list[partitioning.Partition]:
    if config.strategy == "singleton":
        return partitioning.singleton(active_domain)
    return partitioning.equi_depth(active_domain, config.buckets)


def _encrypt_source(
    source_name: str,
    relation: Relation,
    attribute: str,
    config: DASConfig,
    client_keys,
    engine: CryptoEngine | None = None,
    cache: IndexCache | None = None,
    hardening=None,
) -> tuple[IndexTable, EncryptedRelation, hybrid.HybridCiphertext]:
    """Steps 1-2 at one datasource: its index table, ``R_i^S`` and the
    index table encrypted for the client.

    Every ciphertext this source emits — real etuples, hardened dummies
    and the encrypted index table — is a DEM body under the source's one
    hybrid session (:func:`~repro.core.encapsulation.source_session`),
    so the client unwraps one session key per source.

    With an index cache attached, the session and the partition index
    table (encrypted under it) persist across queries under the source's
    key epoch, so a repeated join skips the partitioning and the RSA wrap
    (and the client its unwrap).  The etuples are re-encrypted every
    time: a DEM body costs no more to produce than to read back, and a
    stored one would be byte-repeatable.  Note the amortization trade-off inherited from
    caching: the index table's salted identifiers repeat across the
    series, so the mediator can correlate buckets *between* queries of
    one epoch (see docs/storage.md).
    """
    engine = engine or get_engine()
    session = source_session(cache, relation.name, client_keys)

    rows = list(relation)
    encoded_rows = list(map(encode_row, rows))
    index_table: IndexTable | None = None
    if cache is not None:
        # The table names every partition's values, so it is filed as
        # what the source emits anyway: a DEM body under the session.
        table_slot = (
            b"itable:" + session.encapsulation.digest()
            + relation_fingerprint(relation, encoded_rows)
            + f"{config.strategy}:{config.buckets}:{attribute}".encode()
        )
        blob = cache.get(relation.name, KIND_DAS_INDEX, table_slot)
        if blob is not None:
            try:
                index_table = IndexTable.from_bytes(
                    symmetric.decrypt(session.key, blob)
                )
            except Exception:
                cache.decode_failure(KIND_DAS_INDEX)
    if index_table is None:
        active_domain = relation.active_domain(attribute)
        partitions = _partition_domain(config, active_domain)
        index_table = partitioning.build_index_table(
            f"{relation.name}.{attribute}",
            partitions,
            salt=secrets.token_bytes(16),
        )
        if cache is not None:
            cache.put(
                relation.name,
                KIND_DAS_INDEX,
                table_slot,
                symmetric.encrypt(session.key, index_table.to_bytes()),
            )

    # Hardened runs wrap every row encoding to one uniform length before
    # it can influence a ciphertext body; the client unwraps (and
    # discards dummies) in _client_hash_join.
    row_target = 0
    if hardening is not None:
        encoded_rows, row_target = hardening.wrap_uniform(encoded_rows)
    bodies = engine.batch_hybrid_encrypt_bodies(session, encoded_rows)
    join_values = list(map(itemgetter(relation.schema.position(attribute)), rows))
    index_values = list(map(index_table.index_of, join_values))
    if hardening is not None:
        # Bucket padding: top every bucket up to the adjacency-invariant
        # bound max_multiplicity * (values per partition), so the
        # per-bucket frequency shape the mediator observes is a constant
        # of |domactive| and the config.  Dummies are encrypted under the
        # same session as the real rows (a second encapsulation would
        # fingerprint them), and the padded relation is shuffled so
        # position carries nothing.
        multiplicities: dict = {}
        for value in join_values:
            multiplicities[value] = multiplicities.get(value, 0) + 1
        bound = hardening.policy.bucket_bound(
            max(multiplicities.values(), default=0),
            len(multiplicities),
            config.buckets,
            config.strategy,
        )
        occupancy: dict[int, int] = {}
        for index in index_values:
            occupancy[index] = occupancy.get(index, 0) + 1
        shortfalls = [
            (index, bound - occupancy.get(index, 0))
            for _, index in index_table.entries
        ]
        total_dummies = sum(shortfall for _, shortfall in shortfalls)
        if any(shortfall < 0 for _, shortfall in shortfalls):
            raise ProtocolError(
                "hardened bucket bound under-estimates a bucket occupancy"
            )
        if total_dummies:
            bodies += engine.batch_hybrid_encrypt_bodies(
                session,
                [hardening.dummy(row_target) for _ in range(total_dummies)],
            )
            for index, shortfall in shortfalls:
                index_values += [index] * shortfall
        # One draw permutes both columns.
        order = shuffled(range(len(bodies)))
        bodies = list(map(bodies.__getitem__, order))
        index_values = list(map(index_values.__getitem__, order))
    encrypted_relation = EncryptedRelation(
        source=source_name,
        relation_name=relation.name,
        rows=EncryptedRows(
            session.encapsulation, tuple(bodies), tuple(index_values), tuple
        ),
    )
    table_bytes = index_table.to_bytes()
    if hardening is not None:
        table_bytes = hardening.wrap_table(table_bytes)
    return index_table, encrypted_relation, session.encrypt(table_bytes)


def _evaluate_server_query(
    query: ServerQuery,
    relation_1: EncryptedRelation,
    relation_2: EncryptedRelation,
) -> ServerResult:
    """Step 6 at the mediator: sigma_CondS(R1^S x R2^S), hash-grouped.

    Operationally equivalent to evaluating the Cond_S disjunction over
    the cross product, but grouped by index value so cost is output- not
    product-sized.  A pair q_S names twice is one disjunct, so each
    ``(row_1, row_2)`` comes back once.  The pairs run over R1^S's rows
    in order, each with its partners bucket by bucket in q_S's order;
    a bucket of R2^S enters ``rows_2`` whole, the first time it is named.
    """
    rows_1, rows_2 = _rows(relation_1.rows, tuple), _rows(relation_2.rows, tuple)
    by_index_2: dict[int, list[int]] = {}  # bucket of R2^S -> its positions
    for position, index_2 in enumerate(rows_2.index_values):
        by_index_2.setdefault(index_2, []).append(position)
    wanted: dict[int, dict[int, None]] = {}
    for index_1, index_2 in query.pairs:
        wanted.setdefault(index_1, {})[index_2] = None
    picked_1: list[int] = []  # R1^S positions of rows_1
    picked_2: list[int] = []  # R2^S positions of rows_2
    numbered: dict[int, range] = {}  # bucket of R2^S -> its rows_2 positions
    partners: dict[int, list[int]] = {}  # bucket of R1^S -> rows_2 positions
    flat: list[int] = []
    for position, index_1 in enumerate(rows_1.index_values):
        js = partners.get(index_1)
        if js is None:
            js = partners[index_1] = []
            for index_2 in wanted.get(index_1, ()):
                if index_2 not in numbered:
                    start = len(picked_2)
                    picked_2.extend(by_index_2.get(index_2, ()))
                    numbered[index_2] = range(start, len(picked_2))
                js.extend(numbered[index_2])
        if js:
            flat.extend(chain.from_iterable(zip(repeat(len(picked_1)), js)))
            picked_1.append(position)
    return ServerResult(
        rows_1.select(picked_1),
        rows_2.select(picked_2),
        struct.pack(f">{len(flat)}I", *flat),
    )


def _table_from_plaintext(plaintext: bytes, hardening=None) -> IndexTable:
    """Decode a decrypted index table, unwrapping hardened padding."""
    if hardening is not None:
        plaintext = hardening.unwrap(plaintext)
        if plaintext is None:
            raise ProtocolError("hardened index table decrypted to a dummy")
    return IndexTable.from_bytes(plaintext)


def _server_pairs(
    table_1: IndexTable, table_2: IndexTable, hardening=None
) -> tuple[tuple[int, int], ...]:
    """The q_S index pairs: overlap-driven, or all pairs when hardened.

    The overlap count is data-dependent (it tracks which buckets share
    values), so hardened translators request the full B_1 x B_2 grid:
    R_C is the entire padded cross product, which the mediator answers
    by forwarding its two factors (see :func:`_forward_relations`).
    """
    if hardening is None:
        return tuple(table_1.overlapping_pairs(table_2))
    return tuple(
        (index_1, index_2)
        for _, index_1 in table_1.entries
        for _, index_2 in table_2.entries
    )


def _decrypt_rows(
    client,
    schema: Schema,
    rows: EncryptedRows,
    engine: CryptoEngine | None = None,
) -> list[Row]:
    """Decrypt a table of distinct etuples — one engine batch, one DEM
    call under the table's session key — and decode its rows."""
    return [
        decode_row(plaintext, schema)
        for plaintext in client.decrypt_hybrid_bodies(
            rows.encapsulation, rows.bodies, engine
        )
    ]


def _client_postprocess(
    client,
    server_result: ServerResult,
    schema_1: Schema,
    schema_2: Schema,
    join_attributes: tuple[str, ...],
    engine: CryptoEngine | None = None,
) -> tuple[Relation, int]:
    """Step 7 at the client: decrypt R_C, apply q_C, build the result.

    q_C (the real join-attribute equality) runs as a hash join of R_C's
    two decrypted row tables.  That is exact because DAS has no false
    negatives: two of these rows with equal join values sit in
    overlapping buckets, so their pair is in R_C.  Every other pair of
    R_C is a false positive, and their number (the DAS post-processing
    overhead, E7) is returned with the global result.
    """
    attribute = join_attributes[0]
    left_names = set(schema_1.names())
    extra_positions = [
        schema_2.position(n) for n in schema_2.names() if n not in left_names
    ]
    result_schema = schema_1.join_schema(
        schema_2, f"{schema_1.relation_name}_join_{schema_2.relation_name}"
    )
    rows_1 = _decrypt_rows(client, schema_1, _rows(server_result.rows_1), engine)
    rows_2 = _decrypt_rows(client, schema_2, _rows(server_result.rows_2), engine)
    position_1 = schema_1.position(attribute)
    position_2 = schema_2.position(attribute)
    extras: dict = {}
    for row_2 in rows_2:
        extras.setdefault(row_2[position_2], []).append(
            tuple(row_2[i] for i in extra_positions)
        )
    rows = [
        row_1 + extra
        for row_1 in rows_1
        for extra in extras.get(row_1[position_1], ())
    ]
    return Relation(result_schema, rows), len(server_result) - len(rows)


def _client_hash_join(
    client,
    frames: Sequence[Any],
    schemas: tuple[Schema, Schema],
    attribute: str,
    engine: CryptoEngine | None,
    hardening,
) -> tuple[Relation, int, int]:
    """Step 7 under hardening: q_C as a hash join of the forwarded tables.

    R_C is the whole padded cross product, which its two factors imply
    without anyone enumerating it: each etuple is decrypted once, dummies
    are discarded, and the real rows meet in the relational hash join.
    ``frames`` is every frame received, S1's first, each a table of
    rows (:func:`_rows`).  Each etuple of a source, real or dummy,
    references that source's one encapsulation, so grouping the frames
    by encapsulation in order of first appearance recovers the two
    tables from the frames alone.  A side with no rows arrives as one
    empty frame: nothing joins, and every real row is unmatched.
    Returns the global result, the real rows that joined nothing (this
    delivery's false positives) and the number of dummies discarded.
    """
    tables: dict[bytes, tuple[hybrid.Encapsulation, list[bytes]]] = {}
    for frame in map(_rows, frames):
        encapsulation = frame.encapsulation
        if encapsulation is not None:  # None: an empty frame
            _, bodies = tables.setdefault(
                encapsulation.digest(), (encapsulation, [])
            )
            bodies.extend(frame.bodies)
    if len(tables) > 2:
        raise ProtocolError(
            "hardened server result references more than two sessions"
        )
    received = sum(len(bodies) for _, bodies in tables.values())
    payloads = [  # None flags a dummy
        list(map(hardening.unwrap, client.decrypt_hybrid_bodies(
            encapsulation, bodies, engine
        )))
        for encapsulation, bodies in tables.values()
    ]
    if len(tables) < 2:
        # Relations are sets: count the distinct real payloads.
        real_rows = {p for side in payloads for p in side if p is not None}
        empty = natural_join(*(Relation(schema, []) for schema in schemas))
        return empty, len(real_rows), received - len(real_rows)
    real = [
        Relation(schema, [decode_row(p, schema) for p in side if p is not None])
        for schema, side in zip(schemas, payloads)
    ]
    common = set(real[0].active_domain(attribute)).intersection(
        real[1].active_domain(attribute)
    )
    unmatched = sum(
        relation.value(row, attribute) not in common
        for relation in real
        for row in relation
    )
    return natural_join(*real), unmatched, received - sum(map(len, real))


# -- Listing 2 as a step table ----------------------------------------------

PARTIAL = "das_encrypted_partial_result"


def _publish(source, sender: str, body: None) -> Outbound:
    """Steps 1-3: <R_i^S, encrypt(ITable)> to the mediator."""
    source.index_table, relation, table = _encrypt_source(
        source.name, source.relation, source.join_attributes[0],
        source.config, source.client_keys, source.engine,
        cache=source.cache, hardening=source.hardening,
    )
    return [(source.mediator, PARTIAL, {"relation": relation, "index_table": table})]


def _tables_to_client(mediator, sender: str, partials: dict) -> Outbound:
    """Step 4: both encrypted index tables on to the client."""
    mediator.partials = partials
    tables = {name: body["index_table"] for name, body in partials.items()}
    return [(mediator.client, "das_encrypted_index_tables", tables)]


def _translate(client, sender: str, tables: dict) -> Outbound:
    """Step 5: decrypt both tables (one batch, so one engine call
    unwraps both session keys) and translate q into q_S."""
    table_1, table_2 = (
        _table_from_plaintext(plaintext, client.hardening)
        for plaintext in client.client.decrypt_hybrid_many(
            list(tables.values()), engine=client.engine
        )
    )
    pairs = _server_pairs(table_1, table_2, client.hardening)
    return [(sender, "das_server_query", ServerQuery(pairs=pairs))]


def _evaluate(mediator, sender: str, query: ServerQuery) -> Outbound:
    """Step 6: R_C = sigma_CondS(R1^S x R2^S) back to the client."""
    mediator.server_query = query
    relations = [body["relation"] for body in mediator.partials.values()]
    server_result = _evaluate_server_query(query, *relations)
    mediator.shipped = len(server_result)
    return [(mediator.client, "das_server_result", server_result)]


def _forward_relations(mediator, sender: str, query: ServerQuery) -> Outbound:
    """Steps 6-7 under hardening.  q_S names the whole grid, so R_C =
    R1^S x R2^S is a pure function of its two factors: the mediator
    forwards each padded relation once, in frames whose count follows
    from the (invariant) padded row count, and nothing of size
    |R1^S| * |R2^S| is built anywhere."""
    mediator.server_query = query
    relations = [body["relation"] for body in mediator.partials.values()]
    mediator.shipped = sum(map(len, relations))
    return [
        (mediator.client, "das_server_result", frame)
        for relation in relations
        for frame in mediator.hardening.cover.deliver_chunks(
            "das_server_result",
            _rows(relation.rows),  # as a list: the frames are list slices
            bound=len(relation),
        )
    ]


def _postprocess(client, sender: str, body: None) -> Outbound:
    """Step 7: decrypt R_C and apply q_C."""
    (server_result,) = client.inbox
    client.global_result, client.false_positives = _client_postprocess(
        client.client, server_result, *client.schemas,
        client.join_attributes, client.engine,
    )
    return []


def _hash_join(client, sender: str, body: None) -> Outbound:
    client.global_result, client.false_positives, client.dummy_rows = (
        _client_hash_join(
            client.client, client.inbox,
            client.schemas, client.join_attributes[0], client.engine,
            client.hardening,
        )
    )
    return []


TABLE = {
    (SOURCE, START): Step(_publish, "partition_and_encrypt"),
    (MEDIATOR, PARTIAL): Step(_tables_to_client, gather=True),
    (CLIENT, "das_encrypted_index_tables"): Step(_translate, "translate_query"),
    (MEDIATOR, "das_server_query"): Step(_evaluate, "evaluate_server_query"),
    (CLIENT, "das_server_result"): Step(collect),
    (CLIENT, DONE): Step(_postprocess, "decrypt_and_postprocess"),
}
#: Steps 6-7 of a hardened run.
HARDENED = {
    (MEDIATOR, "das_server_query"): Step(_forward_relations),
    (CLIENT, DONE): Step(_hash_join, "decrypt_and_postprocess"),
}


def seat(parties: Parties) -> dict:
    """Listing 2's table, with the hardened overlay when hardened."""
    *_, client = states(parties)
    if len(client.join_attributes) != 1:
        raise ProtocolError(
            "the DAS delivery phase supports exactly one join attribute; "
            "use the commutative or private-matching protocol for "
            "composite join keys"
        )
    return TABLE if client.hardening is None else {**TABLE, **HARDENED}


def report(result: MediationResult, parties: Parties, config: DASConfig) -> None:
    """Global result and artifacts, from the parties' final states."""
    source_1, source_2, mediator, client = states(parties)
    schema_1, schema_2 = client.schemas
    query = mediator.server_query
    result.protocol = "das"
    result.global_result = client.global_result
    result.artifacts.update(
        {
            "index_tables": {
                source.name: source.index_table for source in (source_1, source_2)
            },
            "server_query_pairs": len(query.pairs),
            # What the mediator ships: pairs of R_C, or rows when hardened.
            "server_result_size": mediator.shipped,
            "false_positives": client.false_positives,
            "cond_s": query.condition(
                f"{schema_1.relation_name}S", f"{schema_2.relation_name}S",
                client.join_attributes[0],
            ),
            "config": config,
        }
    )
    if client.hardening is not None:
        result.artifacts["dummy_rows_discarded"] = client.dummy_rows
