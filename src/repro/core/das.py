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

The paper names three translator placements ("it is possible to place
the DAS query translator in any layer of the mediation system"); all
three are implemented:

* **client setting** (the paper's protocol, Listing 2) — index tables
  travel hybrid-encrypted to the client, which translates q;
* **source setting** — one datasource translates: the opposite index
  table is encrypted *for that source*, which learns it (inter-source
  leakage instead of client round trips);
* **mediator setting** — an explicitly insecure baseline where index
  tables reach the mediator in plaintext, demonstrating why the paper
  calls encrypting the index table "crucial".
"""

from __future__ import annotations

import random
import secrets
import struct
from dataclasses import dataclass, field
from itertools import chain, repeat

from repro.core.encapsulation import source_session
from repro.core.federation import Federation
from repro.core.request import RequestPhaseOutcome
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
from repro.core.steps import seat as seat_parties
from repro.crypto import hybrid, symmetric
from repro.crypto.engine import CryptoEngine, get_engine
from repro.errors import ProtocolError
from repro.relational import partition as partitioning
from repro.relational.algebra import natural_join
from repro.relational.conditions import (
    Comparison,
    Condition,
    conjunction,
    disjunction,
)
from repro.relational.encoding import decode_row, encode_row
from repro.relational.partition import IndexTable
from repro.relational.relation import Relation, Row
from repro.relational.schema import Schema
from repro.storage.base import KIND_DAS_INDEX, IndexCache, relation_fingerprint

#: Query-translator placements (Section 3.1 "settings").
CLIENT_SETTING = "client"
MEDIATOR_SETTING = "mediator"
SOURCE_SETTING = "source"


@dataclass(frozen=True)
class DASConfig:
    """Tunable parameters of the DAS delivery phase."""

    strategy: str = "equi_depth"  # equi_depth | equi_width | singleton
    buckets: int = 4
    setting: str = CLIENT_SETTING
    #: Mixed DAS model (Mykletun/Tsudik [18], discussed in Section 7):
    #: attributes listed here are *not* sensitive and travel in plaintext
    #: next to the etuple; the join attribute must stay encrypted.
    mixed_plaintext_attributes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.strategy not in ("equi_depth", "equi_width", "singleton"):
            raise ProtocolError(f"unknown partition strategy {self.strategy!r}")
        if self.setting not in (CLIENT_SETTING, MEDIATOR_SETTING, SOURCE_SETTING):
            raise ProtocolError(f"unsupported DAS setting {self.setting!r}")


@dataclass(frozen=True)
class EncryptedTuple:
    """``t^S = <etuple, a^S_join>`` — one row of an encrypted relation.

    In the mixed DAS model, ``plain_values`` additionally carries the
    non-sensitive attribute values in plaintext.
    """

    etuple: hybrid.HybridCiphertext
    index_value: int
    plain_values: tuple = ()


@dataclass(frozen=True)
class EncryptedRelation:
    """``R_i^S``: the DAS-encrypted partial result of one source."""

    source: str
    relation_name: str
    rows: tuple[EncryptedTuple, ...]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ServerQuery:
    """``q_S`` as data: the overlapping index-value pairs of Cond_S."""

    pairs: tuple[tuple[int, int], ...]

    def condition(self, name_1: str, name_2: str, attribute: str) -> Condition:
        """The paper's Cond_S formula, as a condition AST (for display)."""
        return disjunction(
            conjunction(
                [
                    Comparison(f"{name_1}.{attribute}", "=", index_1),
                    Comparison(f"{name_2}.{attribute}", "=", index_2),
                ]
            )
            for index_1, index_2 in self.pairs
        )


@dataclass(frozen=True)
class ServerResult:
    """``R_C``, held as it travels: two tables of distinct rows and a
    position table.

    A selected row typically appears in many pairs, so each distinct
    row is kept once per side (in order of first appearance among the
    pairs) and the pairs are one packed array of big-endian ``u32``
    ``(i, j)`` row positions, 8 bytes per pair.  The codec and the size
    estimate read these three fields as they are.  ``positions`` is
    marked ``structural``: it is layout, not ciphertext material.
    """

    rows_1: list[EncryptedTuple]
    rows_2: list[EncryptedTuple]
    positions: bytes = field(metadata={"structural": True})

    def __post_init__(self) -> None:
        if len(self.positions) % 8:
            raise ProtocolError(
                "server-result position table is not whole (i, j) pairs"
            )
        flat = self._flat()
        if max(flat[0::2], default=-1) >= len(self.rows_1) or (
            max(flat[1::2], default=-1) >= len(self.rows_2)
        ):
            raise ProtocolError(
                "server-result position table points past a row table"
            )

    def _flat(self) -> tuple[int, ...]:
        return struct.unpack(f">{len(self.positions) // 4}I", self.positions)

    def __len__(self) -> int:
        return len(self.positions) // 8

    @property
    def pairs(self) -> tuple[tuple[EncryptedTuple, EncryptedTuple], ...]:
        """R_C as its pairs of encrypted tuples, which share the row
        objects (for tests and analyses; the client reads the tables)."""
        flat = self._flat()
        return tuple(
            zip(
                map(self.rows_1.__getitem__, flat[0::2]),
                map(self.rows_2.__getitem__, flat[1::2]),
            )
        )


def _partition_domain(
    config: DASConfig, active_domain: tuple, attribute: str
) -> list[partitioning.Partition]:
    if config.strategy == "singleton":
        return partitioning.singleton(active_domain)
    if config.strategy == "equi_width":
        return partitioning.equi_width(active_domain, config.buckets)
    return partitioning.equi_depth(active_domain, config.buckets)


def _mixed_split(schema: Schema, config: DASConfig) -> tuple[list[int], list[int]]:
    """(sensitive positions, plaintext positions) for the mixed model."""
    # Names not in this schema belong to the other relation; validation
    # of completely unknown names happens once in seat().
    plaintext = set(config.mixed_plaintext_attributes) & set(schema.names())
    sensitive_positions = [
        i for i, a in enumerate(schema.attributes) if a.name not in plaintext
    ]
    plain_positions = [
        i for i, a in enumerate(schema.attributes) if a.name in plaintext
    ]
    if not sensitive_positions:
        raise ProtocolError("the mixed DAS model needs a sensitive attribute")
    return sensitive_positions, plain_positions


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
    if attribute in config.mixed_plaintext_attributes:
        raise ProtocolError(
            "the join attribute must remain sensitive in the mixed DAS model"
        )
    session = source_session(cache, relation.name, client_keys)

    index_table: IndexTable | None = None
    if cache is not None:
        # The table names every partition's values, so it is filed as
        # what the source emits anyway: a DEM body under the session.
        table_slot = (
            b"itable:" + session.encapsulation.digest()
            + relation_fingerprint(relation)
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
        partitions = _partition_domain(config, active_domain, attribute)
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

    sensitive_positions, plain_positions = _mixed_split(relation.schema, config)
    rows = list(relation)
    encoded_rows = [
        encode_row(tuple(row[i] for i in sensitive_positions)) for row in rows
    ]
    # Hardened runs wrap every row encoding to one uniform length before
    # it can influence a ciphertext body; the client unwraps (and
    # discards dummies) in _client_hash_join.
    row_target = 0
    if hardening is not None:
        encoded_rows, row_target = hardening.wrap_uniform(encoded_rows)
    etuples = engine.batch_hybrid_encrypt(session, encoded_rows)

    encrypted_rows = [
        EncryptedTuple(
            etuple,
            index_table.index_of(relation.value(row, attribute)),
            plain_values=tuple(row[i] for i in plain_positions),
        )
        for row, etuple in zip(rows, etuples)
    ]
    if hardening is not None:
        # Bucket padding: top every bucket up to the adjacency-invariant
        # bound max_multiplicity * (values per partition), so the
        # per-bucket frequency shape the mediator observes is a constant
        # of |domactive| and the config.  Dummies are encrypted under the
        # same session as the real rows (a second encapsulation would
        # fingerprint them), and the padded relation is shuffled so
        # position carries nothing.
        multiplicities: dict = {}
        for row in rows:
            value = relation.value(row, attribute)
            multiplicities[value] = multiplicities.get(value, 0) + 1
        bound = hardening.policy.bucket_bound(
            max(multiplicities.values(), default=0),
            len(multiplicities),
            config.buckets,
            config.strategy,
        )
        occupancy: dict[int, int] = {}
        for encrypted in encrypted_rows:
            occupancy[encrypted.index_value] = (
                occupancy.get(encrypted.index_value, 0) + 1
            )
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
            dummy_ciphertexts = engine.batch_hybrid_encrypt(
                session,
                [hardening.dummy(row_target) for _ in range(total_dummies)],
            )
            cursor = 0
            for index, shortfall in shortfalls:
                for _ in range(shortfall):
                    encrypted_rows.append(
                        EncryptedTuple(dummy_ciphertexts[cursor], index)
                    )
                    cursor += 1
        random.SystemRandom().shuffle(encrypted_rows)
    encrypted_relation = EncryptedRelation(
        source=source_name,
        relation_name=relation.name,
        rows=tuple(encrypted_rows),
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
    by_index_2: dict[int, list[EncryptedTuple]] = {}
    for row in relation_2.rows:
        by_index_2.setdefault(row.index_value, []).append(row)
    wanted: dict[int, dict[int, None]] = {}
    for index_1, index_2 in query.pairs:
        wanted.setdefault(index_1, {})[index_2] = None
    rows_1: list[EncryptedTuple] = []
    rows_2: list[EncryptedTuple] = []
    numbered: dict[int, range] = {}  # bucket of R2^S -> its rows_2 positions
    partners: dict[int, list[int]] = {}  # bucket of R1^S -> rows_2 positions
    flat: list[int] = []
    for row_1 in relation_1.rows:
        js = partners.get(row_1.index_value)
        if js is None:
            js = partners[row_1.index_value] = []
            for index_2 in wanted.get(row_1.index_value, ()):
                if index_2 not in numbered:
                    start = len(rows_2)
                    rows_2.extend(by_index_2.get(index_2, ()))
                    numbered[index_2] = range(start, len(rows_2))
                js.extend(numbered[index_2])
        if js:
            flat.extend(chain.from_iterable(zip(repeat(len(rows_1)), js)))
            rows_1.append(row_1)
    return ServerResult(rows_1, rows_2, struct.pack(f">{len(flat)}I", *flat))


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
    config: DASConfig,
    encrypted_tuples: list[EncryptedTuple],
    engine: CryptoEngine | None = None,
) -> list[Row]:
    """Decrypt a table of distinct etuples as one engine batch and
    reassemble mixed-model rows."""
    sensitive_positions, plain_positions = _mixed_split(schema, config)
    plaintexts = client.decrypt_hybrid_many(
        [encrypted.etuple for encrypted in encrypted_tuples], engine=engine
    )
    sensitive_schema = Schema(
        schema.relation_name,
        [schema.attributes[i] for i in sensitive_positions],
    )
    rows: list[Row] = []
    for encrypted, plaintext in zip(encrypted_tuples, plaintexts):
        merged: list = [None] * len(schema)
        for value, position in zip(
            decode_row(plaintext, sensitive_schema), sensitive_positions
        ):
            merged[position] = value
        for value, position in zip(encrypted.plain_values, plain_positions):
            merged[position] = value
        rows.append(tuple(merged))
    return rows


def _client_postprocess(
    client,
    server_result: ServerResult,
    schema_1: Schema,
    schema_2: Schema,
    join_attributes: tuple[str, ...],
    config: DASConfig,
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
    rows_1 = _decrypt_rows(client, schema_1, config, server_result.rows_1, engine)
    rows_2 = _decrypt_rows(client, schema_2, config, server_result.rows_2, engine)
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
    rows: list[EncryptedTuple],
    schemas: tuple[Schema, Schema],
    attribute: str,
    engine: CryptoEngine | None,
    hardening,
) -> tuple[Relation, int, int]:
    """Step 7 under hardening: q_C as a hash join of the forwarded tables.

    R_C is the whole padded cross product, which its two factors imply
    without anyone enumerating it: each etuple is decrypted once, dummies
    are discarded, and the real rows meet in the relational hash join.
    ``rows`` is every etuple received, S1's frames first.  Each etuple
    of a source, real or dummy, references that source's one
    encapsulation, so grouping by encapsulation in order of first
    appearance recovers the two tables from the frames alone.  A side
    with no rows arrives as one empty frame: nothing joins, and every
    real row is unmatched.  Returns the global result, the real rows
    that joined nothing (this delivery's false positives) and the number
    of dummies discarded.
    """
    tables: dict[bytes, list[EncryptedTuple]] = {}
    for row in rows:
        tables.setdefault(row.etuple.wrapped_keys.digest(), []).append(row)
    if len(tables) > 2:
        raise ProtocolError(
            "hardened server result references more than two sessions"
        )
    payloads = [  # None flags a dummy
        list(map(hardening.unwrap, client.decrypt_hybrid_many(
            [encrypted.etuple for encrypted in table], engine=engine
        )))
        for table in tables.values()
    ]
    if len(tables) < 2:
        # Relations are sets: count the distinct real payloads.
        real_rows = {p for side in payloads for p in side if p is not None}
        empty = natural_join(*(Relation(schema, []) for schema in schemas))
        return empty, len(real_rows), len(rows) - len(real_rows)
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
    return natural_join(*real), unmatched, len(rows) - sum(map(len, real))


# -- Listing 2 as step tables, one per translator setting -------------------

PARTIAL = "das_encrypted_partial_result"


def _publish(source, table_for) -> Outbound:
    """Steps 1-3: <R_i^S, the index table> to the mediator; the table
    travels as ``table_for`` makes it from (index table, encrypted for
    the client)."""
    source.index_table, relation, encrypted = _encrypt_source(
        source.name, source.relation, source.join_attributes[0],
        source.config, source.client_keys, source.engine,
        cache=source.cache, hardening=source.hardening,
    )
    table = table_for(source, encrypted)
    return [(source.mediator, PARTIAL, {"relation": relation, "index_table": table})]


def _publish_for_client(source, sender: str, body: None) -> Outbound:
    return _publish(source, lambda source, encrypted: encrypted)


def _publish_for_translator(source, sender: str, body: None) -> Outbound:
    """Source setting: S2's table is encrypted for the translating S1,
    which keeps its own."""
    return _publish(source, _table_for_translator)


def _table_for_translator(source, encrypted) -> hybrid.HybridCiphertext | None:
    if source.translator_key is None:
        return None
    table_bytes = source.index_table.to_bytes()
    if source.hardening is not None:
        table_bytes = source.hardening.wrap_table(table_bytes)
    return hybrid.encrypt([source.translator_key], table_bytes)


def _publish_plain_table(source, sender: str, body: None) -> Outbound:
    """Mediator setting (insecure baseline): the table in plaintext."""
    return _publish(source, lambda source, encrypted: source.index_table)


def _tables_to_client(mediator, sender: str, partials: dict) -> Outbound:
    """Step 4: both encrypted index tables on to the client."""
    mediator.partials = partials
    tables = {name: body["index_table"] for name, body in partials.items()}
    return [(mediator.client, "das_encrypted_index_tables", tables)]


def _table_to_translator(mediator, sender: str, partials: dict) -> Outbound:
    """Source setting: S2's encrypted table on to the translating S1."""
    mediator.partials = partials
    (source_1, _), (_, partial_2) = partials.items()
    table = partial_2["index_table"]
    return [(source_1, "das_index_table_for_translator", table)]


def _translate_at_client(client, sender: str, tables: dict) -> Outbound:
    """Step 5: decrypt both tables and translate q into q_S."""
    table_1, table_2 = (
        _table_from_plaintext(client.client.decrypt_hybrid(table), client.hardening)
        for table in tables.values()
    )
    pairs = _server_pairs(table_1, table_2, client.hardening)
    return [(sender, "das_server_query", ServerQuery(pairs=pairs))]


def _translate_at_source(source, sender: str, table) -> Outbound:
    """Source setting: S1 opens S2's table and translates q itself."""
    table_2 = _table_from_plaintext(
        hybrid.decrypt(source.private_key, table), source.hardening
    )
    pairs = _server_pairs(source.index_table, table_2, source.hardening)
    return [(sender, "das_server_query", ServerQuery(pairs=pairs))]


def _translate_at_mediator(mediator, sender: str, partials: dict) -> Outbound:
    """Mediator setting: the mediator translates q itself, unsent."""
    mediator.partials = partials
    table_1, table_2 = (body["index_table"] for body in partials.values())
    query = ServerQuery(pairs=tuple(table_1.overlapping_pairs(table_2)))
    return [(mediator.name, "das_server_query", query)]


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
            "das_server_result", relation.rows, bound=len(relation)
        )
    ]


def _postprocess(client, sender: str, body: None) -> Outbound:
    """Step 7: decrypt R_C and apply q_C."""
    (server_result,) = client.inbox
    client.global_result, client.false_positives = _client_postprocess(
        client.client, server_result, *client.schemas,
        client.join_attributes, client.config, client.engine,
    )
    return []


def _hash_join(client, sender: str, body: None) -> Outbound:
    client.global_result, client.false_positives, client.dummy_rows = (
        _client_hash_join(
            client.client, list(chain.from_iterable(client.inbox)),
            client.schemas, client.join_attributes[0], client.engine,
            client.hardening,
        )
    )
    return []


_STEP_6_7 = {
    (MEDIATOR, "das_server_query"): Step(_evaluate, "evaluate_server_query"),
    (CLIENT, "das_server_result"): Step(collect),
    (CLIENT, DONE): Step(_postprocess, "decrypt_and_postprocess"),
}
TABLES = {
    CLIENT_SETTING: {
        (SOURCE, START): Step(_publish_for_client, "partition_and_encrypt"),
        (MEDIATOR, PARTIAL): Step(_tables_to_client, gather=True),
        (CLIENT, "das_encrypted_index_tables"): Step(
            _translate_at_client, "translate_query"
        ),
        **_STEP_6_7,
    },
    SOURCE_SETTING: {
        (SOURCE, START): Step(_publish_for_translator, "partition_and_encrypt"),
        (MEDIATOR, PARTIAL): Step(_table_to_translator, gather=True),
        (SOURCE, "das_index_table_for_translator"): Step(
            _translate_at_source, "translate_query"
        ),
        **_STEP_6_7,
    },
    MEDIATOR_SETTING: {
        (SOURCE, START): Step(_publish_plain_table, "partition_and_encrypt"),
        (MEDIATOR, PARTIAL): Step(
            _translate_at_mediator, "translate_query", gather=True
        ),
        **_STEP_6_7,
    },
}
#: Steps 6-7 of a hardened run (the mediator setting refuses hardening).
HARDENED = {
    (MEDIATOR, "das_server_query"): Step(_forward_relations),
    (CLIENT, DONE): Step(_hash_join, "decrypt_and_postprocess"),
}


def seat(
    federation: Federation, outcome: RequestPhaseOutcome,
    config: DASConfig, engine: CryptoEngine, hardening=None,
) -> tuple[dict, Parties]:
    """Listing 2's table for ``config.setting`` and each party's state."""
    if hardening is not None:
        if config.strategy == "equi_width":
            raise ProtocolError(
                "hardened mode cannot bound equi_width buckets (bucket "
                "occupancy is value-dependent); use equi_depth or singleton"
            )
        if config.mixed_plaintext_attributes:
            raise ProtocolError(
                "hardened mode is incompatible with the mixed DAS model: "
                "plaintext attribute values leak by construction"
            )
        if config.setting == MEDIATOR_SETTING:
            raise ProtocolError(
                "hardened mode is incompatible with the mediator setting: "
                "the index tables reach the mediator in plaintext"
            )
    if len(outcome.join_attributes) != 1:
        raise ProtocolError(
            "the DAS delivery phase supports exactly one join attribute; "
            "use the commutative or private-matching protocol for "
            "composite join keys"
        )
    names = {n for name in outcome.source_names for n in outcome.schema_of(name).names()}
    unknown_mixed = set(config.mixed_plaintext_attributes) - names
    if unknown_mixed:
        raise ProtocolError(
            f"unknown mixed-model attributes: {sorted(unknown_mixed)}"
        )
    parties = seat_parties(federation, outcome, config, engine, hardening)
    if config.setting == SOURCE_SETTING:
        # S1 translates: S2 encrypts its table for S1's public key.
        source_1, source_2, *_ = states(parties)
        translator = federation.source(source_1.name)
        source_2.translator_key = translator.ensure_keypair()
        source_1.private_key, source_1.translator_key = translator.private_key(), None
    table = TABLES[config.setting]
    return (table if hardening is None else {**table, **HARDENED}), parties


def report(result: MediationResult, parties: Parties, config: DASConfig) -> None:
    """Global result and artifacts, from the parties' final states."""
    source_1, source_2, mediator, client = states(parties)
    schema_1, schema_2 = client.schemas
    query = mediator.server_query
    result.protocol = f"das[{config.setting}]"
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
            "cond_s": str(query.condition(
                f"{schema_1.relation_name}S", f"{schema_2.relation_name}S",
                client.join_attributes[0],
            )),
            "config": config,
        }
    )
    if client.hardening is not None:
        result.artifacts["dummy_rows_discarded"] = client.dummy_rows
    if config.setting == SOURCE_SETTING:
        # The distinguishing leakage of this setting: the translating
        # source learned the opposite source's index table.
        result.artifacts["translator_source"] = source_1.name
