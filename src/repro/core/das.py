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
from itertools import chain

from repro.core.encapsulation import source_session
from repro.core.federation import Federation
from repro.core.request import RequestPhaseOutcome
from repro.core.result import MediationResult
from repro.core.timing import timed
from repro.crypto import hybrid, symmetric
from repro.crypto.engine import CryptoEngine, get_engine
from repro.crypto.instrumentation import count_primitives
from repro.errors import ProtocolError
from repro.mediation.credentials import public_keys_of
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
    """``R_C``: pairs of encrypted tuples the server query selected."""

    pairs: tuple[tuple[EncryptedTuple, EncryptedTuple], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def row_tables(
        self,
    ) -> tuple[list[EncryptedTuple], list[EncryptedTuple], bytes]:
        """R_C as the two tables of distinct rows plus a position table.

        A selected row typically appears in many pairs, so this — not
        the pair list — is what goes on the wire and what the size
        estimate counts: each distinct row (by identity, in order of
        first appearance) once per side, and one packed array of
        big-endian ``u32`` ``(i, j)`` row positions, 8 bytes per pair.
        """
        rows_1, positions_1 = _distinct([pair[0] for pair in self.pairs])
        rows_2, positions_2 = _distinct([pair[1] for pair in self.pairs])
        flat = list(chain.from_iterable(zip(positions_1, positions_2)))
        return rows_1, rows_2, struct.pack(f">{len(flat)}I", *flat)

    @classmethod
    def from_row_tables(
        cls,
        rows_1: list[EncryptedTuple],
        rows_2: list[EncryptedTuple],
        positions: bytes,
    ) -> "ServerResult":
        """Inverse of :meth:`row_tables`; pairs share the row objects."""
        if len(positions) % 8:
            raise ProtocolError(
                "server-result position table is not whole (i, j) pairs"
            )
        flat = struct.unpack(f">{len(positions) // 4}I", positions)
        return cls(
            pairs=tuple(
                zip(
                    map(rows_1.__getitem__, flat[0::2]),
                    map(rows_2.__getitem__, flat[1::2]),
                )
            )
        )


def _distinct(rows: list) -> tuple[list, list[int]]:
    """The distinct objects of ``rows`` by identity, in order of first
    appearance, and each row's position among them."""
    ids = list(map(id, rows))
    distinct = dict(zip(ids, rows))
    numbers = dict(zip(distinct, range(len(distinct))))
    return list(distinct.values()), list(map(numbers.__getitem__, ids))


@dataclass
class _SourceState:
    """Transient per-source state during the delivery phase."""

    index_table: IndexTable
    encrypted_relation: EncryptedRelation
    encrypted_index_table: hybrid.HybridCiphertext | None = None
    plain_rows: dict[int, Row] = field(default_factory=dict)


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
    # of completely unknown names happens once in run_das_delivery.
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
) -> _SourceState:
    """Steps 1-2 at one datasource.

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
    encrypted_index_table = session.encrypt(table_bytes)
    return _SourceState(
        index_table=index_table,
        encrypted_relation=encrypted_relation,
        encrypted_index_table=encrypted_index_table,
    )


def _evaluate_server_query(
    query: ServerQuery,
    relation_1: EncryptedRelation,
    relation_2: EncryptedRelation,
) -> ServerResult:
    """Step 6 at the mediator: sigma_CondS(R1^S x R2^S), hash-grouped.

    Operationally equivalent to evaluating the Cond_S disjunction over
    the cross product, but grouped by index value so cost is output- not
    product-sized.  A pair q_S names twice is one disjunct, so each
    ``(row_1, row_2)`` comes back once.
    """
    by_index_2: dict[int, list[EncryptedTuple]] = {}
    for row in relation_2.rows:
        by_index_2.setdefault(row.index_value, []).append(row)
    wanted: dict[int, dict[int, None]] = {}
    for index_1, index_2 in query.pairs:
        wanted.setdefault(index_1, {})[index_2] = None
    pairs = []
    for row_1 in relation_1.rows:
        for index_2 in wanted.get(row_1.index_value, ()):
            for row_2 in by_index_2.get(index_2, ()):
                pairs.append((row_1, row_2))
    return ServerResult(pairs=tuple(pairs))


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
    by forwarding its two factors (see :func:`run_das_delivery`).
    """
    if hardening is None:
        return tuple(table_1.overlapping_pairs(table_2))
    return tuple(
        (index_1, index_2)
        for _, index_1 in table_1.entries
        for _, index_2 in table_2.entries
    )


def _row_decryptor(
    client,
    schema: Schema,
    config: DASConfig,
    encrypted_tuples: list[EncryptedTuple],
    engine: CryptoEngine | None = None,
):
    """Build a per-schema decryptor that reassembles mixed-model rows.

    The distinct etuples among ``encrypted_tuples`` are decrypted up
    front as one engine batch and the per-tuple decryptor is a lookup (a
    selected tuple typically appears in many server-result pairs).
    """
    sensitive_positions, plain_positions = _mixed_split(schema, config)
    sensitive_schema = Schema(
        schema.relation_name,
        [schema.attributes[i] for i in sensitive_positions],
    )

    def merge(encrypted: EncryptedTuple, plaintext: bytes) -> Row:
        sensitive_part = decode_row(plaintext, sensitive_schema)
        merged: list = [None] * len(schema)
        for value, position in zip(sensitive_part, sensitive_positions):
            merged[position] = value
        for value, position in zip(encrypted.plain_values, plain_positions):
            merged[position] = value
        return tuple(merged)

    distinct = {id(encrypted): encrypted for encrypted in encrypted_tuples}
    plaintexts = client.decrypt_hybrid_many(
        [encrypted.etuple for encrypted in distinct.values()], engine=engine
    )
    rows = {
        key: merge(encrypted, plaintext)
        for (key, encrypted), plaintext in zip(distinct.items(), plaintexts)
    }
    return lambda encrypted: rows[id(encrypted)]


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

    Returns the global result and the number of false positives the
    client had to discard (the DAS post-processing overhead, E7).
    """
    attribute = join_attributes[0]
    left_names = set(schema_1.names())
    extra_positions = [
        schema_2.position(n) for n in schema_2.names() if n not in left_names
    ]
    result_schema = schema_1.join_schema(
        schema_2, f"{schema_1.relation_name}_join_{schema_2.relation_name}"
    )
    decrypt_1 = _row_decryptor(
        client, schema_1, config, [pair[0] for pair in server_result.pairs], engine
    )
    decrypt_2 = _row_decryptor(
        client, schema_2, config, [pair[1] for pair in server_result.pairs], engine
    )

    rows: list[Row] = []
    false_positives = 0
    position_1 = schema_1.position(attribute)
    position_2 = schema_2.position(attribute)
    for encrypted_1, encrypted_2 in server_result.pairs:
        row_1 = decrypt_1(encrypted_1)
        row_2 = decrypt_2(encrypted_2)
        # q_C = sigma_{R1.A = R2.A}: the real equality on plaintexts.
        if row_1[position_1] == row_2[position_2]:
            rows.append(row_1 + tuple(row_2[i] for i in extra_positions))
        else:
            false_positives += 1
    return Relation(result_schema, rows), false_positives


def _client_hash_join(
    client,
    tables: tuple[tuple[EncryptedTuple, ...], tuple[EncryptedTuple, ...]],
    schemas: tuple[Schema, Schema],
    attribute: str,
    engine: CryptoEngine | None,
    hardening,
) -> tuple[Relation, int, int]:
    """Step 7 under hardening: q_C as a hash join of the forwarded tables.

    R_C is the whole padded cross product, which its two factors imply
    without anyone enumerating it: each etuple is decrypted once, dummies
    are discarded, and the real rows meet in the relational hash join.
    Returns the global result, the real rows that joined nothing (this
    delivery's false positives) and the number of dummies discarded.
    """
    real = []
    for schema, table in zip(schemas, tables):
        plaintexts = client.decrypt_hybrid_many(
            [encrypted.etuple for encrypted in table], engine=engine
        )
        payloads = map(hardening.unwrap, plaintexts)  # None flags a dummy
        rows = [decode_row(p, schema) for p in payloads if p is not None]
        real.append(Relation(schema, rows))
    common = set(real[0].active_domain(attribute)).intersection(
        real[1].active_domain(attribute)
    )
    unmatched = sum(
        relation.value(row, attribute) not in common
        for relation in real
        for row in relation
    )
    dummies = sum(map(len, tables)) - sum(map(len, real))
    return natural_join(*real), unmatched, dummies


def run_das_delivery(
    federation: Federation,
    outcome: RequestPhaseOutcome,
    config: DASConfig | None = None,
    engine: CryptoEngine | None = None,
    hardening=None,
) -> MediationResult:
    """Execute the DAS delivery phase (Listing 2) over the message bus."""
    config = config or DASConfig()
    engine = engine or get_engine()
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
    client = federation.require_client()
    mediator_name = federation.mediator.name
    network = federation.network
    attribute = outcome.join_attributes[0]
    source_1, source_2 = outcome.source_names
    schema_1 = outcome.schema_of(source_1)
    schema_2 = outcome.schema_of(source_2)
    unknown_mixed = set(config.mixed_plaintext_attributes) - (
        set(schema_1.names()) | set(schema_2.names())
    )
    if unknown_mixed:
        raise ProtocolError(
            f"unknown mixed-model attributes: {sorted(unknown_mixed)}"
        )

    result = MediationResult(
        protocol=f"das[{config.setting}]",
        query=outcome.query,
        global_result=Relation(schema_1, []),  # placeholder, set below
        network=network,
        primitive_counter=None,  # set below
    )

    with count_primitives() as counter:
        result.primitive_counter = counter
        client_keys = public_keys_of(
            outcome.forwarded_credentials[source_1]
            + outcome.forwarded_credentials[source_2]
        )

        # The source setting makes source_1 the translator; it needs a
        # keypair so the opposite table can be encrypted for it.
        translator_key = None
        if config.setting == SOURCE_SETTING:
            translator_key = federation.source(source_1).ensure_keypair()

        # Steps 1-3: sources partition, encrypt, and send to the mediator.
        states: dict[str, _SourceState] = {}
        for source_name in (source_1, source_2):
            with timed(result, source_name, "partition_and_encrypt"):
                state = _encrypt_source(
                    source_name,
                    outcome.partial_results[source_name],
                    attribute,
                    config,
                    client_keys,
                    engine,
                    cache=federation.source(source_name).index_cache(),
                    hardening=hardening,
                )
            states[source_name] = state
            if config.setting == CLIENT_SETTING:
                table_body = state.encrypted_index_table
            elif config.setting == SOURCE_SETTING:
                if source_name == source_2:
                    # Encrypted for the *translating source*, not the
                    # client: only S1 can open it.
                    table_2_bytes = state.index_table.to_bytes()
                    if hardening is not None:
                        table_2_bytes = hardening.wrap_table(table_2_bytes)
                    table_body = encrypted_table_2 = hybrid.encrypt(
                        [translator_key], table_2_bytes
                    )
                else:
                    table_body = None  # S1 keeps its own table locally
            else:
                # Mediator setting (insecure baseline): plaintext table.
                table_body = state.index_table
            network.send(
                source_name,
                mediator_name,
                "das_encrypted_partial_result",
                {
                    "relation": state.encrypted_relation,
                    "index_table": table_body,
                },
            )

        if config.setting == SOURCE_SETTING:
            # The mediator forwards S2's encrypted table to the
            # translating source, which builds the server query.
            network.send(
                mediator_name,
                source_1,
                "das_index_table_for_translator",
                encrypted_table_2,
            )
            with timed(result, source_1, "translate_query"):
                table_2 = _table_from_plaintext(
                    hybrid.decrypt(
                        federation.source(source_1).private_key(),
                        encrypted_table_2,
                    ),
                    hardening,
                )
                server_query = ServerQuery(
                    pairs=_server_pairs(
                        states[source_1].index_table, table_2, hardening
                    )
                )
            network.send(source_1, mediator_name, "das_server_query", server_query)
        elif config.setting == CLIENT_SETTING:
            # Step 4: mediator forwards both encrypted index tables.
            network.send(
                mediator_name,
                client.name,
                "das_encrypted_index_tables",
                {
                    source_1: states[source_1].encrypted_index_table,
                    source_2: states[source_2].encrypted_index_table,
                },
            )
            # Step 5: client decrypts the tables and translates q.
            with timed(result, client.name, "translate_query"):
                table_1 = _table_from_plaintext(
                    client.decrypt_hybrid(states[source_1].encrypted_index_table),
                    hardening,
                )
                table_2 = _table_from_plaintext(
                    client.decrypt_hybrid(states[source_2].encrypted_index_table),
                    hardening,
                )
                server_query = ServerQuery(
                    pairs=_server_pairs(table_1, table_2, hardening)
                )
            network.send(client.name, mediator_name, "das_server_query", server_query)
        else:
            # Mediator setting: the mediator translates q itself.
            with timed(result, mediator_name, "translate_query"):
                server_query = ServerQuery(
                    pairs=tuple(
                        states[source_1].index_table.overlapping_pairs(
                            states[source_2].index_table
                        )
                    )
                )

        relation_1 = states[source_1].encrypted_relation
        relation_2 = states[source_2].encrypted_relation
        if hardening is not None:
            # Steps 6-7 under hardening.  q_S names the whole grid, so
            # R_C = R1^S x R2^S is a pure function of its two factors:
            # the mediator forwards each padded relation once, in frames
            # whose count follows from the (invariant) padded row count,
            # and nothing of size |R1^S| * |R2^S| is built anywhere.
            for relation in (relation_1, relation_2):
                hardening.cover.deliver_chunks(
                    network, mediator_name, client.name,
                    "das_server_result", relation.rows, bound=len(relation),
                )
            shipped = len(relation_1) + len(relation_2)
            with timed(result, client.name, "decrypt_and_postprocess"):
                global_result, false_positives, dummy_rows = _client_hash_join(
                    client, (relation_1.rows, relation_2.rows),
                    (schema_1, schema_2), attribute, engine, hardening,
                )
        else:
            # Step 6: mediator evaluates q_S over the encrypted relations.
            with timed(result, mediator_name, "evaluate_server_query"):
                server_result = _evaluate_server_query(
                    server_query, relation_1, relation_2
                )
            network.send(
                mediator_name, client.name, "das_server_result", server_result
            )
            shipped = len(server_result)
            # Step 7: client decrypts and applies q_C.
            with timed(result, client.name, "decrypt_and_postprocess"):
                global_result, false_positives = _client_postprocess(
                    client, server_result, schema_1, schema_2,
                    outcome.join_attributes, config, engine,
                )

    result.global_result = global_result
    result.artifacts.update(
        {
            "index_tables": {
                source_1: states[source_1].index_table,
                source_2: states[source_2].index_table,
            },
            "server_query_pairs": len(server_query.pairs),
            # What the mediator ships: pairs of R_C, or rows when hardened.
            "server_result_size": shipped,
            "false_positives": false_positives,
            "cond_s": str(
                server_query.condition(
                    f"{schema_1.relation_name}S", f"{schema_2.relation_name}S",
                    attribute,
                )
            ),
            "config": config,
        }
    )
    if hardening is not None:
        result.artifacts["dummy_rows_discarded"] = dummy_rows
    if config.setting == SOURCE_SETTING:
        # The distinguishing leakage of this setting: the translating
        # source learned the opposite source's index table.
        result.artifacts["translator_source"] = source_1
    return result
