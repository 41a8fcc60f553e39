"""Delivery phase with commutative encryption — Listing 3.

The commutative protocol (after Agrawal et al. [1], adapted to the MMM):

1. S_i chooses a secret commutative key e_i; for each a in
   ``domactive(R_i.A_join)`` it computes ``f_{e_i}(h(a))`` with the
   shared ideal hash h.
2. S_i hybrid-encrypts each tuple set ``Tup_i(a)`` for the client.
3. S_i sends the (arbitrarily ordered) message set
   ``M_i = {<f_{e_i}(h(a)), encrypt(Tup_i(a))>}`` to the mediator.
4. The mediator exchanges the message sets between the sources.
5./6. Each source applies its own key on top of the other's:
   ``f_{e_1}(f_{e_2}(h(a)))`` = ``f_{e_2}(f_{e_1}(h(a)))``, and returns
   the re-tagged messages to the mediator.
6. The mediator matches messages with identical first components —
   commutativity + bijectivity guarantee these are exactly the join
   values common to both active domains — and sends the combined
   ``<encrypt(Tup_1(a)), encrypt(Tup_2(a))>`` result messages to the
   client.
8. The client decrypts the tuple sets and builds the global result by
   crossing each matched pair of sets.

Footnote 1 of the paper suggests that, instead of echoing the (possibly
large) encrypted tuple sets to the opposite datasource, the mediator
should substitute fixed-length ID values and re-associate them on the
way back; ``CommutativeConfig(use_tuple_ids=True)`` enables exactly
that optimization (benchmark A3 measures the traffic it saves).
"""

from __future__ import annotations

import functools
import hashlib
import operator
import random
import secrets
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable

from repro.core.assembly import combine_tuple_sets
from repro.core.encapsulation import source_session
from repro.core.federation import Federation
from repro.core.joinkeys import (
    JoinKey,
    encode_key,
    group_by_key,
    key_of,
)
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
from repro.crypto import commutative as comm
from repro.crypto import groups, hybrid
from repro.crypto.engine import CryptoEngine, get_engine
from repro.crypto.hashes import IdealHash
from repro.errors import ProtocolError, StorageError
from repro.relational.encoding import decode_rows, encode_rows
from repro.relational.relation import Relation
from repro.storage.base import (
    KIND_COMM_DOUBLE,
    KIND_COMM_KEY,
    KIND_COMM_TAG,
    KIND_COMM_TUPLES,
    IndexCache,
)
from repro.storage.serialize import deserialize_int, serialize_int

_ID_BYTES = 8


@dataclass(frozen=True)
class CommutativeConfig:
    """Tunable parameters of the commutative delivery phase."""

    group_bits: int = groups.TEST_GROUP_BITS
    #: Footnote-1 optimization: ship fixed-length IDs instead of echoing
    #: encrypted tuple sets through the opposite datasource.
    use_tuple_ids: bool = False
    #: Have the sources verify that the announced group modulus really is
    #: a safe prime before keying it (costly; off for benchmarks).
    verify_group: bool = False


@dataclass(frozen=True)
class TaggedMessage:
    """``<f_e(h(a)), payload>`` — one element of a message set M_i."""

    tag: int
    payload: hybrid.HybridCiphertext | bytes  # ciphertext, or ID token


def _shuffled(items: list) -> list:
    """Cryptographically shuffled copy (order must not leak join values)."""
    shuffled = list(items)
    random.SystemRandom().shuffle(shuffled)
    return shuffled


@dataclass
class _SourceState:
    key: comm.CommutativeKey
    tuple_ciphertexts: dict[JoinKey, hybrid.HybridCiphertext]
    #: Hardened runs only: dummy tuple sets for the mediator's padding.
    dummies: list[hybrid.HybridCiphertext]


def _key_digest(key: comm.CommutativeKey) -> bytes:
    """Short binding digest of a commutative key (group + exponent).

    It keys the MAC every tag, tuple-set and double-encryption slot is
    filed under (:func:`_slot`), so entries computed under one key can
    never be served for another — a replaced key simply misses instead
    of mismatching.
    """
    return hashlib.sha256(
        serialize_int(key.group.p) + b"/" + serialize_int(key.exponent)
    ).digest()[:12]


def _slot(prefix: bytes, key_digest: bytes, material: bytes) -> bytes:
    """Cache key of the artifact derived from ``material`` under a key.

    ``material`` (a join-value encoding, a tuple-set encoding, an
    incoming tag) enters only as a 16-byte MAC under the key's digest, so
    no cache key carries plaintext and none matches under another key.
    """
    return prefix + hashlib.blake2b(
        material, digest_size=16, key=key_digest
    ).digest()


def _amortized(
    cache: IndexCache | None,
    relation_name: str,
    kind: str,
    count: int,
    slot_of: Callable[[int], bytes],
    from_blob: Callable[[bytes], Any],
    to_blob: Callable[[Any], bytes],
    compute: Callable[[list[int]], list],
) -> list:
    """``count`` artifacts of one kind, amortized across the query series.

    Every position the cache holds is read back (one batched read for
    all of them); the rest — misses, unreadable or undecodable entries,
    or everything when there is no cache — are computed as one
    ``compute(positions)`` batch and filed for the next query.
    """
    values: list = [None] * count
    slots: list[bytes] = []
    if cache is not None:
        slots = [slot_of(position) for position in range(count)]
        blobs = cache.get_many(relation_name, kind, slots)
        for position, blob in enumerate(blobs):
            if blob is not None:
                try:
                    values[position] = from_blob(blob)
                except StorageError:
                    cache.decode_failure(kind)
    pending = [position for position in range(count) if values[position] is None]
    if pending:
        for position, value in zip(pending, compute(pending)):
            values[position] = value
            if cache is not None:
                cache.put(relation_name, kind, slots[position], to_blob(value))
    return values


def _cached_key(
    cache: IndexCache | None,
    relation_name: str,
    group: comm.CommutativeGroup,
) -> comm.CommutativeKey:
    """The source's commutative key — persisted across the query series.

    The RFC 3526 groups are deterministic per bit size, so a persisted
    exponent stays valid across processes; the key lives under the
    current epoch and :meth:`DataSource.rotate_keys` retires it.
    """
    if cache is None:
        return comm.generate_key(group)
    slot = b"key:" + serialize_int(group.p)[:16]
    blob = cache.get(relation_name, KIND_COMM_KEY, slot)
    if blob is not None:
        try:
            return comm.CommutativeKey(group, deserialize_int(blob))
        except Exception:
            # Corrupt or out-of-range: fall through to a fresh key.
            cache.decode_failure(KIND_COMM_KEY)
    key = comm.generate_key(group)
    cache.put(relation_name, KIND_COMM_KEY, slot, serialize_int(key.exponent))
    return key


def _prepare_source(
    relation: Relation,
    join_attributes: tuple[str, ...],
    group: comm.CommutativeGroup,
    ideal_hash: IdealHash,
    client_keys,
    config: CommutativeConfig,
    engine: CryptoEngine | None = None,
    cache: IndexCache | None = None,
    hardening=None,
) -> tuple[_SourceState, list[TaggedMessage]]:
    """Listing 3 steps 1-3 at one datasource.

    With an index cache, the key, the per-value tags ``f_e(h(a))``, the
    hybrid session and the tuple-set ciphertexts all persist across the
    query series (amortization per arXiv 2103.05792); only values not
    seen before — or entries dropped by a mutation/rotation — are
    recomputed, as one engine batch.  Hardened runs also mint the
    source's dummy tuple sets (``_SourceState.dummies``), never cached.
    """
    engine = engine or get_engine()
    if config.verify_group and not group.verify():
        raise ProtocolError("announced commutative group failed verification")
    key = _cached_key(cache, relation.name, group)
    key_digest = _key_digest(key) if cache is not None else b""
    grouped = group_by_key(relation, join_attributes)
    join_keys = list(grouped)

    # Tags f_e(h(a)), one per active join value.
    encoded_keys = [encode_key(join_key) for join_key in join_keys]
    tags = _amortized(
        cache, relation.name, KIND_COMM_TAG, len(join_keys),
        lambda position: _slot(b"tag:", key_digest, encoded_keys[position]),
        deserialize_int, serialize_int,
        lambda pending: engine.batch_commutative_encrypt(
            key, [ideal_hash(encoded_keys[position]) for position in pending]
        ),
    )

    # Tuple-set ciphertexts, all under the source's epoch session; the
    # cache stores bare DEM bodies, bound to the session's encapsulation.
    # Hardened runs wrap every tuple-set encoding to one uniform length
    # before anything downstream (cache slots, ciphertext bodies) can see
    # the per-value size; the client unwraps after decryption.
    encoded_sets = [encode_rows(grouped[join_key]) for join_key in join_keys]
    if hardening is not None:
        encoded_sets, target = hardening.wrap_uniform(encoded_sets)
    session = source_session(cache, relation.name, client_keys)
    binding = session.encapsulation.digest()
    ciphertexts = _amortized(
        cache, relation.name, KIND_COMM_TUPLES, len(join_keys),
        lambda position: _slot(
            b"tupct:" + binding, key_digest,
            encoded_keys[position] + encoded_sets[position],
        ),
        functools.partial(hybrid.HybridCiphertext, session.encapsulation),
        operator.attrgetter("body"),
        lambda pending: engine.batch_hybrid_encrypt(
            session, [encoded_sets[position] for position in pending]
        ),
    )
    dummies: list[hybrid.HybridCiphertext] = []
    if hardening is not None:
        # |M_i| dummies of the uniform length, under the same session as
        # the real tuple sets (a second encapsulation would mark them):
        # the mediator pads the result channel from these and never
        # encrypts.  |M_i| is public after round 1, so the count is an
        # adjacency invariant.
        dummies = engine.batch_hybrid_encrypt(
            session, [hardening.dummy(target) for _ in join_keys]
        )

    tuple_ciphertexts = dict(zip(join_keys, ciphertexts))
    messages = [
        TaggedMessage(tag=tag, payload=ciphertext)
        for tag, ciphertext in zip(tags, ciphertexts)
    ]
    return _SourceState(key, tuple_ciphertexts, dummies), _shuffled(messages)


def _double_encrypt(
    messages: list[TaggedMessage],
    key: comm.CommutativeKey,
    engine: CryptoEngine | None = None,
    cache: IndexCache | None = None,
    relation_name: str = "",
) -> list[TaggedMessage]:
    """Listing 3 steps 5/6 at one datasource: apply the own key on top.

    Double-encryptions cache by (own key, incoming tag): when both
    sources reuse persisted keys, the opposite tags repeat across the
    series and this step becomes pure lookups.
    """
    engine = engine or get_engine()
    key_digest = _key_digest(key) if cache is not None else b""
    doubled = _amortized(
        cache, relation_name, KIND_COMM_DOUBLE, len(messages),
        lambda position: _slot(
            b"double:", key_digest, serialize_int(messages[position].tag)
        ),
        deserialize_int, serialize_int,
        lambda pending: engine.batch_commutative_encrypt(
            key, [messages[position].tag for position in pending]
        ),
    )
    return _shuffled(
        [
            TaggedMessage(tag=tag, payload=message.payload)
            for tag, message in zip(doubled, messages)
        ]
    )


# -- Listing 3 as a step table ----------------------------------------------


def _announce(mediator, sender: str, body: None) -> Outbound:
    """The shared group and hash ("both datasources use the same ideal
    hash function")."""
    modulus = groups.commutative_group(mediator.config.group_bits).p
    return [
        (source, "commutative_setup",
         {"modulus": modulus, "hash_tag": IdealHash(modulus).tag})
        for source in mediator.sources
    ]


def _round_1(source, sender: str, body: dict) -> Outbound:
    """Steps 1-3: S_i sends M_i (and, hardened, its dummy tuple sets)."""
    group = comm.CommutativeGroup(body["modulus"])
    state, messages = _prepare_source(
        source.relation, source.join_attributes, group,
        IdealHash(group.p, body["hash_tag"]), source.client_keys,
        source.config, source.engine, cache=source.cache,
        hardening=source.hardening,
    )
    source.key = state.key
    outbound = [(sender, "commutative_m_set", messages)]
    if source.hardening is not None:
        outbound.append((sender, "commutative_dummies", state.dummies))
    return outbound


def _keep_dummies(mediator, sender: str, dummies: dict) -> Outbound:
    mediator.dummies = dummies
    return []


def _exchange(mediator, sender: str, message_sets: dict) -> Outbound:
    """Step 4: each source gets the other's set — S1 first, as it
    computes first — with ID tokens for the payloads under footnote 1."""
    mediator.message_sets = message_sets
    mediator.id_table = {}
    (source_1, set_1), (source_2, set_2) = message_sets.items()
    to_2, to_1 = _substitute_ids(mediator, set_1), _substitute_ids(mediator, set_2)
    return [
        (source_1, "commutative_exchange", to_1),
        (source_2, "commutative_exchange", to_2),
    ]


def _substitute_ids(mediator, messages: list[TaggedMessage]) -> list[TaggedMessage]:
    if not mediator.config.use_tuple_ids:
        return messages
    substituted = []
    for message in messages:
        token = secrets.token_bytes(_ID_BYTES)
        while token in mediator.id_table:
            token = secrets.token_bytes(_ID_BYTES)
        mediator.id_table[token] = message.payload
        substituted.append(TaggedMessage(tag=message.tag, payload=token))
    return substituted


def _round_2(source, sender: str, body: list) -> Outbound:
    """Steps 5-6: S_i applies its own key on top and returns the set."""
    doubled = _double_encrypt(
        body, source.key, source.engine, cache=source.cache,
        relation_name=source.relation.name,
    )
    return [(sender, "commutative_double", doubled)]


def _resolve(mediator, payload):
    if not mediator.config.use_tuple_ids:
        return payload
    if payload not in mediator.id_table:
        raise ProtocolError("datasource returned an unknown ID token")
    return mediator.id_table[payload]


def _match(mediator, sender: str, responses: dict) -> Outbound:
    """Step 7: match identical first components; pairs to the client."""
    # S1's responses derive from M_2, so their payloads are Tup_2 sets;
    # S2's payloads are Tup_1 sets.
    response_1, response_2 = responses.values()
    tup_2_by_tag = {m.tag: _resolve(mediator, m.payload) for m in response_1}
    mediator.matched = [
        (_resolve(mediator, m.payload), tup_2_by_tag[m.tag])
        for m in response_2
        if m.tag in tup_2_by_tag
    ]
    if mediator.hardening is None:
        return [(mediator.client, "commutative_result", mediator.matched)]
    # The intersection size is the mediator's headline leak (Table 1 row
    # "number of values in common").  Pad the result channel to
    # min(|M_1|, |M_2|) — active-domain sizes are adjacency invariants —
    # by pairing S1's dummies with S2's: same session, same body length
    # as the real tuple sets, shuffled so dummy positions carry no
    # signal, delivered as fixed-size frames.
    frames = mediator.hardening.cover.deliver_chunks(
        "commutative_result", mediator.matched,
        bound=min(map(len, mediator.message_sets.values())),
        dummies=list(zip(*mediator.dummies.values())),
        shuffle=True,
    )
    return [(mediator.client, "commutative_result", frame) for frame in frames]


def _decrypt_and_combine(client, sender: str, body: None) -> Outbound:
    """Step 8: the client decrypts the pairs and builds the result."""
    delivered = list(chain.from_iterable(client.inbox))
    hardening = client.hardening
    plaintexts_1 = client.client.decrypt_hybrid_many(
        [pair[0] for pair in delivered], engine=client.engine
    )
    plaintexts_2 = client.client.decrypt_hybrid_many(
        [pair[1] for pair in delivered], engine=client.engine
    )
    schema_1, schema_2 = client.schemas
    client.dummy_pairs = 0
    matched = []
    for plaintext_1, plaintext_2 in zip(plaintexts_1, plaintexts_2):
        if hardening is not None:
            plaintext_1 = hardening.unwrap(plaintext_1)
            plaintext_2 = hardening.unwrap(plaintext_2)
            if plaintext_1 is None and plaintext_2 is None:
                client.dummy_pairs += 1
                continue
            if plaintext_1 is None or plaintext_2 is None:
                raise ProtocolError(
                    "commutative result pair mixes a real tuple set "
                    "with a dummy"
                )
        rows_1 = decode_rows(plaintext_1, schema_1)
        rows_2 = decode_rows(plaintext_2, schema_2)
        probe = Relation(schema_1, rows_1)
        join_key = key_of(probe, rows_1[0], client.join_attributes)
        matched.append((join_key, rows_1, rows_2))
    client.global_result = combine_tuple_sets(
        schema_1, schema_2, client.join_attributes, matched
    )
    return []


TABLE = {
    (MEDIATOR, START): Step(_announce),
    (SOURCE, "commutative_setup"): Step(_round_1, "hash_encrypt_round1"),
    (MEDIATOR, "commutative_m_set"): Step(_exchange, gather=True),
    (MEDIATOR, "commutative_dummies"): Step(_keep_dummies, gather=True),
    (SOURCE, "commutative_exchange"): Step(_round_2, "double_encrypt"),
    (MEDIATOR, "commutative_double"): Step(_match, "match", gather=True),
    (CLIENT, "commutative_result"): Step(collect),
    (CLIENT, DONE): Step(_decrypt_and_combine, "decrypt_and_combine"),
}


def seat(
    federation: Federation, outcome: RequestPhaseOutcome,
    config: CommutativeConfig, engine: CryptoEngine, hardening=None,
) -> tuple[dict, Parties]:
    """Listing 3's table and each party's own state."""
    return TABLE, seat_parties(federation, outcome, config, engine, hardening)


def report(
    result: MediationResult, parties: Parties, config: CommutativeConfig
) -> None:
    """Global result and artifacts, from the parties' final states."""
    *_, mediator, client = states(parties)
    result.protocol = "commutative" + ("[ids]" if config.use_tuple_ids else "")
    result.global_result = client.global_result
    result.artifacts.update(
        {
            # M_i carries one message per active join value.
            "active_domain_sizes": {
                name: len(messages)
                for name, messages in mediator.message_sets.items()
            },
            "intersection_size": len(mediator.matched),
            "id_table_entries": len(mediator.id_table),
            "config": config,
        }
    )
    if client.hardening is not None:
        result.artifacts["dummy_pairs_discarded"] = client.dummy_pairs
