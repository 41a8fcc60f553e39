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
   the re-tagged messages to the mediator.  The new first component is
   a 16-byte digest of the double encryption
   (:func:`repro.crypto.hashes.match_digest`), not the group element:
   the mediator only tests it for equality, and equal digests are
   exactly equal double encryptions except with probability ~2^-128.
7. The mediator matches messages with identical first components —
   commutativity + bijectivity guarantee these are exactly the join
   values common to both active domains — and sends the combined
   ``<encrypt(Tup_1(a)), encrypt(Tup_2(a))>`` result messages to the
   client.  A repeated or malformed digest fails the query
   (:class:`ProtocolError`).
8. The client decrypts the tuple sets and builds the global result by
   crossing each matched pair of sets.

Footnote 1 of the paper: the mediator "should refrain from sending the
encrypted tuples to the opposite datasource for performance as well as
security reasons".  In step 4 it substitutes a fresh 8-byte ID token for
every payload and re-associates the tokens in step 7, so a source never
sees the other source's tuple-set ciphertexts or their sizes.

The mediator is untrusted, so a source keys only a safe-prime modulus
(:func:`_round_1`): one of :data:`repro.crypto.groups.KNOWN_SAFE_PRIMES`
by lookup, any other after a full :func:`is_safe_prime` test.

Every message set — M_i, the step-4 exchange, the round-2 set — is a
:class:`MessageSet` of two columns from the handler that builds it to
the one that reads it, in process and, decoded, off the wire; only the
codec knows that it travels as a list of ``tagged-message`` records.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import secrets
import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable

from repro.core.assembly import combine_tuple_sets
from repro.core.encapsulation import source_session
from repro.core.joinkeys import (
    JoinKey,
    encode_key,
    group_by_key,
    key_of,
)
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
from repro.crypto import commutative as comm
from repro.crypto import groups, hybrid
from repro.crypto.engine import CryptoEngine, get_engine
from repro.crypto.hashes import (
    MATCH_DIGEST_BYTES,
    IdealHash,
    fingerprint,
    match_digest,
)
from repro.crypto.numtheory import is_safe_prime
from repro.crypto.rand import shuffled
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

#: Moduli a source keys without a primality test.
_KNOWN_MODULI = frozenset(groups.KNOWN_SAFE_PRIMES.values())


@dataclass(frozen=True)
class CommutativeConfig:
    """Tunable parameters of the commutative delivery phase."""

    group_bits: int = groups.TEST_GROUP_BITS


class MessageSet(Sequence):
    """One of Listing 3's message sets — M_i, a step-4 exchange body or a
    round-2 set — as two columns, ``tags`` and ``payloads``.

    ``tags[i]`` is the group element ``f_e(h(a))`` in round 1 and the
    exchange, and the 16-byte match digest of ``f_e1(f_e2(h(a)))`` in
    round 2; ``payloads[i]`` is the tuple-set ciphertext, or an ID
    token.  It indexes, iterates and compares as its ``(tag, payload)``
    pairs.  The handlers that build and read it touch only the columns;
    only the codec knows that it travels as a list of ``tagged-message``
    records.
    """

    __slots__ = ("tags", "payloads")

    def __init__(self, tags: tuple, payloads: tuple) -> None:
        self.tags, self.payloads = tags, payloads

    def __len__(self) -> int:
        return len(self.tags)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return MessageSet(self.tags[index], self.payloads[index])
        return self.tags[index], self.payloads[index]

    def __iter__(self):
        return zip(self.tags, self.payloads)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (MessageSet, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"MessageSet({list(self)!r})"


def _columns(body: Any) -> MessageSet:
    """A received message set.  The empty set has no wire type — it
    travels, and decodes, as ``[]`` — so an empty list or tuple is the
    empty set; any other body that is no :class:`MessageSet` is a
    :class:`ProtocolError`."""
    if type(body) is MessageSet:
        return body
    if type(body) in (list, tuple) and not body:
        return MessageSet((), ())
    raise ProtocolError(f"message set is a {type(body).__name__}")


def _shuffled_set(tags: Sequence, payloads: Sequence) -> MessageSet:
    """The set pairing ``tags[i]`` with ``payloads[i]``, arbitrarily
    ordered: one :func:`shuffled` draw permutes both columns."""
    order = shuffled(range(len(tags)))
    return MessageSet(
        tuple(map(tags.__getitem__, order)),
        tuple(map(payloads.__getitem__, order)),
    )


@dataclass
class _SourceState:
    key: comm.CommutativeKey
    tuple_ciphertexts: dict[JoinKey, hybrid.HybridCiphertext]
    #: Hardened runs only: dummy tuple sets for the mediator's padding.
    dummies: list[hybrid.HybridCiphertext]


def _key_digest(key: comm.CommutativeKey) -> bytes:
    """Short binding digest of a commutative key (group + exponent).

    It keys the MAC every tag, tuple-set and double-encryption slot is
    filed under (:func:`_slots`), so entries computed under one key can
    never be served for another — a replaced key simply misses instead
    of mismatching.
    """
    return hashlib.sha256(
        serialize_int(key.group.p) + b"/" + serialize_int(key.exponent)
    ).digest()[:12]


def _slots(
    prefix: bytes, key_digest: bytes, materials: Iterable[bytes]
) -> list[bytes]:
    """Cache key of the artifact derived from each material under a key.

    A material (a join-value encoding, a tuple-set encoding, an incoming
    tag) enters only as a 16-byte MAC under the key's digest, so no cache
    key carries plaintext and none matches under another key.  Each MAC
    is a copy of one keyed BLAKE2b state (keying it is most of the cost
    of a short MAC).
    """
    keyed = hashlib.blake2b(digest_size=16, key=key_digest)
    slots = []
    for material in materials:
        mac = keyed.copy()
        mac.update(material)
        slots.append(prefix + mac.digest())
    return slots


def _amortized(
    cache: IndexCache | None,
    relation_name: str,
    kind: str,
    count: int,
    slots_of: Callable[[], list[bytes]],
    from_blob: Callable[[bytes], Any],
    to_blob: Callable[[Any], bytes],
    compute: Callable[[list[int]], list],
) -> list:
    """``count`` artifacts of one kind, amortized across the query series.

    Every position the cache holds is read back (one batched read of
    ``slots_of()``, see :meth:`IndexCache.get_many`); the rest — misses,
    unreadable or undecodable entries, or everything when there is no
    cache — are computed as one ``compute(positions)`` batch and filed
    for the next query.
    """
    values: list = [None] * count
    slots: list[bytes] = []
    if cache is not None:
        slots = slots_of()
        values = cache.get_many(relation_name, kind, slots, from_blob)
    pending = [position for position in range(count) if values[position] is None]
    if pending:
        for position, value in zip(pending, compute(pending)):
            values[position] = value
            if cache is not None:
                cache.put(relation_name, kind, slots[position], to_blob(value))
    return values


def _key_slot(group: comm.CommutativeGroup) -> bytes:
    """Cache key of the source's exponent: a digest of the whole modulus
    (the RFC 3526 moduli share their leading bytes)."""
    return b"key:" + fingerprint(serialize_int(group.p))


def _digest_from_blob(blob: bytes) -> bytes:
    if len(blob) != MATCH_DIGEST_BYTES:
        raise StorageError("match digest blob has the wrong length")
    return blob


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
    slot = _key_slot(group)
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


class _MatchSlots:
    """Round 2's ``match:`` slot of each incoming tag, under one key.

    Each call rebuilds the map from the tags just received, reusing the
    slots of tags it already held, so it never holds more than
    |M_other| entries.
    """

    __slots__ = ("held",)

    def __init__(self) -> None:
        self.held: tuple[bytes, dict[int, bytes]] = (b"", {})

    def __call__(self, key_digest: bytes, tags: Sequence[int]) -> list[bytes]:
        digest, known = self.held
        if digest != key_digest:
            known = {}
        fresh = [tag for tag in tags if tag not in known]
        if fresh:
            known = dict(known)
            known.update(zip(
                fresh, _slots(b"match:", key_digest, map(serialize_int, fresh))
            ))
        slots = [known[tag] for tag in tags]
        self.held = (key_digest, dict(zip(tags, slots)))
        return slots


class _Derived:
    """What Listing 3 derives from R_i at a source, computed once per
    content.

    A storage-backed source keeps one per relation, keyed by R_i's
    content (:meth:`DataSource.derived`): the join keys in order, their
    encodings, the encoded tuple sets, and the slot lists of the last key
    digest (``tag:``) and of the last (key digest, session binding,
    hardened target) (``tupct:``).  A cold source builds one per query.
    """

    __slots__ = (
        "join_keys", "encoded_keys", "encoded_sets", "tag_slots",
        "tuple_slots", "match_slots",
    )

    def __init__(
        self, relation: Relation, join_attributes: tuple[str, ...]
    ) -> None:
        grouped = group_by_key(relation, join_attributes)
        self.join_keys = list(grouped)
        self.encoded_keys = [encode_key(join_key) for join_key in self.join_keys]
        self.encoded_sets = [
            encode_rows(grouped[join_key]) for join_key in self.join_keys
        ]
        self.tag_slots: tuple[bytes, list[bytes]] = (b"", [])
        self.tuple_slots: tuple[tuple | None, list[bytes]] = (None, [])
        self.match_slots = _MatchSlots()

    def tags(self, key_digest: bytes) -> list[bytes]:
        """Each join value's ``tag:`` slot under ``key_digest``."""
        digest, slots = self.tag_slots
        if digest != key_digest:
            slots = _slots(b"tag:", key_digest, self.encoded_keys)
            self.tag_slots = (key_digest, slots)
        return slots

    def tuples(
        self, key_digest: bytes, binding: bytes, encoded_sets: list[bytes],
        target: int | None,
    ) -> list[bytes]:
        """Each tuple set's ``tupct:`` slot.  ``encoded_sets`` are this
        entry's sets as wrapped to ``target`` (``None`` unhardened), so
        the key digest, the session binding and the target determine
        the slots."""
        stamp = (key_digest, binding, target)
        held, slots = self.tuple_slots
        if held != stamp:
            slots = _slots(
                b"tupct:" + binding, key_digest,
                map(operator.add, self.encoded_keys, encoded_sets),
            )
            self.tuple_slots = (stamp, slots)
        return slots


def _prepare_source(
    relation: Relation,
    join_attributes: tuple[str, ...],
    group: comm.CommutativeGroup,
    ideal_hash: IdealHash,
    client_keys,
    engine: CryptoEngine | None = None,
    cache: IndexCache | None = None,
    hardening=None,
    derived: _Derived | None = None,
) -> tuple[_SourceState, MessageSet]:
    """Listing 3 steps 1-3 at one datasource.

    With an index cache, the key, the per-value tags ``f_e(h(a))``, the
    hybrid session and the tuple-set ciphertexts all persist across the
    query series (amortization per arXiv 2103.05792); only values not
    seen before — or entries dropped by a mutation/rotation — are
    recomputed, as one engine batch.  ``derived``, the source's entry
    for R_i's content, spares the grouping, the encodings and the slot
    MACs of a repeated R_i; without it they are derived here.  Hardened
    runs also mint the source's dummy tuple sets
    (``_SourceState.dummies``), never cached.
    """
    engine = engine or get_engine()
    if derived is None:
        derived = _Derived(relation, join_attributes)
    key = _cached_key(cache, relation.name, group)
    key_digest = _key_digest(key) if cache is not None else b""
    join_keys, encoded_keys = derived.join_keys, derived.encoded_keys

    # Tags f_e(h(a)), one per active join value.
    tags = _amortized(
        cache, relation.name, KIND_COMM_TAG, len(join_keys),
        lambda: derived.tags(key_digest),
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
    encoded_sets, target = derived.encoded_sets, None
    if hardening is not None:
        encoded_sets, target = hardening.wrap_uniform(encoded_sets)
    session = source_session(cache, relation.name, client_keys)
    binding = session.encapsulation.digest()
    ciphertexts = _amortized(
        cache, relation.name, KIND_COMM_TUPLES, len(join_keys),
        lambda: derived.tuples(key_digest, binding, encoded_sets, target),
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
    state = _SourceState(key, tuple_ciphertexts, dummies)
    return state, _shuffled_set(tags, ciphertexts)


def _double_encrypt(
    received: MessageSet,
    key: comm.CommutativeKey,
    engine: CryptoEngine | None = None,
    cache: IndexCache | None = None,
    relation_name: str = "",
    match_slots: _MatchSlots | None = None,
) -> MessageSet:
    """Listing 3 steps 5/6 at one datasource: apply the own key on top
    and return each double encryption as its 16-byte match digest, with
    the payload it came with (in round 2, an ID token).

    Digests cache by (own key, incoming tag): when both sources reuse
    persisted keys, the opposite tags repeat across the series and this
    step becomes pure lookups.  ``match_slots``, the source's map from
    the last query, spares the slot MAC of each tag it held.
    """
    engine = engine or get_engine()
    if match_slots is None:
        match_slots = _MatchSlots()
    key_digest = _key_digest(key) if cache is not None else b""
    p = key.group.p
    tags = received.tags
    doubled = _amortized(
        cache, relation_name, KIND_COMM_DOUBLE, len(tags),
        lambda: match_slots(key_digest, tags),
        _digest_from_blob, bytes,
        lambda pending: [
            match_digest(element, p)
            for element in engine.batch_commutative_encrypt(
                key, [tags[position] for position in pending]
            )
        ],
    )
    return _shuffled_set(doubled, received.payloads)


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


def _derived(source) -> _Derived | None:
    """The source's entry for R_i's content; none without storage, whose
    keys are fresh per query."""
    if source.cache is None:
        return None
    return source.party.derived(
        source.relation, source.join_attributes,
        functools.partial(_Derived, source.relation, source.join_attributes),
    )


def _round_1(source, sender: str, body: dict) -> Outbound:
    """Steps 1-3: S_i sends M_i (and, hardened, its dummy tuple sets)."""
    modulus = body["modulus"]
    if modulus not in _KNOWN_MODULI and not is_safe_prime(modulus):
        raise ProtocolError(
            "announced commutative group modulus is not a safe prime"
        )
    group = comm.CommutativeGroup(modulus)
    state, messages = _prepare_source(
        source.relation, source.join_attributes, group,
        IdealHash(group.p, body["hash_tag"]), source.client_keys,
        source.engine, cache=source.cache, hardening=source.hardening,
        derived=_derived(source),
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
    computes first — with a fresh ID token in place of every payload
    (footnote 1).  This step is untimed, so it only pairs the tag column
    with a token column; :func:`_match`, a timed step, builds the table
    that maps them back."""
    sets = mediator.message_sets = {
        source: _columns(body) for source, body in message_sets.items()
    }
    (source_1, set_1), (source_2, set_2) = sets.items()
    split = len(set_1)
    tokens = mediator.tokens = _fresh_tokens(split + len(set_2))
    to_2 = MessageSet(set_1.tags, tokens[:split])
    to_1 = MessageSet(set_2.tags, tokens[split:])
    return [
        (source_1, "commutative_exchange", to_1),
        (source_2, "commutative_exchange", to_2),
    ]


def _fresh_tokens(count: int) -> tuple[bytes, ...]:
    """``count`` distinct random ID tokens, drawn and split as one batch."""
    while True:
        tokens = struct.unpack(
            f"{_ID_BYTES}s" * count, secrets.token_bytes(_ID_BYTES * count)
        )
        if len(set(tokens)) == count:  # a repeat (odds ~count²/2^65) redraws
            return tokens


def _round_2(source, sender: str, body: MessageSet) -> Outbound:
    """Steps 5-6: S_i applies its own key on top and returns the set."""
    received = _columns(body)
    derived = _derived(source)
    doubled = _double_encrypt(
        received, source.key, source.engine, cache=source.cache,
        relation_name=source.relation.name,
        match_slots=None if derived is None else derived.match_slots,
    )
    return [(sender, "commutative_double", doubled)]


def _check(response: Any, tokens: tuple[bytes, ...]) -> MessageSet:
    """A source's round-2 set as columns, refused unless it returns each
    ID token it was sent exactly once, each under a distinct 16-byte
    digest.  A repeat would duplicate or overwrite a pair; a missing
    token, or an entry that is not a digest (say, a group element),
    would silently drop one."""
    response = _columns(response)
    digests, returned = response.tags, response.payloads
    sent = set(tokens)
    for tag, token in zip(digests, returned):
        if type(tag) is not bytes or len(tag) != MATCH_DIGEST_BYTES:
            raise ProtocolError("round-2 entry is not a 16-byte match digest")
        if type(token) is not bytes or token not in sent:
            raise ProtocolError("datasource returned an unknown ID token")
    if len(set(digests)) != len(digests):
        raise ProtocolError("round-2 response repeats a match digest")
    if len(returned) != len(tokens) or len(set(returned)) != len(tokens):
        raise ProtocolError(
            "round-2 response does not return each ID token it was sent once"
        )
    return response


def _match(mediator, sender: str, responses: dict) -> Outbound:
    """Step 7: match identical first components; pairs to the client."""
    # S1's responses derive from M_2, so their payloads are Tup_2 sets;
    # S2's payloads are Tup_1 sets.
    response_1, response_2 = responses.values()
    tokens = mediator.tokens
    set_1, set_2 = mediator.message_sets.values()
    split = len(set_1)
    response_1 = _check(response_1, tokens[split:])  # S1 was sent M_2's
    response_2 = _check(response_2, tokens[:split])
    id_table = mediator.id_table = dict(
        zip(tokens, chain(set_1.payloads, set_2.payloads))
    )
    tup_2_by_tag = dict(
        zip(response_1.tags, map(id_table.__getitem__, response_1.payloads))
    )
    mediator.matched = [
        (id_table[token], tup_2_by_tag[tag])
        for tag, token in zip(response_2.tags, response_2.payloads)
        if tag in tup_2_by_tag
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
    # Both sides in one batch, so one engine call unwraps both sources'
    # session keys.
    plaintexts = client.client.decrypt_hybrid_many(
        [pair[0] for pair in delivered] + [pair[1] for pair in delivered],
        engine=client.engine,
    )
    plaintexts_1 = plaintexts[:len(delivered)]
    plaintexts_2 = plaintexts[len(delivered):]
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


def seat(parties: Parties) -> dict:
    """Listing 3's table; the parties need nothing more."""
    return TABLE


def report(
    result: MediationResult, parties: Parties, config: CommutativeConfig
) -> None:
    """Global result and artifacts, from the parties' final states."""
    *_, mediator, client = states(parties)
    result.protocol = "commutative"
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
