"""Delivery phase with homomorphic encryption (private matching) — Listing 4.

The PM protocol (after Freedman, Nissim, Pinkas [12], adapted to the MMM):

1. The client owns the only homomorphic key pair; the public key is
   distributed with his credentials (Section 5.1).
2./3. Each source S_i builds the polynomial ``P_i`` whose roots are the
   elements of ``domactive(R_i.A_join)``, encrypts the coefficients under
   the client's public key (all but the leading one, the public
   constant (-1)^n), and sends them to the mediator.
4. The mediator forwards each encrypted polynomial to the *opposite*
   source.
5./6. For each own value a with fresh random r, S_i computes
   ``E(r * P_other(a) + (a || Tup_i(a)))`` — Equation (1) with payload —
   and returns all values to the mediator.
7. The mediator sends the n + m encrypted values to the client.
8. The client decrypts everything; well-formed ``(a || Tup)`` payloads
   survive exactly for join values in the intersection, and matched pairs
   are combined into the global result.

Footnote 2 (large tuple sets): with ``payload_mode="session_key"`` the
polynomial carries only a fresh session key and an ID token; the tuple
set itself is symmetric-encrypted and shipped in a side table via the
mediator.  The client can open precisely the side-table entries whose
session keys it recovered — i.e. those in the join.
"""

from __future__ import annotations

import hashlib
import random
import secrets
from dataclasses import dataclass

from repro.core.assembly import combine_tuple_sets
from repro.core.federation import Federation
from repro.core.joinkeys import (
    JoinKey,
    active_key_domain,
    group_by_key,
    int_to_key,
    key_to_int,
)
from repro.core.payload import (
    ID_TOKEN_BYTES,
    decode_payload,
    encode_payload,
    split_session_body,
)
from repro.core.request import RequestPhaseOutcome
from repro.core.result import MediationResult
from repro.core.timing import timed
from repro.crypto import hybrid
from repro.crypto.engine import CryptoEngine, get_engine
from repro.crypto.homomorphic import PaillierScheme
from repro.crypto.instrumentation import count_primitives, record
from repro.crypto.paillier import PaillierCiphertext, PaillierPublicKey
from repro.crypto.polynomial import (
    EncryptedPolynomial,
    encrypt_polynomial,
    from_roots,
)
from repro.errors import EncodingError, ProtocolError, StorageError
from repro.relational.encoding import decode_rows, encode_rows
from repro.relational.relation import Relation, Row
from repro.storage.base import KIND_PM_COEFFS, IndexCache
from repro.storage.serialize import deserialize_int_list, serialize_int_list

INLINE_MODE = "inline"
SESSION_KEY_MODE = "session_key"


def _cached_encrypt_polynomial(
    scheme: PaillierScheme,
    public_key: PaillierPublicKey,
    plain_coefficients: list[int],
    cache: IndexCache | None,
    relation_name: str,
    engine: CryptoEngine | None,
) -> EncryptedPolynomial:
    """Encrypt P_i's coefficients, amortizing across the query series.

    Paillier ciphertexts are plain integers bound to the public key, so
    the encrypted coefficient vector persists as an integer list keyed
    by (public-key fingerprint, digest of the coefficients the blob
    holds: all but the public leading one).
    """
    slot = b""
    if cache is not None:
        digest = hashlib.sha256()
        for coefficient in plain_coefficients[:-1]:
            digest.update(coefficient.to_bytes(
                (coefficient.bit_length() + 7) // 8 or 1, "big"))
            digest.update(b"/")
        slot = (
            b"pmcoef:"
            + hybrid_fingerprint(public_key)
            + digest.digest()[:16]
        )
        blob = cache.get(relation_name, KIND_PM_COEFFS, slot)
        if blob is not None:
            try:
                values = deserialize_int_list(blob)
                if len(values) != len(plain_coefficients) - 1:
                    raise StorageError("cached coefficient count mismatch")
                return EncryptedPolynomial(
                    scheme=scheme,
                    public_key=public_key,
                    coefficients=tuple(
                        PaillierCiphertext(value, public_key)
                        for value in values
                    ),
                )
            except Exception:
                cache.decode_failure(KIND_PM_COEFFS)
    encrypted = encrypt_polynomial(
        scheme, public_key, plain_coefficients, engine=engine
    )
    if cache is not None:
        cache.put(
            relation_name,
            KIND_PM_COEFFS,
            slot,
            serialize_int_list(
                [ciphertext.value for ciphertext in encrypted.coefficients]
            ),
        )
    return encrypted


def hybrid_fingerprint(public_key: PaillierPublicKey) -> bytes:
    """Stable fingerprint of a Paillier public key (by modulus)."""
    n = public_key.n
    return hashlib.sha256(
        b"paillier/" + n.to_bytes((n.bit_length() + 7) // 8, "big")
    ).digest()[:16]


@dataclass(frozen=True)
class PMConfig:
    """Tunable parameters of the private-matching delivery phase."""

    payload_mode: str = SESSION_KEY_MODE
    #: Upper bound on the canonical join-key encoding, so roots provably
    #: fit the homomorphic message space.
    max_key_bytes: int = 48

    def __post_init__(self) -> None:
        if self.payload_mode not in (INLINE_MODE, SESSION_KEY_MODE):
            raise ProtocolError(f"unknown payload mode {self.payload_mode!r}")


@dataclass
class _SourceState:
    keys: tuple[JoinKey, ...]
    groups: dict[JoinKey, tuple[Row, ...]]
    #: session-key mode: id token -> symmetric ciphertext of the tuple set.
    side_table: dict[bytes, bytes]


def _build_polynomial(
    relation: Relation,
    join_attributes: tuple[str, ...],
    scheme: PaillierScheme,
    public_key: PaillierPublicKey,
    max_key_bytes: int,
) -> tuple[list[int], _SourceState]:
    """Listing 4 steps 2/3 at one source: coefficients of P_i."""
    modulus = scheme.plaintext_bound(public_key)
    keys = active_key_domain(relation, join_attributes)
    roots = [key_to_int(key, max_key_bytes) for key in keys]
    for root in roots:
        if root >= modulus:
            raise EncodingError(
                "join-key root exceeds the homomorphic message space; "
                "increase the homomorphic key size"
            )
    coefficients = from_roots(roots, modulus)
    state = _SourceState(
        keys=keys,
        groups=group_by_key(relation, join_attributes),
        side_table={},
    )
    return coefficients, state


def _evaluate_for_source(
    state: _SourceState,
    encrypted_polynomial: EncryptedPolynomial,
    config: PMConfig,
    scheme: PaillierScheme,
    public_key: PaillierPublicKey,
    engine: CryptoEngine | None = None,
    hardening=None,
) -> list[PaillierCiphertext]:
    """Listing 4 steps 5/6: E(r * P_other(a) + (a || payload)) per value."""
    engine = engine or get_engine()
    modulus = scheme.plaintext_bound(public_key)
    # The side-table ciphertexts are the only data-sized observables of
    # this protocol (everything else is |domactive|-counted); hardened
    # runs wrap the tuple-set encodings to one uniform length per source.
    encoded_sets: dict[JoinKey, bytes] = {}
    if config.payload_mode == SESSION_KEY_MODE:
        encoded = [encode_rows(state.groups[join_key]) for join_key in state.keys]
        if hardening is not None:
            encoded, _ = hardening.wrap_uniform(encoded)
        encoded_sets = dict(zip(state.keys, encoded))
    # Payload encoding and mask drawing stay in the protocol driver (the
    # masks are protocol randomness); the expensive oblivious Horner
    # evaluations run as one engine batch.
    jobs = []
    for join_key in state.keys:
        root = key_to_int(join_key, config.max_key_bytes)
        rows = state.groups[join_key]
        if config.payload_mode == INLINE_MODE:
            body = encode_rows(rows)
        else:
            session_key = secrets.token_bytes(32)
            token = secrets.token_bytes(ID_TOKEN_BYTES)
            while token in state.side_table:
                token = secrets.token_bytes(ID_TOKEN_BYTES)
            state.side_table[token] = hybrid.session_encrypt(
                session_key, encoded_sets[join_key]
            )
            body = session_key + token
        payload = encode_payload(join_key, body, modulus)
        record("random.pm_mask")
        mask = 1 + secrets.randbelow(modulus - 1)
        jobs.append((root, mask, payload))
    evaluations = engine.batch_poly_eval(encrypted_polynomial, jobs)
    # "Arbitrarily ordered": the order must not reveal the value order.
    random.SystemRandom().shuffle(evaluations)
    return evaluations


def _client_decrypt_side(
    client,
    evaluations: list[PaillierCiphertext],
    side_table: dict[bytes, bytes],
    schema,
    config: PMConfig,
    engine: CryptoEngine | None = None,
    hardening=None,
) -> dict[JoinKey, tuple[Row, ...]]:
    """Listing 4 step 8 (one side): recover the surviving tuple sets."""
    engine = engine or get_engine()
    recovered: dict[JoinKey, tuple[Row, ...]] = {}
    plaintexts = client.decrypt_homomorphic_many(evaluations, engine=engine)
    for plaintext in plaintexts:
        payload = decode_payload(plaintext)
        if payload is None:
            continue  # a masked non-match: random value, correctly rejected
        join_key = int_to_key(int.from_bytes(b"\x01" + payload.key_bytes, "big"))
        if config.payload_mode == INLINE_MODE:
            rows = decode_rows(payload.body, schema)
        else:
            session_key, token = split_session_body(payload.body)
            if token not in side_table:
                raise ProtocolError("side table is missing a matched ID token")
            blob = hybrid.session_decrypt(session_key, side_table[token])
            if hardening is not None:
                blob = hardening.unwrap(blob)
                if blob is None:
                    raise ProtocolError(
                        "matched side-table entry decrypted to a dummy"
                    )
            rows = decode_rows(blob, schema)
        if join_key in recovered:
            raise ProtocolError(f"duplicate join key {join_key!r} in payloads")
        recovered[join_key] = rows
    return recovered


def run_private_matching_delivery(
    federation: Federation,
    outcome: RequestPhaseOutcome,
    config: PMConfig | None = None,
    engine: CryptoEngine | None = None,
    hardening=None,
) -> MediationResult:
    """Execute the private-matching delivery phase (Listing 4)."""
    config = config or PMConfig()
    engine = engine or get_engine()
    if hardening is not None and config.payload_mode == INLINE_MODE:
        raise ProtocolError(
            "hardened mode requires the session-key payload mode: inline "
            "tuple-set payloads have no uniform wrapping path"
        )
    client = federation.require_client()
    if client.homomorphic_scheme is None:
        raise ProtocolError(
            "the private-matching protocol requires the client to own a "
            "homomorphic key pair (see setup_client)"
        )
    scheme = client.homomorphic_scheme
    public_key = client.homomorphic_public_key
    mediator_name = federation.mediator.name
    network = federation.network
    source_1, source_2 = outcome.source_names
    relation_1 = outcome.partial_results[source_1]
    relation_2 = outcome.partial_results[source_2]

    result = MediationResult(
        protocol=f"private-matching[{config.payload_mode}]",
        query=outcome.query,
        global_result=Relation(relation_1.schema, []),
        network=network,
        primitive_counter=None,
    )

    with count_primitives() as counter:
        result.primitive_counter = counter
        # Step 1 (alteration to the preparatory/request phase): the
        # client's homomorphic public key is distributed with the
        # credentials — modelled as an explicit distribution message.
        network.send(client.name, mediator_name, "pm_homomorphic_key", public_key)
        for source_name in (source_1, source_2):
            network.send(
                mediator_name, source_name, "pm_homomorphic_key", public_key
            )

        # Steps 2/3: both sources build and encrypt their polynomials.
        coefficients: dict[str, EncryptedPolynomial] = {}
        states: dict[str, _SourceState] = {}
        for source_name, relation in (
            (source_1, relation_1),
            (source_2, relation_2),
        ):
            with timed(result, source_name, "build_polynomial"):
                plain_coefficients, state = _build_polynomial(
                    relation,
                    outcome.join_attributes,
                    scheme,
                    public_key,
                    config.max_key_bytes,
                )
                encrypted = _cached_encrypt_polynomial(
                    scheme,
                    public_key,
                    plain_coefficients,
                    federation.source(source_name).index_cache(),
                    relation.name,
                    engine,
                )
            states[source_name] = state
            coefficients[source_name] = encrypted
            network.send(
                source_name,
                mediator_name,
                "pm_encrypted_coefficients",
                list(encrypted.coefficients),
            )

        # Step 4: mediator forwards to the opposite source.
        network.send(
            mediator_name,
            source_2,
            "pm_encrypted_coefficients",
            list(coefficients[source_1].coefficients),
        )
        network.send(
            mediator_name,
            source_1,
            "pm_encrypted_coefficients",
            list(coefficients[source_2].coefficients),
        )

        # Steps 5/6: oblivious evaluations at both sources.
        evaluations: dict[str, list[PaillierCiphertext]] = {}
        for source_name, opposite in ((source_1, source_2), (source_2, source_1)):
            with timed(result, source_name, "evaluate_polynomial"):
                evaluations[source_name] = _evaluate_for_source(
                    states[source_name],
                    coefficients[opposite],
                    config,
                    scheme,
                    public_key,
                    engine,
                    hardening=hardening,
                )
            network.send(
                source_name, mediator_name, "pm_evaluations",
                evaluations[source_name],
            )
            if config.payload_mode == SESSION_KEY_MODE:
                network.send(
                    source_name,
                    mediator_name,
                    "pm_side_table",
                    states[source_name].side_table,
                )

        # Step 7: mediator sends the n + m values (and side tables) on.
        network.send(
            mediator_name,
            client.name,
            "pm_evaluations",
            {
                source_1: evaluations[source_1],
                source_2: evaluations[source_2],
            },
        )
        side_tables: dict[str, dict[bytes, bytes]] = {
            source_1: states[source_1].side_table,
            source_2: states[source_2].side_table,
        }
        if config.payload_mode == SESSION_KEY_MODE:
            network.send(mediator_name, client.name, "pm_side_tables", side_tables)

        # Step 8: client decrypts, matches, and combines.
        with timed(result, client.name, "decrypt_and_match"):
            recovered_1 = _client_decrypt_side(
                client,
                evaluations[source_1],
                side_tables[source_1],
                relation_1.schema,
                config,
                engine,
                hardening=hardening,
            )
            recovered_2 = _client_decrypt_side(
                client,
                evaluations[source_2],
                side_tables[source_2],
                relation_2.schema,
                config,
                engine,
                hardening=hardening,
            )
            matched = [
                (join_key, recovered_1[join_key], recovered_2[join_key])
                for join_key in sorted(
                    set(recovered_1) & set(recovered_2),
                    key=lambda key: tuple((type(v).__name__, v) for v in key),
                )
            ]
            global_result = combine_tuple_sets(
                relation_1.schema,
                relation_2.schema,
                outcome.join_attributes,
                matched,
            )

    result.global_result = global_result
    result.artifacts.update(
        {
            "polynomial_degrees": {
                source_1: coefficients[source_1].degree,
                source_2: coefficients[source_2].degree,
            },
            "evaluations_sent": {
                source_1: len(evaluations[source_1]),
                source_2: len(evaluations[source_2]),
            },
            "recovered_payloads": {
                source_1: len(recovered_1),
                source_2: len(recovered_2),
            },
            "matched_keys": len(matched),
            "config": config,
        }
    )
    return result
