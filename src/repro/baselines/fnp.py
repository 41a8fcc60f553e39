"""The Freedman-Nissim-Pinkas private-matching protocol (baseline, [12]).

Two parties: the **chooser** C holds a set and the homomorphic key pair;
the **sender** S holds a set with optional per-value payloads.  The
chooser learns the intersection (plus the payloads of matched values);
the sender learns only |C's set| (the polynomial degree).

This is the original our Listing-4 adaptation distributes across
client/mediator/datasources; the baseline's trust topology differs: the
chooser is a *data party* that learns the intersection values directly,
whereas the mediated client learns only the combined join result and
neither source learns anything about the other beyond |domactive|.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.joinkeys import JoinKey, int_to_key, key_to_int
from repro.core.payload import decode_payload, encode_payload
from repro.crypto.homomorphic import PaillierScheme
from repro.crypto.polynomial import encrypt_polynomial, from_roots
from repro.mediation.network import Network

CHOOSER = "chooser"
SENDER = "sender"


@dataclass
class PrivateMatchingResult:
    """What the chooser learned, plus the transcript."""

    #: matched values, with the sender's payload where one was attached.
    matches: dict[JoinKey, bytes | None] = field(default_factory=dict)
    network: Network = field(default_factory=Network)
    chooser_set_size: int = 0
    sender_set_size: int = 0


def two_party_private_matching(
    scheme: PaillierScheme,
    chooser_keys: set[JoinKey],
    sender_payloads: Mapping[JoinKey, bytes | None],
    max_key_bytes: int = 48,
) -> PrivateMatchingResult:
    """Run the original FNP protocol between two in-process parties."""
    network = Network()
    network.register(CHOOSER)
    network.register(SENDER)

    # Chooser: key pair, polynomial with its values as roots, encrypted
    # coefficients to the sender.
    private_key = scheme.generate_keypair()
    public_key = scheme.public_key(private_key)
    modulus = scheme.plaintext_bound(public_key)
    roots = [key_to_int(key, max_key_bytes) for key in chooser_keys]
    encrypted = encrypt_polynomial(
        scheme, public_key, from_roots(roots, modulus)
    )
    network.send(CHOOSER, SENDER, "public_key", public_key)
    network.send(
        CHOOSER, SENDER, "encrypted_coefficients", list(encrypted.coefficients)
    )

    # Sender: one masked evaluation per own value, payload attached.
    evaluations: list[Any] = []
    for sender_key, payload in sender_payloads.items():
        root = key_to_int(sender_key, max_key_bytes)
        body = payload if payload is not None else b""
        plaintext = encode_payload(sender_key, body, modulus)
        mask = 1 + secrets.randbelow(modulus - 1)
        evaluations.append(encrypted.masked_evaluate(root, mask, plaintext))
    random.SystemRandom().shuffle(evaluations)
    network.send(SENDER, CHOOSER, "masked_evaluations", evaluations)

    # Chooser: decrypt; well-formed payloads identify the intersection.
    matches: dict[JoinKey, bytes | None] = {}
    for ciphertext in evaluations:
        decoded = decode_payload(scheme.decrypt(private_key, ciphertext))
        if decoded is None:
            continue
        matched_key = int_to_key(
            int.from_bytes(b"\x01" + decoded.key_bytes, "big")
        )
        # FNP semantics: the chooser keeps only values from its own set
        # (a payload surviving for a foreign value cannot happen -
        # P(a') != 0 - but the check is the protocol's specified step).
        if matched_key in chooser_keys:
            matches[matched_key] = decoded.body or None
    return PrivateMatchingResult(
        matches=matches,
        network=network,
        chooser_set_size=len(chooser_keys),
        sender_set_size=len(sender_payloads),
    )
