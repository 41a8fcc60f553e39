"""JSON serialization of key material.

Long-lived federations need to persist the preparatory phase: the CA's
and the clients' RSA key pairs and the clients' Paillier keys.  This
module defines a compact JSON representation for each — integers as
decimal strings (JSON numbers lose precision beyond 2^53) — with strict
type tags so a blob cannot be deserialized as the wrong kind of key.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.crypto import paillier, rsa
from repro.crypto.numtheory import factor_from_lambda_multiple
from repro.errors import EncodingError, ParameterError


def _require_kind(payload: dict[str, Any], kind: str) -> None:
    if payload.get("kind") != kind:
        raise EncodingError(
            f"expected serialized {kind!r}, found {payload.get('kind')!r}"
        )


# -- RSA ---------------------------------------------------------------------

def rsa_private_to_dict(key: rsa.RSAPrivateKey) -> dict[str, Any]:
    return {
        "kind": "rsa-private",
        "n": str(key.n),
        "e": str(key.e),
        "d": str(key.d),
        "p": str(key.p),
        "q": str(key.q),
    }


def rsa_private_from_dict(payload: dict[str, Any]) -> rsa.RSAPrivateKey:
    _require_kind(payload, "rsa-private")
    key = rsa.RSAPrivateKey(
        n=int(payload["n"]),
        e=int(payload["e"]),
        d=int(payload["d"]),
        p=int(payload["p"]),
        q=int(payload["q"]),
    )
    if key.p * key.q != key.n:
        raise EncodingError("inconsistent RSA private key material")
    return key


# -- Paillier -----------------------------------------------------------------

def paillier_private_to_dict(
    key: paillier.PaillierPrivateKey,
) -> dict[str, Any]:
    return {
        "kind": "paillier-private",
        "n": str(key.public_key.n),
        "lam": str(key.lam),
        "mu": str(key.mu),
        "p": str(key.p),
        "q": str(key.q),
    }


def paillier_private_from_dict(
    payload: dict[str, Any]
) -> paillier.PaillierPrivateKey:
    """Rebuild a private key; a snapshot holding only ``(n, lam, mu)``
    has its factorisation recovered from ``lam``, once, here."""
    _require_kind(payload, "paillier-private")
    n, lam, mu = int(payload["n"]), int(payload["lam"]), int(payload["mu"])
    if "p" in payload:
        p, q = int(payload["p"]), int(payload["q"])
    else:
        try:
            p, q = factor_from_lambda_multiple(n, lam)
        except ParameterError as exc:
            raise EncodingError(f"Paillier lam does not factor n: {exc}") from exc
    if p * q != n or math.lcm(p - 1, q - 1) != lam or lam * mu % n != 1:
        raise EncodingError("inconsistent Paillier private key material")
    return paillier.PaillierPrivateKey(
        public_key=paillier.PaillierPublicKey(n=n), lam=lam, mu=mu, p=p, q=q
    )


# -- JSON convenience -------------------------------------------------------------

def dumps(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def loads(text: str) -> dict[str, Any]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EncodingError(f"invalid key JSON: {exc}") from exc
    if not isinstance(payload, dict) or "kind" not in payload:
        raise EncodingError("serialized key material must carry a 'kind'")
    return payload
