"""Wire-size estimation for transcript accounting.

The Section 6 comparison needs bytes-on-the-wire per protocol.  Rather
than defining a full serialization format for every message body, the
message bus estimates sizes structurally: cryptographic objects report
the length of their canonical encodings, containers sum their elements,
and a small per-message envelope overhead is added by the bus.

Estimates are exact for byte strings and integer ciphertexts (big-endian
length) and within an envelope constant for composites — sufficient for
the comparative shapes the paper discusses.  A key encapsulation shared
by many hybrid ciphertexts counts once per message body, which is what
the wire codec's interning table makes true on TCP; every ciphertext
counts its own header besides
(:data:`repro.crypto.hybrid.CIPHERTEXT_HEADER_BYTES`).
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.crypto.hybrid import HybridCiphertext
from repro.crypto.paillier import PaillierCiphertext
from repro.relational.partition import IndexTable
from repro.relational.relation import Relation


def _int_size(value: int) -> int:
    return max(1, (value.bit_length() + 7) // 8)


def estimate_size(body: Any) -> int:
    """Approximate serialized size of a message body in bytes."""
    return _estimate(body, set())


def _estimate(body: Any, seen: set[int]) -> int:
    """``seen`` holds the ids of the encapsulations already counted."""
    if body is None:
        return 0
    if isinstance(body, bool):
        return 1
    if isinstance(body, int):
        return _int_size(body)
    if isinstance(body, (bytes, bytearray)):
        return len(body)
    if isinstance(body, str):
        return len(body.encode("utf-8"))
    if isinstance(body, HybridCiphertext):
        encapsulation = body.wrapped_keys
        if id(encapsulation) in seen:
            return body.size_bytes() - encapsulation.size_bytes()
        seen.add(id(encapsulation))
        return body.size_bytes()
    if isinstance(body, PaillierCiphertext):
        return _int_size(body.public_key.n_squared)
    if isinstance(body, IndexTable):
        return len(body.to_bytes())
    if isinstance(body, Relation):
        from repro.relational.encoding import encode_relation

        return len(encode_relation(body))
    if isinstance(body, dict):
        return sum(
            _estimate(key, seen) + _estimate(value, seen)
            for key, value in body.items()
        )
    if isinstance(body, (list, tuple, set, frozenset)):
        return sum(_estimate(item, seen) for item in body)
    if dataclasses.is_dataclass(body) and not isinstance(body, type):
        return sum(
            _estimate(getattr(body, field.name), seen)
            for field in dataclasses.fields(body)
        )
    if hasattr(body, "size_bytes"):
        return int(body.size_bytes())
    # Conservative fallback: repr length (keeps accounting total, never
    # raises inside the bus).
    return len(repr(body))
