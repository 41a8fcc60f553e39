"""Join keys: single- and multi-attribute join handling.

The paper assumes "there is just one join attribute A_join common to R1
and R2" and flags the multi-attribute case as future work (Section 8).
We implement the general case once and let the single-attribute case be
its specialisation: a *join key* is the tuple of a row's values on the
ordered join attributes.  All three protocols operate on join keys:

* the commutative protocol hashes the key's canonical byte encoding,
* the private-matching protocol encodes the key as an integer root,
* the DAS protocol partitions the key domain.

Key encodings are canonical (deterministic, self-delimiting), so both
datasources independently map equal keys to equal hash inputs/roots.
"""

from __future__ import annotations

from repro.errors import EncodingError
from repro.relational.encoding import encode_value
from repro.relational.relation import Relation, Row
from repro.relational.schema import Value

#: A join key: the values of the join attributes, in attribute order.
JoinKey = tuple[Value, ...]


def key_of(relation: Relation, row: Row, attributes: tuple[str, ...]) -> JoinKey:
    """Extract a row's join key."""
    return tuple(relation.value(row, attribute) for attribute in attributes)


def active_key_domain(
    relation: Relation, attributes: tuple[str, ...]
) -> tuple[JoinKey, ...]:
    """``domactive`` of the join key: distinct keys, deterministic order."""
    keys = {key_of(relation, row, attributes) for row in relation}
    return tuple(sorted(keys, key=_sort_key))


def group_by_key(
    relation: Relation, attributes: tuple[str, ...]
) -> dict[JoinKey, tuple[Row, ...]]:
    """All ``Tup_i(a)`` tuple sets, keyed by join key."""
    groups: dict[JoinKey, list[Row]] = {}
    for row in relation:
        groups.setdefault(key_of(relation, row, attributes), []).append(row)
    return {key: tuple(rows) for key, rows in groups.items()}


def encode_key(key: JoinKey) -> bytes:
    """Canonical byte encoding (input to the ideal hash)."""
    parts = [len(key).to_bytes(2, "big")]
    for value in key:
        encoded = encode_value(value)
        parts.append(len(encoded).to_bytes(4, "big"))
        parts.append(encoded)
    return b"".join(parts)


def key_to_int(key: JoinKey, max_bytes: int = 48) -> int:
    """Bijective integer encoding of a join key (polynomial root).

    A sentinel byte 0x01 precedes the canonical encoding so leading zero
    bytes survive the round trip; ``max_bytes`` bounds the encoding so
    callers can guarantee the root fits the homomorphic message space.
    """
    encoded = encode_key(key)
    if len(encoded) > max_bytes:
        raise EncodingError(
            f"join key encoding of {len(encoded)} bytes exceeds bound "
            f"{max_bytes}; raise PMConfig.max_key_bytes with a larger "
            "homomorphic modulus"
        )
    return int.from_bytes(b"\x01" + encoded, "big")


def int_to_key(encoded: int) -> JoinKey:
    """Inverse of :func:`key_to_int`."""
    if encoded <= 0:
        raise EncodingError("invalid encoded join key")
    raw = encoded.to_bytes((encoded.bit_length() + 7) // 8, "big")
    if raw[:1] != b"\x01":
        raise EncodingError("missing join-key sentinel byte")
    data = raw[1:]
    if len(data) < 2:
        raise EncodingError("truncated join-key encoding")
    count = int.from_bytes(data[:2], "big")
    offset = 2
    values: list[Value] = []
    for _ in range(count):
        if offset + 4 > len(data):
            raise EncodingError("truncated join-key field header")
        length = int.from_bytes(data[offset:offset + 4], "big")
        offset += 4
        field = data[offset:offset + length]
        if len(field) != length:
            raise EncodingError("truncated join-key field")
        offset += length
        values.append(_decode_value(field))
    if offset != len(data):
        raise EncodingError("trailing bytes in join-key encoding")
    return tuple(values)


def _decode_value(field: bytes) -> Value:
    if not field:
        raise EncodingError("empty join-key field")
    tag, body = field[:1], field[1:]
    if tag == b"i":
        return int(body.decode("ascii"))
    if tag == b"s":
        return body.decode("utf-8")
    if tag == b"b":
        return body == b"1"
    raise EncodingError(f"unknown join-key value tag {tag!r}")


def _sort_key(key: JoinKey) -> tuple:
    return tuple((type(v).__name__, v) for v in key)
