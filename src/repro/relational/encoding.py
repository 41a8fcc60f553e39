"""Canonical byte and integer encodings of values, rows and tuple sets.

Every protocol needs values in some machine form:

* the **hybrid scheme** encrypts whole tuples and tuple sets — they must
  have an unambiguous byte serialization (``encode_row`` /
  ``encode_rows``);
* the **commutative scheme** hashes join values — ``encode_value`` feeds
  the ideal hash (through :func:`repro.core.joinkeys.encode_key`, which
  also gives private matching its integer roots, ``key_to_int``).

All encodings are deterministic and self-delimiting, so two datasources
independently encode equal values identically — the property that makes
ciphertext-side matching sound.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from repro.errors import EncodingError
from repro.relational.relation import Relation, Row
from repro.relational.schema import AttributeType, Schema, Value

def encode_value(value: Value) -> bytes:
    """Canonical, type-disambiguated byte encoding of a single value."""
    if isinstance(value, bool):
        return b"b" + (b"1" if value else b"0")
    if isinstance(value, int):
        return b"i" + str(value).encode("ascii")
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    raise EncodingError(f"cannot encode value of type {type(value).__name__}")


def decode_value(encoded: bytes) -> Value:
    """Inverse of :func:`encode_value`: the tag picks the type."""
    tag, body = encoded[:1], encoded[1:]
    if tag == b"i":
        return int(body.decode("ascii"))
    if tag == b"s":
        return body.decode("utf-8")
    if tag == b"b":
        return body == b"1"
    raise EncodingError(f"unknown value tag {tag!r}")


def encode_row(row: Row) -> bytes:
    """Canonical byte encoding of one tuple (length-prefixed fields)."""
    parts = []
    for value in row:
        encoded = encode_value(value)
        parts.append(len(encoded).to_bytes(4, "big"))
        parts.append(encoded)
    return b"".join(parts)


def decode_row(data: bytes, schema: Schema) -> Row:
    """Inverse of :func:`encode_row` under a schema (restores types)."""
    values: list[Value] = []
    offset = 0
    for attribute in schema.attributes:
        if offset + 4 > len(data):
            raise EncodingError("truncated row encoding")
        length = int.from_bytes(data[offset:offset + 4], "big")
        offset += 4
        field = data[offset:offset + length]
        if len(field) != length:
            raise EncodingError("truncated row field")
        offset += length
        value = decode_value(field)
        if AttributeType.of(value) is not attribute.type:
            raise EncodingError(
                f"field tag {field[:1]!r} does not match expected type "
                f"{attribute.type.value}"
            )
        values.append(value)
    if offset != len(data):
        raise EncodingError("trailing bytes after row encoding")
    return tuple(values)


def encode_rows(rows: tuple[Row, ...] | list[Row]) -> bytes:
    """Canonical encoding of a tuple set ``Tup_i(a)`` (count-prefixed)."""
    return frame_rows(list(map(encode_row, rows)))


def frame_rows(encoded_rows: Sequence[bytes]) -> bytes:
    """The count/length framing :func:`encode_rows` puts around the
    :func:`encode_row` outputs, for a caller that already holds them."""
    parts = [len(encoded_rows).to_bytes(4, "big")]
    for encoded in encoded_rows:
        parts.append(len(encoded).to_bytes(4, "big"))
        parts.append(encoded)
    return b"".join(parts)


def decode_rows(data: bytes, schema: Schema) -> tuple[Row, ...]:
    """Inverse of :func:`encode_rows`."""
    if len(data) < 4:
        raise EncodingError("truncated tuple-set encoding")
    count = int.from_bytes(data[:4], "big")
    offset = 4
    rows = []
    for _ in range(count):
        if offset + 4 > len(data):
            raise EncodingError("truncated tuple-set entry")
        length = int.from_bytes(data[offset:offset + 4], "big")
        offset += 4
        rows.append(decode_row(data[offset:offset + length], schema))
        offset += length
    if offset != len(data):
        raise EncodingError("trailing bytes after tuple-set encoding")
    return tuple(rows)


def encode_relation(
    relation: Relation, encoded_rows: Sequence[bytes] | None = None
) -> bytes:
    """Canonical encoding of a whole relation (schema header + rows).

    Its digest is the relation's content fingerprint
    (:func:`repro.storage.base.relation_fingerprint`); JSON keeps the
    header human-auditable.  A caller holding ``encode_row`` of each of
    ``relation.rows``, in order, passes them as ``encoded_rows`` and no
    row is encoded again.
    """
    header = json.dumps(
        {
            "name": relation.schema.relation_name,
            "attributes": [
                [a.name, a.type.value] for a in relation.schema.attributes
            ],
        },
        separators=(",", ":"),
    ).encode("utf-8")
    if encoded_rows is None:
        encoded_rows = list(map(encode_row, relation.rows))
    body = frame_rows(encoded_rows)
    return len(header).to_bytes(4, "big") + header + body
