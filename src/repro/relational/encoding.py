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
        values.append(_decode_field(field, attribute.type))
    if offset != len(data):
        raise EncodingError("trailing bytes after row encoding")
    return tuple(values)


def _decode_field(field: bytes, expected: AttributeType) -> Value:
    if not field:
        raise EncodingError("empty field encoding")
    tag, body = field[:1], field[1:]
    if tag == b"i" and expected is AttributeType.INT:
        return int(body.decode("ascii"))
    if tag == b"s" and expected is AttributeType.STRING:
        return body.decode("utf-8")
    if tag == b"b" and expected is AttributeType.BOOL:
        return body == b"1"
    raise EncodingError(
        f"field tag {tag!r} does not match expected type {expected.value}"
    )


def encode_rows(rows: tuple[Row, ...] | list[Row]) -> bytes:
    """Canonical encoding of a tuple set ``Tup_i(a)`` (count-prefixed)."""
    parts = [len(rows).to_bytes(4, "big")]
    for row in rows:
        encoded = encode_row(row)
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


def encode_relation(relation: Relation) -> bytes:
    """Encode a whole relation (schema header + rows) for transport.

    Used when index tables or side tables travel inside hybrid
    ciphertexts; JSON keeps the header human-auditable in transcripts.
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
    body = encode_rows(relation.rows)
    return len(header).to_bytes(4, "big") + header + body


def decode_relation(data: bytes) -> Relation:
    """Inverse of :func:`encode_relation`."""
    from repro.relational.schema import Attribute  # local: avoid cycle noise

    if len(data) < 4:
        raise EncodingError("truncated relation encoding")
    header_length = int.from_bytes(data[:4], "big")
    header = json.loads(data[4:4 + header_length].decode("utf-8"))
    schema = Schema(
        header["name"],
        [Attribute(name, AttributeType(t)) for name, t in header["attributes"]],
    )
    rows = decode_rows(data[4 + header_length:], schema)
    return Relation(schema, rows)
