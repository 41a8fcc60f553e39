"""Payload encoding for the private-matching protocol.

Section 5: the sender "can also concatenate his a'_l-value with payload
data py ... the chooser can only retrieve py if the corresponding
a'_l-value is in the intersection".  In the MMM adaptation the payload is
the tuple set ``Tup_i(a)``; footnote 2 refines this for large tuple sets:
*"the session key and an ID value are encrypted in the polynomial whereas
each tuple set is encrypted with its corresponding session key and mapped
to the ID value in a table"*.  That refinement is the protocol here: the
payload body is a fresh 32-byte session key plus an 8-byte ID token, and
the tuple set travels in a side table encrypted under the session key.

Encoding layout (before integer conversion)::

    0x01 | MAGIC(2) | key_len(2) | key_bytes | body_len(3) | body | check(6)

The leading sentinel preserves leading zeros across the int round trip;
the 6-byte truncated-SHA256 checksum makes a *random* plaintext (the
decryption of a masked non-match) parse as valid with probability about
2^-64 — the client's step-8 "check for decrypted values of the form
(a || Tup)" is thereby sound.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.joinkeys import JoinKey, encode_key
from repro.errors import EncodingError

_MAGIC = b"PM"
_CHECK_BYTES = 6

#: Fixed sizes of the payload body: session key, then ID token.
SESSION_KEY_BYTES = 32
ID_TOKEN_BYTES = 8


@dataclass(frozen=True)
class DecodedPayload:
    """A successfully authenticated payload: the join key and body."""

    key_bytes: bytes
    body: bytes


def _checksum(data: bytes) -> bytes:
    return hashlib.sha256(b"repro/pm-payload" + data).digest()[:_CHECK_BYTES]


def encode_payload(join_key: JoinKey, body: bytes, plaintext_bound: int) -> int:
    """Pack ``(a || body)`` into a homomorphic plaintext integer.

    Raises :class:`EncodingError` when the encoding exceeds the scheme's
    message space.
    """
    key_bytes = encode_key(join_key)
    if len(key_bytes) > 0xFFFF:
        raise EncodingError("join key too long for payload encoding")
    if len(body) > 0xFFFFFF:
        raise EncodingError("payload body too long for payload encoding")
    inner = (
        _MAGIC
        + len(key_bytes).to_bytes(2, "big")
        + key_bytes
        + len(body).to_bytes(3, "big")
        + body
    )
    encoded = b"\x01" + inner + _checksum(inner)
    value = int.from_bytes(encoded, "big")
    if value >= plaintext_bound:
        raise EncodingError(
            f"payload of {len(encoded)} bytes does not fit the homomorphic "
            f"message space (~{plaintext_bound.bit_length()} bits); use a "
            "larger homomorphic key"
        )
    return value


def decode_payload(value: int) -> DecodedPayload | None:
    """Parse and authenticate a decrypted plaintext.

    Returns None for values that are not well-formed payloads — exactly
    the "random value" outcomes of non-matching polynomial evaluations.
    """
    if value <= 0:
        return None
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
    if raw[:1] != b"\x01" or len(raw) < 1 + 2 + 2 + 3 + _CHECK_BYTES:
        return None
    inner, check = raw[1:-_CHECK_BYTES], raw[-_CHECK_BYTES:]
    if _checksum(inner) != check:
        return None
    if inner[:2] != _MAGIC:
        return None
    key_length = int.from_bytes(inner[2:4], "big")
    offset = 4
    key_bytes = inner[offset:offset + key_length]
    if len(key_bytes) != key_length:
        return None
    offset += key_length
    if offset + 3 > len(inner):
        return None
    body_length = int.from_bytes(inner[offset:offset + 3], "big")
    offset += 3
    body = inner[offset:offset + body_length]
    if len(body) != body_length or offset + body_length != len(inner):
        return None
    return DecodedPayload(key_bytes=key_bytes, body=body)


def split_session_body(body: bytes) -> tuple[bytes, bytes]:
    """Split a payload body into (session_key, id_token)."""
    if len(body) != SESSION_KEY_BYTES + ID_TOKEN_BYTES:
        raise EncodingError("malformed session-key payload body")
    return body[:SESSION_KEY_BYTES], body[SESSION_KEY_BYTES:]

