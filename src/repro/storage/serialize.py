"""Binary serialization for cached ciphertext artifacts.

The index caches persist three kinds of material:

* a source's per-epoch :class:`~repro.crypto.hybrid.Session` (session
  key + encapsulation) — the DEM bodies encrypted under it are stored
  raw, next to it, and are meaningless without it,
* large integers (commutative tags/double-encryptions and SRA exponents),
* integer lists (Paillier-encrypted polynomial coefficients).

All formats are length-prefixed and self-delimiting, so corrupted blobs
raise :class:`~repro.errors.StorageError` instead of decoding to garbage
that only fails later inside a protocol step.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.crypto.hybrid import Encapsulation, Session
from repro.crypto.symmetric import SessionKey
from repro.errors import ParameterError, StorageError

_MAGIC_SESSION = b"SHS1"
_MAGIC_INTS = b"SIL1"


def _pack_chunk(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def _unpack_chunk(data: bytes, offset: int) -> tuple[bytes, int]:
    if offset + 4 > len(data):
        raise StorageError("truncated storage blob: missing length prefix")
    length = int.from_bytes(data[offset : offset + 4], "big")
    offset += 4
    if offset + length > len(data):
        raise StorageError("truncated storage blob: chunk exceeds payload")
    return data[offset : offset + length], offset + length


def _pack_wrapped(wrapped_keys: Mapping[bytes, bytes]) -> list[bytes]:
    parts = [len(wrapped_keys).to_bytes(4, "big")]
    # Sort by fingerprint so equal encapsulations serialize identically.
    for fp in sorted(wrapped_keys):
        parts.append(_pack_chunk(fp))
        parts.append(_pack_chunk(wrapped_keys[fp]))
    return parts


def _unpack_wrapped(data: bytes, offset: int) -> tuple[dict[bytes, bytes], int]:
    if offset + 4 > len(data):
        raise StorageError("truncated storage blob: missing recipient count")
    count = int.from_bytes(data[offset : offset + 4], "big")
    offset += 4
    wrapped: dict[bytes, bytes] = {}
    for _ in range(count):
        fp, offset = _unpack_chunk(data, offset)
        wrapped[fp], offset = _unpack_chunk(data, offset)
    return wrapped, offset


def serialize_session(session: Session) -> bytes:
    """Encode a sender-side session (master key + encapsulation).

    Secret key material: it belongs in the owning source's store only,
    beside the SRA exponent (``docs/storage.md``).
    """
    parts = [_MAGIC_SESSION, _pack_chunk(session.key.master)]
    parts.extend(_pack_wrapped(session.encapsulation))
    return b"".join(parts)


def deserialize_session(data: bytes) -> Session:
    """Decode a blob produced by :func:`serialize_session`."""
    if data[:4] != _MAGIC_SESSION:
        raise StorageError("not a serialized hybrid session")
    master, offset = _unpack_chunk(data, 4)
    wrapped, offset = _unpack_wrapped(data, offset)
    if offset != len(data):
        raise StorageError("trailing bytes after hybrid session")
    try:
        return Session(SessionKey(master), Encapsulation(wrapped))
    except ParameterError as exc:
        raise StorageError(f"malformed hybrid session: {exc}") from exc


def serialize_int(value: int) -> bytes:
    """Encode a non-negative integer (tag, double-encryption, exponent)."""
    if value < 0:
        raise StorageError("cannot serialize negative integer")
    width = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(width, "big")


def deserialize_int(data: bytes) -> int:
    if not data:
        raise StorageError("empty integer blob")
    return int.from_bytes(data, "big")


def serialize_int_list(values: Iterable[int] | Sequence[int]) -> bytes:
    """Encode an ordered list of non-negative integers (coefficients)."""
    chunks = [_pack_chunk(serialize_int(v)) for v in values]
    return _MAGIC_INTS + len(chunks).to_bytes(4, "big") + b"".join(chunks)


def deserialize_int_list(data: bytes) -> list[int]:
    if len(data) < 8 or data[:4] != _MAGIC_INTS:
        raise StorageError("not a serialized integer list")
    count = int.from_bytes(data[4:8], "big")
    offset = 8
    values: list[int] = []
    for _ in range(count):
        chunk, offset = _unpack_chunk(data, offset)
        values.append(deserialize_int(chunk))
    if offset != len(data):
        raise StorageError("trailing bytes after integer list")
    return values
