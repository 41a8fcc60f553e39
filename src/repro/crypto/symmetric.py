"""Authenticated symmetric encryption: a SHAKE-256 keystream + HMAC-SHA256.

The hybrid scheme of the paper (Section 2) encrypts bulk data under a
fresh *session key*; the paper leaves the cipher open.  We instantiate
the data-encapsulation mechanism (DEM) as a stream cipher whose
keystream is SHAKE-256 (FIPS 202) keyed by prefix,
``shake_256(cipher_key || nonce)``, squeezed to the length of the body.
Key and nonce have fixed lengths, so the prefix is unambiguous and the
sponge is used as a PRF.  It runs in an encrypt-then-MAC composition
with HMAC-SHA256, so any bit flip in the ciphertext is detected before
decryption output is released.

Key layout: a 32-byte master session key is expanded (HKDF-style, with
distinct labels that name the DEM) into a 32-byte cipher key and a
32-byte MAC key, so the two primitives never share key material while
the wrapped key stays small enough for RSA-OAEP key encapsulation at
1024-bit moduli.  The expansion runs once per :class:`SessionKey`, not
once per ciphertext: a session that encrypts a whole partial result
derives its sub-keys a single time.

A partial result is hundreds of short bodies, and CPython pays per
bytecode, not per byte, so each body costs one ``hashlib`` call for its
keystream, one ``hmac.digest`` call for its tag and one big-``int`` XOR.
:func:`encrypt` and :func:`decrypt` are the one-message calls of
:func:`encrypt_many` and :func:`decrypt_many`.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.crypto import instrumentation
from repro.errors import DecryptionError, IntegrityError, ParameterError

#: Names this DEM wherever a stored artifact must not outlive it: the
#: sub-key labels, and the slot a source persists its session under.
DEM_ID = b"shake256-hmac-sha256"

KEY_BYTES = 32  #: master session-key size
NONCE_BYTES = 12
TAG_BYTES = 32

_CIPHER_LABEL = b"repro/dem/" + DEM_ID + b"/cipher"
_MAC_LABEL = b"repro/dem/" + DEM_ID + b"/mac"


def _xor(cipher_key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the keystream of ``(cipher_key, nonce)``
    (encrypt == decrypt)."""
    size = len(data)
    pad = hashlib.shake_256(cipher_key + nonce).digest(size)
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(pad, "little")
    ).to_bytes(size, "little")


def generate_key() -> bytes:
    """Fresh 32-byte master session key from the system CSPRNG."""
    instrumentation.record("random.session_key")
    return secrets.token_bytes(KEY_BYTES)


@dataclass(frozen=True)
class SessionKey:
    """A master session key with its cipher and MAC sub-keys derived once.

    The fields are excluded from ``repr`` so key material cannot reach a
    log record or span attribute through string formatting.
    """

    master: bytes = field(repr=False)
    cipher_key: bytes = field(init=False, repr=False)
    mac_key: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.master) != KEY_BYTES:
            raise ParameterError(f"session key must be {KEY_BYTES} bytes")
        object.__setattr__(self, "cipher_key", self._expand(_CIPHER_LABEL))
        object.__setattr__(self, "mac_key", self._expand(_MAC_LABEL))

    def _expand(self, label: bytes) -> bytes:
        return hmac.digest(self.master, label, "sha256")


def _session_key(key: SessionKey | bytes) -> SessionKey:
    """A bare master key is a one-ciphertext session."""
    return key if isinstance(key, SessionKey) else SessionKey(key)


def encrypt_many(
    key: SessionKey | bytes,
    plaintexts: Iterable[bytes],
    associated_data: bytes = b"",
) -> list[bytes]:
    """Authenticated encryption of a batch under one session key.

    Each output is ``nonce || ciphertext || tag`` with a nonce of its
    own, exactly what :func:`encrypt` yields item by item.
    ``associated_data`` is authenticated with every item but not
    encrypted (used by the protocols to bind ciphertexts to message
    headers).
    """
    key = _session_key(key)
    plaintexts = list(plaintexts)
    instrumentation.record("symmetric.encrypt", len(plaintexts))
    nonces = secrets.token_bytes(NONCE_BYTES * len(plaintexts))
    ciphertexts = []
    for position, plaintext in enumerate(plaintexts):
        nonce = nonces[NONCE_BYTES * position:NONCE_BYTES * (position + 1)]
        body = _xor(key.cipher_key, nonce, plaintext)
        ciphertexts.append(
            nonce + body + _mac(key.mac_key, nonce, body, associated_data)
        )
    return ciphertexts


def decrypt_many(
    keys: Sequence[SessionKey | bytes],
    ciphertexts: Sequence[bytes],
    associated_data: bytes = b"",
) -> list[bytes]:
    """Inverse of :func:`encrypt_many`, one key per item (a received
    batch may mix sessions).

    All or nothing: every tag of the batch is verified before any
    keystream is generated, so a single tampered item raises
    :class:`IntegrityError` and no plaintext of the batch is released.
    """
    if len(keys) != len(ciphertexts):
        raise ParameterError("decrypt_many needs one key per ciphertext")
    instrumentation.record("symmetric.decrypt", len(ciphertexts))
    verified = []
    for key, ciphertext in zip(keys, ciphertexts):
        if len(ciphertext) < NONCE_BYTES + TAG_BYTES:
            raise DecryptionError("ciphertext too short")
        key = _session_key(key)
        nonce = ciphertext[:NONCE_BYTES]
        body = ciphertext[NONCE_BYTES:-TAG_BYTES]
        expected = _mac(key.mac_key, nonce, body, associated_data)
        if not hmac.compare_digest(ciphertext[-TAG_BYTES:], expected):
            raise IntegrityError("MAC verification failed")
        verified.append((key.cipher_key, nonce, body))
    return [_xor(*item) for item in verified]


def encrypt(
    key: SessionKey | bytes, plaintext: bytes, associated_data: bytes = b""
) -> bytes:
    """Authenticated encryption; output is ``nonce || ciphertext || tag``."""
    return encrypt_many(key, [plaintext], associated_data)[0]


def decrypt(
    key: SessionKey | bytes, ciphertext: bytes, associated_data: bytes = b""
) -> bytes:
    """Inverse of :func:`encrypt`; raises :class:`IntegrityError` on tamper."""
    return decrypt_many([key], [ciphertext], associated_data)[0]


def _mac(mac_key: bytes, nonce: bytes, body: bytes, associated_data: bytes) -> bytes:
    """HMAC-SHA256 over ``len(ad) as 8 bytes BE || ad || nonce || body``."""
    return hmac.digest(
        mac_key,
        len(associated_data).to_bytes(8, "big") + associated_data + nonce + body,
        "sha256",
    )


def ciphertext_overhead() -> int:
    """Bytes added to a plaintext by :func:`encrypt` (nonce + tag)."""
    return NONCE_BYTES + TAG_BYTES
