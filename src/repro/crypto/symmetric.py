"""Authenticated symmetric encryption: ChaCha20 + HMAC-SHA256.

The hybrid scheme of the paper (Section 2) encrypts bulk data under a
fresh *session key*.  We instantiate the data-encapsulation mechanism with
the ChaCha20 stream cipher (RFC 7539 block function, implemented from
scratch) in an encrypt-then-MAC composition with HMAC-SHA256.  The result
is IND-CCA-style authenticated encryption: any bit flip in the ciphertext
is detected before decryption output is released.

Key layout: a 32-byte master session key is expanded (HKDF-style, with
distinct labels) into a 32-byte ChaCha20 key and a 32-byte MAC key, so the
two primitives never share key material while the wrapped key stays small
enough for RSA-OAEP key encapsulation at 1024-bit moduli.  The expansion
runs once per :class:`SessionKey`, not once per ciphertext: a session
that encrypts a whole partial result derives its sub-keys a single time.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import struct
from dataclasses import dataclass, field

from repro.crypto import instrumentation
from repro.errors import DecryptionError, IntegrityError, ParameterError

KEY_BYTES = 32  #: master session-key size
CIPHER_KEY_BYTES = 32
MAC_KEY_BYTES = 32
NONCE_BYTES = 12
TAG_BYTES = 32

_MASK32 = 0xFFFFFFFF


def _rotl32(value: int, count: int) -> int:
    value &= _MASK32
    return ((value << count) | (value >> (32 - count))) & _MASK32


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 7)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One ChaCha20 block (RFC 7539 section 2.3): 64 keystream bytes."""
    if len(key) != CIPHER_KEY_BYTES:
        raise ParameterError("ChaCha20 key must be 32 bytes")
    if len(nonce) != NONCE_BYTES:
        raise ParameterError("ChaCha20 nonce must be 12 bytes")
    constants = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
    state = list(constants)
    state.extend(struct.unpack("<8L", key))
    state.append(counter & _MASK32)
    state.extend(struct.unpack("<3L", nonce))

    working = state.copy()
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    output = [(w + s) & _MASK32 for w, s in zip(working, state)]
    return struct.pack("<16L", *output)


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, counter: int = 1) -> bytes:
    """XOR ``data`` with the ChaCha20 keystream (encrypt == decrypt)."""
    out = bytearray(len(data))
    for block_index in range(0, len(data), 64):
        keystream = chacha20_block(key, counter + block_index // 64, nonce)
        chunk = data[block_index:block_index + 64]
        out[block_index:block_index + len(chunk)] = bytes(
            a ^ b for a, b in zip(chunk, keystream)
        )
    return bytes(out)


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
        object.__setattr__(self, "cipher_key", self._expand(b"repro/dem/cipher"))
        object.__setattr__(self, "mac_key", self._expand(b"repro/dem/mac"))

    def _expand(self, label: bytes) -> bytes:
        return hmac.new(self.master, label, hashlib.sha256).digest()


def _session_key(key: SessionKey | bytes) -> SessionKey:
    """A bare master key is a one-ciphertext session."""
    return key if isinstance(key, SessionKey) else SessionKey(key)


def encrypt(
    key: SessionKey | bytes, plaintext: bytes, associated_data: bytes = b""
) -> bytes:
    """Authenticated encryption; output is ``nonce || ciphertext || tag``.

    ``associated_data`` is authenticated but not encrypted (used by the
    protocols to bind ciphertexts to message headers).
    """
    key = _session_key(key)
    instrumentation.record("symmetric.encrypt")
    nonce = secrets.token_bytes(NONCE_BYTES)
    body = chacha20_xor(key.cipher_key, nonce, plaintext)
    tag = _mac(key.mac_key, nonce, body, associated_data)
    return nonce + body + tag


def decrypt(
    key: SessionKey | bytes, ciphertext: bytes, associated_data: bytes = b""
) -> bytes:
    """Inverse of :func:`encrypt`; raises :class:`IntegrityError` on tamper."""
    key = _session_key(key)
    instrumentation.record("symmetric.decrypt")
    if len(ciphertext) < NONCE_BYTES + TAG_BYTES:
        raise DecryptionError("ciphertext too short")
    nonce = ciphertext[:NONCE_BYTES]
    body = ciphertext[NONCE_BYTES:-TAG_BYTES]
    tag = ciphertext[-TAG_BYTES:]
    expected = _mac(key.mac_key, nonce, body, associated_data)
    if not hmac.compare_digest(tag, expected):
        raise IntegrityError("MAC verification failed")
    return chacha20_xor(key.cipher_key, nonce, body)


def _mac(mac_key: bytes, nonce: bytes, body: bytes, associated_data: bytes) -> bytes:
    mac = hmac.new(mac_key, digestmod=hashlib.sha256)
    mac.update(len(associated_data).to_bytes(8, "big"))
    mac.update(associated_data)
    mac.update(nonce)
    mac.update(body)
    return mac.digest()


def ciphertext_overhead() -> int:
    """Bytes added to a plaintext by :func:`encrypt` (nonce + tag)."""
    return NONCE_BYTES + TAG_BYTES
