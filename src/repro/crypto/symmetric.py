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

The cipher is one lane-packed kernel (:func:`_xor_many`).  A partial
result is hundreds of short bodies, and CPython pays per bytecode, not
per bit, so the kernel runs the block function over every 64-byte block
of every message of a batch at once: each of the 16 state words is one
big ``int`` holding a 64-bit lane per block — the 32-bit word in the low
half, the high half catching the carry of an addition and the spill of a
rotation until the lane mask clears it — and the 80 quarter rounds are
some 2 200 big-integer operations however many blocks there are.  Key,
nonce and counter may differ from lane to lane.  :func:`encrypt` and
:func:`decrypt` are the one-message calls of :func:`encrypt_many` and
:func:`decrypt_many`, :func:`chacha20_block` the one-lane call.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import sys
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.crypto import instrumentation
from repro.errors import DecryptionError, IntegrityError, ParameterError

KEY_BYTES = 32  #: master session-key size
CIPHER_KEY_BYTES = 32
MAC_KEY_BYTES = 32
NONCE_BYTES = 12
TAG_BYTES = 32

_BLOCK_BYTES = 64
_CONSTANTS = b"expand 32-byte k"  #: state words 0-3 (RFC 7539 section 2.3)
_COUNTER_LIMIT = 1 << 32

#: Lanes (blocks) per kernel pass.  A pass holds ~40 integers of 8 bytes
#: per lane, so this bounds the working set at well under 1 MiB whatever
#: the size of a body; throughput is flat from 1 024 lanes upwards.
_MAX_LANES = 2048


def _keystream_pass(state: array) -> bytes:
    """Keystream of up to :data:`_MAX_LANES` blocks, block after block.

    ``state`` holds the 16 initial 32-bit words of each lane one lane
    after the other, as raw little-endian units.  The arrays here only
    ever *move* four-byte units — word ``w`` of every lane into the low
    half of that lane of big integer ``w`` and back — so the host's byte
    order never enters.
    """
    lanes = len(state) // 16
    width = 8 * lanes
    mask = int.from_bytes(b"\xff\xff\xff\xff\x00\x00\x00\x00" * lanes, "little")
    spread = array("I", bytes(width))
    initial = []
    for word in range(16):
        spread[0::2] = state[word::16]
        initial.append(int.from_bytes(spread.tobytes(), "little"))
    x = initial.copy()

    def quarter_round(a: int, b: int, c: int, d: int) -> None:
        xa, xb, xc, xd = x[a], x[b], x[c], x[d]
        xa = (xa + xb) & mask
        xd ^= xa
        xd = ((xd << 16) | (xd >> 16)) & mask
        xc = (xc + xd) & mask
        xb ^= xc
        xb = ((xb << 12) | (xb >> 20)) & mask
        xa = (xa + xb) & mask
        xd ^= xa
        xd = ((xd << 8) | (xd >> 24)) & mask
        xc = (xc + xd) & mask
        xb ^= xc
        xb = ((xb << 7) | (xb >> 25)) & mask
        x[a], x[b], x[c], x[d] = xa, xb, xc, xd

    for _ in range(10):
        quarter_round(0, 4, 8, 12)
        quarter_round(1, 5, 9, 13)
        quarter_round(2, 6, 10, 14)
        quarter_round(3, 7, 11, 15)
        quarter_round(0, 5, 10, 15)
        quarter_round(1, 6, 11, 12)
        quarter_round(2, 7, 8, 13)
        quarter_round(3, 4, 9, 14)

    keystream = array("I", bytes(_BLOCK_BYTES * lanes))
    for word in range(16):
        spread = array(
            "I", ((x[word] + initial[word]) & mask).to_bytes(width, "little")
        )
        keystream[word::16] = spread[0::2]
    return keystream.tobytes()


def _xor_many(jobs: Sequence[tuple[bytes, bytes, int, bytes]]) -> list[bytes]:
    """XOR the ``data`` of each ``(key, nonce, counter, data)`` job with
    its own ChaCha20 keystream, all blocks of all jobs in shared passes.

    A job whose block counter would pass 2^32 is refused: the counter is
    one state word, and wrapping it would reuse keystream.
    """
    headers = []
    offsets = []  # of each job's keystream, in bytes
    counters = array("I")
    for key, nonce, counter, data in jobs:
        if len(key) != CIPHER_KEY_BYTES:
            raise ParameterError("ChaCha20 key must be 32 bytes")
        if len(nonce) != NONCE_BYTES:
            raise ParameterError("ChaCha20 nonce must be 12 bytes")
        blocks = -(-len(data) // _BLOCK_BYTES)
        if not 0 <= counter <= _COUNTER_LIMIT - blocks:
            raise ParameterError(
                "ChaCha20 block counter must stay within 32 bits"
            )
        headers.append((_CONSTANTS + key + bytes(4) + nonce) * blocks)
        offsets.append(_BLOCK_BYTES * len(counters))
        counters.extend(range(counter, counter + blocks))
    if sys.byteorder == "big":
        counters.byteswap()  # the one array here whose units are numbers
    state = array("I", b"".join(headers))
    state[12::16] = counters
    keystream = memoryview(
        b"".join(
            _keystream_pass(state[start:start + 16 * _MAX_LANES])
            for start in range(0, len(state), 16 * _MAX_LANES)
        )
    )
    results = []
    for (_, _, _, data), offset in zip(jobs, offsets):
        size = len(data)
        pad = int.from_bytes(keystream[offset:offset + size], "little")
        results.append(
            (int.from_bytes(data, "little") ^ pad).to_bytes(size, "little")
        )
    return results


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One ChaCha20 block (RFC 7539 section 2.3): 64 keystream bytes."""
    return chacha20_xor(key, nonce, bytes(_BLOCK_BYTES), counter)


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, counter: int = 1) -> bytes:
    """XOR ``data`` with the ChaCha20 keystream (encrypt == decrypt)."""
    return _xor_many([(key, nonce, counter, data)])[0]


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


def encrypt_many(
    key: SessionKey | bytes,
    plaintexts: Iterable[bytes],
    associated_data: bytes = b"",
) -> list[bytes]:
    """Authenticated encryption of a batch under one session key.

    Each output is ``nonce || ciphertext || tag`` with a nonce of its
    own, exactly what :func:`encrypt` yields item by item; the keystream
    of the whole batch comes from shared kernel passes.
    ``associated_data`` is authenticated with every item but not
    encrypted (used by the protocols to bind ciphertexts to message
    headers).
    """
    key = _session_key(key)
    plaintexts = list(plaintexts)
    instrumentation.record("symmetric.encrypt", len(plaintexts))
    nonces = [secrets.token_bytes(NONCE_BYTES) for _ in plaintexts]
    bodies = _xor_many(
        [
            (key.cipher_key, nonce, 1, plaintext)
            for nonce, plaintext in zip(nonces, plaintexts)
        ]
    )
    return [
        nonce + body + _mac(key.mac_key, nonce, body, associated_data)
        for nonce, body in zip(nonces, bodies)
    ]


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
    jobs = []
    for key, ciphertext in zip(keys, ciphertexts):
        if len(ciphertext) < NONCE_BYTES + TAG_BYTES:
            raise DecryptionError("ciphertext too short")
        key = _session_key(key)
        nonce = ciphertext[:NONCE_BYTES]
        body = ciphertext[NONCE_BYTES:-TAG_BYTES]
        expected = _mac(key.mac_key, nonce, body, associated_data)
        if not hmac.compare_digest(ciphertext[-TAG_BYTES:], expected):
            raise IntegrityError("MAC verification failed")
        jobs.append((key.cipher_key, nonce, 1, body))
    return _xor_many(jobs)


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
    mac = hmac.new(mac_key, digestmod=hashlib.sha256)
    mac.update(len(associated_data).to_bytes(8, "big"))
    mac.update(associated_data)
    mac.update(nonce)
    mac.update(body)
    return mac.digest()


def ciphertext_overhead() -> int:
    """Bytes added to a plaintext by :func:`encrypt` (nonce + tag)."""
    return NONCE_BYTES + TAG_BYTES
