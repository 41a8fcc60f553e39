"""RSA with OAEP encryption and PSS signatures, from scratch.

Used as a substrate in two places:

* the certification authority signs credentials (RSA-PSS),
* the hybrid scheme wraps session keys under the client's public
  encryption keys (RSA-OAEP), matching the paper's "public keys in the
  credentials can be used ... to send information securely via the
  mediator to the client".

Implementation follows PKCS#1 v2.2 (RFC 8017): MGF1 with SHA-256, OAEP
with a zero label, PSS with a salt as long as the digest.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass
from functools import lru_cache

from repro.crypto import instrumentation
from repro.crypto.numtheory import (
    bytes_to_int,
    generate_prime,
    int_to_bytes,
    modinv,
    powmod,
)
from repro.errors import DecryptionError, EncryptionError, ParameterError

_HASH = hashlib.sha256
_HASH_LEN = 32


@dataclass(frozen=True)
class RSAPublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def modulus_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def max_message_bytes(self) -> int:
        """Longest plaintext OAEP can wrap under this key."""
        return self.modulus_bytes - 2 * _HASH_LEN - 2


@dataclass(frozen=True)
class RSAPrivateKey:
    """RSA private key; keeps the factorisation for CRT acceleration."""

    n: int
    e: int
    d: int
    p: int
    q: int

    def public_key(self) -> RSAPublicKey:
        return RSAPublicKey(self.n, self.e)


@lru_cache(maxsize=128)
def _crt_exponents(d: int, p: int, q: int) -> tuple[int, int, int]:
    """``(d mod p-1, d mod q-1, q^-1 mod p)`` for Garner recombination."""
    return d % (p - 1), d % (q - 1), modinv(q, p)


def private_pow(private_key: RSAPrivateKey, value: int) -> int:
    """The private-key operation ``value^d mod n``.

    Runs in CRT form — two half-size exponentiations mod ``p`` and ``q``
    plus a Garner step, a 3-4x speedup over the direct route.
    """
    d_p, d_q, q_inv = _crt_exponents(private_key.d, private_key.p, private_key.q)
    m_p = powmod(value % private_key.p, d_p, private_key.p)
    m_q = powmod(value % private_key.q, d_q, private_key.q)
    return m_q + (m_p - m_q) * q_inv % private_key.p * private_key.q


def generate_keypair(bits: int = 2048, e: int = 65537) -> RSAPrivateKey:
    """Generate an RSA key pair with an ``bits``-bit modulus."""
    if bits < 512:
        raise ParameterError("RSA modulus below 512 bits is not supported")
    instrumentation.record("rsa.keygen")
    while True:
        p = generate_prime(bits // 2)
        q = generate_prime(bits - bits // 2)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = modinv(e, phi)
        return RSAPrivateKey(n=n, e=e, d=d, p=p, q=q)


def _mgf1(seed: bytes, length: int) -> bytes:
    output = b""
    counter = 0
    while len(output) < length:
        output += _HASH(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
    return output[:length]


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def oaep_encrypt(public_key: RSAPublicKey, message: bytes) -> bytes:
    """RSAES-OAEP encryption of ``message``; returns ``k``-byte ciphertext."""
    instrumentation.record("rsa.encrypt")
    k = public_key.modulus_bytes
    if len(message) > public_key.max_message_bytes():
        raise EncryptionError(
            f"message of {len(message)} bytes exceeds OAEP capacity "
            f"of {public_key.max_message_bytes()} bytes"
        )
    label_hash = _HASH(b"").digest()
    padding = b"\x00" * (k - len(message) - 2 * _HASH_LEN - 2)
    data_block = label_hash + padding + b"\x01" + message
    seed = secrets.token_bytes(_HASH_LEN)
    masked_db = _xor(data_block, _mgf1(seed, k - _HASH_LEN - 1))
    masked_seed = _xor(seed, _mgf1(masked_db, _HASH_LEN))
    encoded = b"\x00" + masked_seed + masked_db
    return int_to_bytes(powmod(bytes_to_int(encoded), public_key.e, public_key.n), k)


def oaep_decrypt(private_key: RSAPrivateKey, ciphertext: bytes) -> bytes:
    """RSAES-OAEP decryption; raises :class:`DecryptionError` on failure."""
    instrumentation.record("rsa.decrypt")
    k = (private_key.n.bit_length() + 7) // 8
    if len(ciphertext) != k:
        raise DecryptionError("ciphertext has wrong length")
    value = bytes_to_int(ciphertext)
    if value >= private_key.n:
        raise DecryptionError("ciphertext out of range")
    encoded = int_to_bytes(private_pow(private_key, value), k)
    first_byte, masked_seed = encoded[0], encoded[1:1 + _HASH_LEN]
    masked_db = encoded[1 + _HASH_LEN:]
    seed = _xor(masked_seed, _mgf1(masked_db, _HASH_LEN))
    data_block = _xor(masked_db, _mgf1(seed, k - _HASH_LEN - 1))
    label_hash = data_block[:_HASH_LEN]
    # Constant-time-ish validity accumulation, then a single failure path.
    valid = first_byte == 0
    valid &= hmac.compare_digest(label_hash, _HASH(b"").digest())
    rest = data_block[_HASH_LEN:]
    separator = rest.find(b"\x01")
    valid &= separator >= 0 and not any(rest[:max(separator, 0)])
    if not valid:
        raise DecryptionError("OAEP decoding failed")
    return rest[separator + 1:]


def pss_sign(private_key: RSAPrivateKey, message: bytes) -> bytes:
    """RSASSA-PSS signature over ``message`` with SHA-256."""
    instrumentation.record("rsa.sign")
    k = (private_key.n.bit_length() + 7) // 8
    em_bits = private_key.n.bit_length() - 1
    em_len = (em_bits + 7) // 8
    if em_len < 2 * _HASH_LEN + 2:
        raise ParameterError(
            f"a {private_key.n.bit_length()}-bit modulus is too short for "
            f"PSS with a {_HASH_LEN}-byte digest and salt"
        )
    message_hash = _HASH(message).digest()
    salt = secrets.token_bytes(_HASH_LEN)
    m_prime = b"\x00" * 8 + message_hash + salt
    h = _HASH(m_prime).digest()
    padding = b"\x00" * (em_len - 2 * _HASH_LEN - 2)
    data_block = padding + b"\x01" + salt
    masked_db = _xor(data_block, _mgf1(h, em_len - _HASH_LEN - 1))
    # Clear the leftmost bits so the encoding fits in em_bits bits.
    clear_bits = 8 * em_len - em_bits
    masked_db = bytes([masked_db[0] & (0xFF >> clear_bits)]) + masked_db[1:]
    encoded = masked_db + h + b"\xbc"
    return int_to_bytes(private_pow(private_key, bytes_to_int(encoded)), k)


def pss_verify(public_key: RSAPublicKey, message: bytes, signature: bytes) -> bool:
    """Verify an RSASSA-PSS signature; returns a boolean, never raises."""
    instrumentation.record("rsa.verify")
    k = public_key.modulus_bytes
    if len(signature) != k:
        return False
    value = bytes_to_int(signature)
    if value >= public_key.n:
        return False
    em_bits = public_key.n.bit_length() - 1
    em_len = (em_bits + 7) // 8
    if em_len < 2 * _HASH_LEN + 2:
        return False
    recovered = powmod(value, public_key.e, public_key.n)
    # An encoding of more than em_bits bits is invalid: it either does not
    # fit em_len bytes at all (modulus length = 1 mod 8) or has one of the
    # leftmost bits set that the signer cleared.
    if recovered.bit_length() > em_bits:
        return False
    encoded = int_to_bytes(recovered, em_len)
    if encoded[-1] != 0xBC:
        return False
    masked_db = encoded[:em_len - _HASH_LEN - 1]
    h = encoded[em_len - _HASH_LEN - 1:-1]
    clear_bits = 8 * em_len - em_bits
    data_block = _xor(masked_db, _mgf1(h, em_len - _HASH_LEN - 1))
    data_block = bytes([data_block[0] & (0xFF >> clear_bits)]) + data_block[1:]
    separator = data_block.find(b"\x01")
    if separator < 0 or any(data_block[:separator]):
        return False
    salt = data_block[separator + 1:]
    if len(salt) != _HASH_LEN:
        return False
    message_hash = _HASH(message).digest()
    m_prime = b"\x00" * 8 + message_hash + salt
    return hmac.compare_digest(h, _HASH(m_prime).digest())
