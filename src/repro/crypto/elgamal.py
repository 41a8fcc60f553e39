"""ElGamal encryption over QR_p: multiplicative and exponential variants.

The paper names two homomorphic candidates for the private-matching
protocol: Paillier [20] and the (elliptic-curve) ElGamal variant of [10].
We provide classic ElGamal over the quadratic-residue subgroup of a safe
prime in both flavours:

* **multiplicative** — ``E(m) = (g^r, m * h^r)``, homomorphic under
  multiplication of plaintexts;
* **exponential (additive)** — ``E(m) = (g^r, g^m * h^r)``, homomorphic
  under addition, with decryption requiring a discrete logarithm of the
  (small) plaintext, solved by baby-step/giant-step.

The exponential variant is what [10] uses for ballots; it is only
practical for small message spaces, which is precisely why our default
instantiation of private matching uses Paillier while ElGamal backs the
comparison benchmarks.
"""

from __future__ import annotations

import math
import secrets
from dataclasses import dataclass

from repro.crypto import instrumentation
from repro.crypto.commutative import CommutativeGroup
from repro.crypto.numtheory import modinv, powmod
from repro.errors import DecryptionError, EncryptionError, KeyError_


@dataclass(frozen=True)
class ElGamalPublicKey:
    """Group, generator ``g`` of QR_p, and public element ``h = g^x``."""

    group: CommutativeGroup
    g: int
    h: int


@dataclass(frozen=True)
class ElGamalPrivateKey:
    public_key: ElGamalPublicKey
    x: int


@dataclass(frozen=True)
class ElGamalCiphertext:
    c1: int
    c2: int
    public_key: ElGamalPublicKey


def generate_keypair(group: CommutativeGroup) -> ElGamalPrivateKey:
    """Key pair over QR_p; ``g`` is a random group element (order q)."""
    instrumentation.record("elgamal.keygen")
    q = group.q
    g = group.random_element()
    while g == 1:
        g = group.random_element()
    x = 1 + secrets.randbelow(q - 1)
    h = powmod(g, x, group.p)
    return ElGamalPrivateKey(ElGamalPublicKey(group, g, h), x)


def _fresh_nonce(q: int) -> int:
    instrumentation.record("random.elgamal_nonce")
    return 1 + secrets.randbelow(q - 1)


def encrypt(public_key: ElGamalPublicKey, message: int) -> ElGamalCiphertext:
    """Multiplicative ElGamal; ``message`` must be an element of QR_p."""
    group = public_key.group
    if not group.contains(message):
        raise EncryptionError("message is not in the QR_p message space")
    instrumentation.record("elgamal.encrypt")
    r = _fresh_nonce(group.q)
    c1 = powmod(public_key.g, r, group.p)
    c2 = message * powmod(public_key.h, r, group.p) % group.p
    return ElGamalCiphertext(c1, c2, public_key)


def decrypt(private_key: ElGamalPrivateKey, ciphertext: ElGamalCiphertext) -> int:
    """Inverse of :func:`encrypt`."""
    if ciphertext.public_key != private_key.public_key:
        raise KeyError_("ciphertext was produced under a different key")
    instrumentation.record("elgamal.decrypt")
    p = private_key.public_key.group.p
    shared = powmod(ciphertext.c1, private_key.x, p)
    return ciphertext.c2 * modinv(shared, p) % p


def multiply(a: ElGamalCiphertext, b: ElGamalCiphertext) -> ElGamalCiphertext:
    """Homomorphic multiplication: ``E(x) * E(y) = E(x * y)``."""
    if a.public_key != b.public_key:
        raise KeyError_("cannot combine ciphertexts under different keys")
    instrumentation.record("elgamal.multiply")
    p = a.public_key.group.p
    return ElGamalCiphertext(a.c1 * b.c1 % p, a.c2 * b.c2 % p, a.public_key)


def encrypt_exponential(
    public_key: ElGamalPublicKey, message: int
) -> ElGamalCiphertext:
    """Exponential (additively homomorphic) ElGamal: encrypts ``g^m``."""
    group = public_key.group
    if not 0 <= message < group.q:
        raise EncryptionError("exponential ElGamal message out of range")
    instrumentation.record("elgamal.encrypt_exponential")
    r = _fresh_nonce(group.q)
    c1 = powmod(public_key.g, r, group.p)
    c2 = powmod(public_key.g, message, group.p) * powmod(public_key.h, r, group.p)
    return ElGamalCiphertext(c1, c2 % group.p, public_key)


def add(a: ElGamalCiphertext, b: ElGamalCiphertext) -> ElGamalCiphertext:
    """Homomorphic addition for the exponential variant."""
    return multiply(a, b)


def scalar_multiply(a: ElGamalCiphertext, scalar: int) -> ElGamalCiphertext:
    """Homomorphic scalar multiplication for the exponential variant."""
    instrumentation.record("elgamal.scalar_multiply")
    group = a.public_key.group
    scalar %= group.q
    return ElGamalCiphertext(
        powmod(a.c1, scalar, group.p), powmod(a.c2, scalar, group.p), a.public_key
    )


def decrypt_exponential(
    private_key: ElGamalPrivateKey,
    ciphertext: ElGamalCiphertext,
    max_message: int,
) -> int:
    """Decrypt an exponential ciphertext with plaintext in [0, max_message].

    Recovers ``g^m`` and solves the discrete log with baby-step/giant-step
    in ``O(sqrt(max_message))`` group operations.
    """
    instrumentation.record("elgamal.decrypt_exponential")
    p = private_key.public_key.group.p
    g = private_key.public_key.g
    shared = powmod(ciphertext.c1, private_key.x, p)
    target = ciphertext.c2 * modinv(shared, p) % p
    m = _baby_step_giant_step(g, target, p, max_message)
    if m is None:
        raise DecryptionError(
            f"plaintext exceeds the discrete-log bound {max_message}"
        )
    return m


def _baby_step_giant_step(g: int, target: int, p: int, bound: int) -> int | None:
    """Solve ``g^m = target (mod p)`` for ``0 <= m <= bound``."""
    if target == 1:
        return 0
    step = math.isqrt(bound) + 1
    baby: dict[int, int] = {}
    value = 1
    for j in range(step):
        baby.setdefault(value, j)
        value = value * g % p
    giant_stride = modinv(powmod(g, step, p), p)
    gamma = target
    for i in range(step + 1):
        if gamma in baby:
            m = i * step + baby[gamma]
            if m <= bound:
                return m
        gamma = gamma * giant_stride % p
    return None
