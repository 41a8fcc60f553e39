"""The Paillier cryptosystem (additively homomorphic), from scratch.

The private-matching protocol of Section 5 needs a semantically secure
public-key scheme ``E`` with

* ``E(a) (+) E(b)  ->  E(a + b)``       (homomorphic addition), and
* ``gamma, E(a)    ->  E(gamma * a)``   (scalar multiplication),

which the paper instantiates with Paillier [20].  We implement the
scheme with ``g = n + 1`` (so that ``g^m = 1 + m*n mod n^2``, avoiding
one exponentiation).

The nonce is the Damgard–Jurik–Nielsen form ``h_n^s mod n^2``: ``h_n =
(-x^2 mod n)^n mod n^2`` is fixed per key, ``s`` is fresh and
``ceil(|n|/2)`` bits long, and ``h_n^s`` is read off a per-key
fixed-base table built once per process — a few hundred
multiplications where the textbook ``r^n`` pays ``|n|`` squarings.  It
is the one encryption path; the assumption it adds to DCR is stated in
``docs/security.md``.

Decryption is the standard CRT form — work modulo ``p^2`` and ``q^2``
with half-size exponents and recombine — on every key: a private key
always carries the factorisation of ``n``, and a serialized snapshot
that lacks it has it recovered at load (:mod:`repro.crypto.
serialization`).  The textbook ``L(c^lambda mod n^2) * mu mod n`` is the
oracle the tests compare against.

Plaintext space is ``Z_n``; homomorphic operations reduce modulo ``n``.
"""

from __future__ import annotations

import math
import secrets
from dataclasses import dataclass
from functools import lru_cache

from repro.crypto import instrumentation
from repro.crypto.numtheory import generate_prime, lcm, modinv, powmod, random_coprime
from repro.errors import DecryptionError, EncryptionError, KeyError_, ParameterError


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public key: the modulus ``n`` (``g`` is fixed to ``n + 1``)."""

    n: int

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    def max_plaintext(self) -> int:
        """Largest encodable plaintext (exclusive bound is ``n``)."""
        return self.n - 1


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Private key: the factorisation ``n = p * q``, with ``lambda =
    lcm(p-1, q-1)`` and ``mu = lambda^-1 mod n`` of the textbook scheme.
    """

    public_key: PaillierPublicKey
    lam: int
    mu: int
    p: int
    q: int


@dataclass(frozen=True)
class PaillierCiphertext:
    """A ciphertext bound to its public key.

    Binding the key allows the homomorphic operators to check that both
    operands live under the same modulus, which catches a whole class of
    protocol bugs (mixing ciphertexts of different clients).
    """

    value: int
    public_key: PaillierPublicKey

    def __add__(self, other: "PaillierCiphertext") -> "PaillierCiphertext":
        return add(self, other)

    def __mul__(self, scalar: int) -> "PaillierCiphertext":
        return scalar_multiply(self, scalar)

    __rmul__ = __mul__


def generate_keypair(bits: int = 2048) -> PaillierPrivateKey:
    """Generate a Paillier key pair with an ``bits``-bit modulus ``n``."""
    if bits < 64:
        raise ParameterError("Paillier modulus below 64 bits is not supported")
    instrumentation.record("paillier.keygen")
    while True:
        p = generate_prime(bits // 2)
        q = generate_prime(bits - bits // 2)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        # Standard requirement gcd(n, (p-1)(q-1)) = 1 holds for distinct
        # primes of equal size, but check explicitly.
        if math.gcd(n, (p - 1) * (q - 1)) != 1:
            continue
        lam = lcm(p - 1, q - 1)
        public = PaillierPublicKey(n)
        mu = modinv(_big_l(powmod(public.n + 1, lam, public.n_squared), n), n)
        return PaillierPrivateKey(public_key=public, lam=lam, mu=mu, p=p, q=q)


def _big_l(u: int, n: int) -> int:
    """The Paillier ``L`` function: ``L(u) = (u - 1) / n``."""
    return (u - 1) // n


def encrypt(public_key: PaillierPublicKey, plaintext: int) -> PaillierCiphertext:
    """Encrypt ``plaintext`` in ``Z_n`` under a fresh nonce.

    ``c = (1 + m*n) * h_n^s  mod n^2`` with ``s`` uniform in
    ``[0, 2^ceil(|n|/2))`` — the Damgard–Jurik–Nielsen nonce: ``h_n`` is
    a fixed ``n``-th residue of the key (:func:`_nonce_table`), so the
    nonce is a fixed-base product over a precomputed table instead of a
    full-width ``r^n`` exponentiation.
    """
    n = public_key.n
    if not 0 <= plaintext < n:
        raise EncryptionError(
            f"plaintext {plaintext} outside message space [0, {n})"
        )
    instrumentation.record("paillier.encrypt")
    instrumentation.record("random.paillier_nonce")
    n_sq = public_key.n_squared
    nonce = _fixed_base_power(
        _nonce_table(n), secrets.randbits(_nonce_bits(n)), n_sq
    )
    value = (1 + plaintext * n) % n_sq * nonce % n_sq
    return PaillierCiphertext(value, public_key)


def _nonce_bits(n: int) -> int:
    """Length of the nonce exponent ``s``: ``ceil(|n| / 2)`` bits."""
    return (n.bit_length() + 1) // 2


#: Window of the fixed-base table: ``2^w - 1`` buckets, ``ceil(k / w)``
#: entries for a ``k``-bit exponent.
_WINDOW = 5
_DIGIT_MASK = (1 << _WINDOW) - 1


@lru_cache(maxsize=64)
def _nonce_table(n: int) -> tuple[int, ...]:
    """Per-key table ``h_n^(2^(w*i)) mod n^2`` for ``i < ceil(k / w)``.

    ``h_n = (-x^2 mod n)^n mod n^2`` for a fresh unit ``x`` (DJN's
    generator), so every nonce is an ``n``-th residue and decryption is
    unchanged.  Built once per key and process: one ``|n|``-bit
    exponentiation plus about ``k`` squarings, ~100 KB at 2048 bits;
    never serialized, so keys, wire and cache layouts do not change.
    """
    n_squared = n * n
    x = random_coprime(n)
    power = powmod(n - x * x % n, n, n_squared)
    table = [power]
    for _ in range(-(-_nonce_bits(n) // _WINDOW) - 1):
        for _ in range(_WINDOW):
            power = power * power % n_squared
        table.append(power)
    return tuple(table)


def _fixed_base_power(table: tuple[int, ...], exponent: int, modulus: int) -> int:
    """``table[0]^exponent mod modulus`` by Yao's fixed-base method.

    Write ``exponent`` in base ``2^w`` with digits ``d_i``; bucket ``j``
    collects the product of ``table[i]`` over ``d_i = j``, and
    ``prod_j bucket_j^j`` is accumulated with two running products —
    one multiplication per nonzero digit plus at most ``2 * (2^w - 1)``,
    no squarings.  ``exponent`` must be below ``2^(w * len(table))``.
    """
    buckets = [1] * (_DIGIT_MASK + 1)
    for entry in table:
        digit = exponent & _DIGIT_MASK
        if digit:
            buckets[digit] = buckets[digit] * entry % modulus
        exponent >>= _WINDOW
    result = running = 1
    for bucket in reversed(buckets[1:]):
        if bucket != 1:
            running = running * bucket % modulus
        if running != 1:
            result = result * running % modulus
    return result


def _checked_value(
    private_key: PaillierPrivateKey, ciphertext: PaillierCiphertext
) -> int:
    """Validate a ciphertext against the key; return its raw value."""
    public = private_key.public_key
    if ciphertext.public_key != public:
        raise KeyError_("ciphertext was produced under a different key")
    value = ciphertext.value
    if not 0 < value < public.n_squared or math.gcd(value, public.n) != 1:
        raise DecryptionError("invalid Paillier ciphertext")
    return value


@lru_cache(maxsize=64)
def _crt_parameters(n: int, p: int, q: int) -> tuple[int, int, int, int, int]:
    """Per-key CRT constants: ``(p^2, q^2, hp, hq, q^-1 mod p)``.

    With ``g = n + 1`` and ``n^2 = 0 (mod p^2)`` the subgroup constants
    reduce to ``hp = L_p((p-1) * n mod p^2)^-1 mod p`` (and symmetrically
    for ``q``) — no exponentiation needed to derive them.
    """
    p_squared = p * p
    q_squared = q * q
    hp = modinv((p - 1) * n % p_squared // p, p)
    hq = modinv((q - 1) * n % q_squared // q, q)
    return p_squared, q_squared, hp, hq, modinv(q, p)


def decrypt(private_key: PaillierPrivateKey, ciphertext: PaillierCiphertext) -> int:
    """Decrypt to the plaintext in ``[0, n)``.

    CRT form: ``m_p = L_p(c^(p-1) mod p^2) * hp mod p`` (and
    symmetrically mod ``q``), recombined with the usual Garner step —
    two half-size exponentiations where the textbook route pays one
    with a ``|n|``-bit exponent mod ``n^2``.
    """
    value = _checked_value(private_key, ciphertext)
    instrumentation.record("paillier.decrypt")
    p, q = private_key.p, private_key.q
    p_squared, q_squared, hp, hq, q_inv = _crt_parameters(
        private_key.public_key.n, p, q
    )
    m_p = (powmod(value % p_squared, p - 1, p_squared) - 1) // p * hp % p
    m_q = (powmod(value % q_squared, q - 1, q_squared) - 1) // q * hq % q
    return m_q + (m_p - m_q) * q_inv % p * q


def add(a: PaillierCiphertext, b: PaillierCiphertext) -> PaillierCiphertext:
    """Homomorphic addition: ``E(x) + E(y) = E(x + y mod n)``."""
    if a.public_key != b.public_key:
        raise KeyError_("cannot add ciphertexts under different keys")
    instrumentation.record("paillier.add")
    n_sq = a.public_key.n_squared
    return PaillierCiphertext(a.value * b.value % n_sq, a.public_key)


def add_plain(a: PaillierCiphertext, plaintext: int) -> PaillierCiphertext:
    """Homomorphic plaintext addition: ``E(x) + y = E(x + y mod n)``.

    Cheaper than ``add(a, encrypt(pk, y))`` and — crucially for the
    private-matching payload step — deterministic given ``a``.
    """
    n = a.public_key.n
    n_sq = a.public_key.n_squared
    instrumentation.record("paillier.add_plain")
    return PaillierCiphertext(
        a.value * (1 + plaintext % n * n) % n_sq, a.public_key
    )


def scalar_multiply(a: PaillierCiphertext, scalar: int) -> PaillierCiphertext:
    """Homomorphic scalar multiplication: ``gamma * E(x) = E(gamma * x)``."""
    instrumentation.record("paillier.scalar_multiply")
    n = a.public_key.n
    n_sq = a.public_key.n_squared
    return PaillierCiphertext(powmod(a.value, scalar % n, n_sq), a.public_key)


def negate(a: PaillierCiphertext) -> PaillierCiphertext:
    """Homomorphic negation: ``-E(x) = E(n - x)``."""
    return scalar_multiply(a, a.public_key.n - 1)
