"""Number-theoretic building blocks.

Everything in this module is deterministic given its inputs, with the
exception of :func:`generate_prime` / :func:`generate_safe_prime`, which
draw candidates from the system CSPRNG.  These functions underpin every
cryptosystem in :mod:`repro.crypto`:

* Miller-Rabin probabilistic primality testing,
* prime and *safe prime* generation (p = 2q + 1 with q prime),
* modular inverses, CRT recombination, Jacobi symbols,
* Tonelli-Shanks square roots modulo a prime.

The arithmetic itself (modular exponentiation, inversion, Jacobi
symbols, primality) routes through the installed bigint backend
(:mod:`repro.crypto.backend`), so every caller of :func:`powmod`,
:func:`modinv`, :func:`jacobi`, or :func:`is_probable_prime` gains
native-speed GMP arithmetic when the ``gmpy2`` backend is active —
without changing results: backends are proven bit-identical.
"""

from __future__ import annotations

import math
import secrets

from repro.crypto import backend as _backend
from repro.errors import ParameterError

# Small primes used for cheap trial division before Miller-Rabin.
_SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277,
    281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
)

#: Default number of Miller-Rabin rounds; error probability <= 4^-40.
DEFAULT_MR_ROUNDS = 40


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``base^exponent mod modulus`` via the installed bigint backend.

    The single hot-path entry point for the whole crypto package —
    commutative, Paillier, RSA, and ElGamal all exponentiate through
    here, so selecting the gmpy2 backend accelerates every protocol at
    once.
    """
    return _backend.active_backend().powmod(base, exponent, modulus)


def is_probable_prime(n: int, rounds: int = DEFAULT_MR_ROUNDS) -> bool:
    """Return True if ``n`` is prime with overwhelming probability.

    The Python backend uses trial division by small primes followed by
    ``rounds`` iterations of Miller-Rabin with random bases (exact for
    ``n`` below the largest small prime squared); the native backend
    uses gmpy2's BPSW + Miller-Rabin test.
    """
    return _backend.active_backend().is_probable_prime(n, rounds)


def generate_prime(bits: int, rounds: int = DEFAULT_MR_ROUNDS) -> int:
    """Generate a random prime with exactly ``bits`` bits.

    The two top bits are forced to 1 so that products of two such primes
    have full length (needed by RSA and Paillier moduli).
    """
    if bits < 8:
        raise ParameterError(f"prime size too small: {bits} bits")
    while True:
        candidate = secrets.randbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate, rounds):
            return candidate


def generate_safe_prime(bits: int, rounds: int = DEFAULT_MR_ROUNDS) -> int:
    """Generate a *safe prime* ``p = 2q + 1`` with ``p`` of ``bits`` bits.

    Safe primes are required by the SRA commutative cipher: the quadratic
    residues modulo a safe prime form a group of prime order ``q``, in
    which exponentiation keys are invertible whenever they are coprime
    to ``q``.  Generation is slow (two nested primality conditions), so
    tests and benchmarks normally use the precomputed parameters in
    :mod:`repro.crypto.groups`.
    """
    if bits < 8:
        raise ParameterError(f"safe prime size too small: {bits} bits")
    while True:
        q = secrets.randbits(bits - 1)
        q |= (1 << (bits - 2)) | 1
        # Cheap screen on q first; full confidence only once p also passes.
        if not is_probable_prime(q, 8):
            continue
        p = 2 * q + 1
        if is_probable_prime(p, rounds) and is_probable_prime(q, rounds):
            return p


def is_safe_prime(p: int, rounds: int = DEFAULT_MR_ROUNDS) -> bool:
    """Return True if ``p`` and ``(p - 1) / 2`` are both (probable) primes."""
    if p < 7 or p % 2 == 0:
        return False
    q, rem = divmod(p - 1, 2)
    if rem:
        return False
    return is_probable_prime(p, rounds) and is_probable_prime(q, rounds)


def modinv(a: int, m: int) -> int:
    """Return the inverse of ``a`` modulo ``m``.

    Raises :class:`ParameterError` when ``gcd(a, m) != 1``.
    """
    return _backend.active_backend().invert(a, m)


def lcm(a: int, b: int) -> int:
    """Least common multiple (kept explicit for readability at call sites)."""
    return math.lcm(a, b)


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve ``x = r1 (mod m1), x = r2 (mod m2)`` for coprime moduli.

    Returns the unique solution in ``[0, m1 * m2)``.
    """
    g = math.gcd(m1, m2)
    if g != 1:
        raise ParameterError("CRT moduli must be coprime")
    n = m1 * m2
    return (r1 * m2 * modinv(m2, m1) + r2 * m1 * modinv(m1, m2)) % n


def factor_from_lambda_multiple(n: int, multiple: int) -> tuple[int, int]:
    """Factor ``n = p * q`` given a positive multiple of ``lambda(n)``.

    The square-root-of-unity walk of SP 800-56B App. C: write the
    multiple as ``2^s * t`` with ``t`` odd; for a base ``a`` the chain
    ``a^t, a^2t, ...`` reaches 1 within ``s`` squarings, and the element
    before the first 1 is a square root of unity that is non-trivial —
    and so shares a factor with ``n`` — for at least half of all bases.
    The bases are the small primes, so the result is a function of the
    inputs.  Returns ``(p, q)`` with ``p < q``; raises
    :class:`ParameterError` when ``multiple`` is not a multiple of
    ``lambda(n)`` or no base splits ``n`` (``n`` not a product of two
    distinct odd primes).
    """
    if n < 15 or n % 2 == 0 or multiple <= 0 or multiple % 2:
        raise ParameterError("need an odd composite n and an even positive multiple")
    s = (multiple & -multiple).bit_length() - 1
    t = multiple >> s
    for base in _SMALL_PRIMES:
        if n % base == 0 and n > base:
            return base, n // base
        x = powmod(base, t, n)
        for _ in range(s):
            if x == 1:
                break
            previous, x = x, x * x % n
            if x == 1 and previous != n - 1:
                p = math.gcd(previous - 1, n)
                return min(p, n // p), max(p, n // p)
        if x != 1:
            raise ParameterError("not a multiple of lambda(n)")
    raise ParameterError("n does not split: not a product of two odd primes")


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd ``n > 0``; returns -1, 0, or 1."""
    if n <= 0 or n % 2 == 0:
        raise ParameterError("Jacobi symbol requires odd positive n")
    return _backend.active_backend().jacobi(a, n)


def is_quadratic_residue(a: int, p: int) -> bool:
    """True when ``a`` is a nonzero quadratic residue modulo prime ``p``."""
    a %= p
    if a == 0:
        return False
    return powmod(a, (p - 1) // 2, p) == 1


def sqrt_mod_prime(a: int, p: int) -> int:
    """Tonelli-Shanks: a square root of ``a`` modulo prime ``p``.

    Returns the root ``r`` with ``r**2 = a (mod p)``; the other root is
    ``p - r``.  Raises :class:`ParameterError` when ``a`` is a
    non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if not is_quadratic_residue(a, p):
        raise ParameterError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return powmod(a, (p + 1) // 4, p)

    # Write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # Find a non-residue z.
    z = 2
    while is_quadratic_residue(z, p):
        z += 1
    m, c, t, r = s, powmod(z, q, p), powmod(a, q, p), powmod(a, (q + 1) // 2, p)
    while t != 1:
        # Find least i in (0, m) with t^(2^i) = 1.
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = powmod(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def int_to_bytes(value: int, length: int | None = None) -> bytes:
    """Big-endian encoding of a non-negative integer.

    When ``length`` is None the minimal number of bytes is used (at least
    one, so that 0 encodes as ``b"\\x00"``).
    """
    if value < 0:
        raise ParameterError("cannot encode negative integer")
    if length is None:
        length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Inverse of :func:`int_to_bytes`."""
    return int.from_bytes(data, "big")


def random_below(n: int) -> int:
    """Uniform random integer in ``[0, n)`` from the system CSPRNG."""
    if n <= 0:
        raise ParameterError("random_below requires a positive bound")
    return secrets.randbelow(n)


def random_in_range(low: int, high: int) -> int:
    """Uniform random integer in ``[low, high)``."""
    if high <= low:
        raise ParameterError("empty range for random_in_range")
    return low + secrets.randbelow(high - low)


def random_coprime(n: int) -> int:
    """Uniform random integer in ``[1, n)`` that is coprime to ``n``."""
    if n <= 1:
        raise ParameterError("random_coprime requires n > 1")
    while True:
        r = 1 + secrets.randbelow(n - 1)
        if math.gcd(r, n) == 1:
            return r
