"""Number-theoretic building blocks.

Everything in this module is deterministic given its inputs, with the
exception of :func:`generate_prime` / :func:`generate_safe_prime` (which
draw candidates from the system CSPRNG), Miller-Rabin's random bases and
:func:`random_coprime`.  These functions underpin every cryptosystem in
:mod:`repro.crypto`:

* Miller-Rabin probabilistic primality testing,
* prime and *safe prime* generation (p = 2q + 1 with q prime),
* modular inverses, Jacobi symbols, factoring from a multiple of
  lambda(n).

Modular exponentiation goes through :func:`powmod`, which dispatches to
the installed :class:`~repro.crypto.backend.PythonBackend` at call time
(see :mod:`repro.crypto.backend`); the inverse, the Jacobi symbol and
Miller-Rabin are computed here directly.
"""

from __future__ import annotations

import math
import secrets

from repro.crypto import backend as _backend
from repro.errors import ParameterError

# Small primes used for cheap trial division before Miller-Rabin, and as
# the deterministic bases of :func:`factor_from_lambda_multiple`.
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
    commutative, Paillier and RSA all exponentiate through here.
    """
    return _backend.active_backend().powmod(base, exponent, modulus)


def is_probable_prime(n: int, rounds: int = DEFAULT_MR_ROUNDS) -> bool:
    """Return True if ``n`` is prime with overwhelming probability.

    Trial division by small primes followed by ``rounds`` iterations of
    Miller-Rabin with random bases (exact for ``n`` below the largest
    small prime squared).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _SMALL_PRIMES[-1] ** 2:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = 2 + secrets.randbelow(n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise ParameterError(f"{a} is not invertible modulo {m}") from exc


def lcm(a: int, b: int) -> int:
    """Least common multiple (kept explicit for readability at call sites)."""
    return math.lcm(a, b)


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
    a %= n
    result = 1
    while a:
        # (2/n)^shift: all factors of two leave in one shift, and only
        # an odd count of them can flip the sign.
        shift = (a & -a).bit_length() - 1
        a >>= shift
        if shift & 1 and n & 7 in (3, 5):
            result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


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


def random_coprime(n: int) -> int:
    """Uniform random integer in ``[1, n)`` that is coprime to ``n``."""
    if n <= 1:
        raise ParameterError("random_coprime requires n > 1")
    while True:
        r = 1 + secrets.randbelow(n - 1)
        if math.gcd(r, n) == 1:
            return r
