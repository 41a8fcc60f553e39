"""Commutative encryption over quadratic residues (SRA / Pohlig-Hellman).

Section 4 of the paper requires a commutative encryption function

    f_e : dom_f -> dom_f     with     f_e1 o f_e2 = f_e2 o f_e1,

each ``f_e`` a bijection with a polynomial-time computable inverse, and a
secrecy property making ``f_e(y)`` indistinguishable from random.  The
reference construction (Agrawal et al. [1]) is exponentiation in the
group of quadratic residues modulo a *safe prime* ``p = 2q + 1``:

    f_e(x) = x^e mod p,    x in QR_p,    1 <= e < q.

* QR_p has prime order ``q``, so every such exponent is a bijection on
  it, with inverse exponent ``e^-1 mod q``.
* Commutativity: ``(x^e1)^e2 = (x^e2)^e1``.
* Secrecy rests on the Decisional Diffie-Hellman assumption in QR_p,
  which is exactly why inputs are first hashed into the group by the
  ideal hash of :class:`repro.crypto.hashes.IdealHash` — and, since
  generated exponents are short (:func:`exponent_bits`), on discrete
  logarithms staying hard for exponents of that width.
"""

from __future__ import annotations

import math
import secrets
from dataclasses import dataclass

from repro.crypto import instrumentation
from repro.crypto.numtheory import jacobi, powmod
from repro.errors import KeyError_, ParameterError


@dataclass(frozen=True)
class CommutativeGroup:
    """The shared domain of the commutative cipher: QR_p for safe prime p.

    Both datasources must agree on the same group (the mediator
    distributes it with the join-attribute announcement); keys are
    per-source and secret.
    """

    p: int

    def __post_init__(self) -> None:
        if self.p < 23:
            raise ParameterError("commutative group modulus too small")
        if self.p % 4 != 3:
            # Safe primes > 5 are always = 3 (mod 4); this cheap check
            # rejects obviously wrong moduli without a primality test.
            raise ParameterError("modulus of a safe prime group must be 3 mod 4")

    @property
    def q(self) -> int:
        """Order of the QR subgroup."""
        return (self.p - 1) // 2

    def contains(self, x: int) -> bool:
        """Membership test for QR_p via the Jacobi symbol.

        For a prime modulus the Jacobi symbol equals the Legendre
        symbol, so this is exact — and it costs a binary-GCD-style loop
        instead of the full Euler-criterion exponentiation ``x^q = 1``
        (an order of magnitude cheaper at production group sizes).
        """
        return 0 < x < self.p and jacobi(x, self.p) == 1

    def random_element(self) -> int:
        """Uniform random element of QR_p (square of a random unit)."""
        x = 1 + secrets.randbelow(self.p - 1)
        return x * x % self.p


@dataclass(frozen=True)
class CommutativeKey:
    """A secret exponent for one party, bound to its group."""

    group: CommutativeGroup
    exponent: int

    def __post_init__(self) -> None:
        q = self.group.q
        if not 1 <= self.exponent < q:
            raise KeyError_("commutative key exponent out of range")
        if math.gcd(self.exponent, q) != 1:
            raise KeyError_("commutative key exponent must be coprime to q")


def exponent_bits(group: CommutativeGroup) -> int:
    """Width ``k`` of a freshly drawn exponent: ``max(256, |p| // 8)``.

    No listing ever inverts ``f_e``, so the exponent need not span the
    group order: a ``k``-bit one costs ``k`` squarings instead of
    ``|q|``, against a generic attack (Pollard lambda) of ``2^(k/2)``
    group operations.  Never below the short-exponent widths of RFC 7919;
    groups of up to 257 bits keep the full range ``[1, q)``.
    docs/security.md states the assumption this rests on.
    """
    return max(256, group.p.bit_length() // 8)


def generate_key(group: CommutativeGroup) -> CommutativeKey:
    """Fresh key for ``group``: ``e`` uniform in ``[1, min(q, 2^k))``."""
    instrumentation.record("commutative.keygen")
    instrumentation.record("random.commutative_key")
    bound = min(group.q, 1 << exponent_bits(group))
    return CommutativeKey(group, 1 + secrets.randbelow(bound - 1))


def apply(key: CommutativeKey, x: int) -> int:
    """Compute ``f_e(x) = x^e mod p`` for ``x`` in QR_p."""
    group = key.group
    if not group.contains(x):
        raise ParameterError("input is not in the quadratic-residue domain")
    instrumentation.record("commutative.encrypt")
    return powmod(x, key.exponent, group.p)
