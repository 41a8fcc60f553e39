"""Polynomials over Z_n and their oblivious (encrypted) evaluation.

The private-matching protocol (Section 5, after Freedman-Nissim-Pinkas
[12]) has the chooser encode its input set A = {a_1, ..., a_n} as the
monic-up-to-sign polynomial

    P(x) = (a_1 - x)(a_2 - x)...(a_n - x) = sum_k c_k x^k,

encrypt the coefficients c_k under an additively homomorphic scheme
(Paillier), and let the sender compute E(r * P(a') + payload) for each
of its own values a' — without ever seeing P in the clear.  The leading coefficient c_n is
the public constant (-1)^n (FNP's own remark), so only c_0 .. c_{n-1}
are encrypted and shipped.  This module provides:

* :func:`from_roots` — expand the product form into coefficients mod n,
* :func:`evaluate` — plaintext Horner evaluation (for tests),
* :class:`EncryptedPolynomial` — encryptions of the n low coefficients
  plus the homomorphic Horner evaluation used by the datasources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.crypto import instrumentation
from repro.crypto.homomorphic import PaillierScheme
from repro.errors import ParameterError


def from_roots(roots: Sequence[int], modulus: int) -> list[int]:
    """Coefficients (ascending powers) of prod_i (root_i - x) mod modulus.

    The expansion follows the paper's sign convention: each factor is
    ``(a_i - x)``, so the leading coefficient is ``(-1)^n``.  An empty
    root set yields the constant polynomial 1 (the empty product), which
    has *no* roots — evaluating it never matches, the correct behaviour
    for a datasource with an empty active domain.
    """
    if modulus <= 1:
        raise ParameterError("polynomial modulus must exceed 1")
    coefficients = [1]
    for root in roots:
        root %= modulus
        # Multiply current polynomial by (root - x).
        next_coefficients = [0] * (len(coefficients) + 1)
        for power, coefficient in enumerate(coefficients):
            next_coefficients[power] += root * coefficient
            next_coefficients[power + 1] -= coefficient
        coefficients = [c % modulus for c in next_coefficients]
    return coefficients


def evaluate(coefficients: Sequence[int], x: int, modulus: int) -> int:
    """Horner evaluation of the coefficient vector at ``x`` mod modulus."""
    if not coefficients:
        raise ParameterError("cannot evaluate an empty polynomial")
    result = 0
    for coefficient in reversed(coefficients):
        result = (result * x + coefficient) % modulus
    return result


def degree(coefficients: Sequence[int]) -> int:
    """Degree of the coefficient vector (index of last entry)."""
    return len(coefficients) - 1


@dataclass(frozen=True)
class EncryptedPolynomial:
    """Homomorphic encryptions of a polynomial's low coefficients.

    ``coefficients[k]`` is ``E(c_k)`` for ``k < n``; the leading
    ``c_n = (-1)^n`` is implied.  The plaintext modulus is
    ``scheme.plaintext_bound(public_key)``.  The *degree is public* —
    the paper's Table 1 records precisely this leakage: the mediator
    learns |domactive(R_i.A_join)| from the number of coefficients.
    """

    scheme: PaillierScheme
    public_key: Any
    coefficients: tuple[Any, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    def evaluate(self, x: int) -> Any:
        """Homomorphic Horner: returns ``E(P(x))`` for plaintext ``x``.

        acc = E(c_{n-1}) (+) c_n * x; acc = x * acc (+) E(c_k) going
        down — only the homomorphic operations the paper demands are
        used.  Degree 0 is the constant 1 (an empty root set): a fresh
        encryption of it.
        """
        instrumentation.record("homomorphic.poly_evaluate")
        modulus = self.scheme.plaintext_bound(self.public_key)
        x %= modulus
        if not self.coefficients:
            return self.scheme.encrypt(self.public_key, 1)
        iterator = reversed(self.coefficients)
        accumulator = self.scheme.add_plain(
            next(iterator), (-1) ** self.degree * x % modulus
        )
        for encrypted_coefficient in iterator:
            accumulator = self.scheme.scalar_multiply(accumulator, x)
            accumulator = self.scheme.add(accumulator, encrypted_coefficient)
        return accumulator

    def masked_evaluate(self, x: int, mask: int, payload: int) -> Any:
        """Compute ``E(mask * P(x) + payload)`` — Equation (1) of the paper.

        ``mask`` is the sender's fresh random value r; ``payload`` the
        value-and-tuple-set encoding (a' || py).  When ``P(x) = 0`` the
        mask vanishes and the payload survives decryption; otherwise the
        result is (statistically close to) a random plaintext.
        """
        instrumentation.record("homomorphic.masked_evaluate")
        evaluated = self.evaluate(x)
        masked = self.scheme.scalar_multiply(evaluated, mask)
        return self.scheme.add_plain(masked, payload)


def encrypt_polynomial(
    scheme: PaillierScheme,
    public_key: Any,
    coefficients: Sequence[int],
    engine: Any = None,
) -> EncryptedPolynomial:
    """Encrypt the low coefficients of a :func:`from_roots` polynomial.

    The leading coefficient must be the ``(-1)^n`` that
    :meth:`EncryptedPolynomial.evaluate` assumes; it is checked, not
    encrypted.  ``engine`` is an optional :class:`repro.crypto.engine.
    CryptoEngine`; when given, the coefficients encrypt as one batch
    call (``batch_scheme_encrypt``) instead of a scalar loop.
    """
    *low, leading = coefficients
    if leading != (-1) ** len(low) % scheme.plaintext_bound(public_key):
        raise ParameterError("polynomial is not of the form prod (a_i - x)")
    instrumentation.record("homomorphic.encrypt_polynomial")
    if engine is None:
        encrypted = tuple(
            scheme.encrypt(public_key, coefficient) for coefficient in low
        )
    else:
        encrypted = tuple(engine.batch_scheme_encrypt(scheme, public_key, low))
    return EncryptedPolynomial(scheme, public_key, encrypted)
