"""The additively homomorphic scheme of Listing 4, behind one adapter.

Section 5 of the paper states its requirements abstractly — a
semantically secure public-key scheme with homomorphic addition and
scalar multiplication — and the system instantiates it with Paillier,
whose message space is large enough to carry a private-matching
payload.  :class:`PaillierScheme` is the object the private-matching
protocol and the crypto engine are written against::

    key = scheme.generate_keypair()
    ct  = scheme.encrypt(public_key, m)         # m in [0, plaintext_bound)
    m   = scheme.decrypt(private_key, ct)
    ct  = scheme.add(ct1, ct2)                  # E(a) (+) E(b) = E(a + b)
    ct  = scheme.scalar_multiply(ct, gamma)     # E(gamma * a)
    ct  = scheme.add_plain(ct, m)               # E(a + m), no fresh randomness

``plaintext_bound(public_key)`` bounds the message space; callers must
encode their payloads below it (see :mod:`repro.core.payload`).
"""

from __future__ import annotations

from repro.crypto import paillier


class PaillierScheme:
    """Paillier adapter — the paper's instantiation and the only one."""

    name = "paillier"

    def __init__(self, key_bits: int = 2048) -> None:
        self.key_bits = key_bits

    def generate_keypair(self) -> paillier.PaillierPrivateKey:
        return paillier.generate_keypair(self.key_bits)

    def public_key(
        self, private_key: paillier.PaillierPrivateKey
    ) -> paillier.PaillierPublicKey:
        return private_key.public_key

    def plaintext_bound(self, public_key: paillier.PaillierPublicKey) -> int:
        return public_key.n

    def encrypt(
        self, public_key: paillier.PaillierPublicKey, plaintext: int
    ) -> paillier.PaillierCiphertext:
        return paillier.encrypt(public_key, plaintext)

    def decrypt(
        self,
        private_key: paillier.PaillierPrivateKey,
        ciphertext: paillier.PaillierCiphertext,
    ) -> int:
        return paillier.decrypt(private_key, ciphertext)

    def add(
        self, a: paillier.PaillierCiphertext, b: paillier.PaillierCiphertext
    ) -> paillier.PaillierCiphertext:
        return paillier.add(a, b)

    def add_plain(
        self, a: paillier.PaillierCiphertext, plaintext: int
    ) -> paillier.PaillierCiphertext:
        return paillier.add_plain(a, plaintext)

    def scalar_multiply(
        self, a: paillier.PaillierCiphertext, scalar: int
    ) -> paillier.PaillierCiphertext:
        return paillier.scalar_multiply(a, scalar)
