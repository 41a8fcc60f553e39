"""Cryptographic substrate for the secure mediation protocols.

Every primitive the three delivery-phase protocols rely on, implemented
from scratch on top of the Python standard library:

* :mod:`~repro.crypto.numtheory` — primality, safe primes, modular math
* :mod:`~repro.crypto.hashes` — collision-free and random-oracle hashes
* :mod:`~repro.crypto.symmetric` — SHAKE-256 + HMAC authenticated encryption
* :mod:`~repro.crypto.rsa` — RSA-OAEP encryption and RSA-PSS signatures
* :mod:`~repro.crypto.hybrid` — the paper's hybrid encrypt/decrypt
* :mod:`~repro.crypto.paillier` — additively homomorphic Paillier
* :mod:`~repro.crypto.commutative` — SRA commutative encryption over QR_p
* :mod:`~repro.crypto.polynomial` — oblivious polynomial evaluation
* :mod:`~repro.crypto.homomorphic` — the Paillier adapter Listing 4 uses
* :mod:`~repro.crypto.instrumentation` — primitive-usage audit (Table 2)
* :mod:`~repro.crypto.groups` — precomputed safe-prime parameters
* :mod:`~repro.crypto.rand` — the CSPRNG shuffle of every message set
"""

from repro.crypto.instrumentation import PrimitiveCounter, count_primitives

__all__ = ["PrimitiveCounter", "count_primitives"]
