"""Hash constructions used by the mediation protocols.

Two distinct hash roles appear in the paper:

* **Section 3 (DAS)** needs a *collision-free* hash to derive index values
  (partition identifiers) from partition properties.
* **Section 4 (commutative encryption)** needs an *ideal* hash, modelled
  as a random oracle, mapping join-attribute values into the domain of the
  commutative encryption function — here the group of quadratic residues
  modulo a safe prime.

Both are instantiated from SHA-256 with domain-separation tags, the
standard way of deriving independent random oracles from one hash
function.  A third tag, :data:`TAG_MATCH`, shortens the double
encryptions of Listing 3 to fixed-width digests (:func:`match_digest`):
the mediator only tests them for equality.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto import instrumentation
from repro.crypto.numtheory import bytes_to_int
from repro.errors import ParameterError

#: Domain-separation tags.  Distinct tags make the derived functions
#: behave as independent oracles even though they share SHA-256.
TAG_IDEAL = b"repro/ideal-hash/v1"
TAG_INDEX = b"repro/partition-index/v1"
TAG_KDF = b"repro/kdf/v1"
TAG_FINGERPRINT = b"repro/key-fingerprint/v1"
TAG_MATCH = b"repro/commutative-match/v1"

#: Width of a commutative match digest, that of the other fingerprints.
MATCH_DIGEST_BYTES = 16


def _sha256(tag: bytes, *parts: bytes) -> bytes:
    digest = hashlib.sha256()
    digest.update(tag)
    for part in parts:
        # Length-prefix every part so that concatenation is unambiguous.
        digest.update(len(part).to_bytes(4, "big"))
        digest.update(part)
    return digest.digest()


def collision_free_hash(data: bytes, tag: bytes = TAG_INDEX) -> bytes:
    """Collision-resistant hash used for DAS partition identifiers."""
    instrumentation.record("hash.collision_free")
    return _sha256(tag, data)


def expand(seed: bytes, length: int, tag: bytes = TAG_KDF) -> bytes:
    """Expand ``seed`` into ``length`` pseudorandom bytes (HKDF-like).

    Counter-mode expansion with HMAC-SHA256; used both as a KDF for
    hybrid encryption session keys and to hash values into large integer
    ranges.
    """
    if length < 0:
        raise ParameterError("expand length must be non-negative")
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < length:
        counter_bytes = counter.to_bytes(4, "big")
        blocks.append(hmac.new(seed, tag + counter_bytes, hashlib.sha256).digest())
        counter += 1
    return b"".join(blocks)[:length]


def hash_to_range(data: bytes, n: int, tag: bytes = TAG_IDEAL) -> int:
    """Hash ``data`` to an integer in ``[0, n)`` with negligible bias.

    Expands the digest to ``len(n) + 16`` bytes before reduction so the
    modular bias is below 2^-128.
    """
    if n <= 0:
        raise ParameterError("hash_to_range requires a positive modulus")
    seed = _sha256(tag, data)
    width = (n.bit_length() + 7) // 8 + 16
    return bytes_to_int(expand(seed, width, tag)) % n


class IdealHash:
    """Random-oracle hash into the quadratic residues modulo a safe prime.

    The SRA commutative cipher operates on the subgroup QR_p of order
    ``q = (p - 1) / 2``.  Hashing first maps into ``[1, p)`` and then
    squares, which lands in QR_p; squaring is 2-to-1 on Z_p* but the
    composition with a random oracle remains collision-free except with
    negligible probability (a collision would need SHA-256 outputs x, -x).

    Both datasources must use *the same* instance parameters (``p`` and
    ``tag``); the protocols ship the tag alongside the group so equal join
    values hash equally on both sides.
    """

    def __init__(self, p: int, tag: bytes = TAG_IDEAL) -> None:
        if p < 7:
            raise ParameterError("modulus too small for IdealHash")
        self.p = p
        self.tag = tag

    def __call__(self, data: bytes) -> int:
        instrumentation.record("hash.ideal")
        x = 1 + hash_to_range(data, self.p - 1, self.tag)
        return x * x % self.p

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IdealHash)
            and self.p == other.p
            and self.tag == other.tag
        )

    def __repr__(self) -> str:
        return f"IdealHash(p~2^{self.p.bit_length()}, tag={self.tag!r})"


def fingerprint(data: bytes, length: int = 16) -> bytes:
    """Short stable identifier for keys and credentials (not secret)."""
    return _sha256(TAG_FINGERPRINT, data)[:length]


def match_digest(element: int, p: int) -> bytes:
    """16-byte digest of a double encryption ``f_e1(f_e2(h(a)))`` mod ``p``.

    SHA-256 under :data:`TAG_MATCH` over the ``|p|``-byte big-endian
    encoding, truncated.  Equal elements give equal digests; two distinct
    elements collide with probability about 2^-128 per pair.
    """
    width = (p.bit_length() + 7) // 8
    return _sha256(TAG_MATCH, element.to_bytes(width, "big"))[:MATCH_DIGEST_BYTES]
