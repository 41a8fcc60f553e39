"""Statistical indistinguishability checks on transcript material.

The paper relies on the ciphertexts the mediator sees being
indistinguishable from random (the commutative cipher's secrecy
property, Paillier's semantic security, the hybrid DEM's stream cipher).
These checks give *empirical* teeth to that reliance: the byte material
of the mediator's received ciphertexts is tested for uniformity, and the
commutative tags for collision-freeness and group spread.

A statistical test cannot prove security — a passing chi-square only
means the material carries no gross structure — but a *failing* one is a
smoking gun (e.g. plaintext objects on the bus fail instantly).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.core.result import MediationResult
from repro.errors import ProtocolError
from repro.telemetry.observables import detect_roles
from repro.transport.base import PartyView

#: Message kinds whose payloads are ciphertext material by construction.
CIPHERTEXT_KINDS = {
    "das_encrypted_partial_result",
    "das_encrypted_index_tables",
    "das_server_result",
    "commutative_m_set",
    "commutative_dummies",
    "commutative_exchange",
    "commutative_double",
    "commutative_result",
    "pm_encrypted_coefficients",
    "pm_evaluations",
    "pm_side_table",
    "pm_side_tables",
}


@dataclass
class UniformityReport:
    """Chi-square goodness of fit of byte frequencies against uniform."""

    sample_bytes: int
    chi2: float
    p_value: float
    #: Below this p-value the uniformity hypothesis is rejected.
    alpha: float = 1e-6

    @property
    def looks_uniform(self) -> bool:
        return self.p_value >= self.alpha


#: Integers below this bit length are treated as structural metadata
#: (index values, counts), not ciphertext material.
_MIN_CIPHERTEXT_INT_BITS = 96
#: Byte strings shorter than this are treated as labels/tokens.
_MIN_CIPHERTEXT_BLOB_BYTES = 16


def _collect_ciphertext_fragments(body, fragments: list[bytes]) -> None:
    """Collect only the genuinely random-looking fragments of a body.

    Structural strings (dict keys, relation names), short integers
    (index values) and dataclass fields marked ``structural`` (the DAS
    server result's position table) would dominate a small sample's
    histogram without saying anything about the *ciphertexts*; they are
    skipped.
    """
    import dataclasses

    if body is None or isinstance(body, (bool, str)):
        return
    if isinstance(body, (bytes, bytearray)):
        if len(body) >= _MIN_CIPHERTEXT_BLOB_BYTES:
            fragments.append(bytes(body))
        return
    if isinstance(body, int):
        if body.bit_length() >= _MIN_CIPHERTEXT_INT_BITS:
            fragments.append(
                body.to_bytes((body.bit_length() + 7) // 8, "big")
            )
        return
    if isinstance(body, Mapping):  # dicts and hybrid key encapsulations
        for key, value in body.items():
            _collect_ciphertext_fragments(key, fragments)
            _collect_ciphertext_fragments(value, fragments)
        return
    if isinstance(body, (list, tuple, set, frozenset, Sequence)):
        for item in body:
            _collect_ciphertext_fragments(item, fragments)
        return
    if dataclasses.is_dataclass(body) and not isinstance(body, type):
        for field in dataclasses.fields(body):
            if not field.metadata.get("structural"):
                _collect_ciphertext_fragments(
                    getattr(body, field.name), fragments
                )
        return


def ciphertext_material(view: PartyView) -> bytes:
    """Concatenated *distinct* ciphertext bytes received by a party.

    Fragments are deduplicated: an encrypted tuple can legitimately
    reach a party more than once (in a source's partial result and again
    in the DAS server result, which holds each etuple once per side), and
    repeating random data would bias a uniformity histogram without
    indicating any weakness of the ciphertexts themselves.
    """
    fragments: list[bytes] = []
    for message in view.received:
        if message.kind not in CIPHERTEXT_KINDS:
            continue
        _collect_ciphertext_fragments(message.body, fragments)
    seen: set[bytes] = set()
    distinct = []
    for fragment in fragments:
        if fragment not in seen:
            seen.add(fragment)
            distinct.append(fragment)
    return b"".join(distinct)


def byte_uniformity(material: bytes, alpha: float = 1e-6) -> UniformityReport:
    """Chi-square test of the byte histogram against the uniform law."""
    if len(material) < 1024:
        raise ProtocolError(
            f"need at least 1024 bytes for a meaningful test, got "
            f"{len(material)}"
        )
    counts = Counter(material)
    expected = len(material) / 256
    chi2 = sum((counts.get(value, 0) - expected) ** 2 for value in range(256)) / expected
    return UniformityReport(
        sample_bytes=len(material), chi2=chi2,
        p_value=chi_square_sf(chi2, 255), alpha=alpha,
    )


def chi_square_sf(statistic: float, degrees: int) -> float:
    """``P(X >= statistic)`` for ``X`` chi-square with ``degrees`` degrees
    of freedom: the regularized upper incomplete gamma ``Q(k/2, x/2)``."""
    return _upper_gamma_q(degrees / 2, statistic / 2)


#: Relative precision and iteration cap of the two expansions below.
_EPSILON = 1e-15
_MAX_TERMS = 10_000


def _upper_gamma_q(a: float, x: float) -> float:
    """``Q(a, x) = Gamma(a, x) / Gamma(a)`` for ``a > 0``: ``1 - P`` from
    the power series below ``x = a + 1``, the continued fraction (modified
    Lentz) above it, where the series would cancel (Numerical Recipes,
    section 6.2)."""
    if x <= 0:
        return 1.0
    scale = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1:
        term = total = 1 / a
        denominator = a
        for _ in range(_MAX_TERMS):
            denominator += 1
            term *= x / denominator
            total += term
            if abs(term) < abs(total) * _EPSILON:
                break
        return max(0.0, 1 - total * scale)
    tiny = 1e-300
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    fraction = d
    for i in range(1, _MAX_TERMS):
        numerator = -i * (i - a)
        b += 2
        d = numerator * d + b
        d = 1 / (d if abs(d) > tiny else tiny)
        c = b + numerator / c
        c = c if abs(c) > tiny else tiny
        fraction *= d * c
        if abs(d * c - 1) < _EPSILON:
            break
    return fraction * scale


def mediator_ciphertext_uniformity(
    result: MediationResult, alpha: float = 1e-6
) -> UniformityReport:
    """Uniformity of everything ciphertext-like the mediator received."""
    view = result.view(detect_roles(result.messages)["mediator"])
    return byte_uniformity(ciphertext_material(view), alpha)


@dataclass
class TagSpreadReport:
    """Collision and spread statistics of commutative tags."""

    tags: int
    distinct: int
    modulus_bits: int
    min_bits: int

    @property
    def collision_free(self) -> bool:
        return self.tags == self.distinct


def commutative_tag_spread(result: MediationResult) -> TagSpreadReport:
    """Analyze the single-encrypted tags the mediator saw (round 1)."""
    if result.protocol != "commutative":
        raise ProtocolError("tag analysis requires a commutative run")
    tags: list[int] = []
    for message in result.messages:
        if message.kind == "commutative_m_set":
            tags.extend(message.body.tags)
    if not tags:
        raise ProtocolError("no commutative tags in the transcript")
    modulus_bits = max(tag.bit_length() for tag in tags)
    return TagSpreadReport(
        tags=len(tags),
        distinct=len(set(tags)),
        modulus_bits=modulus_bits,
        min_bits=min(tag.bit_length() for tag in tags),
    )
