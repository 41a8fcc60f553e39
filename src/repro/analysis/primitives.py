"""Reproducing Table 2: applied cryptographic primitives per protocol.

The paper's Table 2 lists — *"in addition to credentials and hybrid
encryption already used in the MMM system"* — the primitives each
protocol applies:

    ====================  =========================================
    Database-as-a-Service hashfunction
    Commutative Encr.     hashfunction and commutative encryption
    Private Matching      homomorphic encryption and random numbers
    ====================  =========================================

:func:`primitive_profile` derives the same categorization from the
instrumented operation counters of an actual run.  The mapping from
operation names to the paper's categories:

* ``hash.*``                        -> *hashfunction*
* ``commutative.*``                 -> *commutative encryption*
* ``paillier.* / homomorphic.*``    -> *homomorphic encryption*
* ``random.pm_mask``                -> *random numbers* (the masking
  values r_l of Equation (1); session keys and encryption nonces belong
  to the baseline hybrid machinery and are excluded, as are the
  ``rsa.* / symmetric.* / hybrid.*`` operations themselves)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.result import MediationResult
from repro.crypto.instrumentation import PrimitiveCounter

#: Operation prefixes belonging to the MMM baseline (excluded).
BASELINE_PREFIXES = (
    "rsa.",
    "symmetric.",
    "hybrid.",
    "random.session_key",
    "random.paillier_nonce",
    "random.commutative_key",
)

#: Paper category -> operation prefixes that fall into it.
CATEGORY_PREFIXES: dict[str, tuple[str, ...]] = {
    "hashfunction": ("hash.",),
    "commutative encryption": ("commutative.",),
    "homomorphic encryption": ("paillier.", "homomorphic."),
    "random numbers": ("random.pm_mask",),
}


@dataclass
class PrimitiveProfile:
    """Categorized primitive usage of one protocol run."""

    protocol: str
    #: category -> total invocation count (only categories actually used).
    categories: dict[str, int]
    #: raw operation counts, for the detailed audit.
    operations: dict[str, int]

    def category_names(self) -> tuple[str, ...]:
        return tuple(sorted(name for name, count in self.categories.items() if count))

    def table_row(self) -> tuple[str, str]:
        return (self.protocol, " and ".join(self.category_names()) or "(none)")


def primitive_profile(result: MediationResult) -> PrimitiveProfile:
    """Categorize a run's primitive usage into the paper's Table-2 terms."""
    return profile_counter(result.protocol, result.primitive_counter)


def profile_counter(protocol: str, counter: PrimitiveCounter) -> PrimitiveProfile:
    operations = dict(counter.counts)
    categories: dict[str, int] = {}
    for category, prefixes in CATEGORY_PREFIXES.items():
        total = 0
        for operation, count in operations.items():
            if any(operation.startswith(prefix) for prefix in prefixes):
                total += count
        if total:
            categories[category] = total
    return PrimitiveProfile(
        protocol=protocol, categories=categories, operations=operations
    )


def baseline_operations(counter: PrimitiveCounter) -> dict[str, int]:
    """The hybrid/credential machinery counts (excluded from Table 2)."""
    return {
        operation: count
        for operation, count in counter.counts.items()
        if any(operation.startswith(prefix) for prefix in BASELINE_PREFIXES)
    }


def table2(profiles: list[PrimitiveProfile]) -> str:
    """Render the reproduced Table 2."""
    lines = [
        "Table 2 — applied cryptographic primitives (derived from counters)",
        f"{'protocol':34s} | primitives beyond credentials + hybrid encryption",
        "-" * 100,
    ]
    for profile in profiles:
        protocol, categories = profile.table_row()
        lines.append(f"{protocol:34s} | {categories}")
    return "\n".join(lines)
