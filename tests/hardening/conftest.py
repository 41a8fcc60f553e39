"""Shared fixtures for the leakage-hardened-mode suite.

The audits here reuse the session's key material (keygen dominates
runtime) and a deliberately small-but-joinable workload spec: big
enough that the join, the DAS buckets, and the result channel all move
under the adjacent perturbation, small enough that a dozen protocol
runs stay fast.
"""

from __future__ import annotations

import pytest

from repro import Federation
from repro.mediation.access_control import allow_all
from repro.relational.datagen import WorkloadSpec

#: Audit workload: 6 runs per (protocol, hardened-flag) pair audited.
AUDIT_SPEC = WorkloadSpec(
    domain_1=6,
    domain_2=6,
    overlap=3,
    rows_per_value_1=1,
    rows_per_value_2=1,
    seed=11,
)


def spec_with_seed(seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        domain_1=AUDIT_SPEC.domain_1,
        domain_2=AUDIT_SPEC.domain_2,
        overlap=AUDIT_SPEC.overlap,
        rows_per_value_1=AUDIT_SPEC.rows_per_value_1,
        rows_per_value_2=AUDIT_SPEC.rows_per_value_2,
        seed=seed,
    )


@pytest.fixture
def audit_factory(ca, client):
    """``differential_audit`` federation factory on session keys."""

    def factory(workload, network):
        federation = Federation(ca=ca, network=network)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        return federation

    return factory


def envelope_breaches(document: dict, rules: dict) -> list[str]:
    """Gated distances of ``document`` violating the hardened ``rules``.

    Mirrors the arithmetic of ``scripts/check_regression.py`` with
    a zero baseline: a metric passes iff ``value <= tolerance * 0 +
    slack`` — i.e. TV distances at most epsilon, deltas exactly zero.
    """
    breaches = []
    for protocol, entry in document["protocols"].items():
        for adversary, audit in entry["adversaries"].items():
            for metric, value in audit["distances"].items():
                rule = rules.get(metric)
                if rule is None:
                    continue
                if value > rule["slack"]:
                    breaches.append(
                        f"{protocol}/{adversary}/{metric}={value}"
                    )
    return breaches
