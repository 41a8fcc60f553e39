"""Shared fixtures.

Key generation dominates test runtime, so expensive key material (CA,
client RSA keys, Paillier keys) is created once per session and shared.
Sharing is safe: all key containers are immutable and parties carry no
network state between federations.
"""

from __future__ import annotations

import pytest

from repro import CertificationAuthority, Federation, setup_client
from repro.crypto import groups, paillier, rsa
from repro.crypto.homomorphic import PaillierScheme
from repro.crypto.numtheory import powmod
from repro.mediation.access_control import allow_all
from repro.mediation.client import Client
from repro.relational.datagen import (
    WorkloadSpec,
    Workload,
    generate,
    medical_workload,
    small_workload,
)

#: Fast-but-functional key sizes for tests.
RSA_BITS = 1024
PAILLIER_BITS = 768
GROUP_BITS = 128


@pytest.fixture(scope="session")
def ca() -> CertificationAuthority:
    return CertificationAuthority(key_bits=RSA_BITS)


@pytest.fixture(scope="session")
def rsa_key() -> rsa.RSAPrivateKey:
    return rsa.generate_keypair(RSA_BITS)


@pytest.fixture(scope="session")
def paillier_key() -> paillier.PaillierPrivateKey:
    return paillier.generate_keypair(PAILLIER_BITS)


@pytest.fixture(scope="session")
def paillier_scheme() -> PaillierScheme:
    return PaillierScheme(PAILLIER_BITS)


class FixedNoncePaillier(PaillierScheme):
    """Textbook Paillier, ``(1 + m*n) * r^n mod n^2``, with the nonce ``r``
    a function of the plaintext: ciphertexts comparable across engine
    modes and bigint backends.  ``paillier.encrypt`` has no pinned-nonce
    route, so the nonce term is built here, through the backend's
    ``powmod``, and the plaintext added to it homomorphically."""

    @staticmethod
    def nonce(public_key: paillier.PaillierPublicKey, plaintext: int) -> int:
        return (plaintext * 2 + 3) % public_key.n

    def encrypt(self, public_key, plaintext):
        nonce_term = powmod(
            self.nonce(public_key, plaintext), public_key.n, public_key.n_squared
        )
        return paillier.add_plain(
            paillier.PaillierCiphertext(nonce_term, public_key), plaintext
        )


@pytest.fixture(scope="session")
def fixed_nonce_paillier() -> FixedNoncePaillier:
    return FixedNoncePaillier(PAILLIER_BITS)


@pytest.fixture(scope="session")
def comm_group():
    return groups.commutative_group(GROUP_BITS)


@pytest.fixture(scope="session")
def client(ca, paillier_scheme) -> Client:
    """A fully equipped client (hybrid + homomorphic key material)."""
    return setup_client(
        ca,
        identity="test-client",
        properties={("role", "analyst"), ("clearance", "high")},
        rsa_bits=RSA_BITS,
        homomorphic_scheme=paillier_scheme,
    )


@pytest.fixture(scope="session")
def workload() -> Workload:
    return small_workload()


@pytest.fixture(scope="session")
def string_workload() -> Workload:
    return medical_workload()


@pytest.fixture(scope="session")
def skewed_workload() -> Workload:
    return generate(
        WorkloadSpec(
            domain_1=8,
            domain_2=8,
            overlap=5,
            rows_per_value_1=3,
            rows_per_value_2=2,
            skew=1.0,
            payload_attributes=1,
            seed=99,
        )
    )


@pytest.fixture
def make_federation(ca, client):
    """Factory building a fresh two-source federation around a workload."""

    def factory(
        workload: Workload,
        policy_1=None,
        policy_2=None,
        attach_client: bool = True,
    ) -> Federation:
        federation = Federation(ca=ca)
        federation.add_source(
            "S1", [(workload.relation_1, policy_1 or allow_all())]
        )
        federation.add_source(
            "S2", [(workload.relation_2, policy_2 or allow_all())]
        )
        if attach_client:
            federation.attach_client(client)
        return federation

    return factory


@pytest.fixture
def federation(make_federation, workload) -> Federation:
    return make_federation(workload)
