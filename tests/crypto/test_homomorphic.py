"""Tests for the homomorphic scheme adapter Listing 4 runs on.

The contract is checked on the Paillier adapter and on the fixed-nonce
subclass the engine and bit-identity tests use as their oracle
(``tests/conftest.py``), so the oracle cannot drift from the scheme.
"""

import pytest

from repro.crypto.homomorphic import PaillierScheme


@pytest.fixture(
    scope="module",
    params=["paillier", "fixed-nonce"],
)
def scheme(request):
    if request.param == "paillier":
        return PaillierScheme(256)
    return request.getfixturevalue("fixed_nonce_paillier")


@pytest.fixture(scope="module")
def keypair(scheme):
    return scheme.generate_keypair()


class TestSchemeContract:
    """Every adapter must satisfy the interface the protocols rely on."""

    def test_round_trip(self, scheme, keypair):
        pk = scheme.public_key(keypair)
        for m in (0, 1, 42):
            assert scheme.decrypt(keypair, scheme.encrypt(pk, m)) == m

    def test_addition(self, scheme, keypair):
        pk = scheme.public_key(keypair)
        total = scheme.add(scheme.encrypt(pk, 20), scheme.encrypt(pk, 22))
        assert scheme.decrypt(keypair, total) == 42

    def test_scalar_multiplication(self, scheme, keypair):
        pk = scheme.public_key(keypair)
        ct = scheme.scalar_multiply(scheme.encrypt(pk, 6), 7)
        assert scheme.decrypt(keypair, ct) == 42

    def test_add_plain(self, scheme, keypair):
        pk = scheme.public_key(keypair)
        ct = scheme.add_plain(scheme.encrypt(pk, 40), 2)
        assert scheme.decrypt(keypair, ct) == 42

    def test_plaintext_bound_positive(self, scheme, keypair):
        pk = scheme.public_key(keypair)
        assert scheme.plaintext_bound(pk) > 1000
