"""Tests for polynomials over Z_n and oblivious evaluation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import paillier, polynomial
from repro.crypto.homomorphic import PaillierScheme
from repro.crypto.instrumentation import count_primitives
from repro.errors import ParameterError


@pytest.fixture(scope="module")
def key():
    return paillier.generate_keypair(256)


@pytest.fixture(scope="module")
def scheme():
    return PaillierScheme(256)


MODULUS = 2**61 - 1  # prime, so plaintext evaluation over a field


class TestFromRoots:
    def test_roots_evaluate_to_zero(self):
        roots = [3, 17, 255]
        coefficients = polynomial.from_roots(roots, MODULUS)
        for root in roots:
            assert polynomial.evaluate(coefficients, root, MODULUS) == 0

    def test_non_roots_nonzero(self):
        coefficients = polynomial.from_roots([3, 17, 255], MODULUS)
        for x in (1, 4, 1000):
            assert polynomial.evaluate(coefficients, x, MODULUS) != 0

    def test_degree_equals_root_count(self):
        coefficients = polynomial.from_roots(list(range(1, 8)), MODULUS)
        assert polynomial.degree(coefficients) == 7

    def test_leading_coefficient_sign(self):
        # Product of (a_i - x): leading coefficient is (-1)^n.
        coefficients = polynomial.from_roots([5, 6, 7], MODULUS)
        assert coefficients[-1] == MODULUS - 1  # (-1)^3 mod m

    def test_empty_roots_is_constant_one(self):
        coefficients = polynomial.from_roots([], MODULUS)
        assert coefficients == [1]
        assert polynomial.evaluate(coefficients, 12345, MODULUS) == 1

    def test_duplicate_roots(self):
        coefficients = polynomial.from_roots([4, 4], MODULUS)
        assert polynomial.evaluate(coefficients, 4, MODULUS) == 0
        assert polynomial.degree(coefficients) == 2

    def test_bad_modulus(self):
        with pytest.raises(ParameterError):
            polynomial.from_roots([1], 1)

    def test_empty_evaluate_rejected(self):
        with pytest.raises(ParameterError):
            polynomial.evaluate([], 3, MODULUS)

    @given(st.lists(st.integers(min_value=0, max_value=10**9),
                    min_size=1, max_size=8, unique=True),
           st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=50, deadline=None)
    def test_evaluation_matches_product_form(self, roots, x):
        coefficients = polynomial.from_roots(roots, MODULUS)
        expected = 1
        for root in roots:
            expected = expected * (root - x) % MODULUS
        assert polynomial.evaluate(coefficients, x, MODULUS) == expected


class TestEncryptedPolynomial:
    def test_oblivious_evaluation_matches_plaintext(self, key, scheme):
        n = key.public_key.n
        roots = [11, 22, 33]
        coefficients = polynomial.from_roots(roots, n)
        encrypted = polynomial.encrypt_polynomial(scheme, key.public_key, coefficients)
        for x in (11, 12, 10**6):
            expected = polynomial.evaluate(coefficients, x, n)
            assert paillier.decrypt(key, encrypted.evaluate(x)) == expected

    def test_degree_is_public(self, key, scheme):
        coefficients = polynomial.from_roots([1, 2, 3, 4], key.public_key.n)
        encrypted = polynomial.encrypt_polynomial(scheme, key.public_key, coefficients)
        assert encrypted.degree == 4
        # ... as the count of shipped ciphertexts: the leading (-1)^n is
        # public and only the four low coefficients are encrypted.
        assert len(encrypted.coefficients) == 4

    @given(st.lists(st.integers(min_value=0, max_value=10**9),
                    max_size=5, unique=True),
           st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30, deadline=None)
    def test_every_degree_and_sign_matches_plaintext(self, key, scheme, roots, x):
        # Degree 0 (no roots, P = 1), odd and even leading signs alike.
        n = key.public_key.n
        coefficients = polynomial.from_roots(roots, n)
        encrypted = polynomial.encrypt_polynomial(scheme, key.public_key, coefficients)
        assert len(encrypted.coefficients) == encrypted.degree == len(roots)
        value = polynomial.evaluate(coefficients, x, n)
        assert paillier.decrypt(key, encrypted.evaluate(x)) == value
        masked = encrypted.masked_evaluate(x, mask=987654321, payload=424242)
        assert paillier.decrypt(key, masked) == (987654321 * value + 424242) % n

    def test_horner_spends_one_multiplication_per_low_coefficient(self, key, scheme):
        encrypted = polynomial.encrypt_polynomial(
            scheme, key.public_key, polynomial.from_roots([3, 5, 8, 13], key.public_key.n)
        )
        with count_primitives() as counter:
            encrypted.masked_evaluate(5, mask=7, payload=1)
        # Three Horner steps (the leading one is a plaintext addition)
        # and the mask.
        assert counter.counts["paillier.scalar_multiply"] == 4
        assert counter.counts["paillier.encrypt"] == 0

    def test_foreign_leading_coefficient_rejected(self, key, scheme):
        coefficients = polynomial.from_roots([1, 2], key.public_key.n)
        coefficients[-1] = 2
        with pytest.raises(ParameterError):
            polynomial.encrypt_polynomial(scheme, key.public_key, coefficients)

    def test_masked_evaluate_at_root_yields_payload(self, key, scheme):
        n = key.public_key.n
        encrypted = polynomial.encrypt_polynomial(
            scheme, key.public_key, polynomial.from_roots([77], n)
        )
        ct = encrypted.masked_evaluate(77, mask=987654321, payload=424242)
        assert paillier.decrypt(key, ct) == 424242

    def test_masked_evaluate_at_non_root_is_garbled(self, key, scheme):
        n = key.public_key.n
        encrypted = polynomial.encrypt_polynomial(
            scheme, key.public_key, polynomial.from_roots([77], n)
        )
        ct = encrypted.masked_evaluate(78, mask=987654321, payload=424242)
        decrypted = paillier.decrypt(key, ct)
        assert decrypted != 424242
        # r * P(78) + payload = r * (77 - 78) + payload exactly:
        assert decrypted == (-987654321 + 424242) % n

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_masked_root_always_recovers_payload(self, key, scheme, payload):
        n = key.public_key.n
        encrypted = polynomial.encrypt_polynomial(
            scheme, key.public_key, polynomial.from_roots([5, 9], n)
        )
        ct = encrypted.masked_evaluate(9, mask=123456789, payload=payload)
        assert paillier.decrypt(key, ct) == payload
