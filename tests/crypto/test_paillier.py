"""Tests for the Paillier cryptosystem and its homomorphic laws."""

import json
import pathlib
import secrets
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import backend, paillier, serialization
from repro.crypto.instrumentation import count_primitives
from repro.errors import DecryptionError, EncryptionError, KeyError_, ParameterError

#: The layered benchmark's committed keys (read-only: benchmark contract).
FIXTURE_KEYS = pathlib.Path(__file__).parents[2] / "benchmarks/layers/keys_2048.json"


@pytest.fixture(scope="module")
def key():
    return paillier.generate_keypair(256)


@pytest.fixture(scope="module")
def fixture_key():
    """The 2048-bit key ``pm_cold_bus`` runs on."""
    snapshot = json.loads(FIXTURE_KEYS.read_text())["client_paillier"]
    return serialization.paillier_private_from_dict(snapshot)


@pytest.fixture(scope="module")
def pk(key):
    return key.public_key


class TestBasics:
    def test_round_trip(self, key, pk):
        for m in [0, 1, 42, pk.n - 1]:
            assert paillier.decrypt(key, paillier.encrypt(pk, m)) == m

    def test_out_of_range_plaintexts(self, pk):
        with pytest.raises(EncryptionError):
            paillier.encrypt(pk, -1)
        with pytest.raises(EncryptionError):
            paillier.encrypt(pk, pk.n)

    def test_probabilistic(self, pk):
        assert paillier.encrypt(pk, 7).value != paillier.encrypt(pk, 7).value

    def test_keygen_too_small(self):
        with pytest.raises(ParameterError):
            paillier.generate_keypair(32)

    def test_decrypt_wrong_key(self, key, pk):
        other = paillier.generate_keypair(256)
        ct = paillier.encrypt(other.public_key, 5)
        with pytest.raises(KeyError_):
            paillier.decrypt(key, ct)

    def test_decrypt_invalid_ciphertext(self, key, pk):
        bogus = paillier.PaillierCiphertext(0, pk)
        with pytest.raises(DecryptionError):
            paillier.decrypt(key, bogus)


class TestHomomorphicLaws:
    @given(st.integers(min_value=0, max_value=10**12),
           st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=25, deadline=None)
    def test_additive_homomorphism(self, key, pk, a, b):
        total = paillier.add(paillier.encrypt(pk, a), paillier.encrypt(pk, b))
        assert paillier.decrypt(key, total) == (a + b) % pk.n

    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_scalar_multiplication(self, key, pk, m, gamma):
        ct = paillier.scalar_multiply(paillier.encrypt(pk, m), gamma)
        assert paillier.decrypt(key, ct) == m * gamma % pk.n

    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=25, deadline=None)
    def test_add_plain(self, key, pk, m, addend):
        ct = paillier.add_plain(paillier.encrypt(pk, m), addend)
        assert paillier.decrypt(key, ct) == (m + addend) % pk.n

    def test_addition_wraps_modulo_n(self, key, pk):
        ct = paillier.add(
            paillier.encrypt(pk, pk.n - 1), paillier.encrypt(pk, 2)
        )
        assert paillier.decrypt(key, ct) == 1

    def test_operator_sugar(self, key, pk):
        total = paillier.encrypt(pk, 20) + paillier.encrypt(pk, 22)
        assert paillier.decrypt(key, total) == 42
        assert paillier.decrypt(key, 2 * paillier.encrypt(pk, 21)) == 42

    def test_mixing_keys_rejected(self, pk):
        other = paillier.generate_keypair(256).public_key
        with pytest.raises(KeyError_):
            paillier.add(paillier.encrypt(pk, 1), paillier.encrypt(other, 1))

    def test_encrypt_zero_is_identity(self, key, pk):
        ct = paillier.add(paillier.encrypt(pk, 37), paillier.encrypt(pk, 0))
        assert paillier.decrypt(key, ct) == 37


def carmichael_oracle(key, ciphertext):
    """Textbook decryption, ``L(c^lambda mod n^2) * mu mod n``: the
    independent route :func:`paillier.decrypt` (CRT) is checked against."""
    n = key.public_key.n
    return (pow(ciphertext.value, key.lam, n * n) - 1) // n * key.mu % n


def chained_operations(pk, a, b, gamma):
    """One ciphertext through every homomorphic operation; encrypts
    ``-((a + b) * gamma + b) mod n``."""
    return paillier.scalar_multiply(
        paillier.add_plain(
            paillier.scalar_multiply(
                paillier.add(paillier.encrypt(pk, a), paillier.encrypt(pk, b)),
                gamma,
            ),
            b,
        ),
        pk.n - 1,  # negation: -E(x) = E((n - 1) * x)
    )


class TestCRTDecryption:
    """CRT decryption (the one route) must agree with Carmichael."""

    def test_keypair_retains_factorisation(self, key):
        assert 1 < key.p < key.public_key.n
        assert key.p * key.q == key.public_key.n

    def test_roundtrip_edge_values(self, key, pk):
        for m in [0, 1, 2, pk.n - 1]:
            ct = paillier.encrypt(pk, m)
            assert paillier.decrypt(key, ct) == m
            assert carmichael_oracle(key, ct) == m

    @given(st.integers(min_value=0))
    @settings(max_examples=40, deadline=None)
    def test_crt_matches_carmichael(self, key, pk, raw):
        ct = paillier.encrypt(pk, raw % pk.n)
        assert paillier.decrypt(key, ct) == carmichael_oracle(key, ct)

    @given(st.integers(min_value=0, max_value=10**12),
           st.integers(min_value=0, max_value=10**12),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_crt_matches_carmichael_after_homomorphic_ops(
        self, key, pk, a, b, gamma
    ):
        ct = chained_operations(pk, a, b, gamma)
        crt = paillier.decrypt(key, ct)
        assert crt == carmichael_oracle(key, ct)
        assert crt == (-((a + b) * gamma + b)) % pk.n

    def test_legacy_key_without_factors_still_decrypts(self):
        # The layered benchmark's committed key snapshot holds only
        # (n, lam, mu): loading it recovers p and q, so even that key
        # decrypts by CRT.  Read-only: the fixture is benchmark contract.
        snapshot = json.loads(FIXTURE_KEYS.read_text())["client_paillier"]
        assert "p" not in snapshot and "q" not in snapshot
        legacy = serialization.paillier_private_from_dict(snapshot)
        pk = legacy.public_key
        assert legacy.p * legacy.q == pk.n == int(snapshot["n"])
        for m in [0, secrets.randbelow(pk.n), pk.n - 1]:
            ct = paillier.encrypt(pk, m)
            assert paillier.decrypt(legacy, ct) == m == carmichael_oracle(legacy, ct)
        a, b, gamma = secrets.randbelow(10**12), secrets.randbelow(10**12), 65537
        ct = chained_operations(pk, a, b, gamma)
        assert paillier.decrypt(legacy, ct) == carmichael_oracle(legacy, ct)
        assert paillier.decrypt(legacy, ct) == (-((a + b) * gamma + b)) % pk.n


class TestFixedBaseNonce:
    """The one nonce path: ``h_n^s`` for a ``ceil(|n|/2)``-bit ``s``, read
    off a per-key fixed-base table.  (``TestCRTDecryption`` decrypts these
    ciphertexts against the Carmichael oracle on both key sizes.)  Each
    test runs on the host's arithmetic and with ``backend.gmp`` patched
    to ``None``, the two paths of the product."""

    @pytest.fixture(params=["host", "no-library"], autouse=True)
    def arithmetic(self, request, monkeypatch):
        if request.param == "no-library":
            monkeypatch.setattr(backend, "gmp", None)
        return request.param

    @pytest.mark.parametrize("which", ["256-bit", "fixture"])
    def test_fixed_base_product_equals_pow(self, request, which):
        private = request.getfixturevalue("key" if which == "256-bit" else "fixture_key")
        n = private.public_key.n
        n_sq, bits = n * n, paillier._nonce_bits(n)
        table = paillier._nonce_table(n)
        assert len(table) == -(-bits // paillier._WINDOW)
        h = table[0]
        randoms = [secrets.randbits(bits) for _ in range(5 if which == "256-bit" else 2)]
        for s in [0, 1, 2**bits - 1, *randoms]:
            assert paillier._fixed_base_power(table, s, n_sq) == pow(h, s, n_sq), s
            assert paillier._nonce(n, s) == pow(h, s, n_sq), s

    def test_exponent_beyond_the_table_is_refused_not_truncated(self, key):
        n = key.public_key.n
        n_sq, table = n * n, paillier._nonce_table(n)
        capacity = paillier._WINDOW * len(table)
        for s in [1 << capacity, (1 << capacity) + 1, -1]:
            with pytest.raises(ParameterError):
                paillier._fixed_base_power(table, s, n_sq)
            with pytest.raises(ParameterError):
                paillier._nonce(n, s)
        top = (1 << capacity) - 1  # the largest exponent the table serves
        assert paillier._nonce(n, top) == pow(table[0], top, n_sq)

    @pytest.mark.parametrize("bits", [256, 257])
    def test_exponent_has_ceil_half_modulus_bits(self, monkeypatch, bits):
        private = paillier.generate_keypair(bits)
        n = private.public_key.n
        h = paillier._nonce_table(n)[0]
        draws = []

        def randbits(k):
            draws.append((k, secrets.randbits(k)))
            return draws[-1][1]

        monkeypatch.setattr(paillier, "secrets", SimpleNamespace(randbits=randbits))
        ciphertext = paillier.encrypt(private.public_key, 99)
        assert [k for k, _ in draws] == [(bits + 1) // 2]
        s = draws[0][1]
        assert ciphertext.value == (1 + 99 * n) * pow(h, s, n * n) % (n * n)

    def test_two_keys_get_independent_tables(self, key):
        other = paillier.generate_keypair(256)
        mine, theirs = (paillier._nonce_table(k.public_key.n) for k in (key, other))
        assert paillier._nonce_table(key.public_key.n) is mine  # built once
        assert not set(mine) & set(theirs)
        for private, table in ((key, mine), (other, theirs)):
            n_sq = private.public_key.n_squared
            assert all(
                entry == pow(table[0], 1 << (paillier._WINDOW * i), n_sq)
                for i, entry in enumerate(table)
            )
            ciphertext = paillier.encrypt(private.public_key, 1234)
            assert paillier.decrypt(private, ciphertext) == 1234

    def test_encryptions_of_one_plaintext_are_distinct(self):
        # A fresh key, so the table build happens inside the count too.
        private = paillier.generate_keypair(256)
        with count_primitives() as counter:
            values = {paillier.encrypt(private.public_key, 7).value for _ in range(50)}
        assert len(values) == 50
        assert counter.counts["paillier.encrypt"] == 50
        assert counter.counts["random.paillier_nonce"] == 50
