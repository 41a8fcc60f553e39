"""Deterministic bit-identity: pinned inputs give the closed-form integers.

With randomness pinned, every primitive that reaches the installed
bigint backend — commutative application, Paillier encryption and
decryption, the RSA private operation, engine batches — must produce
exactly the integers its textbook formula names, computed here with the
standard library's ``pow()``.
"""

from repro.crypto import commutative, paillier, rsa
from repro.crypto.engine import CryptoEngine


class TestDeterministicBitIdentity:
    """Fixed inputs -> the closed-form integers."""

    def test_commutative_application(self, comm_group):
        key = commutative.CommutativeKey(comm_group, exponent=65537)
        value = comm_group.random_element()
        tag = commutative.apply(key, value)
        assert tag == pow(value, 65537, comm_group.p)

    def test_paillier_fixed_randomness(self, paillier_key, fixed_nonce_paillier):
        public = paillier_key.public_key
        ciphertext = fixed_nonce_paillier.encrypt(public, 42)
        n, n_sq = public.n, public.n_squared
        assert ciphertext.value == (
            (1 + 42 * n) * pow(fixed_nonce_paillier.nonce(public, 42), n, n_sq) % n_sq
        )
        assert paillier.decrypt(paillier_key, ciphertext) == 42

    def test_rsa_private_operation(self, rsa_key):
        value = 0xDEADBEEF
        assert rsa.private_pow(rsa_key, value) == pow(value, rsa_key.d, rsa_key.n)

    def test_engine_batches(self, paillier_key, fixed_nonce_paillier):
        scheme = fixed_nonce_paillier
        public = paillier_key.public_key
        plaintexts = list(range(16))
        engine = CryptoEngine(backend="python")
        ciphertexts = engine.batch_scheme_encrypt(scheme, public, plaintexts)
        assert engine.batch_scheme_decrypt(scheme, paillier_key, ciphertexts) == plaintexts
        n, n_sq = public.n, public.n_squared
        assert [c.value for c in ciphertexts] == [
            (1 + m * n) * pow(scheme.nonce(public, m), n, n_sq) % n_sq
            for m in plaintexts
        ]
