"""Batch-vs-scalar equivalence tests for the crypto engine.

The engine's contract: every ``batch_*`` API returns exactly what
mapping the scalar primitive over the inputs would — byte-identical
values and identical primitive counts.
"""

from __future__ import annotations

import secrets

import pytest

from repro.crypto import commutative as comm
from repro.crypto import hybrid, instrumentation, paillier
from repro.crypto.engine import CryptoEngine, get_engine, use_engine
from repro.crypto.polynomial import encrypt_polynomial, evaluate, from_roots
from repro.errors import ParameterError
from repro.mediation.ca import verify_credential
from repro.mediation.sizing import estimate_size


@pytest.fixture(scope="module")
def engine():
    return CryptoEngine(workers=0)


@pytest.fixture(scope="module")
def comm_key(comm_group):
    return comm.generate_key(comm_group)


def counted(callable_, *args, **kwargs):
    """Run ``callable_`` under a fresh counter; return (result, counts)."""
    with instrumentation.count_primitives() as counter:
        result = callable_(*args, **kwargs)
    return result, dict(counter.counts)


class TestDispatch:
    def test_modes(self, engine):
        assert engine.mode == CryptoEngine(workers=1).mode == "serial"

    def test_parallel_workers_refused(self):
        """A caller asking for parallelism must not silently get a
        serial engine."""
        with pytest.raises(ParameterError):
            CryptoEngine(workers=2)

    def test_installed_engine_swaps(self):
        default = get_engine()
        custom = CryptoEngine(workers=0)
        with use_engine(custom):
            assert get_engine() is custom
        assert get_engine() is default


class TestBatchCommutative:
    def test_encrypt_matches_scalar(self, engine, comm_group, comm_key):
        values = [comm_group.random_element() for _ in range(9)]
        expected, scalar_counts = counted(
            lambda: [comm.apply(comm_key, v) for v in values]
        )
        got, batch_counts = counted(
            engine.batch_commutative_encrypt, comm_key, values
        )
        assert got == expected
        assert batch_counts == scalar_counts
        assert engine.batch_commutative_encrypt(comm_key, []) == []

    def test_validation_rejects_non_residues(self, engine, comm_group, comm_key):
        non_residue = next(
            x for x in range(2, 1000) if not comm_group.contains(x)
        )
        with pytest.raises(ParameterError):
            engine.batch_commutative_encrypt(comm_key, [non_residue])


class TestBatchScheme:
    def test_encrypt_decrypt_roundtrip(self, engine, paillier_scheme, client):
        private_key = client.homomorphic_key
        public_key = paillier_scheme.public_key(private_key)
        plaintexts = [3, 1, 4, 1, 5, 9]
        ciphertexts = engine.batch_scheme_encrypt(
            paillier_scheme, public_key, plaintexts
        )
        assert engine.batch_scheme_decrypt(
            paillier_scheme, private_key, ciphertexts
        ) == plaintexts


class TestBatchPaillier:
    """The Paillier legs of ``batch_scheme_encrypt`` / ``_decrypt``."""

    def test_encrypt_deterministic_with_randomness(
        self, engine, paillier_key, fixed_nonce_paillier
    ):
        scheme, pk = fixed_nonce_paillier, paillier_key.public_key
        plaintexts = list(range(8))
        expected, scalar_counts = counted(
            lambda: [scheme.encrypt(pk, m).value for m in plaintexts]
        )
        got, batch_counts = counted(
            engine.batch_scheme_encrypt, scheme, pk, plaintexts
        )
        assert [c.value for c in got] == expected
        assert batch_counts == scalar_counts

    def test_encrypt_fresh_randomness_roundtrips(
        self, engine, paillier_key, paillier_scheme
    ):
        pk = paillier_key.public_key
        plaintexts = [secrets.randbelow(pk.n) for _ in range(6)]
        ciphertexts, counts = counted(
            engine.batch_scheme_encrypt, paillier_scheme, pk, plaintexts
        )
        assert [
            paillier.decrypt(paillier_key, c) for c in ciphertexts
        ] == plaintexts
        assert counts["paillier.encrypt"] == len(plaintexts)
        assert counts["random.paillier_nonce"] == len(plaintexts)

    def test_decrypt_matches_scalar(self, engine, paillier_key, paillier_scheme):
        pk = paillier_key.public_key
        plaintexts = [0, 1, pk.n - 1] + [secrets.randbelow(pk.n) for _ in range(5)]
        ciphertexts = [paillier.encrypt(pk, m) for m in plaintexts]
        expected, scalar_counts = counted(
            lambda: [paillier.decrypt(paillier_key, c) for c in ciphertexts]
        )
        assert expected == plaintexts
        got, batch_counts = counted(
            engine.batch_scheme_decrypt, paillier_scheme, paillier_key, ciphertexts
        )
        assert got == expected
        assert batch_counts == scalar_counts


class TestBatchPolyEval:
    def test_matches_scalar_masked_evaluate(self, engine, paillier_scheme, client):
        private_key = client.homomorphic_key
        public_key = paillier_scheme.public_key(private_key)
        modulus = paillier_scheme.plaintext_bound(public_key)
        roots = [5, 11, 23]
        coefficients = from_roots(roots, modulus)
        encrypted = encrypt_polynomial(paillier_scheme, public_key, coefficients)
        jobs = [
            (x, 1 + secrets.randbelow(modulus - 1), secrets.randbelow(1 << 64))
            for x in (5, 11, 23, 42, 99)
        ]
        expected = [
            (mask * evaluate(coefficients, x, modulus) + payload) % modulus
            for x, mask, payload in jobs
        ]
        evaluations = engine.batch_poly_eval(encrypted, jobs)
        decrypted = [paillier_scheme.decrypt(private_key, e) for e in evaluations]
        assert decrypted == expected
        # Roots must null the mask so only the payload survives.
        assert decrypted[:3] == [job[2] for job in jobs[:3]]


class TestBatchHybrid:
    def test_decrypt_matches_scalar(self, engine, rsa_key):
        plaintexts = [b"tuple-set-%d" % i for i in range(7)]
        ciphertexts = [
            hybrid.encrypt([rsa_key.public_key()], m) for m in plaintexts
        ]
        _, scalar_counts = counted(
            lambda: [hybrid.decrypt(rsa_key, c) for c in ciphertexts]
        )
        got, batch_counts = counted(
            engine.batch_hybrid_decrypt, rsa_key, ciphertexts
        )
        assert got == plaintexts
        assert batch_counts == scalar_counts

    def test_encrypt_roundtrips(self, engine, rsa_key):
        plaintexts = [b"payload-%d" % i for i in range(6)]
        ciphertexts, counts = counted(
            lambda: engine.batch_hybrid_encrypt(
                hybrid.new_session([rsa_key.public_key()]), plaintexts
            )
        )
        assert [hybrid.decrypt(rsa_key, c) for c in ciphertexts] == plaintexts
        assert counts["hybrid.encrypt"] == len(plaintexts)
        # One session per batch: the key is wrapped once per
        # recipient key, however many items share it.
        assert counts["rsa.encrypt"] == 1

    def test_encrypt_shares_the_sessions_encapsulation(self, engine, rsa_key):
        """A batch returns ciphertexts holding the session's own
        encapsulation object, as the scalar ``Session.encrypt`` loop
        does, so the codec and the size estimate count it once."""
        plaintexts = [b"payload-%d" % i for i in range(16)]
        session = hybrid.new_session([rsa_key.public_key()])
        ciphertexts = engine.batch_hybrid_encrypt(session, plaintexts)
        assert all(c.wrapped_keys is session.encapsulation for c in ciphertexts)
        assert estimate_size(ciphertexts) == estimate_size(
            [session.encrypt(m) for m in plaintexts]
        )

    def test_associated_data_is_bound(self, engine, rsa_key):
        [ciphertext] = engine.batch_hybrid_encrypt(
            hybrid.new_session([rsa_key.public_key()]),
            [b"x"],
            associated_data=b"context",
        )
        assert engine.batch_hybrid_decrypt(
            rsa_key, [ciphertext], associated_data=b"context"
        ) == [b"x"]


class TestMapBatch:
    def test_credential_verification(self, engine, ca, client):
        jobs = [
            (credential, ca.verification_key)
            for credential in client.credentials
        ] * 3
        assert all(engine.map_batch(verify_credential, jobs))
