"""Backend divergence gate: python and gmpy2 must be indistinguishable.

Two layers of evidence that the bigint backend cannot leak into
protocol semantics:

1. **Deterministic bit-identity.**  With randomness pinned, every
   primitive (commutative application, Paillier encryption/decryption,
   RSA private operation, engine batches) must produce *the same
   integers* under every available backend.
2. **Protocol-level equivalence.**  Every protocol run under every
   backend must deliver the reference plaintext join with identical
   primitive-counter totals — randomness differs per run, so transcript
   bytes are compared per backend against the deterministic expectation
   (the decrypted global result), not across runs.

On gmpy2-free hosts the matrix degrades to the python backend alone
(the tests still validate the gate plumbing); CI's optional-deps job
runs the full two-backend matrix, plus a TCP cross-backend check that
``cmp``'s the output CSVs of mixed-backend client/server runs.
"""

import pytest

from repro import CommutativeConfig, DASConfig, PMConfig, run_join_query
from repro.crypto import backend as bk
from repro.crypto import commutative, paillier, rsa
from repro.crypto.engine import CryptoEngine
from repro.crypto.groups import commutative_group
from repro.relational.algebra import natural_join

QUERY = "select * from R1 natural join R2"

PROTOCOL_MATRIX = [
    ("das", lambda: DASConfig(buckets=3)),
    ("commutative", lambda: CommutativeConfig()),
    ("private-matching", lambda: PMConfig()),
]

BACKENDS = list(bk.available_backends())


class TestDeterministicBitIdentity:
    """Fixed inputs -> identical integers under every backend."""

    def test_commutative_application(self, comm_group):
        key = commutative.CommutativeKey(comm_group, exponent=65537)
        value = comm_group.random_element()
        outputs = set()
        for name in BACKENDS:
            with bk.use_backend(name):
                tag = commutative.apply(key, value)
                assert commutative.invert(key, tag) == value
                outputs.add(tag)
        assert len(outputs) == 1

    def test_paillier_fixed_randomness(self, paillier_key, fixed_nonce_paillier):
        public = paillier_key.public_key
        ciphertexts, plaintexts = set(), set()
        for name in BACKENDS:
            with bk.use_backend(name):
                ciphertext = fixed_nonce_paillier.encrypt(public, 42)
                ciphertexts.add(ciphertext.value)
                plaintexts.add(paillier.decrypt(paillier_key, ciphertext))
        assert len(ciphertexts) == 1
        assert plaintexts == {42}

    def test_rsa_private_operation(self, rsa_key):
        value = 0xDEADBEEF
        outputs = set()
        for name in BACKENDS:
            with bk.use_backend(name):
                outputs.add(rsa.private_pow(rsa_key, value))
        assert outputs == {pow(value, rsa_key.d, rsa_key.n)}

    def test_engine_batches(self, paillier_key, fixed_nonce_paillier):
        scheme = fixed_nonce_paillier
        public = paillier_key.public_key
        plaintexts = list(range(16))
        batch_values = set()
        for name in BACKENDS:
            engine = CryptoEngine(backend=name)
            ciphertexts = engine.batch_scheme_encrypt(scheme, public, plaintexts)
            batch_values.add(tuple(c.value for c in ciphertexts))
            assert engine.batch_scheme_decrypt(
                scheme, paillier_key, ciphertexts
            ) == plaintexts
        n, n_sq = public.n, public.n_squared
        assert batch_values == {
            tuple(
                (1 + m * n) * pow(scheme.nonce(public, m), n, n_sq) % n_sq
                for m in plaintexts
            )
        }


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize(
    "protocol,make_config", PROTOCOL_MATRIX, ids=[p for p, _ in PROTOCOL_MATRIX]
)
def test_protocols_deliver_reference_join_under_each_backend(
    backend_name, protocol, make_config, make_federation, workload
):
    expected = natural_join(workload.relation_1, workload.relation_2)
    with bk.use_backend(backend_name):
        engine = CryptoEngine(backend=backend_name)
        federation = make_federation(workload)
        result = run_join_query(
            federation, QUERY, protocol=protocol,
            config=make_config(), engine=engine,
        )
    assert result.global_result == expected
    assert result.artifacts["crypto"]["backend"] == backend_name


@pytest.mark.skipif(
    len(BACKENDS) < 2, reason="single-backend host; matrix needs gmpy2"
)
@pytest.mark.parametrize(
    "protocol,make_config", PROTOCOL_MATRIX, ids=[p for p, _ in PROTOCOL_MATRIX]
)
def test_primitive_counts_identical_across_backends(
    protocol, make_config, make_federation, workload
):
    """Backends change arithmetic speed, never how many primitives run."""
    counts = []
    for name in BACKENDS:
        with bk.use_backend(name):
            federation = make_federation(workload)
            result = run_join_query(
                federation, QUERY, protocol=protocol, config=make_config()
            )
        counts.append(dict(result.primitive_counter.counts))
    assert counts[0], "run recorded no primitives"
    assert all(entry == counts[0] for entry in counts[1:])


def test_mixed_backend_interoperability(comm_group):
    """Ciphertexts produced under one backend decrypt under another.

    The strongest form of the divergence claim: a mediator on gmpy2 and
    a datasource on pure Python must interoperate transparently (this is
    exactly the CI TCP cross-backend topology, in miniature).
    """
    key = commutative.CommutativeKey(comm_group, exponent=101)
    value = comm_group.random_element()
    for encrypt_backend in BACKENDS:
        for decrypt_backend in BACKENDS:
            with bk.use_backend(encrypt_backend):
                tag = commutative.apply(key, value)
            with bk.use_backend(decrypt_backend):
                assert commutative.invert(key, tag) == value
