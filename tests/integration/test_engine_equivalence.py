"""Engine equivalence: the crypto engine and the scalar map must agree.

Acceptance invariant for the batched crypto engine: for every protocol,
a run under :class:`~repro.crypto.engine.CryptoEngine` must produce the
*same global result* and the *same primitive-counter totals* as a run
under :class:`ScalarMap`, the definition the engine is held to, kept
here and not in the library: it answers every batch call with the
scalar primitive mapped over the inputs.

The one deliberate difference is a hybrid batch, which is one session:
it unwraps once per distinct encapsulation, and batching its DEM bodies
must not change what the primitive counters record.
"""

import pytest

from repro import CommutativeConfig, DASConfig, PMConfig, run_join_query
from repro.crypto import commutative, hybrid, instrumentation
from repro.crypto.engine import CryptoEngine
from repro.relational.algebra import natural_join
from repro.telemetry import Tracer, use_tracer

QUERY = "select * from R1 natural join R2"

PROTOCOL_MATRIX = [
    ("das", DASConfig(buckets=3)),
    ("commutative", CommutativeConfig()),
    ("private-matching", PMConfig()),
]


class ScalarMap(CryptoEngine):
    """Each batch call as the loop over the scalar primitive it stands for."""

    def batch_commutative_encrypt(self, key, values):
        return [commutative.apply(key, value) for value in values]

    def batch_scheme_encrypt(self, scheme, public_key, plaintexts):
        return [scheme.encrypt(public_key, plaintext) for plaintext in plaintexts]

    def batch_scheme_decrypt(self, scheme, private_key, ciphertexts):
        return [scheme.decrypt(private_key, ciphertext) for ciphertext in ciphertexts]

    def batch_poly_eval(self, encrypted_polynomial, jobs):
        return [encrypted_polynomial.masked_evaluate(*job) for job in jobs]

    def batch_hybrid_encrypt(self, session, plaintexts, associated_data=b""):
        return [session.encrypt(plaintext, associated_data) for plaintext in plaintexts]

    def batch_hybrid_decrypt(
        self, private_key, ciphertexts, associated_data=b"", session_keys=None
    ):
        return [
            hybrid.decrypt(private_key, ciphertext, associated_data)
            for ciphertext in ciphertexts
        ]

    def map_batch(self, func, argument_tuples):
        return [func(*arguments) for arguments in argument_tuples]


def test_scalar_map_covers_every_batch_api():
    batch_apis = {
        name for name in vars(CryptoEngine)
        if name.startswith("batch_") or name == "map_batch"
    }
    assert batch_apis == {
        name for name in vars(ScalarMap) if not name.startswith("__")
    }
    assert len(batch_apis) == 7


def run_with(engine, make_federation, workload, protocol, config):
    federation = make_federation(workload)
    return run_join_query(
        federation, QUERY, protocol=protocol, config=config, engine=engine
    )


@pytest.mark.parametrize(
    "protocol,config", PROTOCOL_MATRIX, ids=lambda v: str(v).split("(")[0]
)
def test_engine_matches_scalar_map(make_federation, workload, protocol, config):
    expected_join = natural_join(workload.relation_1, workload.relation_2)
    results = {
        name: run_with(engine, make_federation, workload, protocol, config)
        for name, engine in {
            "engine": CryptoEngine(), "scalar": ScalarMap()
        }.items()
    }
    for name, result in results.items():
        assert result.global_result == expected_join, name

    engine_counts = dict(results["engine"].primitive_counter.counts)
    assert engine_counts, "engine run recorded no primitives"
    # Batching changes no count, with the one deliberate exception of
    # the engine's docstring: a hybrid batch unwraps once per distinct
    # encapsulation, the scalar loop once per ciphertext.
    scalar_counts = dict(results["scalar"].primitive_counter.counts)
    assert scalar_counts.pop("rsa.decrypt", 0) >= engine_counts.pop("rsa.decrypt", 0)
    assert scalar_counts == engine_counts


def test_hybrid_batch_is_one_session(rsa_key):
    """Counts, the session's one encapsulation object, output the scalar
    loop can decrypt, and one unwrap for the whole batch."""
    engine = CryptoEngine()
    plaintexts = [b"row-%d" % i * i for i in range(16)]
    session = hybrid.new_session([rsa_key.public_key()])
    tracer = Tracer()
    with use_tracer(tracer), instrumentation.count_primitives() as counter:
        ciphertexts = engine.batch_hybrid_encrypt(session, plaintexts)
    assert dict(counter.counts) == {
        "hybrid.encrypt": len(plaintexts),
        "symmetric.encrypt": len(plaintexts),
    }
    assert all(c.wrapped_keys is session.encapsulation for c in ciphertexts)
    (batch,) = tracer.find("crypto:hybrid_encrypt")
    assert batch.attributes["items"] == len(plaintexts)
    assert ScalarMap().batch_hybrid_decrypt(rsa_key, ciphertexts) == plaintexts

    tracer = Tracer()
    with use_tracer(tracer), instrumentation.count_primitives() as counter:
        decrypted = engine.batch_hybrid_decrypt(rsa_key, ciphertexts)
    assert decrypted == plaintexts
    assert dict(counter.counts) == {
        "rsa.decrypt": 1,
        "hybrid.decrypt": len(plaintexts),
        "symmetric.decrypt": len(plaintexts),
    }
    # Two spans of one name: the RSA unwrap of the batch's single
    # encapsulation and the DEM over all items.
    unwrap, dem = sorted(
        tracer.find("crypto:hybrid_decrypt"),
        key=lambda span: span.attributes["items"],
    )
    assert (unwrap.attributes["items"], dem.attributes["items"]) == (
        1, len(plaintexts),
    )
