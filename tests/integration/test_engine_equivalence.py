"""Engine-mode equivalence: serial, pooled and the scalar map must agree.

Acceptance invariant for the batched crypto engine: for every protocol,
a run under the pooled engine (process pool forced on via ``workers=2,
threshold=1``) must produce the *same global result* and the *same
primitive-counter totals* as a run under the serial engine — the pool
must be invisible except for wall-clock time.  The third leg is the
definition both are held to, kept here and not in the library:
:class:`ScalarMap` answers every batch call with the scalar primitive
mapped over the inputs.

The DEM half of a hybrid batch is the same code in both modes: it runs
in the calling process through the batch kernel of ``crypto.symmetric``,
never in the pool, and batching must not change what the primitive
counters record.
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


@pytest.fixture(scope="module")
def engines():
    serial = CryptoEngine(workers=0)
    pooled = CryptoEngine(workers=2, threshold=1)
    yield {"serial": serial, "pooled": pooled}
    pooled.close()


def run_with(engine, make_federation, workload, protocol, config):
    federation = make_federation(workload)
    result = run_join_query(
        federation, QUERY, protocol=protocol, config=config, engine=engine
    )
    return result


@pytest.mark.parametrize(
    "protocol,config", PROTOCOL_MATRIX, ids=lambda v: str(v).split("(")[0]
)
def test_pooled_engine_is_invisible(
    engines, make_federation, workload, protocol, config
):
    expected_join = natural_join(workload.relation_1, workload.relation_2)
    results = {
        mode: run_with(engine, make_federation, workload, protocol, config)
        for mode, engine in {**engines, "scalar": ScalarMap(workers=0)}.items()
    }
    for mode, result in results.items():
        assert result.global_result == expected_join, mode

    serial_counts = dict(results["serial"].primitive_counter.counts)
    assert serial_counts, "serial run recorded no primitives"
    # Satellite invariant: primitive counts survive the process pool —
    # workers count in their own process and the engine replays the
    # totals into the driver's counter.
    assert dict(results["pooled"].primitive_counter.counts) == serial_counts
    # Batching changes no count either, with the one deliberate exception
    # of the engine's docstring: a hybrid batch unwraps once per distinct
    # encapsulation, the scalar loop once per ciphertext.
    scalar_counts = dict(results["scalar"].primitive_counter.counts)
    assert scalar_counts.pop("rsa.decrypt", 0) >= serial_counts.pop("rsa.decrypt", 0)
    assert scalar_counts == serial_counts


def test_pooled_engine_reuse_across_protocols(engines, make_federation, workload):
    """One long-lived pooled engine serves consecutive protocol runs."""
    pooled = engines["pooled"]
    for protocol, config in PROTOCOL_MATRIX:
        result = run_with(pooled, make_federation, workload, protocol, config)
        assert result.global_result == natural_join(
            workload.relation_1, workload.relation_2
        )


def test_hybrid_batches_are_the_same_in_every_mode(engines, rsa_key):
    """Equal primitive counts, the session's one encapsulation object,
    output any mode can decrypt, and a DEM that never enters the pool."""
    plaintexts = [b"row-%d" % i * i for i in range(16)]
    produced = {}
    for mode, engine in engines.items():
        session = hybrid.new_session([rsa_key.public_key()])
        tracer = Tracer()
        with use_tracer(tracer), instrumentation.count_primitives() as counter:
            ciphertexts = engine.batch_hybrid_encrypt(session, plaintexts)
        assert dict(counter.counts) == {
            "hybrid.encrypt": len(plaintexts),
            "symmetric.encrypt": len(plaintexts),
        }, mode
        assert all(c.wrapped_keys is session.encapsulation for c in ciphertexts), mode
        (batch,) = tracer.find("crypto:hybrid_encrypt")
        assert batch.attributes["items"] == len(plaintexts)
        assert tracer.find("crypto:chunk") == [], mode
        produced[mode] = ciphertexts

    for producer, ciphertexts in produced.items():
        for consumer, engine in engines.items():
            tracer = Tracer()
            with use_tracer(tracer), instrumentation.count_primitives() as counter:
                decrypted = engine.batch_hybrid_decrypt(rsa_key, ciphertexts)
            assert decrypted == plaintexts, (producer, consumer)
            assert dict(counter.counts) == {
                "rsa.decrypt": 1,
                "hybrid.decrypt": len(plaintexts),
                "symmetric.decrypt": len(plaintexts),
            }, (producer, consumer)
            # Two spans of one name: the RSA unwrap of the batch's single
            # encapsulation, which the pooled engine does hand to a
            # worker, and the DEM over all items, which no engine does.
            unwrap, dem = sorted(
                tracer.find("crypto:hybrid_decrypt"),
                key=lambda span: span.attributes["items"],
            )
            assert (unwrap.attributes["items"], dem.attributes["items"]) == (
                1, len(plaintexts),
            )
            chunks = tracer.find("crypto:chunk")
            assert all(chunk.parent_id == unwrap.span_id for chunk in chunks)
            assert bool(chunks) == (consumer == "pooled"), consumer
