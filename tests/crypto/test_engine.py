"""Batch-vs-scalar equivalence tests for the crypto engine.

The engine's contract: every ``batch_*`` API returns exactly what
mapping the scalar primitive over the inputs would — byte-identical
values and identical primitive counts — also when a bigint batch is
split between the calling thread and the helper thread.
"""

from __future__ import annotations

import os
import secrets
import sys
import threading
import time
import warnings

import pytest

from repro.crypto import backend as bk
from repro.crypto import engine as crypto_engine
from repro.crypto import commutative as comm
from repro.crypto import hybrid, instrumentation, paillier
from repro.crypto.engine import (
    HELPER_THREAD,
    CryptoEngine,
    get_engine,
    use_engine,
)
from repro.crypto.polynomial import encrypt_polynomial, evaluate, from_roots
from repro.deadline import current_deadline, deadline
from repro.errors import ParameterError
from repro.mediation.ca import verify_credential
from repro.mediation.sizing import estimate_size
from repro.session import current_session_id, session_scope
from repro.telemetry import Tracer, tracing, use_tracer
from repro.telemetry.metrics import MetricsRegistry, use_metrics

needs_gmp = pytest.mark.skipif(bk.gmp is None, reason="the split needs GMP")


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
    def test_modes(self, engine, monkeypatch):
        """``mode`` names what runs: the split where GMP is loaded, the
        calling thread's loop without it; ``workers`` selects neither."""
        expected = "serial" if bk.gmp is None else "split"
        assert engine.mode == CryptoEngine(workers=1).mode == expected
        monkeypatch.setattr(bk, "gmp", None)
        assert engine.mode == "serial"

    def test_parallel_workers_refused(self):
        """``workers`` above 1 is refused rather than silently ignored."""
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


# ---------------------------------------------------------------------------
# The split: first half on the calling thread, second half on the helper.
# ---------------------------------------------------------------------------


@pytest.fixture
def fast_switching():
    """Switch threads as often as the interpreter can."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


class Probe:
    """An encrypted-polynomial stand-in for :meth:`CryptoEngine.
    batch_poly_eval`: records each item's thread and calls ``action``."""

    def __init__(self, action=lambda x: x):
        self.action = action
        self.threads: dict[int, int] = {}

    def masked_evaluate(self, x, mask, payload):
        self.threads[x] = threading.get_ident()
        return self.action(x)


def probe_jobs(count):
    return [(x, 0, 0) for x in range(count)]


@pytest.fixture(scope="module")
def polynomial(paillier_scheme, client):
    public_key = paillier_scheme.public_key(client.homomorphic_key)
    modulus = paillier_scheme.plaintext_bound(public_key)
    coefficients = from_roots([5, 11, 23], modulus)
    return encrypt_polynomial(paillier_scheme, public_key, coefficients)


class TestSplitEquivalence:
    """Each split batch against the plain loop, with threads switching
    every microsecond: byte-identical outputs, identical counts."""

    @pytest.fixture(autouse=True)
    def _switching(self, fast_switching):
        pass

    def test_commutative(self, engine, comm_group, comm_key):
        values = [comm_group.random_element() for _ in range(11)]
        expected, loop_counts = counted(
            lambda: [comm.apply(comm_key, v) for v in values]
        )
        got, batch_counts = counted(engine.batch_commutative_encrypt, comm_key, values)
        assert got == expected
        assert batch_counts == loop_counts

    def test_scheme_encrypt(self, engine, paillier_key, fixed_nonce_paillier):
        scheme, pk = fixed_nonce_paillier, paillier_key.public_key
        plaintexts = list(range(9))
        expected, loop_counts = counted(
            lambda: [scheme.encrypt(pk, m).value for m in plaintexts]
        )
        got, batch_counts = counted(engine.batch_scheme_encrypt, scheme, pk, plaintexts)
        assert [c.value for c in got] == expected
        assert batch_counts == loop_counts

    def test_scheme_decrypt(self, engine, paillier_key, paillier_scheme):
        pk = paillier_key.public_key
        ciphertexts = [paillier.encrypt(pk, secrets.randbelow(pk.n)) for _ in range(9)]
        expected, loop_counts = counted(
            lambda: [paillier_scheme.decrypt(paillier_key, c) for c in ciphertexts]
        )
        got, batch_counts = counted(
            engine.batch_scheme_decrypt, paillier_scheme, paillier_key, ciphertexts
        )
        assert got == expected
        assert batch_counts == loop_counts

    def test_poly_eval(self, engine, polynomial):
        modulus = polynomial.scheme.plaintext_bound(polynomial.public_key)
        jobs = [
            (x, 1 + secrets.randbelow(modulus - 1), secrets.randbelow(1 << 64))
            for x in (5, 11, 23, 42, 99, 7, 8)
        ]
        expected, loop_counts = counted(
            lambda: [polynomial.masked_evaluate(*job).value for job in jobs]
        )
        got, batch_counts = counted(engine.batch_poly_eval, polynomial, jobs)
        assert [c.value for c in got] == expected
        assert batch_counts == loop_counts

    def test_counts_reach_the_registry_once(self, engine, comm_group, comm_key):
        values = [comm_group.random_element() for _ in range(6)]
        with use_metrics(MetricsRegistry()) as registry:
            engine.batch_commutative_encrypt(comm_key, values)
        assert registry.primitive_counts()["commutative.encrypt"] == 6


@needs_gmp
class TestSplitThreads:
    def test_two_threads_run_the_items(self, engine):
        """The first half on the caller, the second on the helper: the
        split has not switched itself off."""
        probe = Probe()
        assert engine.batch_poly_eval(probe, probe_jobs(6)) == list(range(6))
        caller = threading.get_ident()
        assert len(set(probe.threads.values())) == 2
        assert [probe.threads[x] == caller for x in range(6)] == [True] * 3 + [False] * 3
        [helper] = [t for t in threading.enumerate() if t.name == HELPER_THREAD]
        assert probe.threads[5] == helper.ident

    def test_scheme_encryption_stays_on_the_caller(self, engine):
        """The Paillier nonce's product holds the GIL: a second thread
        would only wait for it."""
        threads = set()

        class Scheme:
            def encrypt(self, public_key, plaintext):
                threads.add(threading.get_ident())
                return plaintext

        assert engine.batch_scheme_encrypt(Scheme(), None, range(6)) == list(range(6))
        assert threads == {threading.get_ident()}

    def test_earliest_error_after_the_helper_is_done(self, engine):
        events = []

        def action(x):
            if x == 4:  # on the helper, finishing after the caller's failure
                time.sleep(0.05)
                events.append("helper failed")
                raise ValueError("item 5")
            if x == 1:
                raise ValueError("item 2")
            return x

        with pytest.raises(ValueError, match="item 2"):
            engine.batch_poly_eval(Probe(action), probe_jobs(6))
        assert events == ["helper failed"]

    def test_helper_error_when_the_caller_half_succeeds(self, engine):
        def action(x):
            if x >= 4:
                raise ValueError(f"item {x + 1}")
            return x

        with pytest.raises(ValueError, match="item 5"):
            engine.batch_poly_eval(Probe(action), probe_jobs(6))

    def test_batch_on_the_helper_runs_inline(self, engine):
        inner = Probe()

        def action(x):
            if threading.current_thread().name == HELPER_THREAD:
                engine.batch_poly_eval(inner, probe_jobs(4))
            return x

        outer = threading.Thread(
            target=engine.batch_poly_eval, args=(Probe(action), probe_jobs(4)),
            daemon=True,
        )
        outer.start()
        outer.join(timeout=30)
        if outer.is_alive():
            crypto_engine._forget_helper()  # so later tests fail, not hang
            pytest.fail("a batch on the helper deadlocked")
        assert len(set(inner.threads.values())) == 1

    def test_two_callers_at_once(self, engine, polynomial):
        jobs = [(x, 1, x) for x in (5, 11, 23, 42, 99, 7)]
        expected = [polynomial.masked_evaluate(*job).value for job in jobs]
        results: dict[int, list[int]] = {}

        def call(slot):
            results[slot] = [c.value for c in engine.batch_poly_eval(polynomial, jobs)]

        threads = [
            threading.Thread(target=call, args=(slot,), daemon=True) for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {0: expected, 1: expected}

    def test_context_reaches_the_helper(self, engine):
        seen = {}

        def action(x):
            span = tracing.current_span()
            seen[x] = (current_deadline(), current_session_id(), span and span.name)
            return x

        with use_tracer(Tracer()), session_scope("s-split"), deadline(60) as budget:
            engine.batch_poly_eval(Probe(action), probe_jobs(6))
        assert set(seen.values()) == {(budget, "s-split", "crypto:poly_eval")}

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="os.fork")
    def test_forked_child_completes_a_batch(self, engine, polynomial):
        jobs = [(x, 1, x) for x in (5, 11, 23, 42)]
        expected = [polynomial.masked_evaluate(*job).value for job in jobs]
        engine.batch_poly_eval(Probe(), probe_jobs(2))  # the helper runs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                got = [c.value for c in engine.batch_poly_eval(polynomial, jobs)]
                status = 0 if got == expected else 1
            finally:
                os._exit(status)
        deadline_at = time.monotonic() + 60
        while (waited := os.waitpid(pid, os.WNOHANG)) == (0, 0):
            if time.monotonic() > deadline_at:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's batch hung")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(waited[1]) == 0
