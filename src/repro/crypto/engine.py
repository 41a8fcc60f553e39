"""Batched and parallel execution engine for the crypto substrate.

Every delivery protocol of the paper bottlenecks on big-integer modular
exponentiation — SRA double encryption (Listing 3), Paillier coefficient
encryption and oblivious polynomial evaluation (Listing 4), hybrid key
wrapping for DAS (Listing 2).  The protocol drivers hand those loops to
this module as *batch* calls, one per kind of call the listings make,
and an engine runs a batch in one of two modes:

* **serial** — a loop in the calling process;
* **pooled** — a chunked :class:`~concurrent.futures.
  ProcessPoolExecutor` fans the batch out over ``workers`` processes
  once it reaches ``threshold`` items.  Workers count their primitive
  invocations with a fresh :class:`~repro.crypto.instrumentation.
  PrimitiveCounter` and the parent replays the totals into its own
  installed counters, so the Table 2 conformance analyses observe
  exactly the same counts with and without the pool.

Both modes call the same scalar primitives — the CRT forms of Paillier
decryption and the RSA private-key operation, the Jacobi-symbol QR
membership test on every commutative input — so there is one code path
per private-key operation.

The engine is selected per run: explicitly via the ``workers`` argument
(wired to the CLI ``--workers`` flag), or via the environment variable
``REPRO_CRYPTO_WORKERS``.  ``workers <= 1`` means strictly serial
execution in the calling process.

Batch results are defined to be *exactly* what mapping the scalar
primitive over the inputs produces — byte-identical values and identical
primitive counts — regardless of the execution mode; the equivalence
tests in ``tests/crypto/test_engine.py`` enforce this contract.  The one
deliberate difference: a hybrid batch is *one session* (Section 2's
"newly generated symmetric session key" per transferred partial result),
so it wraps one key per recipient and unwraps once per distinct
encapsulation where the scalar loop pays one RSA operation per item.
Only that RSA leg is a pool candidate: the DEM bodies of a hybrid batch
go through :mod:`repro.crypto.symmetric`'s batch kernel in the calling
process in every mode, which costs less than shipping them to a worker
and keeps session keys out of pickles.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.crypto import backend as _backend
from repro.crypto import commutative, hybrid, instrumentation, symmetric
from repro.crypto.homomorphic import PaillierScheme
from repro.crypto.polynomial import EncryptedPolynomial
from repro.errors import DecryptionError, ParameterError
from repro.telemetry import tracing
from repro.telemetry.tracing import Span, SpanContext, Tracer

#: Batches below this size never engage the process pool: the fork/IPC
#: overhead only amortises over a handful of big exponentiations.
DEFAULT_THRESHOLD = 8

#: Chunks submitted per worker; >1 smooths imbalance between chunks.
_CHUNKS_PER_WORKER = 4

_WORKERS_ENV = "REPRO_CRYPTO_WORKERS"


# ---------------------------------------------------------------------------
# Worker-side units.  Each is a module-level function (picklable by
# qualified name) of the form ``unit(shared, item) -> result`` where
# ``shared`` carries the loop-invariant state.  A scalar primitive that
# already has that shape (``commutative.apply``, ``hybrid.unwrap``) is
# its own unit.
# ---------------------------------------------------------------------------


def _run_chunk(
    unit: Callable[[Any, Any], Any],
    shared: Any,
    chunk: list,
    trace: dict | None = None,
) -> tuple[list, dict[str, int], list[dict]]:
    """Execute ``unit`` over ``chunk`` in a worker, counting primitives.

    ``trace`` (``{"trace_id", "span_id", "party"}``) is the driver-side
    batch span's context; when present the worker records its own chunk
    span under that parent and ships it back for the driver's tracer to
    adopt — pool workers thereby appear in the distributed trace exactly
    like remote endpoints do.
    """
    spans: list[dict] = []
    with instrumentation.count_primitives() as counter:
        if trace is None:
            results = [unit(shared, item) for item in chunk]
        else:
            worker_tracer = Tracer(trace_id=trace["trace_id"])
            parent = SpanContext(
                trace_id=trace["trace_id"], span_id=trace["span_id"]
            )
            with worker_tracer.span(
                "crypto:chunk",
                trace["party"],
                parent=parent,
                attributes={
                    "kind": "crypto",
                    "items": len(chunk),
                    "pid": os.getpid(),
                },
            ):
                results = [unit(shared, item) for item in chunk]
            spans = [span.to_dict() for span in worker_tracer.spans]
    return results, dict(counter.counts), spans


def _unit_call(func: Callable, item: tuple) -> Any:
    return func(*item)


def _unit_scheme_encrypt(shared: tuple, plaintext: int) -> Any:
    scheme, public_key = shared
    return scheme.encrypt(public_key, plaintext)


def _unit_scheme_decrypt(shared: tuple, ciphertext: Any) -> int:
    scheme, private_key = shared
    return scheme.decrypt(private_key, ciphertext)


def _unit_poly_eval(shared: EncryptedPolynomial, job: tuple) -> Any:
    x, mask, payload = job
    return shared.masked_evaluate(x, mask, payload)


def _unit_hybrid_encrypt_alone(shared: tuple, plaintext: bytes) -> Any:
    public_keys, associated_data = shared
    return hybrid.encrypt(public_keys, plaintext, associated_data)


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------


def workers_from_env() -> int:
    """Worker count from ``REPRO_CRYPTO_WORKERS`` (0 = serial)."""
    raw = os.environ.get(_WORKERS_ENV, "").strip()
    if not raw:
        return 0
    try:
        return max(0, int(raw))
    except ValueError:
        raise ParameterError(
            f"{_WORKERS_ENV} must be an integer, got {raw!r}"
        ) from None


class CryptoEngine:
    """Dispatches crypto batches to a serial loop or a process pool.

    ``workers``: process count; ``None`` reads ``REPRO_CRYPTO_WORKERS``,
    and values ``<= 1`` stay serial.  ``threshold``: minimum batch size
    before the pool engages (``None``: :data:`DEFAULT_THRESHOLD`).
    ``backend``: ``"python"`` or a :class:`~repro.crypto.backend.
    PythonBackend`, the one bigint arithmetic; anything else raises
    :class:`~repro.errors.ParameterError`.
    """

    def __init__(
        self,
        workers: int | None = None,
        threshold: int | None = None,
        backend: "_backend.PythonBackend | str" = "python",
    ) -> None:
        self.workers = workers_from_env() if workers is None else max(0, workers)
        self.threshold = DEFAULT_THRESHOLD if threshold is None else max(1, threshold)
        self.backend_name = _backend.as_backend(backend).name
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def mode(self) -> str:
        return "pooled" if self.workers >= 2 else "serial"

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CryptoEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    # -- dispatch -----------------------------------------------------------

    def _use_pool(self, size: int) -> bool:
        return self.workers >= 2 and size >= self.threshold

    def _run(
        self,
        name: str,
        unit: Callable[[Any, Any], Any],
        shared: Any,
        items: Sequence,
    ) -> list:
        """``[unit(shared, item) for item in items]`` under a
        ``crypto:{name}`` span, in this process or over the pool."""
        items = list(items)
        with self._batch_span(name, len(items)) as batch_span:
            if not self._use_pool(len(items)):
                return [unit(shared, item) for item in items]
            trace = None
            if batch_span is not None:
                trace = {
                    "trace_id": batch_span.trace_id,
                    "span_id": batch_span.span_id,
                    "party": batch_span.party,
                }
            pool = self._ensure_pool()
            chunk = max(
                1, math.ceil(len(items) / (self.workers * _CHUNKS_PER_WORKER))
            )
            futures = [
                pool.submit(
                    _run_chunk, unit, shared, items[start:start + chunk], trace
                )
                for start in range(0, len(items), chunk)
            ]
            results: list = []
            tracer = tracing.get_tracer()
            for future in futures:
                part, counts, span_records = future.result()
                results.extend(part)
                # Replay the workers' primitive counts into the counters
                # installed in this process: Table 2 analyses must see the
                # same totals whether or not the pool ran.
                for operation, amount in counts.items():
                    instrumentation.record(operation, amount)
                # Likewise adopt the workers' spans: the pool is invisible
                # to protocol semantics but visible in the trace.
                if tracer is not None and span_records:
                    tracer.adopt(
                        Span.from_dict(record) for record in span_records
                    )
            return results

    def _batch_span(self, name: str, items: int) -> Any:
        """The ``crypto:{name}`` span every batch runs under."""
        return tracing.span(
            f"crypto:{name}", self._ambient_party(),
            kind="crypto", items=items, mode=self.mode,
        )

    @staticmethod
    def _ambient_party() -> str:
        """The party the enclosing step span runs at, for batch spans."""
        current = tracing.current_span()
        return current.party if current is not None else "engine"

    # -- batch APIs ---------------------------------------------------------

    def batch_commutative_encrypt(
        self, key: commutative.CommutativeKey, values: Sequence[int]
    ) -> list[int]:
        """Batch of ``f_e(x)`` applications (Listing 3 tagging rounds).

        Every input is tested for QR_p membership — second-round inputs
        are tags that arrived from the other source via the mediator.
        """
        return self._run("commutative", commutative.apply, key, values)

    def batch_scheme_encrypt(
        self,
        scheme: PaillierScheme,
        public_key: Any,
        plaintexts: Sequence[int],
    ) -> list[Any]:
        """Batch encryption through a homomorphic scheme adapter."""
        return self._run(
            "scheme_encrypt", _unit_scheme_encrypt, (scheme, public_key), plaintexts
        )

    def batch_scheme_decrypt(
        self,
        scheme: PaillierScheme,
        private_key: Any,
        ciphertexts: Sequence[Any],
    ) -> list[int]:
        """Batch decryption through a homomorphic scheme adapter."""
        return self._run(
            "scheme_decrypt", _unit_scheme_decrypt, (scheme, private_key), ciphertexts
        )

    def batch_poly_eval(
        self,
        encrypted_polynomial: EncryptedPolynomial,
        jobs: Sequence[tuple[int, int, int]],
    ) -> list[Any]:
        """Batch of oblivious ``E(mask * P(x) + payload)`` evaluations.

        ``jobs`` are ``(x, mask, payload)`` triples; masks are drawn by
        the caller so randomness stays in the protocol driver.
        """
        return self._run("poly_eval", _unit_poly_eval, encrypted_polynomial, jobs)

    def batch_hybrid_encrypt(
        self,
        session: hybrid.Session,
        plaintexts: Sequence[bytes],
        associated_data: bytes = b"",
    ) -> list[hybrid.HybridCiphertext]:
        """Batch hybrid (KEM/DEM) encryption of independent payloads.

        Continues ``session`` (open one with
        :func:`~repro.crypto.hybrid.new_session`): every item is a DEM
        body with its own nonce, and all of them hold the session's one
        :class:`~repro.crypto.hybrid.Encapsulation` object.  The DEM runs
        in the calling process in every mode: its batch kernel
        (:func:`~repro.crypto.symmetric.encrypt_many`) finishes a
        delivery in less time than a pool takes to receive it, and the
        session key never leaves this process.
        """
        plaintexts = list(plaintexts)
        with self._batch_span("hybrid_encrypt", len(plaintexts)):
            instrumentation.record("hybrid.encrypt", len(plaintexts))
            bodies = symmetric.encrypt_many(
                session.key, plaintexts, associated_data
            )
        return [
            hybrid.HybridCiphertext(session.encapsulation, body)
            for body in bodies
        ]

    def batch_hybrid_encrypt_alone(
        self,
        public_keys: Sequence,
        plaintexts: Sequence[bytes],
        associated_data: bytes = b"",
    ) -> list[hybrid.HybridCiphertext]:
        """:func:`~repro.crypto.hybrid.encrypt` per item: a session each.

        For the one channel whose ciphertexts must not be linkable by
        encapsulation (hardened commutative results, docs/security.md).
        """
        return self._run(
            "hybrid_encrypt",
            _unit_hybrid_encrypt_alone,
            (list(public_keys), associated_data),
            plaintexts,
        )

    def batch_hybrid_decrypt(
        self,
        private_key: Any,
        ciphertexts: Sequence[hybrid.HybridCiphertext],
        associated_data: bytes = b"",
        session_keys: hybrid.SessionKeyMemo | None = None,
    ) -> list[bytes]:
        """Batch hybrid decryption under one private key.

        The private-key operation runs once per *distinct* encapsulation
        in the batch (pooled, when the engine is), the DEM once per item
        in the calling process (:func:`~repro.crypto.symmetric.
        decrypt_many`: no plaintext unless every item authenticates).
        ``session_keys`` is the caller's memo, if it keeps one: hits skip
        the private-key operation altogether, misses are added.
        """
        fp = hybrid.key_fingerprint(private_key.public_key())
        distinct: dict[bytes, hybrid.Encapsulation] = {}
        for ciphertext in ciphertexts:
            wrapped = ciphertext.wrapped_keys.get(fp)
            if wrapped is None:
                raise DecryptionError("no session key wrapped for this private key")
            distinct.setdefault(wrapped, ciphertext.wrapped_keys)
        keys: dict[bytes, symmetric.SessionKey | None] = {
            wrapped: None if session_keys is None else session_keys.get(wrapped)
            for wrapped in distinct
        }
        missing = [wrapped for wrapped, key in keys.items() if key is None]
        if missing:
            fresh = self._run(
                "hybrid_decrypt",
                hybrid.unwrap,
                private_key,
                [distinct[wrapped] for wrapped in missing],
            )
            for wrapped, key in zip(missing, fresh):
                keys[wrapped] = key
                if session_keys is not None:
                    session_keys[wrapped] = key
        with self._batch_span("hybrid_decrypt", len(ciphertexts)):
            instrumentation.record("hybrid.decrypt", len(ciphertexts))
            return symmetric.decrypt_many(
                [keys[ciphertext.wrapped_keys[fp]] for ciphertext in ciphertexts],
                [ciphertext.body for ciphertext in ciphertexts],
                associated_data,
            )

    def map_batch(self, func: Callable, argument_tuples: Sequence[tuple]) -> list:
        """Generic batch: ``[func(*args) for args in argument_tuples]``.

        ``func`` must be a module-level (picklable) callable; used e.g.
        for batched credential signature verification.
        """
        return self._run("call", _unit_call, func, argument_tuples)


# ---------------------------------------------------------------------------
# Process-wide engine installation (CLI and protocol drivers).
# ---------------------------------------------------------------------------

_installed_engine: CryptoEngine | None = None


def get_engine() -> CryptoEngine:
    """The installed engine, creating an environment-configured default."""
    global _installed_engine
    if _installed_engine is None:
        _installed_engine = CryptoEngine()
    return _installed_engine


def set_engine(engine: CryptoEngine | None) -> CryptoEngine | None:
    """Install ``engine`` process-wide; returns the previous one."""
    global _installed_engine
    previous, _installed_engine = _installed_engine, engine
    return previous


@contextmanager
def use_engine(engine: CryptoEngine) -> Iterator[CryptoEngine]:
    """Temporarily install ``engine`` (tests and benchmarks)."""
    previous = set_engine(engine)
    try:
        yield engine
    finally:
        set_engine(previous)
