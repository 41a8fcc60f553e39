"""Batched and parallel execution engine for the crypto substrate.

Every delivery protocol of the paper bottlenecks on big-integer modular
exponentiation — SRA double encryption (Listing 3), Paillier coefficient
encryption and oblivious polynomial evaluation (Listing 4), hybrid key
wrapping for DAS (Listing 2).  The protocol drivers originally executed
those primitives one tuple at a time in Python loops; this module turns
the loops into *batch* calls with three independent layers of speedup:

1. **Algorithmic** (always on, also in serial mode): CRT-accelerated
   Paillier decryption and RSA private-key operations, Jacobi-symbol QR
   membership tests, fixed-base windowed exponentiation tables
   (:class:`FixedBaseTable`) and precomputed Paillier nonce powers
   (:class:`PaillierNonceCache`).
2. **Parallelism**: a chunked :class:`~concurrent.futures.
   ProcessPoolExecutor` fans a batch out over ``workers`` processes once
   it reaches ``threshold`` items.  Workers count their primitive
   invocations with a fresh :class:`~repro.crypto.instrumentation.
   PrimitiveCounter` and the parent replays the totals into its own
   installed counters, so the Table 2 conformance analyses observe
   exactly the same counts with and without the pool.
3. **Batching**: even in serial mode, batch calls hoist loop-invariant
   work (key inversion, CRT parameter derivation, validation policy) out
   of the per-item path.

The engine is selected per run: explicitly via the ``workers`` argument
(wired to the CLI ``--workers`` flag), or via the environment variables
``REPRO_CRYPTO_WORKERS`` / ``REPRO_CRYPTO_THRESHOLD``.  ``workers <= 1``
means strictly serial execution in the calling process.  ``legacy=True``
reproduces the pre-engine primitive choices (Euler-criterion membership,
Carmichael decryption, full-exponent RSA, scalar loops) and exists as
the faithful baseline of ``benchmarks/bench_parallel_crypto.py``.

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
import secrets
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.crypto import backend as _backend
from repro.crypto import commutative, hybrid, instrumentation, paillier, symmetric
from repro.crypto.homomorphic import AdditiveHomomorphicScheme, PaillierScheme
from repro.crypto.polynomial import EncryptedPolynomial
from repro.errors import DecryptionError, ParameterError
from repro.telemetry import tracing
from repro.telemetry.tracing import Span, SpanContext, Tracer

#: Batches below this size never engage the process pool: the fork/IPC
#: overhead only amortises over a handful of big exponentiations.
DEFAULT_THRESHOLD = 8

#: Chunks submitted per worker; >1 smooths imbalance between chunks.
_CHUNKS_PER_WORKER = 4

#: Shared-base batches at least this large amortise building a
#: per-batch :class:`FixedBaseTable` on the pure-Python backend.
_FIXED_BASE_MIN_BATCH = 8

_WORKERS_ENV = "REPRO_CRYPTO_WORKERS"
_THRESHOLD_ENV = "REPRO_CRYPTO_THRESHOLD"

#: Memory budget for fixed-base precomputation tables, in MiB.
FIXED_BASE_BUDGET_ENV = "REPRO_FIXED_BASE_MAX_MB"

#: Default fixed-base budget: generous for per-key tables (~200 KiB at
#: 2048 bits) while refusing pathological window/bit combinations.
DEFAULT_FIXED_BASE_MAX_MB = 64


def fixed_base_budget_bytes() -> int:
    """The fixed-base table budget from ``REPRO_FIXED_BASE_MAX_MB``."""
    raw = os.environ.get(FIXED_BASE_BUDGET_ENV, "").strip()
    if not raw:
        return DEFAULT_FIXED_BASE_MAX_MB * 1024 * 1024
    try:
        megabytes = float(raw)
    except ValueError:
        raise ParameterError(
            f"{FIXED_BASE_BUDGET_ENV} must be a number, got {raw!r}"
        ) from None
    if megabytes < 0:
        raise ParameterError(f"{FIXED_BASE_BUDGET_ENV} must be non-negative")
    return int(megabytes * 1024 * 1024)


# ---------------------------------------------------------------------------
# Worker-side units.  Each is a module-level function (picklable by
# qualified name) of the form ``unit(shared, item) -> result`` where
# ``shared`` carries the loop-invariant state.
# ---------------------------------------------------------------------------


def _run_chunk(
    unit: Callable[[Any, Any], Any],
    shared: Any,
    chunk: list,
    trace: dict | None = None,
    backend_name: str | None = None,
    chunk_fn: "Callable[[Any, list], list] | None" = None,
) -> tuple[list, dict[str, int], list[dict]]:
    """Execute ``unit`` over ``chunk`` in a worker, counting primitives.

    ``trace`` (``{"trace_id", "span_id", "party"}``) is the driver-side
    batch span's context; when present the worker records its own chunk
    span under that parent and ships it back for the driver's tracer to
    adopt — pool workers thereby appear in the distributed trace exactly
    like remote endpoints do.

    ``backend_name`` pins the worker's bigint backend to the driver's
    (fresh pool processes would otherwise re-resolve from the
    environment, which can disagree with a programmatically installed
    backend).  ``chunk_fn`` is an optional whole-chunk fast path
    ``(shared, chunk) -> results`` that replaces the per-item loop —
    used for batched exponentiation where the backend has list forms.
    """

    def _execute() -> list:
        if chunk_fn is not None:
            return chunk_fn(shared, chunk)
        return [unit(shared, item) for item in chunk]

    spans: list[dict] = []
    previous_backend = (
        None if backend_name is None else _backend.set_backend(backend_name)
    )
    try:
        with instrumentation.count_primitives() as counter:
            if trace is None:
                results = _execute()
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
                        "backend": _backend.active_backend().name,
                    },
                ):
                    results = _execute()
                spans = [span.to_dict() for span in worker_tracer.spans]
    finally:
        if backend_name is not None:
            _backend.set_backend(previous_backend)
    return results, dict(counter.counts), spans


def _unit_call(func: Callable, item: tuple) -> Any:
    return func(*item)


def _unit_pow(shared: tuple[int, int], base: int) -> int:
    exponent, modulus = shared
    return _backend.active_backend().powmod(base, exponent, modulus)


def _chunk_pow(shared: tuple[int, int], chunk: list) -> list[int]:
    """Whole-chunk shared-exponent batch via the backend's list form."""
    exponent, modulus = shared
    return _backend.active_backend().powmod_base_list(chunk, exponent, modulus)


def _unit_pow_shared_base(shared: tuple[int, int, int], exponent: int) -> int:
    base, modulus, _ = shared
    return _backend.active_backend().powmod(base, exponent, modulus)


def _chunk_pow_shared_base(shared: tuple[int, int, int], chunk: list) -> list[int]:
    """Whole-chunk shared-base batch.

    The native backend exponentiates through its list form (pre-cast
    ``mpz`` base/modulus, or gmpy2's C-level ``powmod_exp_list``); the
    Python backend amortises a windowed :class:`FixedBaseTable` over the
    chunk once it is large enough, subject to the fixed-base memory
    budget (over-budget tables degrade to the plain ladder, counted as
    a skip by :meth:`FixedBaseTable.build`).
    """
    base, modulus, max_exponent_bits = shared
    backend = _backend.active_backend()
    if backend.name != "python":
        return backend.powmod_exp_list(base, chunk, modulus)
    if len(chunk) >= _FIXED_BASE_MIN_BATCH:
        table = FixedBaseTable.build(base, modulus, max_exponent_bits)
        if table is not None:
            return [table.pow(exponent) for exponent in chunk]
    return [pow(base, exponent, modulus) for exponent in chunk]


def _unit_commutative(shared: tuple, value: int) -> int:
    exponent, group, record_op, check = shared
    if check == "euler":
        member = commutative.euler_contains(group, value)
    elif check == "none":
        member = 0 < value < group.p
    else:
        member = group.contains(value)
    if not member:
        raise ParameterError("input is not in the quadratic-residue domain")
    instrumentation.record(record_op)
    return _backend.active_backend().powmod(value, exponent, group.p)


def _unit_paillier_encrypt(shared: Any, item: tuple) -> Any:
    plaintext, randomness = item
    return paillier.encrypt(shared, plaintext, randomness)


def _unit_paillier_encrypt_nonce(shared: Any, item: tuple) -> Any:
    plaintext, nonce_power = item
    return paillier.encrypt_with_nonce_power(shared, plaintext, nonce_power)


def _unit_paillier_decrypt(shared: tuple, ciphertext: Any) -> int:
    private_key, flavour = shared
    if flavour == "carmichael":
        return paillier.decrypt_carmichael(private_key, ciphertext)
    if flavour == "crt":
        return paillier.decrypt_crt(private_key, ciphertext)
    return paillier.decrypt(private_key, ciphertext)


def _unit_scheme_encrypt(shared: tuple, plaintext: int) -> Any:
    scheme, public_key = shared
    return scheme.encrypt(public_key, plaintext)


def _unit_scheme_decrypt(shared: tuple, ciphertext: Any) -> int:
    scheme, private_key, flavour = shared
    if flavour == "carmichael" and isinstance(scheme, PaillierScheme):
        return paillier.decrypt_carmichael(private_key, ciphertext)
    return scheme.decrypt(private_key, ciphertext)


def _unit_poly_eval(shared: EncryptedPolynomial, job: tuple) -> Any:
    x, mask, payload = job
    return shared.masked_evaluate(x, mask, payload)


def _unit_hybrid_encrypt_alone(shared: tuple, plaintext: bytes) -> Any:
    public_keys, associated_data = shared
    return hybrid.encrypt(public_keys, plaintext, associated_data)


def _unit_hybrid_unwrap(shared: tuple, encapsulation: Any) -> Any:
    private_key, use_crt = shared
    return hybrid.unwrap(private_key, encapsulation, use_crt)


# ---------------------------------------------------------------------------
# Precomputation helpers (algorithmic speedups independent of the pool).
# ---------------------------------------------------------------------------


class FixedBaseTable:
    """Windowed precomputation for repeated exponentiations of one base.

    Stores ``rows[i][j] = base^(j * 2^(window * i)) mod modulus`` for
    every window position ``i`` and digit ``j``; :meth:`pow` then costs
    one modular multiplication per non-zero window digit instead of a
    full square-and-multiply ladder — a 5-10x win at 2048-bit sizes once
    the table cost (``ceil(bits/window) * 2^window`` multiplications,
    ~``2^window * bits / window * |modulus|/8`` bytes of memory) has
    amortised over a few exponentiations.

    Memory is bounded: construction refuses tables whose
    :meth:`estimate_size_bytes` exceeds the ``REPRO_FIXED_BASE_MAX_MB``
    budget (default 64 MiB).  Callers that can degrade gracefully use
    :meth:`build`, which turns the refusal into a counted skip and a
    ``None`` table instead of an exception.
    """

    __slots__ = ("base", "modulus", "window", "max_exponent_bits", "_rows")

    @staticmethod
    def estimate_size_bytes(
        modulus: int, max_exponent_bits: int, window: int = 5
    ) -> int:
        """Predicted :meth:`size_bytes` without building the table."""
        entry = (modulus.bit_length() + 7) // 8
        rows = math.ceil(max(1, max_exponent_bits) / max(1, window))
        return rows * (1 << window) * entry

    @classmethod
    def build(
        cls,
        base: int,
        modulus: int,
        max_exponent_bits: int,
        window: int = 5,
    ) -> "FixedBaseTable | None":
        """Budget-checked construction: ``None`` when over budget.

        The skip is counted (``fixedbase.skip`` via the primitive
        instrumentation, surfacing in
        ``repro_crypto_primitive_ops_total``) so sizing problems are
        observable instead of silent slowdowns.
        """
        estimate = cls.estimate_size_bytes(modulus, max_exponent_bits, window)
        if estimate > fixed_base_budget_bytes():
            instrumentation.record("fixedbase.skip")
            return None
        return cls(base, modulus, max_exponent_bits, window)

    def __init__(
        self,
        base: int,
        modulus: int,
        max_exponent_bits: int,
        window: int = 5,
    ) -> None:
        if modulus <= 1:
            raise ParameterError("fixed-base modulus must exceed 1")
        if not 1 <= window <= 16:
            raise ParameterError("fixed-base window must be in [1, 16]")
        if max_exponent_bits < 1:
            raise ParameterError("max_exponent_bits must be positive")
        estimate = self.estimate_size_bytes(modulus, max_exponent_bits, window)
        budget = fixed_base_budget_bytes()
        if estimate > budget:
            raise ParameterError(
                f"fixed-base table would need ~{estimate} bytes, over the "
                f"{FIXED_BASE_BUDGET_ENV} budget of {budget} bytes"
            )
        self.base = base % modulus
        self.modulus = modulus
        self.window = window
        self.max_exponent_bits = max_exponent_bits
        radix = 1 << window
        rows = []
        running = self.base
        for _ in range(math.ceil(max_exponent_bits / window)):
            row = [1] * radix
            for digit in range(1, radix):
                row[digit] = row[digit - 1] * running % modulus
            rows.append(row)
            running = row[radix - 1] * running % modulus
        self._rows = rows

    def pow(self, exponent: int) -> int:
        """``base^exponent mod modulus`` via the precomputed table."""
        if exponent < 0:
            raise ParameterError("fixed-base exponent must be non-negative")
        if exponent.bit_length() > self.max_exponent_bits:
            # Out-of-range exponents fall back to the generic ladder so
            # the table stays a drop-in replacement for pow().
            return pow(self.base, exponent, self.modulus)
        result = 1
        mask = (1 << self.window) - 1
        position = 0
        while exponent:
            digit = exponent & mask
            if digit:
                result = result * self._rows[position][digit] % self.modulus
            exponent >>= self.window
            position += 1
        return result

    def size_bytes(self) -> int:
        """Approximate memory footprint of the table."""
        entry = (self.modulus.bit_length() + 7) // 8
        return sum(len(row) for row in self._rows) * entry


class PaillierNonceCache:
    """Precomputed Paillier nonce powers ``r^n mod n^2`` (BPV-style).

    The exponentiation ``r^n`` dominates Paillier encryption.  Following
    Boyko-Peinado-Venkatesan, this cache draws a pool of random units
    ``r_1..r_k`` once, precomputes their ``n``-th powers, and serves each
    fresh nonce as the product of a random ``subset_size``-element
    subset: ``r = prod r_i`` is again a unit and ``r^n = prod r_i^n``
    costs ``subset_size - 1`` multiplications instead of a full
    exponentiation.  The subset-product distribution is not uniform over
    ``Z_n*`` (its entropy is ``log2 C(pool_size, subset_size)`` bits),
    which is why the cache is *opt-in* — callers trade a quantified
    randomness bound for throughput, as the performance docs discuss.
    """

    def __init__(
        self,
        public_key: paillier.PaillierPublicKey,
        pool_size: int = 64,
        subset_size: int = 8,
    ) -> None:
        if not 2 <= subset_size <= pool_size:
            raise ParameterError("need 2 <= subset_size <= pool_size")
        self.public_key = public_key
        self.pool_size = pool_size
        self.subset_size = subset_size
        n = public_key.n
        n_sq = public_key.n_squared
        active = _backend.active_backend()
        self._powers = [
            active.powmod(paillier.random_unit(n), n, n_sq)
            for _ in range(pool_size)
        ]
        self._sampler = secrets.SystemRandom()

    def nonce_power(self) -> int:
        """A fresh ``r^n mod n^2`` for an implicit random unit ``r``."""
        instrumentation.record("random.paillier_nonce")
        n_sq = self.public_key.n_squared
        product = 1
        for index in self._sampler.sample(range(self.pool_size), self.subset_size):
            product = product * self._powers[index] % n_sq
        return product


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


def _threshold_from_env() -> int:
    raw = os.environ.get(_THRESHOLD_ENV, "").strip()
    if not raw:
        return DEFAULT_THRESHOLD
    try:
        return max(1, int(raw))
    except ValueError:
        raise ParameterError(
            f"{_THRESHOLD_ENV} must be an integer, got {raw!r}"
        ) from None


class CryptoEngine:
    """Dispatches crypto batches to a serial loop or a process pool.

    ``workers``: process count; ``None`` reads ``REPRO_CRYPTO_WORKERS``,
    and values ``<= 1`` stay serial.  ``threshold``: minimum batch size
    before the pool engages.  ``legacy``: reproduce the pre-engine
    primitive choices (serial loops, Euler-criterion membership,
    Carmichael Paillier decryption, full-exponent RSA) — the baseline
    leg of the parallel-crypto benchmark.  ``backend``: a bigint backend
    (instance or ``auto``/``python``/``gmpy2`` selector) pinned for
    every batch this engine runs, in the driver process and in pool
    workers alike; ``None`` follows the process-wide installed backend
    (:func:`repro.crypto.backend.active_backend`).
    """

    def __init__(
        self,
        workers: int | None = None,
        threshold: int | None = None,
        legacy: bool = False,
        backend: "_backend.CryptoBackend | str | None" = None,
    ) -> None:
        self.workers = workers_from_env() if workers is None else max(0, workers)
        self.threshold = (
            _threshold_from_env() if threshold is None else max(1, threshold)
        )
        self.legacy = legacy
        self._backend = None if backend is None else _backend.resolve_backend(backend)
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def mode(self) -> str:
        if self.legacy:
            return "legacy"
        return "pooled" if self.workers >= 2 else "serial"

    @property
    def backend(self) -> _backend.CryptoBackend:
        """The bigint backend this engine's batches run under."""
        return self._backend if self._backend is not None else _backend.active_backend()

    @property
    def backend_name(self) -> str:
        return self.backend.name

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
        return not self.legacy and self.workers >= 2 and size >= self.threshold

    def _run(
        self,
        unit: Callable[[Any, Any], Any],
        shared: Any,
        items: Sequence,
        chunk_fn: "Callable[[Any, list], list] | None" = None,
        name: str | None = None,
    ) -> list:
        items = list(items)
        name = name or unit.__name__.replace("_unit_", "", 1)
        backend = self.backend
        with self._batch_span(name, len(items)) as batch_span:
            if not self._use_pool(len(items)):
                with _backend.use_backend(backend):
                    if chunk_fn is not None and not self.legacy:
                        return chunk_fn(shared, items)
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
                    _run_chunk, unit, shared, items[start:start + chunk],
                    trace, backend.name, chunk_fn,
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
            backend=self.backend.name,
        )

    @staticmethod
    def _ambient_party() -> str:
        """The party the enclosing step span runs at, for batch spans."""
        current = tracing.current_span()
        return current.party if current is not None else "engine"

    # -- batch APIs ---------------------------------------------------------

    def batch_pow(
        self, bases: Sequence[int], exponent: int, modulus: int
    ) -> list[int]:
        """``[pow(b, exponent, modulus) for b in bases]``, possibly pooled.

        Shared-exponent batches run through the backend's list form
        (:meth:`~repro.crypto.backend.CryptoBackend.powmod_base_list`),
        which hoists the exponent/modulus casts out of the loop on the
        native backend.
        """
        return self._run(_unit_pow, (exponent, modulus), bases, _chunk_pow)

    def batch_pow_shared_base(
        self, base: int, exponents: Sequence[int], modulus: int
    ) -> list[int]:
        """``[pow(base, e, modulus) for e in exponents]``, possibly pooled.

        The shared-base dual of :meth:`batch_pow` — the shape of
        fixed-generator workloads (``g^r`` floods).  The native backend
        uses its list form; the Python backend amortises a windowed
        fixed-base table over each chunk (within the
        ``REPRO_FIXED_BASE_MAX_MB`` budget).
        """
        exponents = list(exponents)
        max_bits = max((e.bit_length() for e in exponents), default=1)
        shared = (base, modulus, max(1, max_bits))
        return self._run(
            _unit_pow_shared_base, shared, exponents, _chunk_pow_shared_base
        )

    def batch_commutative_encrypt(
        self,
        key: commutative.CommutativeKey,
        values: Sequence[int],
        validate: bool = True,
    ) -> list[int]:
        """Batch of ``f_e(x)`` applications (Listing 3 tagging rounds).

        ``validate=False`` skips the QR membership test for inputs whose
        membership is guaranteed by construction (ideal-hash outputs,
        tags from a previous round).
        """
        check = "euler" if self.legacy else ("jacobi" if validate else "none")
        shared = (key.exponent, key.group, "commutative.encrypt", check)
        return self._run(_unit_commutative, shared, values)

    def batch_commutative_decrypt(
        self,
        key: commutative.CommutativeKey,
        values: Sequence[int],
        validate: bool = True,
    ) -> list[int]:
        """Batch of ``f_e^{-1}(y)``; the key inversion happens once."""
        check = "euler" if self.legacy else ("jacobi" if validate else "none")
        shared = (key.inverse().exponent, key.group, "commutative.decrypt", check)
        return self._run(_unit_commutative, shared, values)

    def batch_paillier_encrypt(
        self,
        public_key: paillier.PaillierPublicKey,
        plaintexts: Sequence[int],
        randomness: Sequence[int] | None = None,
        nonce_cache: PaillierNonceCache | None = None,
    ) -> list[paillier.PaillierCiphertext]:
        """Batch Paillier encryption.

        ``randomness`` fixes the per-item nonces (deterministic output,
        used by the equivalence tests); ``nonce_cache`` trades uniform
        nonces for precomputed ``r^n`` powers.  With neither, workers
        draw fresh uniform nonces.
        """
        if randomness is not None and nonce_cache is not None:
            raise ParameterError("pass either randomness or nonce_cache, not both")
        if nonce_cache is not None:
            if nonce_cache.public_key != public_key:
                raise ParameterError("nonce cache built for a different key")
            jobs = [(m, nonce_cache.nonce_power()) for m in plaintexts]
            return self._run(_unit_paillier_encrypt_nonce, public_key, jobs)
        if randomness is None:
            jobs = [(m, None) for m in plaintexts]
        else:
            if len(randomness) != len(plaintexts):
                raise ParameterError("randomness length must match plaintexts")
            jobs = list(zip(plaintexts, randomness))
        return self._run(_unit_paillier_encrypt, public_key, jobs)

    def batch_paillier_decrypt(
        self,
        private_key: paillier.PaillierPrivateKey,
        ciphertexts: Sequence[paillier.PaillierCiphertext],
        flavour: str | None = None,
    ) -> list[int]:
        """Batch Paillier decryption (CRT when the key allows it)."""
        if flavour is None:
            flavour = "carmichael" if self.legacy else "auto"
        if flavour not in ("auto", "crt", "carmichael"):
            raise ParameterError(f"unknown decryption flavour {flavour!r}")
        return self._run(_unit_paillier_decrypt, (private_key, flavour), ciphertexts)

    def batch_scheme_encrypt(
        self,
        scheme: AdditiveHomomorphicScheme,
        public_key: Any,
        plaintexts: Sequence[int],
    ) -> list[Any]:
        """Batch encryption through a homomorphic scheme adapter."""
        return self._run(_unit_scheme_encrypt, (scheme, public_key), plaintexts)

    def batch_scheme_decrypt(
        self,
        scheme: AdditiveHomomorphicScheme,
        private_key: Any,
        ciphertexts: Sequence[Any],
    ) -> list[int]:
        """Batch decryption through a homomorphic scheme adapter."""
        flavour = "carmichael" if self.legacy else "auto"
        shared = (scheme, private_key, flavour)
        return self._run(_unit_scheme_decrypt, shared, ciphertexts)

    def batch_poly_eval(
        self,
        encrypted_polynomial: EncryptedPolynomial,
        jobs: Sequence[tuple[int, int, int]],
    ) -> list[Any]:
        """Batch of oblivious ``E(mask * P(x) + payload)`` evaluations.

        ``jobs`` are ``(x, mask, payload)`` triples; masks are drawn by
        the caller so randomness stays in the protocol driver.
        """
        return self._run(_unit_poly_eval, encrypted_polynomial, jobs)

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
            _unit_hybrid_encrypt_alone,
            (list(public_keys), associated_data),
            plaintexts,
            name="hybrid_encrypt",
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
                _unit_hybrid_unwrap,
                (private_key, not self.legacy),
                [distinct[wrapped] for wrapped in missing],
                name="hybrid_decrypt",
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
        return self._run(_unit_call, func, argument_tuples)


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
