"""The batch engine of the crypto substrate.

Every delivery protocol of the paper bottlenecks on big-integer modular
exponentiation — SRA double encryption (Listing 3), Paillier coefficient
encryption and oblivious polynomial evaluation (Listing 4), hybrid key
wrapping for DAS (Listing 2).  The protocol drivers hand those loops to
this module as *batch* calls, one per kind of call the listings make,
and the engine runs each batch under one ``crypto:{name}`` span, so a
trace shows every batch where it ran.

Commutative encryption, scheme decryption and polynomial evaluation are
one independent exponentiation chain per item, and GMP's exponentiation
runs with the GIL released (:mod:`repro.crypto.backend`).  Where GMP is
loaded, a batch of two or more of them is split: the calling thread
computes the first half, the engine's one helper thread
(``repro-crypto``) the second, and the results are joined in input
order.  The helper's half runs in a copy of the caller's
:mod:`contextvars` context (deadline, session scope, current span) and
records its primitive counts into a buffer that the caller replays into
its own counters once the helper is done.  The other batches run as a
loop in the calling thread — scheme encryption too: its nonce is a
fixed-base product paced by Python and holding the GIL, so a second
thread only waits for it.

The batch calls reach the same scalar primitives a loop would — the CRT
forms of Paillier decryption and the RSA private-key operation, the
Jacobi-symbol QR membership test on every commutative input — so there
is one code path per private-key operation, and the primitive counters
installed around a run see every call directly.

Batch results are defined to be *exactly* what mapping the scalar
primitive over the inputs produces — byte-identical values and identical
primitive counts; ``tests/crypto/test_engine.py`` and
``tests/integration/test_engine_equivalence.py`` enforce this contract.
The one deliberate difference: a hybrid batch is *one session* (Section
2's "newly generated symmetric session key" per transferred partial
result), so it wraps one key per recipient and unwraps once per distinct
encapsulation where the scalar loop pays one RSA operation per item.
The DEM bodies of a hybrid batch go through
:mod:`repro.crypto.symmetric`'s batch kernel.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Iterator, Sequence

from repro.crypto import backend as _backend
from repro.crypto import commutative, hybrid, instrumentation, symmetric
from repro.crypto.homomorphic import PaillierScheme
from repro.crypto.polynomial import EncryptedPolynomial
from repro.errors import DecryptionError, ParameterError
from repro.telemetry import tracing

#: The name of the engine's helper thread.
HELPER_THREAD = "repro-crypto"


class _Helper:
    """The engine's one helper thread: started by the first split batch
    and reused by every batch after it, one job at a time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: threading.Thread | None = None

    def is_current(self) -> bool:
        return threading.current_thread() is self._thread

    def submit(self, job: Callable[[], None]) -> threading.Event:
        """Queue ``job``; the event is set once it has returned."""
        done = threading.Event()
        with self._lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._serve, args=(self._jobs,),
                    name=HELPER_THREAD, daemon=True,
                )
                self._thread.start()
            self._jobs.put((job, done))
        return done

    @staticmethod
    def _serve(jobs: queue.SimpleQueue) -> None:
        while True:
            job, done = jobs.get()
            try:
                job()
            finally:
                done.set()


_helper = _Helper()


def _forget_helper() -> None:
    """A forked child has no helper thread: it starts its own."""
    global _helper
    _helper = _Helper()


os.register_at_fork(after_in_child=_forget_helper)


def _split(unit: Callable[[Any], Any], items: list) -> list:
    """``[unit(item) for item in items]``, the second half on the helper.

    Inline for fewer than two items, without GMP (``pow()`` holds the
    GIL, so a second thread only adds switching) and on the helper
    itself.  An error is raised only once the helper's half has
    returned, and it is the one of the earliest failing item in input
    order: the caller's half comes first.
    """
    if len(items) < 2 or _backend.gmp is None or _helper.is_current():
        return [unit(item) for item in items]
    middle = (len(items) + 1) // 2
    second: list = []
    failure: list[BaseException] = []
    records = instrumentation.PrimitiveCounter()

    def second_half() -> None:
        with instrumentation.deferred(records):
            try:
                for item in items[middle:]:
                    second.append(unit(item))
            except BaseException as error:
                failure.append(error)

    done = _helper.submit(partial(contextvars.copy_context().run, second_half))
    try:
        first = [unit(item) for item in items[:middle]]
    finally:
        done.wait()
        instrumentation.replay(records)
    if failure:
        raise failure[0]
    return first + second


class CryptoEngine:
    """Runs crypto batches; three bigint ones split over two threads.

    Where GMP is loaded, :meth:`batch_commutative_encrypt`,
    :meth:`batch_scheme_decrypt` and :meth:`batch_poly_eval` compute the
    first half of a batch of two or more items on the calling thread and
    the second half on the helper thread ``repro-crypto``; the other
    batches, and every batch without GMP, are a loop in the calling
    thread.  Outputs and primitive counts are those of that loop either
    way.  :attr:`mode` names which of the two runs.

    ``workers`` is 0 or 1 and selects nothing (the split has no option);
    a larger count raises :class:`~repro.errors.ParameterError`.
    ``backend``: ``"python"`` or a :class:`~repro.crypto.backend.
    PythonBackend`, the one exponentiation seam; anything else raises
    :class:`~repro.errors.ParameterError`.  ``backend_name`` names that
    seam, not the arithmetic behind it: :func:`repro.crypto.backend.
    arithmetic` does.
    """

    def __init__(
        self,
        workers: int = 0,
        backend: "_backend.PythonBackend | str" = "python",
    ) -> None:
        if workers not in (0, 1):
            raise ParameterError(
                f"workers must be 0 or 1 (neither selects anything), "
                f"got {workers!r}"
            )
        self.backend_name = _backend.as_backend(backend).name

    @property
    def mode(self) -> str:
        """``"split"`` where GMP is loaded, ``"serial"`` otherwise."""
        return "serial" if _backend.gmp is None else "split"

    # -- dispatch -----------------------------------------------------------

    def _run(
        self,
        name: str,
        unit: Callable[[Any], Any],
        items: Sequence,
        split: bool = False,
    ) -> list:
        """``[unit(item) for item in items]`` under a ``crypto:{name}``
        span; ``split`` shares it with the helper thread (:func:`_split`)."""
        items = list(items)
        with self._batch_span(name, len(items)):
            if split:
                return _split(unit, items)
            return [unit(item) for item in items]

    @staticmethod
    def _batch_span(name: str, items: int) -> Any:
        """The ``crypto:{name}`` span every batch runs under, at the party
        the enclosing step span runs at."""
        current = tracing.current_span()
        party = current.party if current is not None else "engine"
        return tracing.span(f"crypto:{name}", party, kind="crypto", items=items)

    # -- batch APIs ---------------------------------------------------------

    def batch_commutative_encrypt(
        self, key: commutative.CommutativeKey, values: Sequence[int]
    ) -> list[int]:
        """Batch of ``f_e(x)`` applications (Listing 3 tagging rounds).

        Every input is tested for QR_p membership — second-round inputs
        are tags that arrived from the other source via the mediator.
        """
        return self._run(
            "commutative",
            lambda value: commutative.apply(key, value),
            values,
            split=True,
        )

    def batch_scheme_encrypt(
        self,
        scheme: PaillierScheme,
        public_key: Any,
        plaintexts: Sequence[int],
    ) -> list[Any]:
        """Batch encryption through a homomorphic scheme adapter, as a
        loop in the calling thread: the nonce's product holds the GIL."""
        return self._run(
            "scheme_encrypt",
            lambda plaintext: scheme.encrypt(public_key, plaintext),
            plaintexts,
        )

    def batch_scheme_decrypt(
        self,
        scheme: PaillierScheme,
        private_key: Any,
        ciphertexts: Sequence[Any],
    ) -> list[int]:
        """Batch decryption through a homomorphic scheme adapter."""
        return self._run(
            "scheme_decrypt",
            lambda ciphertext: scheme.decrypt(private_key, ciphertext),
            ciphertexts,
            split=True,
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
        return self._run(
            "poly_eval",
            lambda job: encrypted_polynomial.masked_evaluate(*job),
            jobs,
            split=True,
        )

    def batch_hybrid_encrypt(
        self,
        session: hybrid.Session,
        plaintexts: Sequence[bytes],
        associated_data: bytes = b"",
    ) -> list[hybrid.HybridCiphertext]:
        """Batch hybrid (KEM/DEM) encryption of independent payloads.

        Continues ``session`` (open one with
        :func:`~repro.crypto.hybrid.new_session`): every item is a DEM
        body of :meth:`batch_hybrid_encrypt_bodies`, and all of them
        hold the session's one :class:`~repro.crypto.hybrid.
        Encapsulation` object.
        """
        return [
            hybrid.HybridCiphertext(session.encapsulation, body)
            for body in self.batch_hybrid_encrypt_bodies(
                session, plaintexts, associated_data
            )
        ]

    def batch_hybrid_encrypt_bodies(
        self,
        session: hybrid.Session,
        plaintexts: Sequence[bytes],
        associated_data: bytes = b"",
    ) -> list[bytes]:
        """The DEM bodies of :meth:`batch_hybrid_encrypt`, for a caller
        that keeps the session's encapsulation once for all of them (a
        DAS relation's column of etuples): one
        :func:`~repro.crypto.symmetric.encrypt_many` call, each body
        with its own nonce."""
        plaintexts = list(plaintexts)
        with self._batch_span("hybrid_encrypt", len(plaintexts)):
            instrumentation.record("hybrid.encrypt", len(plaintexts))
            return symmetric.encrypt_many(session.key, plaintexts, associated_data)

    def batch_hybrid_decrypt(
        self,
        private_key: Any,
        ciphertexts: Sequence[hybrid.HybridCiphertext],
        associated_data: bytes = b"",
        session_keys: hybrid.SessionKeyMemo | None = None,
    ) -> list[bytes]:
        """Batch hybrid decryption under one private key.

        The private-key operation runs once per *distinct* encapsulation
        in the batch (:meth:`_session_keys`), the DEM once per item
        (:func:`~repro.crypto.symmetric.decrypt_many`: no plaintext
        unless every item authenticates).
        """
        fp, keys = self._session_keys(
            private_key, [ciphertext.wrapped_keys for ciphertext in ciphertexts],
            session_keys,
        )
        with self._batch_span("hybrid_decrypt", len(ciphertexts)):
            instrumentation.record("hybrid.decrypt", len(ciphertexts))
            return symmetric.decrypt_many(
                [keys[ciphertext.wrapped_keys[fp]] for ciphertext in ciphertexts],
                [ciphertext.body for ciphertext in ciphertexts],
                associated_data,
            )

    def batch_hybrid_decrypt_bodies(
        self,
        private_key: Any,
        encapsulation: hybrid.Encapsulation,
        bodies: Sequence[bytes],
        associated_data: bytes = b"",
        session_keys: hybrid.SessionKeyMemo | None = None,
    ) -> list[bytes]:
        """:meth:`batch_hybrid_decrypt` of DEM bodies that all reference
        ``encapsulation`` (a DAS table's column of etuples): at most one
        private-key operation, then one
        :func:`~repro.crypto.symmetric.decrypt_many` call under the one
        session key."""
        fp, keys = self._session_keys(private_key, (encapsulation,), session_keys)
        key = keys[encapsulation[fp]]
        with self._batch_span("hybrid_decrypt", len(bodies)):
            instrumentation.record("hybrid.decrypt", len(bodies))
            return symmetric.decrypt_many(
                [key] * len(bodies), bodies, associated_data
            )

    def _session_keys(
        self,
        private_key: Any,
        encapsulations: Sequence[hybrid.Encapsulation],
        session_keys: hybrid.SessionKeyMemo | None,
    ) -> tuple[bytes, dict[bytes, symmetric.SessionKey]]:
        """The key fingerprint of ``private_key`` and the session key of
        each distinct wrapped blob of ``encapsulations``.

        ``session_keys`` is the caller's memo, if it keeps one: hits skip
        the private-key operation altogether, misses are added.  The
        misses are unwrapped as one batch in the calling thread: split
        over the helper thread, a query's two unwraps ran slower on a
        2-core host (``docs/performance.md``).
        """
        fp = hybrid.key_fingerprint(private_key.public_key())
        distinct: dict[bytes, hybrid.Encapsulation] = {}
        for encapsulation in encapsulations:
            wrapped = encapsulation.get(fp)
            if wrapped is None:
                raise DecryptionError("no session key wrapped for this private key")
            distinct.setdefault(wrapped, encapsulation)
        keys: dict[bytes, symmetric.SessionKey] = {}
        missing: list[bytes] = []
        for wrapped in distinct:
            known = None if session_keys is None else session_keys.get(wrapped)
            if known is None:
                missing.append(wrapped)
            else:
                keys[wrapped] = known
        if missing:
            fresh = self._run(
                "hybrid_decrypt",
                lambda wrapped: hybrid.unwrap(private_key, distinct[wrapped]),
                missing,
            )
            for wrapped, key in zip(missing, fresh):
                keys[wrapped] = key
                if session_keys is not None:
                    session_keys[wrapped] = key
        return fp, keys

    def map_batch(self, func: Callable, argument_tuples: Sequence[tuple]) -> list:
        """Generic batch: ``[func(*args) for args in argument_tuples]``,
        used e.g. for batched credential signature verification."""
        return self._run("call", lambda arguments: func(*arguments), argument_tuples)


# ---------------------------------------------------------------------------
# Process-wide engine installation (protocol drivers, tests, benchmarks).
# ---------------------------------------------------------------------------

_installed_engine: CryptoEngine | None = None


def get_engine() -> CryptoEngine:
    """The installed engine, creating a default one on first use."""
    global _installed_engine
    if _installed_engine is None:
        _installed_engine = CryptoEngine()
    return _installed_engine


@contextmanager
def use_engine(engine: CryptoEngine) -> Iterator[CryptoEngine]:
    """Temporarily install ``engine`` process-wide."""
    global _installed_engine
    previous, _installed_engine = _installed_engine, engine
    try:
        yield engine
    finally:
        _installed_engine = previous
