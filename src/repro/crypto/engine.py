"""The batch engine of the crypto substrate.

Every delivery protocol of the paper bottlenecks on big-integer modular
exponentiation — SRA double encryption (Listing 3), Paillier coefficient
encryption and oblivious polynomial evaluation (Listing 4), hybrid key
wrapping for DAS (Listing 2).  The protocol drivers hand those loops to
this module as *batch* calls, one per kind of call the listings make,
and the engine runs each batch as a loop in the calling thread under
one ``crypto:{name}`` span, so a trace shows every batch where it ran.

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

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.crypto import backend as _backend
from repro.crypto import commutative, hybrid, instrumentation, symmetric
from repro.crypto.homomorphic import PaillierScheme
from repro.crypto.polynomial import EncryptedPolynomial
from repro.errors import DecryptionError, ParameterError
from repro.telemetry import tracing


class CryptoEngine:
    """Runs crypto batches as loops in the calling thread.

    ``workers`` is 0 or 1, both serial; a larger count raises
    :class:`~repro.errors.ParameterError`, since this engine has no
    parallel form to give it.  ``backend``: ``"python"`` or a
    :class:`~repro.crypto.backend.PythonBackend`, the one bigint
    arithmetic; anything else raises :class:`~repro.errors.
    ParameterError`.
    """

    mode = "serial"

    def __init__(
        self,
        workers: int = 0,
        backend: "_backend.PythonBackend | str" = "python",
    ) -> None:
        if workers not in (0, 1):
            raise ParameterError(
                f"the crypto engine is serial: workers must be 0 or 1, "
                f"got {workers!r}"
            )
        self.backend_name = _backend.as_backend(backend).name

    # -- dispatch -----------------------------------------------------------

    def _run(self, name: str, unit: Callable[[Any], Any], items: Sequence) -> list:
        """``[unit(item) for item in items]`` under a ``crypto:{name}`` span."""
        items = list(items)
        with self._batch_span(name, len(items)):
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
            "commutative", lambda value: commutative.apply(key, value), values
        )

    def batch_scheme_encrypt(
        self,
        scheme: PaillierScheme,
        public_key: Any,
        plaintexts: Sequence[int],
    ) -> list[Any]:
        """Batch encryption through a homomorphic scheme adapter."""
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
            "poly_eval", lambda job: encrypted_polynomial.masked_evaluate(*job), jobs
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
        body with its own nonce, encrypted by one
        :func:`~repro.crypto.symmetric.encrypt_many` call, and all of
        them hold the session's one :class:`~repro.crypto.hybrid.
        Encapsulation` object.
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

    def batch_hybrid_decrypt(
        self,
        private_key: Any,
        ciphertexts: Sequence[hybrid.HybridCiphertext],
        associated_data: bytes = b"",
        session_keys: hybrid.SessionKeyMemo | None = None,
    ) -> list[bytes]:
        """Batch hybrid decryption under one private key.

        The private-key operation runs once per *distinct* encapsulation
        in the batch, the DEM once per item (:func:`~repro.crypto.
        symmetric.decrypt_many`: no plaintext unless every item
        authenticates).  ``session_keys`` is the caller's memo, if it
        keeps one: hits skip the private-key operation altogether,
        misses are added.
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
                lambda wrapped: hybrid.unwrap(private_key, distinct[wrapped]),
                missing,
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
