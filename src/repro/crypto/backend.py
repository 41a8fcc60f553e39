"""Pluggable bigint backends for the crypto substrate.

Every protocol of the paper bottoms out in 2048-4096-bit modular
exponentiation — SRA double encryption, Paillier coefficient encryption
and oblivious polynomial evaluation, RSA key wrapping — and the pure
Python ``pow()`` path is the throughput ceiling named in ROADMAP.md.
This module puts that arithmetic behind a small backend interface:

* :class:`PythonBackend` — the reference implementation on the standard
  library, always available.  Everything in :mod:`repro.crypto` was
  originally written against exactly these semantics, so this backend
  *defines* correct behaviour.
* :class:`NativeBackend` — GMP-backed arithmetic via `gmpy2
  <https://gmpy2.readthedocs.io>`_ (``powmod``, ``invert``, ``jacobi``,
  ``is_prime``, ``mpz``), typically 5-15x faster at production key
  sizes.  Only constructible when gmpy2 imports; the module never
  requires it.

Both backends return plain ``int`` results, so ciphertexts, transcripts,
and serialized messages are **bit-identical** regardless of the backend
in use — the CI divergence gate runs every protocol under both backends
and compares outputs byte for byte.

Selection is a runtime decision, mirroring the crypto engine's
installation model:

* ``REPRO_CRYPTO_BACKEND`` environment variable (``auto`` | ``python``
  | ``gmpy2``; default ``auto`` = native when importable),
* ``--crypto-backend`` on the protocol-running CLI commands,
* :func:`set_backend` / :func:`use_backend` for library callers and
  tests.

Requesting ``gmpy2`` explicitly when it is not importable raises
:class:`~repro.errors.ParameterError`; ``auto`` silently falls back to
the Python backend.  The active backend is observable: crypto batch
spans carry a ``backend`` attribute, the ``repro_crypto_backend_info``
gauge names it in metric expositions (see
:func:`record_backend_info`), and ``run_join_query`` artifacts,
loadgen reports, and bench JSON all self-describe it.
"""

from __future__ import annotations

import math
import os
import secrets
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from repro.errors import ParameterError

try:  # The native backend is strictly optional.
    import gmpy2 as _gmpy2
except ImportError:  # pragma: no cover - exercised on gmpy2-free hosts
    _gmpy2 = None

#: Environment variable selecting the process-default backend.
BACKEND_ENV = "REPRO_CRYPTO_BACKEND"

#: Valid selector spellings (CLI choices and env values).
BACKEND_CHOICES = ("auto", "python", "gmpy2")

#: Gauge family naming the active backend in metric expositions.
BACKEND_INFO_METRIC = "repro_crypto_backend_info"


class CryptoBackend:
    """Interface every bigint backend implements.

    All operands and results are plain Python ``int`` — backends may
    use their own representation internally (:meth:`wrap`) but must
    never leak it, so values entering transcripts serialize identically
    under every backend.
    """

    name: str = "abstract"

    # -- scalar operations --------------------------------------------------

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        raise NotImplementedError

    def invert(self, a: int, m: int) -> int:
        """``a^-1 mod m``; raises :class:`ParameterError` if not coprime."""
        raise NotImplementedError

    def gcd(self, a: int, b: int) -> int:
        raise NotImplementedError

    def jacobi(self, a: int, n: int) -> int:
        """Jacobi symbol for odd positive ``n`` (validated by callers)."""
        raise NotImplementedError

    def is_probable_prime(self, n: int, rounds: int) -> bool:
        raise NotImplementedError

    # -- batched operations -------------------------------------------------

    def powmod_base_list(
        self, bases: Sequence[int], exponent: int, modulus: int
    ) -> list[int]:
        """Shared-exponent batch: ``[b^exponent mod modulus for b]``.

        The shape of SRA commutative encryption (one key exponent over
        many tags).  Backends hoist the loop-invariant operands out of
        the per-item path.
        """
        raise NotImplementedError

    def powmod_exp_list(
        self, base: int, exponents: Sequence[int], modulus: int
    ) -> list[int]:
        """Shared-base batch: ``[base^e mod modulus for e]``.

        The shape of ElGamal encryption (``g^r``, ``h^r``) and of any
        fixed-generator workload.
        """
        raise NotImplementedError

    # -- representation -----------------------------------------------------

    def wrap(self, value: int) -> Any:
        """Backend-internal number type (identity for pure Python)."""
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class PythonBackend(CryptoBackend):
    """The always-available standard-library implementation.

    Holds the reference algorithms (Miller-Rabin, the iterative Jacobi
    loop) the native backend is property-tested against.
    """

    name = "python"

    #: Small primes for cheap trial division ahead of Miller-Rabin.
    _SMALL_PRIMES: tuple[int, ...] = (
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
        67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
        139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
        211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277,
        281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
    )

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    def invert(self, a: int, m: int) -> int:
        try:
            return pow(a, -1, m)
        except ValueError as exc:
            raise ParameterError(f"{a} is not invertible modulo {m}") from exc

    def gcd(self, a: int, b: int) -> int:
        return math.gcd(a, b)

    def jacobi(self, a: int, n: int) -> int:
        a %= n
        result = 1
        while a:
            # (2/n)^shift: all factors of two leave in one shift, and
            # only an odd count of them can flip the sign.
            shift = (a & -a).bit_length() - 1
            a >>= shift
            if shift & 1 and n & 7 in (3, 5):
                result = -result
            a, n = n, a
            if a & 3 == 3 and n & 3 == 3:
                result = -result
            a %= n
        return result if n == 1 else 0

    def is_probable_prime(self, n: int, rounds: int) -> bool:
        if n < 2:
            return False
        for p in self._SMALL_PRIMES:
            if n % p == 0:
                return n == p
        if n < self._SMALL_PRIMES[-1] ** 2:
            return True
        d = n - 1
        r = 0
        while d % 2 == 0:
            d //= 2
            r += 1
        for _ in range(rounds):
            a = 2 + secrets.randbelow(n - 3)
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(r - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True

    def powmod_base_list(
        self, bases: Sequence[int], exponent: int, modulus: int
    ) -> list[int]:
        return [pow(base, exponent, modulus) for base in bases]

    def powmod_exp_list(
        self, base: int, exponents: Sequence[int], modulus: int
    ) -> list[int]:
        return [pow(base, exponent, modulus) for exponent in exponents]


class NativeBackend(CryptoBackend):
    """GMP-backed arithmetic through gmpy2.

    Every result is converted back to ``int`` at the boundary, so the
    backend is invisible to serialization and transcripts.  Batched
    entry points pre-cast the loop-invariant operands to ``mpz`` once
    (and use gmpy2's own list forms when the installed version has
    them), which is where shared-exponent workloads gain beyond the
    scalar ``powmod`` win.
    """

    name = "gmpy2"

    def __init__(self) -> None:
        if _gmpy2 is None:
            raise ParameterError(
                "the gmpy2 backend was requested but gmpy2 is not "
                "importable; install gmpy2 or select --crypto-backend "
                "python/auto"
            )
        self._g = _gmpy2
        # gmpy2 >= 2.2 ships C-level list forms; older versions fall
        # back to a Python loop over pre-cast mpz operands.
        self._base_list = getattr(_gmpy2, "powmod_base_list", None)
        self._exp_list = getattr(_gmpy2, "powmod_exp_list", None)

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return int(self._g.powmod(base, exponent, modulus))

    def invert(self, a: int, m: int) -> int:
        try:
            inverse = self._g.invert(a, m)
        except ZeroDivisionError as exc:
            raise ParameterError(f"{a} is not invertible modulo {m}") from exc
        # Pre-2.2 gmpy2 returns 0 instead of raising for non-units.
        if inverse == 0 and m != 1:
            raise ParameterError(f"{a} is not invertible modulo {m}")
        return int(inverse)

    def gcd(self, a: int, b: int) -> int:
        return int(self._g.gcd(a, b))

    def jacobi(self, a: int, n: int) -> int:
        return int(self._g.jacobi(a, n))

    def is_probable_prime(self, n: int, rounds: int) -> bool:
        if n < 2:
            return False
        # BPSW + configurable extra Miller-Rabin rounds; agrees with the
        # reference Miller-Rabin with overwhelming probability (no BPSW
        # pseudoprime is known).
        return bool(self._g.is_prime(self._g.mpz(n), max(rounds, 25)))

    def powmod_base_list(
        self, bases: Sequence[int], exponent: int, modulus: int
    ) -> list[int]:
        if self._base_list is not None:
            return [int(v) for v in self._base_list(list(bases), exponent, modulus)]
        powmod, e, m = self._g.powmod, self._g.mpz(exponent), self._g.mpz(modulus)
        return [int(powmod(base, e, m)) for base in bases]

    def powmod_exp_list(
        self, base: int, exponents: Sequence[int], modulus: int
    ) -> list[int]:
        if self._exp_list is not None:
            return [int(v) for v in self._exp_list(base, list(exponents), modulus)]
        powmod, b, m = self._g.powmod, self._g.mpz(base), self._g.mpz(modulus)
        return [int(powmod(b, exponent, m)) for exponent in exponents]

    def wrap(self, value: int) -> Any:
        return self._g.mpz(value)


# ---------------------------------------------------------------------------
# Selection and process-wide installation.
# ---------------------------------------------------------------------------


def native_available() -> bool:
    """True when the gmpy2 backend can be constructed on this host."""
    return _gmpy2 is not None


def available_backends() -> tuple[str, ...]:
    """Names of the backends constructible on this host."""
    return ("python", "gmpy2") if native_available() else ("python",)


def resolve_backend(spec: "str | CryptoBackend | None") -> CryptoBackend:
    """Selector -> backend instance.

    ``None`` reads ``REPRO_CRYPTO_BACKEND`` (default ``auto``).
    ``auto`` prefers the native backend and silently falls back to pure
    Python; naming ``gmpy2`` explicitly on a host without it is an
    error, so a benchmark or CI job that *means* native can never
    quietly measure the fallback.
    """
    if isinstance(spec, CryptoBackend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV, "").strip() or "auto"
    spec = spec.lower()
    if spec == "auto":
        return NativeBackend() if native_available() else PythonBackend()
    if spec == "python":
        return PythonBackend()
    if spec == "gmpy2":
        return NativeBackend()
    raise ParameterError(
        f"unknown crypto backend {spec!r}; choose from {BACKEND_CHOICES}"
    )


_installed_backend: CryptoBackend | None = None


def active_backend() -> CryptoBackend:
    """The installed backend, creating the environment default lazily."""
    global _installed_backend
    if _installed_backend is None:
        _installed_backend = resolve_backend(None)
    return _installed_backend


def set_backend(backend: "CryptoBackend | str | None") -> CryptoBackend | None:
    """Install a backend process-wide; returns the previous one.

    Accepts an instance, a selector string, or ``None`` (drop back to
    lazy environment-based resolution).
    """
    global _installed_backend
    previous = _installed_backend
    _installed_backend = (
        None if backend is None else resolve_backend(backend)
    )
    return previous


@contextmanager
def use_backend(backend: "CryptoBackend | str") -> Iterator[CryptoBackend]:
    """Temporarily install a backend (tests and benchmarks)."""
    resolved = resolve_backend(backend)
    global _installed_backend
    previous, _installed_backend = _installed_backend, resolved
    try:
        yield resolved
    finally:
        _installed_backend = previous


def record_backend_info() -> None:
    """Publish the active backend into the installed metrics registry.

    Emits the ``repro_crypto_backend_info`` gauge (value 1, labelled
    with the backend name) — the Prometheus info-metric idiom — so any
    exposition or JSON snapshot names the arithmetic that produced its
    numbers.  No-op without an installed registry.
    """
    from repro.telemetry import metrics as _metrics

    registry = _metrics.get_registry()
    if registry is not None:
        registry.gauge(
            BACKEND_INFO_METRIC,
            {"backend": active_backend().name},
            help_text="Active bigint backend (1 = in use)",
        ).set(1)
