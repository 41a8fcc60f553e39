"""The bigint entry points of the crypto substrate.

Every protocol of the paper bottoms out in 2048-bit modular
exponentiation — SRA double encryption, Paillier coefficient encryption
and oblivious polynomial evaluation, RSA key wrapping — and all of it
runs on the standard library's ``pow()``.  :func:`repro.crypto.
numtheory.powmod` reaches ``pow()`` through the :class:`PythonBackend`
instance installed here, looked up at call time, so that patching the
class's three exponentiation entry points counts every modular
exponentiation the process performs (the layered benchmark's
``crypto.modexp_ops``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.errors import ParameterError


class PythonBackend:
    """Modular exponentiation on the standard library's ``pow()``."""

    name = "python"

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    def powmod_base_list(
        self, bases: Sequence[int], exponent: int, modulus: int
    ) -> list[int]:
        """Shared-exponent batch: ``[b^exponent mod modulus for b]``."""
        return [pow(base, exponent, modulus) for base in bases]

    def powmod_exp_list(
        self, base: int, exponents: Sequence[int], modulus: int
    ) -> list[int]:
        """Shared-base batch: ``[base^e mod modulus for e]``."""
        return [pow(base, exponent, modulus) for exponent in exponents]


def as_backend(backend: "PythonBackend | str") -> PythonBackend:
    """``"python"`` or a :class:`PythonBackend` -> an instance.

    Anything else raises :class:`ParameterError`: there is one bigint
    arithmetic (``docs/decisions.md`` records why).
    """
    if isinstance(backend, PythonBackend):
        return backend
    if backend == "python":
        return PythonBackend()
    raise ParameterError(f"unknown bigint backend {backend!r}; the one backend is 'python'")


_installed_backend = PythonBackend()


def active_backend() -> PythonBackend:
    """The installed backend every :func:`~repro.crypto.numtheory.powmod` uses."""
    return _installed_backend


@contextmanager
def use_backend(backend: "PythonBackend | str") -> Iterator[PythonBackend]:
    """Temporarily install a backend instance (tests and benchmarks)."""
    global _installed_backend
    previous, _installed_backend = _installed_backend, as_backend(backend)
    try:
        yield _installed_backend
    finally:
        _installed_backend = previous
