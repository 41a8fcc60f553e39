"""The bigint entry points of the crypto substrate.

Every protocol of the paper bottoms out in 2048-bit modular
exponentiation — SRA double encryption, Paillier coefficient encryption
and oblivious polynomial evaluation, RSA key wrapping.  When the host
has the GMP shared library, that arithmetic runs on GMP's
``mpz_powm_sec``, called through the standard library's :mod:`ctypes`;
otherwise it runs on ``pow()``.  Which of the two runs is decided once,
at import, by whether the library loads: there is no selector, flag or
environment variable, and :func:`arithmetic` names the outcome.

:func:`repro.crypto.numtheory.powmod` reaches the arithmetic through the
:class:`PythonBackend` instance installed here, looked up at call time,
so that patching the class's three exponentiation entry points counts
every modular exponentiation the process performs (the layered
benchmark's ``crypto.modexp_ops``).  :func:`repro.crypto.numtheory.
jacobi` calls ``gmp.jacobi`` (``mpz_jacobi``) on the same terms.

Operands cross into GMP as bytes (``int.to_bytes`` -> ``mpz_import``)
and come back the same way (``mpz_export`` -> ``int.from_bytes``),
through ``mpz_t`` registers kept per thread.  The two long calls,
``mpz_powm_sec`` and ``mpz_jacobi``, release the GIL for their length
(a ``ctypes.CDLL`` handle), so other threads run beside them — the
crypto engine splits its bigint batches over two threads for that.  The
short ones (import, export, products, remainders: microseconds) keep it
(a ``ctypes.PyDLL`` handle on the same library): once another thread
waits for the GIL, handing it over and back costs more than they do.
``mpz_powm_sec`` needs an odd
modulus and a positive exponent (it aborts the process otherwise), so
every other input stays on ``pow()`` inside the same function.

The one bigint product that is not an exponentiation, the Paillier
nonce's fixed-base product (:mod:`repro.crypto.paillier`), runs on the
same library as ``gmp.fixed_base_power`` over a table pinned once per
key, with :func:`repro.crypto.paillier._fixed_base_power` the path of a
host without it.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from repro.errors import ParameterError


#: Digit width of the fixed-base product (Yao's method): a table of
#: ``ceil(k / w)`` powers serves every ``k``-bit exponent, with ``2^w - 1``
#: buckets.  :mod:`repro.crypto.paillier` builds its nonce table for it.
FIXED_BASE_WINDOW = 5
_DIGIT_MASK = (1 << FIXED_BASE_WINDOW) - 1


class _Mpz(ctypes.Structure):
    """GMP's ``__mpz_struct``: allocated limbs, signed size, limb pointer."""

    _fields_ = [
        ("alloc", ctypes.c_int),
        ("size", ctypes.c_int),
        ("limbs", ctypes.c_void_p),
    ]


class _Gmp:
    """The GMP functions this module calls, bound with their C signatures,
    and the operations built on them.  Each thread gets ``mpz_t``
    registers of its own (:class:`_Registers`, :class:`_Buckets`);
    constants read on every call can be pinned in registers of their own
    (:meth:`pin`)."""

    def __init__(self, releasing: ctypes.CDLL, holding: ctypes.PyDLL) -> None:
        mpz = ctypes.POINTER(_Mpz)
        size_t = ctypes.c_size_t

        def bind(
            symbol: str, restype: Any, *argtypes: Any, long: bool = False
        ) -> Any:
            """A long call releases the GIL for its length; a short one
            keeps it."""
            function = getattr(releasing if long else holding, symbol)
            function.restype, function.argtypes = restype, argtypes
            return function

        self.mpz_init = bind("__gmpz_init", None, mpz)
        self.mpz_clear = bind("__gmpz_clear", None, mpz)
        # mpz_import(rop, count, order, size, endian, nails, op)
        self.mpz_import = bind(
            "__gmpz_import", None,
            mpz, size_t, ctypes.c_int, size_t, ctypes.c_int, size_t, ctypes.c_char_p,
        )
        # mpz_export(rop, countp, order, size, endian, nails, op)
        self.mpz_export = bind(
            "__gmpz_export", ctypes.c_void_p,
            ctypes.c_void_p, ctypes.POINTER(size_t), ctypes.c_int, size_t,
            ctypes.c_int, size_t, mpz,
        )
        self.mpz_sizeinbase = bind("__gmpz_sizeinbase", size_t, mpz, ctypes.c_int)
        self.mpz_set = bind("__gmpz_set", None, mpz, mpz)
        self.mpz_mul = bind("__gmpz_mul", None, mpz, mpz, mpz)
        self.mpz_mod = bind("__gmpz_mod", None, mpz, mpz, mpz)
        self.mpz_powm_sec = bind(
            "__gmpz_powm_sec", None, mpz, mpz, mpz, mpz, long=True
        )
        self.mpz_jacobi = bind("__gmpz_jacobi", ctypes.c_int, mpz, mpz, long=True)
        self.registers = _Registers(self)
        self.buckets = _Buckets(self)

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        """``mpz_powm_sec``: needs ``0 <= base``, ``exponent > 0`` and an
        odd ``modulus > 1``; outside that GMP aborts the process."""
        registers = self.registers
        self._load(registers.a, base)
        self._load(registers.b, exponent)
        self._load(registers.c, modulus)
        self.mpz_powm_sec(registers.out, registers.a, registers.b, registers.c)
        return self._export(registers.out, (modulus.bit_length() + 7) // 8)

    def jacobi(self, a: int, n: int) -> int:
        """``mpz_jacobi`` for ``0 <= a`` and odd ``n > 0``."""
        registers = self.registers
        self._load(registers.a, a)
        self._load(registers.b, n)
        return int(self.mpz_jacobi(registers.a, registers.b))

    def pin(self, values: Sequence[int]) -> tuple[_Register, ...]:
        """``values`` (each ``>= 0``) held as registers of their own, for
        constants read on every call; each is cleared when collected."""
        pinned = tuple(_Register(self) for _ in values)
        for register, value in zip(pinned, values):
            self._load(register, value)
        return pinned

    def fixed_base_power(
        self,
        table: Sequence[_Register],
        exponent: int,
        modulus: _Register,
    ) -> int:
        """``table[0]^exponent mod modulus`` for a pinned table
        ``table[i] = table[0]^(2^(w*i))`` and ``0 <= exponent <
        2^(w * len(table))`` (``w`` = :data:`FIXED_BASE_WINDOW`).

        Yao's bucket method, as :func:`repro.crypto.paillier.
        _fixed_base_power` runs it on Python integers: the digits of
        ``exponent`` are read in Python, every product is ``mpz_mul`` then
        ``mpz_mod`` on this thread's bucket registers, and only the result
        crosses back.  Which buckets fill depends on the digits, so the
        time does too.
        """
        if not 0 <= exponent < 1 << (FIXED_BASE_WINDOW * len(table)):
            raise ParameterError(
                f"fixed-base exponent outside [0, 2^{FIXED_BASE_WINDOW * len(table)})"
            )
        buckets, filled = self.buckets.registers, [False] * (_DIGIT_MASK + 1)
        for entry in table:
            digit = exponent & _DIGIT_MASK
            if digit:
                self._accumulate(buckets[digit], filled[digit], entry, modulus)
                filled[digit] = True
            exponent >>= FIXED_BASE_WINDOW
        # prod_j bucket_j^j as two running products, from the top bucket.
        running, result = self.registers.a, self.registers.out
        running_set = result_set = False
        for digit in range(_DIGIT_MASK, 0, -1):
            if filled[digit]:
                self._accumulate(running, running_set, buckets[digit], modulus)
                running_set = True
            if running_set:
                self._accumulate(result, result_set, running, modulus)
                result_set = True
        if not result_set:  # no nonzero digit, as the Python product
            return 1
        return self._export(result, self.mpz_sizeinbase(modulus, 256))

    def _accumulate(
        self, target: _Mpz, holds_value: bool, factor: _Mpz, modulus: _Mpz
    ) -> None:
        """``target = target * factor mod modulus``, or ``target = factor``
        while ``target`` holds no value yet (an empty product is 1)."""
        if holds_value:
            self.mpz_mul(target, target, factor)
            self.mpz_mod(target, target, modulus)
        else:
            self.mpz_set(target, factor)

    def _load(self, register: _Mpz, value: int) -> None:
        """``register = value`` for ``value >= 0``."""
        data = value.to_bytes((value.bit_length() + 7) // 8, "little")
        self.mpz_import(register, len(data), -1, 1, 0, 0, data)

    def _export(self, register: _Mpz, size: int) -> int:
        """The value of ``register`` (``>= 0``, at most ``size`` bytes)."""
        buffer = ctypes.create_string_buffer(size)
        count = ctypes.c_size_t()
        self.mpz_export(buffer, count, -1, 1, 0, 0, register)
        return int.from_bytes(buffer.raw[: count.value], "little")


class _Register(_Mpz):
    """One ``mpz_t``, initialised on creation and cleared on collection."""

    def __init__(self, library: _Gmp) -> None:
        super().__init__()
        self.library = library
        library.mpz_init(self)

    def __del__(self) -> None:
        self.library.mpz_clear(self)


class _Registers(threading.local):
    """Four registers per thread, made on the thread's first call."""

    def __init__(self, library: _Gmp) -> None:
        self.a, self.b, self.c, self.out = (_Register(library) for _ in range(4))


class _Buckets(threading.local):
    """The ``2^w - 1`` bucket registers of :meth:`_Gmp.fixed_base_power`
    per thread, indexed by digit (``registers[0]`` is never used), made on
    the thread's first product: threads that never encrypt make none."""

    def __init__(self, library: _Gmp) -> None:
        self.registers = tuple(_Register(library) for _ in range(_DIGIT_MASK + 1))


#: GMP 5 and 6 by soname (Linux, macOS).  Opened by name rather than
#: through ``ctypes.util.find_library``, which runs ``ldconfig`` in a
#: subprocess on Linux: importing this module starts no process.
_GMP_SONAMES = ("libgmp.so.10", "libgmp.10.dylib")


def _load_gmp() -> _Gmp | None:
    for soname in _GMP_SONAMES:
        try:
            return _Gmp(ctypes.CDLL(soname), ctypes.PyDLL(soname))
        except (OSError, AttributeError):  # absent, or without mpz_powm_sec
            continue
    return None


#: The loaded library, or None on a host without it (every call then
#: runs on ``pow()`` and the Python Jacobi loop).
gmp = _load_gmp()


def _powmod(base: int, exponent: int, modulus: int) -> int:
    library = gmp
    if library is None or exponent <= 0 or modulus <= 1 or not modulus & 1:
        return pow(base, exponent, modulus)
    if not 0 <= base < modulus:
        base %= modulus
    return library.powmod(base, exponent, modulus)


def arithmetic() -> str:
    """``"gmp"`` or ``"python"``: what :func:`~repro.crypto.numtheory.
    powmod` runs on in this process (``result.artifacts["crypto"]``)."""
    return "python" if gmp is None else "gmp"


class PythonBackend:
    """The one exponentiation seam: GMP's ``mpz_powm_sec`` where the
    library is loaded and the operands are in its domain, ``pow()``
    otherwise."""

    name = "python"

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return _powmod(base, exponent, modulus)

    def powmod_base_list(
        self, bases: Sequence[int], exponent: int, modulus: int
    ) -> list[int]:
        """Shared-exponent batch: ``[b^exponent mod modulus for b]``."""
        return [_powmod(base, exponent, modulus) for base in bases]

    def powmod_exp_list(
        self, base: int, exponents: Sequence[int], modulus: int
    ) -> list[int]:
        """Shared-base batch: ``[base^e mod modulus for e]``."""
        return [_powmod(base, exponent, modulus) for exponent in exponents]


def as_backend(backend: "PythonBackend | str") -> PythonBackend:
    """``"python"`` or a :class:`PythonBackend` -> an instance.

    Anything else raises :class:`ParameterError`: there is one
    exponentiation seam (``docs/decisions.md`` records why).
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
