"""Differential and concurrency tests for the GMP path of the bigint seam.

``PythonBackend.powmod`` runs GMP's ``mpz_powm_sec`` when the library
loaded and the operands are in its domain, ``pow()`` otherwise;
``numtheory.jacobi`` runs ``mpz_jacobi`` or the Python loop; the
Paillier nonce's fixed-base product runs ``gmp.fixed_base_power`` or
:func:`paillier._fixed_base_power`.  Every test here runs twice: on
what the host loaded, and with the loaded handle patched to ``None``
(the path of a host without the library).  Both must agree with
``pow()``, with :func:`numtheory.jacobi_loop` and with the Python
fixed-base product.
"""

import json
import math
import pathlib
import secrets
import sys
import threading
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import reference_join, run_join_query
from repro.core.runner import crypto_context
from repro.crypto import backend as bk
from repro.crypto import numtheory as nt
from repro.crypto import paillier, serialization
from repro.errors import ParameterError
from repro.transport import codec

#: The layered benchmark's committed keys (read-only: benchmark contract).
FIXTURE_KEYS = pathlib.Path(__file__).parents[2] / "benchmarks/layers/keys_2048.json"


@pytest.fixture(params=["host", "no-library"], autouse=True)
def arithmetic(request, monkeypatch):
    """The arithmetic under test: the host's, or forced to ``pow()``."""
    if request.param == "no-library":
        monkeypatch.setattr(bk, "gmp", None)
    return request.param


def _bits(low: int, high: int) -> st.SearchStrategy[int]:
    """Integers of exactly ``low``..``high`` bits."""
    return st.integers(min_value=low, max_value=high).flatmap(
        lambda bits: st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)
    )


MODULI = st.one_of(
    st.just(1),
    st.just(2),
    _bits(2, 4096).map(lambda m: m | 1),  # odd
    _bits(2, 4096).map(lambda m: m & ~1),  # even
    _bits(128, 4096).map(lambda m: m | 1),  # odd, production-sized
)
EXPONENTS = st.one_of(st.just(0), st.just(1), _bits(256, 4096), _bits(2, 64))
BASES = st.one_of(
    st.just(0),
    st.integers(min_value=-(1 << 64), max_value=-1),
    _bits(2, 4096),
    _bits(4097, 8192),  # above any modulus drawn here
)


class TestPowmod:
    @given(base=BASES, exponent=EXPONENTS, modulus=MODULI)
    @settings(max_examples=60, deadline=None)
    def test_matches_pow(self, base, exponent, modulus):
        assert bk.PythonBackend().powmod(base, exponent, modulus) == pow(
            base, exponent, modulus
        )

    @given(base=BASES, exponent=_bits(1, 512), modulus=MODULI)
    @settings(max_examples=40, deadline=None)
    def test_negative_exponent_of_an_invertible_base(self, base, exponent, modulus):
        assume(math.gcd(base, modulus) == 1)
        assert bk.PythonBackend().powmod(base, -exponent, modulus) == pow(
            base, -exponent, modulus
        )

    def test_non_invertible_base_raises_as_pow_does(self):
        with pytest.raises(ValueError):
            bk.PythonBackend().powmod(6, -1, 9)

    def test_batch_forms_match_pow(self):
        modulus = (1 << 1279) - 1
        bases = [0, 2, modulus - 1, modulus + 5, -7]
        exponents = [0, 1, 65537, (1 << 1000) + 3]
        backend = bk.PythonBackend()
        assert backend.powmod_base_list(bases, 65537, modulus) == [
            pow(b, 65537, modulus) for b in bases
        ]
        assert backend.powmod_exp_list(3, exponents, modulus) == [
            pow(3, e, modulus) for e in exponents
        ]

    def test_threads_keep_their_own_registers(self):
        """More threads than cores, switching as often as the interpreter
        allows, each call checked against ``pow()``: a register shared
        between threads would hand one thread another's operands."""
        threads, calls = 6, 40
        start = threading.Barrier(threads)
        wrong: list[tuple[int, int]] = []

        def work(seed: int) -> None:
            modulus = ((1 << 1024) - 1 - 2 * seed) | 1
            start.wait()
            for i in range(calls):
                base = (seed + 2) ** (i + 50) % modulus
                exponent = (seed + 3) ** (i + 90)
                if bk.PythonBackend().powmod(base, exponent, modulus) != pow(
                    base, exponent, modulus
                ):
                    wrong.append((seed, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(n,)) for n in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert wrong == []


class TestJacobi:
    @given(
        a=st.one_of(st.integers(min_value=-(1 << 4096), max_value=1 << 4096), st.just(0)),
        n=_bits(1, 4096).map(lambda n: n | 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_python_loop(self, a, n):
        assert nt.jacobi(a, n) == nt.jacobi_loop(a, n)

    @pytest.mark.parametrize("n", [0, -3, 8, 2])
    def test_even_or_non_positive_modulus_rejected(self, n):
        with pytest.raises(ParameterError):
            nt.jacobi(3, n)


class TestWhatRuns:
    def test_reported_arithmetic(self, arithmetic):
        expected = "gmp" if arithmetic == "host" and bk.gmp is not None else "python"
        assert bk.arithmetic() == expected
        assert crypto_context() == {"bigint": expected}

    @pytest.mark.parametrize("protocol", ["commutative", "private-matching"])
    def test_queries_return_the_reference_join(self, make_federation, workload, protocol):
        query = "select * from R1 natural join R2"
        federation = make_federation(workload)
        result = run_join_query(federation, query, protocol=protocol)
        assert Counter(result.global_result.rows) == Counter(
            reference_join(federation, query).rows
        )
        assert result.artifacts["crypto"] == {"bigint": bk.arithmetic()}

    @pytest.mark.parametrize(
        "base, exponent, modulus, native",
        [
            (3, 5, 7, True),
            (-3, 5, 7, True),  # reduced mod m first
            (10, 5, 7, True),
            (0, 5, 7, True),
            (3, 0, 7, False),  # exponent must be > 0
            (3, -1, 7, False),
            (3, 5, 8, False),  # modulus must be odd
            (3, 5, 1, False),  # ... and > 1
            (3, 5, -7, False),
        ],
    )
    def test_native_only_inside_the_domain_of_mpz_powm_sec(
        self, monkeypatch, base, exponent, modulus, native
    ):
        """Outside it ``mpz_powm_sec`` is undefined and can abort the
        process, so those inputs must never reach it."""
        expected = pow(base, exponent, modulus)
        if bk.gmp is None:  # every input takes pow()
            assert bk.PythonBackend().powmod(base, exponent, modulus) == expected
            return
        calls = []
        original = bk.gmp.mpz_powm_sec

        def recording(*registers):
            calls.append(registers)
            return original(*registers)

        monkeypatch.setattr(bk.gmp, "mpz_powm_sec", recording)
        assert bk.PythonBackend().powmod(base, exponent, modulus) == expected
        assert bool(calls) is native


@pytest.fixture(scope="module")
def paillier_keys():
    """A 256-bit key and the 2048-bit key ``pm_cold_bus`` runs on."""
    snapshot = json.loads(FIXTURE_KEYS.read_text())["client_paillier"]
    return {
        "256-bit": paillier.generate_keypair(256),
        "fixture": serialization.paillier_private_from_dict(snapshot),
    }


def _nonce_exponents(n: int) -> st.SearchStrategy[int]:
    """Nonce exponents of key ``n``: ``0``, ``1``, ``2^bits - 1`` and any
    ``bits``-bit value, ``bits = ceil(|n| / 2)``."""
    top = (1 << paillier._nonce_bits(n)) - 1
    return st.one_of(st.sampled_from([0, 1, top]), st.integers(min_value=0, max_value=top))


class TestFixedBasePower:
    """The nonce ``h_n^s mod n^2``: GMP's bucket product, the Python one
    and ``pow()`` are one integer, so a pinned ``s`` gives one ciphertext."""

    @pytest.mark.parametrize("which", ["256-bit", "fixture"])
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_gmp_product_equals_python_product_equals_pow(self, paillier_keys, which, data):
        n = paillier_keys[which].public_key.n
        n_sq, table = n * n, paillier._nonce_table(n)
        s = data.draw(_nonce_exponents(n), label="s")
        expected = pow(table[0], s, n_sq)
        assert paillier._fixed_base_power(table, s, n_sq) == expected
        assert paillier._nonce(n, s) == expected  # the path encrypt takes
        if bk.gmp is not None:
            (modulus,) = bk.gmp.pin((n_sq,))
            assert bk.gmp.fixed_base_power(bk.gmp.pin(table), s, modulus) == expected

    @pytest.mark.parametrize("which", ["256-bit", "fixture"])
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_pinned_randomness_gives_byte_identical_ciphertexts(
        self, paillier_keys, which, data
    ):
        public = paillier_keys[which].public_key
        n = public.n
        draws = data.draw(st.lists(_nonce_exponents(n), min_size=1, max_size=4), label="s")
        plaintexts = [(7 * i + 3) % n for i in range(len(draws))]

        def wire_bytes() -> bytes:
            pinned = iter(draws)
            randbits = SimpleNamespace(randbits=lambda bits: next(pinned))
            with mock.patch.object(paillier, "secrets", randbits):
                return codec.encode_value(
                    tuple(paillier.encrypt(public, m) for m in plaintexts)
                )

        here = wire_bytes()
        with mock.patch.object(bk, "gmp", None):
            assert wire_bytes() == here
        h, n_sq = paillier._nonce_table(n)[0], n * n
        assert here == codec.encode_value(
            tuple(
                paillier.PaillierCiphertext((1 + m * n) * pow(h, s, n_sq) % n_sq, public)
                for m, s in zip(plaintexts, draws)
            )
        )

    def test_encrypt_runs_the_python_product_only_without_the_library(
        self, paillier_keys, monkeypatch
    ):
        """The wall-clock bound of CI cannot tell the two paths apart; this
        can.  With the library loaded, a fallback to Python raises."""
        calls = []
        python_product = paillier._fixed_base_power

        def guarded(*args):
            calls.append(args)
            if bk.gmp is not None:
                raise AssertionError("paillier.encrypt fell back to _fixed_base_power")
            return python_product(*args)

        monkeypatch.setattr(paillier, "_fixed_base_power", guarded)
        for which, private in paillier_keys.items():
            ciphertext = paillier.encrypt(private.public_key, 4242)
            assert paillier.decrypt(private, ciphertext) == 4242, which
        assert len(calls) == (0 if bk.gmp is not None else len(paillier_keys))

    def test_threads_keep_their_own_buckets(self):
        """Six threads on three keys, switching as often as the interpreter
        allows: each nonce is checked against the Python product (a bucket
        shared with a thread on the same key would still decrypt) and each
        ciphertext decrypts."""
        threads, calls = 6, 25
        keys = [paillier.generate_keypair(bits) for bits in (256, 384, 512)]
        # Each key's h_n is drawn here, once: threads racing to build a
        # table could each draw their own, all valid but not comparable.
        tables = [paillier._nonce_table(k.public_key.n) for k in keys]
        start = threading.Barrier(threads)
        wrong: list[tuple[int, int]] = []

        def work(seed: int) -> None:
            private, table = keys[seed % len(keys)], tables[seed % len(keys)]
            n = private.public_key.n
            bits = paillier._nonce_bits(n)
            start.wait()
            for i in range(calls):
                s = secrets.randbits(bits)
                if paillier._nonce(n, s) != paillier._fixed_base_power(table, s, n * n):
                    wrong.append((seed, i))
                m = (seed * 1000 + i) % n
                if paillier.decrypt(private, paillier.encrypt(private.public_key, m)) != m:
                    wrong.append((seed, -i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(n,)) for n in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert wrong == []
