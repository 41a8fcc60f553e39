"""Tests for the pluggable bigint backend layer (repro.crypto.backend).

The native (gmpy2) cases are skipped on hosts without gmpy2 — the CI
optional-deps job installs it and runs them; the tier-1 matrix proves
the pure-Python fallback by never installing it.
"""

import math

import pytest

from repro.crypto import backend as bk
from repro.errors import ParameterError
from repro.telemetry.metrics import MetricsRegistry, use_metrics

needs_gmpy2 = pytest.mark.skipif(
    not bk.native_available(), reason="gmpy2 not installed"
)

#: Moduli spanning word-size to production-size operands.
MODULI = [97, 104729, 2**127 - 1, (2**607 - 1)]


def every_backend():
    return [bk.resolve_backend(name) for name in bk.available_backends()]


class TestSelection:
    def test_python_always_available(self):
        assert "python" in bk.available_backends()

    def test_resolve_python(self):
        assert bk.resolve_backend("python").name == "python"

    def test_resolve_instance_is_identity(self):
        backend = bk.PythonBackend()
        assert bk.resolve_backend(backend) is backend

    def test_resolve_unknown_rejected(self):
        with pytest.raises(ParameterError):
            bk.resolve_backend("openssl")

    def test_auto_resolves_to_an_available_backend(self):
        assert bk.resolve_backend("auto").name in bk.available_backends()

    def test_explicit_gmpy2_without_module_fails_fast(self):
        if bk.native_available():
            pytest.skip("gmpy2 installed; refusal path not reachable")
        with pytest.raises(ParameterError):
            bk.resolve_backend("gmpy2")

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv(bk.BACKEND_ENV, "python")
        assert bk.resolve_backend(None).name == "python"
        monkeypatch.setenv(bk.BACKEND_ENV, "no-such-backend")
        with pytest.raises(ParameterError):
            bk.resolve_backend(None)

    def test_set_backend_round_trip(self):
        previous = bk.set_backend("python")
        try:
            assert bk.active_backend().name == "python"
        finally:
            bk.set_backend(previous)

    def test_use_backend_restores(self):
        before = bk.active_backend()
        with bk.use_backend("python") as installed:
            assert bk.active_backend() is installed
        assert bk.active_backend() is before


class TestPythonBackend:
    backend = bk.PythonBackend()

    @pytest.mark.parametrize("modulus", MODULI)
    def test_powmod_matches_stdlib(self, modulus):
        for base, exponent in [(2, 3), (7, 1024), (modulus - 2, 65537)]:
            assert self.backend.powmod(base, exponent, modulus) == pow(
                base, exponent, modulus
            )

    def test_invert(self):
        assert self.backend.invert(3, 11) * 3 % 11 == 1
        with pytest.raises(ParameterError):
            self.backend.invert(6, 9)

    def test_gcd(self):
        assert self.backend.gcd(12, 18) == 6

    def test_jacobi_matches_legendre(self):
        p = 103
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            assert self.backend.jacobi(a, p) == (1 if euler == 1 else -1)

    def test_primality(self):
        assert self.backend.is_probable_prime(2**61 - 1, 40)
        assert not self.backend.is_probable_prime(561, 40)  # Carmichael
        assert not self.backend.is_probable_prime(1, 40)

    def test_batch_forms(self):
        modulus = 104729
        bases = [2, 3, 5, 7]
        exponents = [1, 10, 100, 1000]
        assert self.backend.powmod_base_list(bases, 65537, modulus) == [
            pow(b, 65537, modulus) for b in bases
        ]
        assert self.backend.powmod_exp_list(6, exponents, modulus) == [
            pow(6, e, modulus) for e in exponents
        ]

    def test_wrap_is_identity(self):
        assert self.backend.wrap(42) == 42
        assert type(self.backend.wrap(42)) is int


@needs_gmpy2
class TestNativeBackend:
    """The native backend must agree with the reference bit for bit."""

    def setup_method(self):
        self.native = bk.NativeBackend()
        self.reference = bk.PythonBackend()

    @pytest.mark.parametrize("modulus", MODULI)
    def test_powmod_agrees(self, modulus):
        for base, exponent in [(2, 3), (7, 1024), (modulus - 2, 65537)]:
            native = self.native.powmod(base, exponent, modulus)
            assert native == self.reference.powmod(base, exponent, modulus)
            assert type(native) is int

    def test_invert_agrees_and_maps_errors(self):
        assert self.native.invert(3, 11) == self.reference.invert(3, 11)
        with pytest.raises(ParameterError):
            self.native.invert(6, 9)

    def test_jacobi_agrees(self):
        for n in (103, 104729):
            for a in range(1, 60):
                assert self.native.jacobi(a, n) == self.reference.jacobi(a, n)

    def test_primality_agrees(self):
        for n in [2, 3, 561, 1105, 7919, 2**61 - 1, 2**61 + 1, 25326001]:
            assert self.native.is_probable_prime(n, 40) == (
                self.reference.is_probable_prime(n, 40)
            )

    def test_batch_forms_agree(self):
        modulus = 2**127 - 1
        bases = list(range(2, 40))
        exponents = [3, 65537, 2**64 + 1]
        assert self.native.powmod_base_list(
            bases, 65537, modulus
        ) == self.reference.powmod_base_list(bases, 65537, modulus)
        assert self.native.powmod_exp_list(
            7, exponents, modulus
        ) == self.reference.powmod_exp_list(7, exponents, modulus)

    def test_gcd_agrees(self):
        assert self.native.gcd(2**40, 3**20 * 2**10) == math.gcd(
            2**40, 3**20 * 2**10
        )


class TestBackendInfoMetric:
    def test_gauge_named_after_active_backend(self):
        registry = MetricsRegistry()
        with use_metrics(registry), bk.use_backend("python"):
            bk.record_backend_info()
        snapshot = registry.snapshot()
        family = snapshot[bk.BACKEND_INFO_METRIC]
        assert family["kind"] == "gauge"
        entries = {
            child["labels"]["backend"]: child["value"]
            for child in family["children"]
        }
        assert entries["python"] == 1

    def test_noop_without_registry(self):
        # Must not raise when no registry is installed.
        bk.record_backend_info()


class TestEngineIntegration:
    def test_engine_defaults_to_installed_backend(self):
        from repro.crypto.engine import CryptoEngine

        with bk.use_backend("python"):
            assert CryptoEngine().backend_name == "python"

    def test_engine_pins_explicit_backend(self):
        from repro.crypto.engine import CryptoEngine

        engine = CryptoEngine(backend="python")
        assert engine.backend_name == "python"
        # Pinned engines ignore later global switches.
        with bk.use_backend(bk.resolve_backend("auto")):
            assert engine.backend_name == "python"

    def test_batch_results_identical_across_backends(self, comm_group):
        from repro.crypto.commutative import CommutativeKey
        from repro.crypto.engine import CryptoEngine

        key = CommutativeKey(comm_group, exponent=65537)
        residues = [pow(x, 2, comm_group.p) for x in range(2, 30)]
        outputs = {
            tuple(
                CryptoEngine(backend=backend).batch_commutative_encrypt(key, residues)
            )
            for backend in every_backend()
        }
        assert outputs == {tuple(pow(r, 65537, comm_group.p) for r in residues)}
