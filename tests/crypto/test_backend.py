"""Tests for the bigint entry points (repro.crypto.backend).

There is one arithmetic, the standard library's ``pow()``; what these
tests pin is that it is reached through the installed instance and that
no other backend can be asked for.
"""

import pytest

from repro.crypto import backend as bk
from repro.crypto import numtheory as nt
from repro.crypto.engine import CryptoEngine
from repro.errors import ParameterError

#: Moduli spanning word-size to production-size operands.
MODULI = [97, 104729, 2**127 - 1, (2**607 - 1)]


class TestSelection:
    def test_resolve_unknown_rejected(self):
        for spec in ("auto", "native", "openssl", None):
            with pytest.raises(ParameterError):
                CryptoEngine(backend=spec)
            with pytest.raises(ParameterError):
                with bk.use_backend(spec):
                    pass

    def test_resolve_instance_is_identity(self):
        backend = bk.PythonBackend()
        with bk.use_backend(backend) as installed:
            assert installed is backend
            assert bk.active_backend() is backend

    def test_use_backend_restores(self):
        before = bk.active_backend()
        with bk.use_backend("python") as installed:
            assert bk.active_backend() is installed
        assert bk.active_backend() is before

    def test_powmod_dispatches_through_the_installed_instance(self):
        calls = []

        class Recording(bk.PythonBackend):
            def powmod(self, base, exponent, modulus):
                calls.append((base, exponent, modulus))
                return super().powmod(base, exponent, modulus)

        with bk.use_backend(Recording()):
            assert nt.powmod(3, 5, 7) == pow(3, 5, 7)
        assert calls == [(3, 5, 7)]


class TestPythonBackend:
    backend = bk.PythonBackend()

    @pytest.mark.parametrize("modulus", MODULI)
    def test_powmod_matches_stdlib(self, modulus):
        for base, exponent in [(2, 3), (7, 1024), (modulus - 2, 65537)]:
            assert self.backend.powmod(base, exponent, modulus) == pow(
                base, exponent, modulus
            )

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


class TestEngineIntegration:
    def test_engine_defaults_to_installed_backend(self):
        with bk.use_backend("python"):
            assert CryptoEngine().backend_name == "python"

    def test_engine_pins_explicit_backend(self):
        engine = CryptoEngine(backend=bk.PythonBackend())
        assert engine.backend_name == "python"
        with bk.use_backend(bk.PythonBackend()):
            assert engine.backend_name == "python"
