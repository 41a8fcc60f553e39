"""Tests for wire-size estimation."""

from dataclasses import dataclass

from repro.crypto import hybrid, paillier
from repro.mediation.sizing import estimate_size


class TestPrimitives:
    def test_none_and_bool(self):
        assert estimate_size(None) == 0
        assert estimate_size(True) == 1

    def test_bytes_exact(self):
        assert estimate_size(b"12345") == 5

    def test_str_utf8(self):
        assert estimate_size("héllo") == len("héllo".encode())

    def test_int_big_endian_length(self):
        assert estimate_size(0) == 1
        assert estimate_size(255) == 1
        assert estimate_size(256) == 2
        assert estimate_size(2**128) == 17


class TestContainers:
    def test_list_sums(self):
        assert estimate_size([b"ab", b"cd"]) == 4

    def test_dict_sums_keys_and_values(self):
        assert estimate_size({b"k": b"vvv"}) == 4

    def test_dataclass_fields(self):
        @dataclass
        class Blob:
            a: bytes
            b: int

        assert estimate_size(Blob(b"xyz", 255)) == 4


class TestCryptoObjects:
    def test_hybrid_ciphertext(self, rsa_key):
        ct = hybrid.encrypt([rsa_key.public_key()], b"x" * 100)
        assert estimate_size(ct) == ct.size_bytes()
        assert estimate_size(ct) > 100

    def test_paillier_ciphertext(self):
        key = paillier.generate_keypair(256)
        ct = paillier.encrypt(key.public_key, 5)
        # Ciphertext lives mod n^2: ~512 bits = 64 bytes.
        assert estimate_size(ct) == 64

    def test_fallback_never_raises(self):
        class Opaque:
            pass

        assert estimate_size(Opaque()) > 0
