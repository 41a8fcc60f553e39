"""Tests for RSA-OAEP encryption and RSA-PSS signatures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rsa
from repro.errors import DecryptionError, EncryptionError, ParameterError


@pytest.fixture(scope="module")
def key(rsa_key):
    return rsa_key


class TestKeyGeneration:
    def test_modulus_size(self, key):
        assert key.n.bit_length() == 1024
        assert key.n == key.p * key.q

    def test_d_is_inverse(self, key):
        phi = (key.p - 1) * (key.q - 1)
        assert key.e * key.d % phi == 1

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            rsa.generate_keypair(256)


class TestOAEP:
    def test_round_trip(self, key):
        ct = rsa.oaep_encrypt(key.public_key(), b"secret message")
        assert rsa.oaep_decrypt(key, ct) == b"secret message"

    def test_empty_message(self, key):
        ct = rsa.oaep_encrypt(key.public_key(), b"")
        assert rsa.oaep_decrypt(key, ct) == b""

    def test_max_length_message(self, key):
        public = key.public_key()
        message = b"m" * public.max_message_bytes()
        assert rsa.oaep_decrypt(key, rsa.oaep_encrypt(public, message)) == message

    def test_oversized_message_rejected(self, key):
        public = key.public_key()
        with pytest.raises(EncryptionError):
            rsa.oaep_encrypt(public, b"m" * (public.max_message_bytes() + 1))

    def test_randomized(self, key):
        public = key.public_key()
        assert rsa.oaep_encrypt(public, b"x") != rsa.oaep_encrypt(public, b"x")

    def test_tampered_ciphertext_rejected(self, key):
        ct = bytearray(rsa.oaep_encrypt(key.public_key(), b"data"))
        ct[len(ct) // 2] ^= 0x01
        with pytest.raises(DecryptionError):
            rsa.oaep_decrypt(key, bytes(ct))

    def test_wrong_length_rejected(self, key):
        with pytest.raises(DecryptionError):
            rsa.oaep_decrypt(key, b"\x00" * 17)

    def test_out_of_range_rejected(self, key):
        blob = (key.n + 1).to_bytes(key.public_key().modulus_bytes, "big")
        with pytest.raises(DecryptionError):
            rsa.oaep_decrypt(key, blob)

    @given(st.binary(max_size=32))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, key, message):
        ct = rsa.oaep_encrypt(key.public_key(), message)
        assert rsa.oaep_decrypt(key, ct) == message


class TestPSS:
    def test_sign_verify(self, key):
        signature = rsa.pss_sign(key, b"document")
        assert rsa.pss_verify(key.public_key(), b"document", signature)

    def test_wrong_message_fails(self, key):
        signature = rsa.pss_sign(key, b"document")
        assert not rsa.pss_verify(key.public_key(), b"other", signature)

    def test_tampered_signature_fails(self, key):
        signature = bytearray(rsa.pss_sign(key, b"document"))
        signature[5] ^= 0xFF
        assert not rsa.pss_verify(key.public_key(), b"document", bytes(signature))

    def test_wrong_key_fails(self, key):
        other = rsa.generate_keypair(1024)
        signature = rsa.pss_sign(other, b"document")
        assert not rsa.pss_verify(key.public_key(), b"document", signature)

    def test_signatures_randomized_but_both_valid(self, key):
        s1 = rsa.pss_sign(key, b"m")
        s2 = rsa.pss_sign(key, b"m")
        assert s1 != s2
        assert rsa.pss_verify(key.public_key(), b"m", s1)
        assert rsa.pss_verify(key.public_key(), b"m", s2)

    def test_wrong_length_signature(self, key):
        assert not rsa.pss_verify(key.public_key(), b"m", b"short")

    def test_verify_never_raises_on_garbage(self, key):
        garbage = b"\xff" * key.public_key().modulus_bytes
        assert rsa.pss_verify(key.public_key(), b"m", garbage) in (True, False)


class TestPSSEncodingBounds:
    """emLen = ceil((modBits - 1) / 8) is one byte shorter than the
    modulus when modBits = 1 (mod 8), and must hold two digests."""

    @pytest.fixture(scope="class")
    def key_1025(self):
        return rsa.generate_keypair(1025)

    def test_round_trip_when_encoding_is_shorter_than_modulus(self, key_1025):
        signature = rsa.pss_sign(key_1025, b"document")
        assert len(signature) == 129
        assert rsa.pss_verify(key_1025.public_key(), b"document", signature)

    def test_encoding_wider_than_em_bits_is_rejected_not_raised(self, key_1025):
        public = key_1025.public_key()
        # (n - 1)^e = n - 1 for odd e: all 1025 bits set in the recovered
        # encoding, one more than emLen = 128 bytes can hold.
        signature = (public.n - 1).to_bytes(public.modulus_bytes, "big")
        assert rsa.pss_verify(public, b"m", signature) is False

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_verify_returns_a_bool_for_arbitrary_input(self, key, key_1025, data):
        for private_key in (key, key_1025):
            public = private_key.public_key()
            k = public.modulus_bytes
            value = data.draw(
                st.integers(0, public.n - 1) | st.integers(public.n, 256**k - 1)
            )
            assert rsa.pss_verify(public, b"m", value.to_bytes(k, "big")) is False

    @pytest.mark.parametrize("bits", [512, 521])
    def test_modulus_too_short_for_two_digests_cannot_sign(self, bits):
        short = rsa.generate_keypair(bits)
        with pytest.raises(ParameterError):
            rsa.pss_sign(short, b"document")
        garbage = b"\x01" * short.public_key().modulus_bytes
        assert rsa.pss_verify(short.public_key(), b"document", garbage) is False

    def test_shortest_signing_modulus(self):
        shortest = rsa.generate_keypair(522)
        signature = rsa.pss_sign(shortest, b"document")
        assert rsa.pss_verify(shortest.public_key(), b"document", signature)


class TestIndependentOracles:
    """The CRT private-key operation against the textbook exponentiation,
    and both paddings against ``cryptography`` — which is no dependency
    of this project: the cross-checks run where it is installed (here
    and in CI's native-crypto job) and skip elsewhere."""

    @given(st.integers(min_value=0))
    @settings(max_examples=25, deadline=None)
    def test_private_pow_is_value_to_the_d(self, key, raw):
        value = raw % key.n
        assert rsa.private_pow(key, value) == pow(value, key.d, key.n)

    @pytest.fixture(scope="class")
    def reference(self, key):
        pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import padding
        from cryptography.hazmat.primitives.asymmetric import rsa as reference_rsa

        private_key = reference_rsa.RSAPrivateNumbers(
            p=key.p,
            q=key.q,
            d=key.d,
            dmp1=key.d % (key.p - 1),
            dmq1=key.d % (key.q - 1),
            iqmp=pow(key.q, -1, key.p),
            public_numbers=reference_rsa.RSAPublicNumbers(key.e, key.n),
        ).private_key()
        sha256 = hashes.SHA256()
        oaep = padding.OAEP(padding.MGF1(sha256), sha256, label=None)
        pss = padding.PSS(padding.MGF1(sha256), salt_length=32)
        return private_key, oaep, pss, sha256

    @pytest.mark.parametrize("message", [b"", b"session key", b"m" * 62])
    def test_oaep_interoperates(self, key, reference, message):
        reference_key, oaep, _, _ = reference
        assert reference_key.decrypt(
            rsa.oaep_encrypt(key.public_key(), message), oaep
        ) == message
        assert rsa.oaep_decrypt(
            key, reference_key.public_key().encrypt(message, oaep)
        ) == message

    @pytest.mark.parametrize("message", [b"", b"credential", b"m" * 500])
    def test_pss_interoperates(self, key, reference, message):
        reference_key, _, pss, sha256 = reference
        # verify() raises InvalidSignature on a mismatch.
        reference_key.public_key().verify(
            rsa.pss_sign(key, message), message, pss, sha256
        )
        assert rsa.pss_verify(
            key.public_key(), message, reference_key.sign(message, pss, sha256)
        )
