"""Tests for the hybrid (KEM/DEM) encryption scheme."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import hybrid, instrumentation, rsa, symmetric
from repro.crypto.engine import CryptoEngine
from repro.errors import DecryptionError, IntegrityError


@pytest.fixture(scope="module")
def key(rsa_key):
    return rsa_key


@pytest.fixture(scope="module")
def second_key():
    return rsa.generate_keypair(1024)


class TestHybrid:
    def test_round_trip(self, key):
        ct = hybrid.encrypt([key.public_key()], b"the partial result")
        assert hybrid.decrypt(key, ct) == b"the partial result"

    def test_large_payload(self, key):
        payload = b"tuple-data" * 10_000
        ct = hybrid.encrypt([key.public_key()], payload)
        assert hybrid.decrypt(key, ct) == payload

    def test_multiple_recipients(self, key, second_key):
        ct = hybrid.encrypt([key.public_key(), second_key.public_key()], b"shared")
        assert hybrid.decrypt(key, ct) == b"shared"
        assert hybrid.decrypt(second_key, ct) == b"shared"
        assert len(ct.wrapped_keys) == 2

    def test_non_recipient_cannot_decrypt(self, key, second_key):
        ct = hybrid.encrypt([key.public_key()], b"private")
        with pytest.raises(DecryptionError):
            hybrid.decrypt(second_key, ct)

    def test_no_recipients_rejected(self):
        with pytest.raises(DecryptionError):
            hybrid.encrypt([], b"data")

    def test_associated_data(self, key):
        ct = hybrid.encrypt([key.public_key()], b"payload", b"msg-header")
        assert hybrid.decrypt(key, ct, b"msg-header") == b"payload"
        with pytest.raises(IntegrityError):
            hybrid.decrypt(key, ct, b"other-header")

    def test_tampered_body_detected(self, key):
        ct = hybrid.encrypt([key.public_key()], b"payload")
        body = bytearray(ct.body)
        body[-1] ^= 0x01
        tampered = hybrid.HybridCiphertext(ct.wrapped_keys, bytes(body))
        with pytest.raises(IntegrityError):
            hybrid.decrypt(key, tampered)

    def test_size_accounting(self, key):
        ct = hybrid.encrypt([key.public_key()], b"x" * 100)
        assert ct.size_bytes() >= 100 + hybrid.wrapped_key_size(key.public_key())

    @given(st.binary(max_size=512))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, key, payload):
        ct = hybrid.encrypt([key.public_key()], payload)
        assert hybrid.decrypt(key, ct) == payload

    def test_fingerprint_stability(self, key):
        assert hybrid.key_fingerprint(key.public_key()) == hybrid.key_fingerprint(
            key.public_key()
        )

    def test_fingerprint_distinct_keys(self, key, second_key):
        assert hybrid.key_fingerprint(key.public_key()) != hybrid.key_fingerprint(
            second_key.public_key()
        )


class TestSharedSession:
    """One encapsulation per session: N ciphertexts, one wrapped key."""

    COUNT = 12

    @pytest.fixture
    def ciphertexts(self, key):
        session = hybrid.new_session([key.public_key()])
        return [session.encrypt(b"row-%d" % i) for i in range(self.COUNT)]

    def test_ciphertexts_share_one_wrapped_blob(self, key, ciphertexts):
        assert len({id(ct.wrapped_keys) for ct in ciphertexts}) == 1
        fp = hybrid.key_fingerprint(key.public_key())
        assert len({ct.wrapped_keys[fp] for ct in ciphertexts}) == 1

    def test_nonces_are_pairwise_distinct(self, ciphertexts):
        nonces = {ct.body[: symmetric.NONCE_BYTES] for ct in ciphertexts}
        assert len(nonces) == self.COUNT

    def test_each_decrypts_independently_in_any_order(self, key, ciphertexts):
        order = list(range(self.COUNT))
        random.Random(7).shuffle(order)
        for position in order:
            assert hybrid.decrypt(key, ciphertexts[position]) == b"row-%d" % position
        shuffled = [ciphertexts[position] for position in order]
        assert CryptoEngine(workers=0).batch_hybrid_decrypt(key, shuffled) == [
            b"row-%d" % position for position in order
        ]

    def test_wrap_and_unwrap_happen_once(self, key):
        engine = CryptoEngine(workers=0)
        plaintexts = [b"row-%d" % i for i in range(self.COUNT)]
        with instrumentation.count_primitives() as counter:
            ciphertexts = engine.batch_hybrid_encrypt(
                hybrid.new_session([key.public_key()]), plaintexts
            )
            assert engine.batch_hybrid_decrypt(key, ciphertexts) == plaintexts
        assert counter.counts["rsa.encrypt"] == 1
        assert counter.counts["rsa.decrypt"] == 1
        assert counter.counts["symmetric.encrypt"] == self.COUNT
        assert counter.counts["symmetric.decrypt"] == self.COUNT

    def test_associated_data_still_binds(self, key):
        session = hybrid.new_session([key.public_key()])
        ct = session.encrypt(b"payload", b"header")
        assert hybrid.decrypt(key, ct, b"header") == b"payload"
        with pytest.raises(IntegrityError):
            hybrid.decrypt(key, ct, b"other")

    def test_tampered_body_fails_that_item_only(self, key, ciphertexts):
        body = bytearray(ciphertexts[3].body)
        body[-1] ^= 0x01
        ciphertexts[3] = hybrid.HybridCiphertext(
            ciphertexts[3].wrapped_keys, bytes(body)
        )
        for position, ct in enumerate(ciphertexts):
            if position == 3:
                with pytest.raises(IntegrityError):
                    hybrid.decrypt(key, ct)
            else:
                assert hybrid.decrypt(key, ct) == b"row-%d" % position

    def test_tampered_encapsulation_fails_the_whole_batch(self, key, ciphertexts):
        fp = hybrid.key_fingerprint(key.public_key())
        blob = bytearray(ciphertexts[0].wrapped_keys[fp])
        blob[len(blob) // 2] ^= 0x01
        forged = hybrid.Encapsulation({fp: bytes(blob)})
        batch = [hybrid.HybridCiphertext(forged, ct.body) for ct in ciphertexts]
        with pytest.raises(DecryptionError):
            CryptoEngine(workers=0).batch_hybrid_decrypt(key, batch)

    def test_encrypt_is_a_session_of_one(self, key):
        first = hybrid.encrypt([key.public_key()], b"a")
        second = hybrid.encrypt([key.public_key()], b"a")
        assert first.wrapped_keys.digest() != second.wrapped_keys.digest()

    def test_encapsulation_digest_tracks_content_not_identity(self):
        wraps = {b"fp-1": b"blob-1", b"fp-2": b"blob-2"}
        assert (
            hybrid.Encapsulation(wraps).digest()
            == hybrid.Encapsulation(dict(reversed(wraps.items()))).digest()
        )
        assert (
            hybrid.Encapsulation(wraps).digest()
            != hybrid.Encapsulation({**wraps, b"fp-2": b"blob-3"}).digest()
        )


class TestSessionKeyMemo:
    def test_a_remembered_session_costs_no_private_operation(self, key):
        engine = CryptoEngine(workers=0)
        memo = hybrid.SessionKeyMemo()
        ciphertexts = engine.batch_hybrid_encrypt(
            hybrid.new_session([key.public_key()]), [b"x", b"y"]
        )
        with instrumentation.count_primitives() as counter:
            for _ in range(3):
                assert engine.batch_hybrid_decrypt(
                    key, ciphertexts, session_keys=memo
                ) == [b"x", b"y"]
        assert counter.counts["rsa.decrypt"] == 1

    def test_memo_is_bounded_and_evicts_least_recently_used(self):
        memo = hybrid.SessionKeyMemo(capacity=2)
        keys = [symmetric.SessionKey(bytes([i]) * 32) for i in range(3)]
        memo[b"a"], memo[b"b"] = keys[0], keys[1]
        assert memo.get(b"a") is keys[0]  # refreshes "a"
        memo[b"c"] = keys[2]
        assert len(memo) == 2
        assert memo.get(b"b") is None
        assert memo.get(b"a") is keys[0] and memo.get(b"c") is keys[2]

    def test_key_material_stays_out_of_repr(self):
        master = bytes(range(32))
        session_key = symmetric.SessionKey(master)
        for secret in (master, session_key.cipher_key, session_key.mac_key):
            assert secret.hex() not in repr(session_key)
            assert repr(secret) not in repr(session_key)


class TestSessionLayer:
    def test_session_round_trip(self):
        session_key = bytes(range(32))
        ct = hybrid.session_encrypt(session_key, b"side-table entry")
        assert hybrid.session_decrypt(session_key, ct) == b"side-table entry"

    def test_session_wrong_key(self):
        ct = hybrid.session_encrypt(bytes(32), b"entry")
        with pytest.raises(IntegrityError):
            hybrid.session_decrypt(bytes(range(32)), ct)
