"""Tests for the SHAKE-256 keystream + HMAC-SHA256 authenticated encryption.

Known answers (FIPS 202 SHAKE-256, RFC 4231, ciphertexts committed from
this DEM), a differential check against the construction computed
directly from ``hashlib`` and ``hmac`` in this file, the refusal of every
ciphertext of the previous (ChaCha20) DEM, and the batch API's
all-or-nothing contract.
"""

import hashlib
import hmac
import json
import pathlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import instrumentation, symmetric
from repro.errors import DecryptionError, IntegrityError, ParameterError

#: FIPS 202 SHAKE256 example values: (message, first 64 output bytes).
SHAKE256_KNOWN_ANSWERS = [
    (
        b"",
        "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
        "d75dc4ddd8c0f200cb05019d67b592f6fc821c49479ab48640292eacb3b7c4be",
    ),
    (
        b"abc",
        "483366601360a8771c6863080cc4114d8db44530f8f1e1ee4f94ea37e78b5739"
        "d5a15bef186a5386c75744c0527e1faa9f8726e462a12a4feb06bd8801e751e4",
    ),
]

#: RFC 4231 HMAC-SHA-256 test cases 1-4, 6 and 7 (5 truncates the tag,
#: which nothing here does): (case, key, data, tag).
RFC_4231 = [
    (
        1, b"\x0b" * 20, b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        2, b"Jefe", b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        3, b"\xaa" * 20, b"\xdd" * 50,
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        4, bytes(range(1, 26)), b"\xcd" * 50,
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
    ),
    (
        6, b"\xaa" * 131,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
    ),
    (
        7, b"\xaa" * 131,
        b"This is a test using a larger than block-size key and a larger "
        b"than block-size data. The key needs to be hashed before being "
        b"used by the HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
    ),
]

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
#: Bytes :func:`symmetric.encrypt` adds to a plaintext: nonce and tag.
OVERHEAD = symmetric.NONCE_BYTES + symmetric.TAG_BYTES
#: Ciphertexts of this DEM under a fixed master key.
FIXTURE = json.loads((FIXTURES / "dem_ciphertexts_shake256.json").read_text())
#: Ciphertexts written by the ChaCha20 DEM this one replaced.
CHACHA20_FIXTURE = json.loads(
    (FIXTURES / "dem_ciphertexts_pr17.json").read_text()
)


def fixture_plaintext(length: int) -> bytes:
    """Plaintext of a fixture case: byte i is (7*i + 3) % 256."""
    return bytes((7 * i + 3) % 256 for i in range(length))


def fixture_id(case: dict) -> str:
    return f"{case['length']}B-ad{len(case['associated_data']) // 2}"


def oracle_body(key: symmetric.SessionKey, nonce: bytes, data: bytes) -> bytes:
    """The keystream XOR written out byte by byte."""
    pad = hashlib.shake_256(key.cipher_key + nonce).digest(len(data))
    return bytes(a ^ b for a, b in zip(data, pad))


def oracle_tag(
    key: symmetric.SessionKey, nonce: bytes, body: bytes, associated_data: bytes
) -> bytes:
    """The encrypt-then-MAC tag, fed to ``hmac`` piece by piece."""
    mac = hmac.new(key.mac_key, digestmod=hashlib.sha256)
    mac.update(len(associated_data).to_bytes(8, "big"))
    mac.update(associated_data)
    mac.update(nonce)
    mac.update(body)
    return mac.digest()


def oracle_encrypt(
    key: symmetric.SessionKey,
    nonce: bytes,
    plaintext: bytes,
    associated_data: bytes = b"",
) -> bytes:
    body = oracle_body(key, nonce, plaintext)
    return nonce + body + oracle_tag(key, nonce, body, associated_data)


class TestKernelAgainstOracle:
    """``encrypt_many`` / ``decrypt_many`` and the construction computed
    directly agree byte for byte, batch by batch."""

    #: Around the 136-byte SHAKE-256 rate and the 64-byte block of the
    #: previous cipher, a typical etuple (139 B) and longer bodies.
    LENGTHS = (0, 1, 63, 64, 65, 135, 136, 137, 139, 272, 273, 1000)
    LONG = 16 * 1024 + 37  # more than 16 KiB, and no whole number of rates

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([0, 1, 2, 9, 60]),
        long_items=st.integers(0, 2),
        key_count=st.sampled_from([1, 3]),
        associated_data=st.sampled_from([b"", b"das_tuple/epoch-7"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_batches_match_item_by_item(
        self, seed, size, long_items, key_count, associated_data
    ):
        rng = random.Random(seed)
        lengths = [rng.choice(self.LENGTHS) for _ in range(size)]
        for _ in range(min(size, long_items)):
            lengths[rng.randrange(size)] = self.LONG
        plaintexts = [rng.randbytes(length) for length in lengths]
        keys = [
            symmetric.SessionKey(rng.randbytes(32)) for _ in range(key_count)
        ]
        item_keys = [rng.choice(keys) for _ in plaintexts]

        # Decryption of a mixed-key batch the oracle encrypted ...
        forged = [
            oracle_encrypt(key, rng.randbytes(12), plaintext, associated_data)
            for key, plaintext in zip(item_keys, plaintexts)
        ]
        assert symmetric.decrypt_many(
            item_keys, forged, associated_data
        ) == plaintexts
        # ... and encryption, re-derived from each item's own nonce.
        batch = symmetric.encrypt_many(keys[0], plaintexts, associated_data)
        assert batch == [
            oracle_encrypt(
                keys[0], ciphertext[: symmetric.NONCE_BYTES], plaintext,
                associated_data,
            )
            for ciphertext, plaintext in zip(batch, plaintexts)
        ]

    def test_keystream_is_shake256_of_key_then_nonce(self):
        """An all-zero body encrypts to the bare keystream."""
        key = symmetric.SessionKey(bytes(range(32)))
        ciphertext = symmetric.encrypt(key, bytes(self.LONG))
        nonce = ciphertext[: symmetric.NONCE_BYTES]
        assert ciphertext[symmetric.NONCE_BYTES:-symmetric.TAG_BYTES] == (
            hashlib.shake_256(key.cipher_key + nonce).digest(self.LONG)
        )

    @pytest.mark.parametrize(
        "message,output",
        SHAKE256_KNOWN_ANSWERS,
        ids=[repr(message) for message, _ in SHAKE256_KNOWN_ANSWERS],
    )
    def test_shake256_known_answers(self, message, output):
        assert hashlib.shake_256(message).hexdigest(64) == output


class TestHmacSha256KnownAnswers:
    """``_mac`` and ``SessionKey._expand`` are the standard library's
    one-shot HMAC over SHA-256; pin that composition to RFC 4231."""

    @pytest.mark.parametrize(
        "key,data,tag",
        [case[1:] for case in RFC_4231],
        ids=[f"case-{case[0]}" for case in RFC_4231],
    )
    def test_rfc4231(self, key, data, tag):
        # One-shot, as _mac and _expand call it ...
        assert hmac.digest(key, data, "sha256").hex() == tag
        # ... and fed in pieces, as the oracle of this file does.
        mac = hmac.new(key, digestmod=hashlib.sha256)
        for start in range(0, len(data), 7):
            mac.update(data[start:start + 7])
        assert mac.hexdigest() == tag

    def test_mac_input_layout(self):
        """tag = HMAC(mac_key, len(ad) as 8 bytes BE || ad || nonce || body),
        the same bytes the piecewise construction yields."""
        key = symmetric.SessionKey(bytes(range(32)))
        rng = random.Random(3)
        for length in (0, 1, 139, 16 * 1024 + 1):
            for associated_data in (b"", b"header", rng.randbytes(300)):
                nonce, body = rng.randbytes(12), rng.randbytes(length)
                assert symmetric._mac(
                    key, nonce, body, associated_data
                ) == oracle_tag(key, nonce, body, associated_data)
        ciphertext = symmetric.encrypt(key, b"payload", b"header")
        nonce = ciphertext[: symmetric.NONCE_BYTES]
        body = ciphertext[symmetric.NONCE_BYTES:-symmetric.TAG_BYTES]
        assert ciphertext[-symmetric.TAG_BYTES:] == oracle_tag(
            key, nonce, body, b"header"
        )
        assert body == oracle_body(key, nonce, b"payload")

    @given(
        master=st.binary(min_size=32, max_size=32),
        nonce=st.binary(min_size=12, max_size=12),
        body=st.integers(0, 300).flatmap(
            lambda length: st.binary(min_size=length, max_size=length)
        ),
        associated_data=st.binary(max_size=80),
    )
    @settings(max_examples=300, deadline=None)
    def test_pre_keyed_states_give_the_one_shot_hmac(
        self, master, nonce, body, associated_data
    ):
        """A tag copies the key's inner and outer states keyed once:
        the bytes of ``hmac.digest`` over the same input, which the
        states' reuse must not disturb (the second tag is the first)."""
        key = symmetric.SessionKey(master)
        expected = hmac.digest(
            key.mac_key,
            len(associated_data).to_bytes(8, "big") + associated_data
            + nonce + body,
            "sha256",
        )
        for _ in range(2):
            assert symmetric._mac(key, nonce, body, associated_data) == expected

    def test_pre_keyed_states_stay_out_of_repr_and_equality(self):
        first, second = (symmetric.SessionKey(bytes(range(32))) for _ in range(2))
        assert first == second and hash(first) == hash(second)
        assert "mac_inner" not in repr(first) and "mac_outer" not in repr(first)

    def test_sub_keys_are_labelled_hmacs_of_the_master(self):
        """The labels name the DEM: none of its sub-keys is one the
        ChaCha20 DEM derived from the same master key."""
        master = bytes(range(32))
        key = symmetric.SessionKey(master)
        assert key.cipher_key == hmac.new(
            master, b"repro/dem/shake256-hmac-sha256/cipher", hashlib.sha256
        ).digest()
        assert key.mac_key == hmac.new(
            master, b"repro/dem/shake256-hmac-sha256/mac", hashlib.sha256
        ).digest()
        chacha20_sub_keys = {
            hmac.new(master, label, hashlib.sha256).digest()
            for label in (b"repro/dem/cipher", b"repro/dem/mac")
        }
        assert not chacha20_sub_keys & {key.cipher_key, key.mac_key}


class TestCommittedCiphertexts:
    """The DEM ciphertext format is pinned: a body persisted by this
    DEM (a cached ``comm_tuples`` or ``das_index`` entry, a recorded
    transcript) must still open.  Ciphertexts committed under a fixed
    master key (0 to 1 000 bytes around the sponge rate, with and
    without associated data) decrypt one by one and as batches."""

    MASTER = bytes.fromhex(FIXTURE["master_key"])

    def test_fixture_covers_the_sponge_boundaries(self):
        cases = FIXTURE["cases"]
        assert FIXTURE["dem_id"].encode() == symmetric.DEM_ID
        assert {case["length"] for case in cases} == {
            0, 1, 135, 136, 137, 139, 272, 1000
        }
        assert {bool(case["associated_data"]) for case in cases} == {False, True}

    @pytest.mark.parametrize("case", FIXTURE["cases"], ids=fixture_id)
    def test_decrypts_one_by_one(self, case):
        plaintext = symmetric.decrypt(
            self.MASTER,
            bytes.fromhex(case["ciphertext"]),
            bytes.fromhex(case["associated_data"]),
        )
        assert plaintext == fixture_plaintext(case["length"])

    @pytest.mark.parametrize("with_ad", [False, True])
    def test_decrypts_as_one_batch(self, with_ad):
        cases = [
            c for c in FIXTURE["cases"] if bool(c["associated_data"]) == with_ad
        ]
        key = symmetric.SessionKey(self.MASTER)
        assert symmetric.decrypt_many(
            [key] * len(cases),
            [bytes.fromhex(case["ciphertext"]) for case in cases],
            bytes.fromhex(cases[0]["associated_data"]),
        ) == [fixture_plaintext(case["length"]) for case in cases]


class TestCiphertextsOfThePreviousImplementation:
    """Ciphertexts of the ChaCha20 DEM this one replaced (fixed master
    key, 0 to 1 000 bytes, with and without associated data) are refused
    with :class:`IntegrityError` — never opened to keystream garbage.
    The sub-key labels name the DEM, so the MAC key under which the old
    tags were made is not the one that checks them."""

    MASTER = bytes.fromhex(CHACHA20_FIXTURE["master_key"])

    def test_fixture_covers_the_block_boundaries(self):
        cases = CHACHA20_FIXTURE["cases"]
        assert {case["length"] for case in cases} == {0, 1, 63, 64, 65, 139, 1000}
        assert {bool(case["associated_data"]) for case in cases} == {False, True}

    @pytest.mark.parametrize("case", CHACHA20_FIXTURE["cases"], ids=fixture_id)
    def test_refused_one_by_one(self, case):
        with pytest.raises(IntegrityError):
            symmetric.decrypt(
                self.MASTER,
                bytes.fromhex(case["ciphertext"]),
                bytes.fromhex(case["associated_data"]),
            )

    def test_refused_as_one_batch(self):
        cases = [c for c in CHACHA20_FIXTURE["cases"] if not c["associated_data"]]
        key = symmetric.SessionKey(self.MASTER)
        with mock.patch.object(symmetric, "_xor") as kernel:
            with pytest.raises(IntegrityError):
                symmetric.decrypt_many(
                    [key] * len(cases),
                    [bytes.fromhex(case["ciphertext"]) for case in cases],
                )
        kernel.assert_not_called()


class TestAuthenticatedEncryption:
    def test_round_trip(self):
        key = symmetric.generate_key()
        ct = symmetric.encrypt(key, b"hello world")
        assert symmetric.decrypt(key, ct) == b"hello world"

    def test_empty_plaintext(self):
        key = symmetric.generate_key()
        assert symmetric.decrypt(key, symmetric.encrypt(key, b"")) == b""

    @given(st.binary(max_size=2048))
    def test_round_trip_property(self, plaintext):
        key = bytes(range(32))
        assert symmetric.decrypt(key, symmetric.encrypt(key, plaintext)) == plaintext

    def test_associated_data_binding(self):
        key = symmetric.generate_key()
        ct = symmetric.encrypt(key, b"payload", b"header-1")
        assert symmetric.decrypt(key, ct, b"header-1") == b"payload"
        with pytest.raises(IntegrityError):
            symmetric.decrypt(key, ct, b"header-2")

    def test_tamper_detection_every_byte_region(self):
        key = symmetric.generate_key()
        ct = bytearray(symmetric.encrypt(key, b"sensitive data"))
        for position in (0, symmetric.NONCE_BYTES, len(ct) - 1):
            mutated = bytearray(ct)
            mutated[position] ^= 0x01
            with pytest.raises(IntegrityError):
                symmetric.decrypt(key, bytes(mutated))

    def test_wrong_key_rejected(self):
        ct = symmetric.encrypt(symmetric.generate_key(), b"data")
        with pytest.raises(IntegrityError):
            symmetric.decrypt(symmetric.generate_key(), ct)

    def test_truncated_ciphertext(self):
        with pytest.raises(DecryptionError):
            symmetric.decrypt(symmetric.generate_key(), b"tiny")

    def test_nondeterministic_ciphertexts(self):
        key = symmetric.generate_key()
        assert symmetric.encrypt(key, b"x") != symmetric.encrypt(key, b"x")

    def test_bad_key_size(self):
        with pytest.raises(ParameterError):
            symmetric.encrypt(b"short", b"x")

    def test_overhead_constant(self):
        key = symmetric.generate_key()
        ct = symmetric.encrypt(key, b"y" * 100)
        assert len(ct) - 100 == OVERHEAD


class TestBatch:
    """``encrypt_many`` / ``decrypt_many``: the item-by-item functions,
    batched, and all-or-nothing on the way in."""

    KEY = symmetric.SessionKey(bytes(range(32)))
    PLAINTEXTS = [bytes([i]) * length for i, length in enumerate(
        [0, 1, 63, 64, 65, 139, 1000, 16 * 1024 + 1]
    )]

    def test_batch_and_single_calls_decrypt_each_other(self):
        batch = symmetric.encrypt_many(self.KEY, self.PLAINTEXTS, b"ad")
        assert [
            symmetric.decrypt(self.KEY, ciphertext, b"ad") for ciphertext in batch
        ] == self.PLAINTEXTS
        singles = [symmetric.encrypt(self.KEY, p, b"ad") for p in self.PLAINTEXTS]
        assert symmetric.decrypt_many(
            [self.KEY] * len(singles), singles, b"ad"
        ) == self.PLAINTEXTS

    def test_empty_batch(self):
        with instrumentation.count_primitives() as counter:
            assert symmetric.encrypt_many(self.KEY, []) == []
            assert symmetric.decrypt_many([], []) == []
        assert not counter.counts

    def test_accepts_any_iterable_of_plaintexts(self):
        batch = symmetric.encrypt_many(self.KEY, (p for p in self.PLAINTEXTS))
        assert len(batch) == len(self.PLAINTEXTS)

    def test_layout_is_nonce_body_tag(self):
        for plaintext, ciphertext in zip(
            self.PLAINTEXTS, symmetric.encrypt_many(self.KEY, self.PLAINTEXTS)
        ):
            assert len(ciphertext) == len(plaintext) + OVERHEAD
            nonce = ciphertext[: symmetric.NONCE_BYTES]
            body = ciphertext[symmetric.NONCE_BYTES:-symmetric.TAG_BYTES]
            assert body == oracle_body(self.KEY, nonce, plaintext)
            assert ciphertext[-symmetric.TAG_BYTES:] == oracle_tag(
                self.KEY, nonce, body, b""
            )

    def test_nonces_are_pairwise_distinct_across_a_batch(self):
        batch = symmetric.encrypt_many(self.KEY, [b"same"] * 500)
        assert len({c[: symmetric.NONCE_BYTES] for c in batch}) == 500
        assert len(set(batch)) == 500

    def test_a_batch_may_mix_session_keys(self):
        keys = [symmetric.SessionKey(bytes([i]) * 32) for i in range(5)]
        batch = [
            symmetric.encrypt(key, b"row-%d" % i) for i, key in enumerate(keys)
        ]
        assert symmetric.decrypt_many(keys, batch) == [
            b"row-%d" % i for i in range(5)
        ]
        with pytest.raises(IntegrityError):
            symmetric.decrypt_many(keys[::-1], batch)

    @pytest.mark.parametrize("tampered", [0, 3, 7])
    def test_one_tampered_item_releases_no_plaintext(self, tampered):
        batch = symmetric.encrypt_many(self.KEY, self.PLAINTEXTS)
        forged = bytearray(batch[tampered])
        forged[len(forged) // 2] ^= 0x01
        batch[tampered] = bytes(forged)
        keys = [self.KEY] * len(batch)
        # Every tag is checked before any keystream exists: the kernel is
        # never entered, so not even the untampered items are decrypted.
        with mock.patch.object(symmetric, "_xor") as kernel:
            with pytest.raises(IntegrityError):
                symmetric.decrypt_many(keys, batch)
        kernel.assert_not_called()
        # The other items are still good ciphertexts, one by one.
        for position, ciphertext in enumerate(batch):
            if position == tampered:
                with pytest.raises(IntegrityError):
                    symmetric.decrypt(self.KEY, ciphertext)
            else:
                assert (
                    symmetric.decrypt(self.KEY, ciphertext)
                    == self.PLAINTEXTS[position]
                )

    def test_a_too_short_item_fails_the_batch(self):
        batch = symmetric.encrypt_many(self.KEY, [b"a", b"b"])
        batch.append(bytes(OVERHEAD - 1))
        with pytest.raises(DecryptionError):
            symmetric.decrypt_many([self.KEY] * 3, batch)

    def test_needs_one_key_per_ciphertext(self):
        batch = symmetric.encrypt_many(self.KEY, [b"a", b"b"])
        with pytest.raises(ParameterError):
            symmetric.decrypt_many([self.KEY], batch)

    def test_primitives_are_counted_once_per_item(self):
        with instrumentation.count_primitives() as counter:
            batch = symmetric.encrypt_many(self.KEY, self.PLAINTEXTS)
            symmetric.decrypt_many([self.KEY] * len(batch), batch)
        assert dict(counter.counts) == {
            "symmetric.encrypt": len(self.PLAINTEXTS),
            "symmetric.decrypt": len(self.PLAINTEXTS),
        }
