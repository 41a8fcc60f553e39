"""Tests for the ChaCha20 + HMAC authenticated encryption.

Known answers (RFC 7539, RFC 4231, ciphertexts written by the previous
implementation), a differential check of the lane-packed kernel against
the block-at-a-time reference in ``chacha20_oracle.py``, and the batch
API's all-or-nothing contract.
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
from tests.crypto import chacha20_oracle as oracle

# RFC 7539 section 2.3.2 test vector.
RFC_KEY = bytes(range(32))
RFC_NONCE = bytes.fromhex("000000090000004a00000000")
RFC_BLOCK_1 = bytes.fromhex(
    "10f1e7e4d13b5915500fdd1fa32071c4"
    "c7d1f4c733c068030422aa9ac3d46c4e"
    "d2826446079faa0914c2d705d98b02a2"
    "b5129cd1de164eb9cbd083e8a2503c4e"
)

# RFC 7539 section 2.4.2 encryption test vector.
RFC_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
RFC_ENC_NONCE = bytes.fromhex("000000000000004a00000000")
RFC_CIPHERTEXT = bytes.fromhex(
    "6e2e359a2568f98041ba0728dd0d6981"
    "e97e7aec1d4360c20a27afccfd9fae0b"
    "f91b65c5524733ab8f593dabcd62b357"
    "1639d624e65152ab8f530c359f0861d8"
    "07ca0dbf500d6a6156a38e088a22b65e"
    "52bc514d16ccf806818ce91ab7793736"
    "5af90bbf74a35be6b40b8eedf2785e42"
    "874d"
)

ZERO_KEY = bytes(32)
ZERO_NONCE = bytes(12)
KEY_ENDING_01 = bytes(31) + b"\x01"
NONCE_ENDING_02 = bytes(11) + b"\x02"

#: RFC 7539 appendix A.1, test vectors #1-#5: (key, counter, nonce, block).
RFC_A1_BLOCKS = [
    (
        ZERO_KEY, 0, ZERO_NONCE,
        "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
        "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586",
    ),
    (
        ZERO_KEY, 1, ZERO_NONCE,
        "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
        "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f",
    ),
    (
        KEY_ENDING_01, 1, ZERO_NONCE,
        "3aeb5224ecf849929b9d828db1ced4dd832025e8018b8160b82284f3c949aa5a"
        "8eca00bbb4a73bdad192b5c42f73f2fd4e273644c8b36125a64addeb006c13a0",
    ),
    (
        b"\x00\xff" + bytes(30), 2, ZERO_NONCE,
        "72d54dfbf12ec44b362692df94137f328fea8da73990265ec1bbbea1ae9af0ca"
        "13b25aa26cb4a648cb9b9d1be65b2c0924a66c54d545ec1b7374f4872e99f096",
    ),
    (
        ZERO_KEY, 0, NONCE_ENDING_02,
        "c2c64d378cd536374ae204b9ef933fcd1a8b2288b3dfa49672ab765b54ee27c7"
        "8a970e0e955c14f3a88e741b97c286f75f8fc299e8148362fa198a39531bed6d",
    ),
]

#: RFC 7539 appendix A.2, test vectors #1-#3:
#: (key, counter, nonce, plaintext, ciphertext).
RFC_A2_ENCRYPTIONS = [
    (ZERO_KEY, 0, ZERO_NONCE, bytes(64), RFC_A1_BLOCKS[0][3]),
    (
        KEY_ENDING_01, 1, NONCE_ENDING_02,
        b"Any submission to the IETF intended by the Contributor for "
        b"publication as all or part of an IETF Internet-Draft or RFC and "
        b"any statement made within the context of an IETF activity is "
        b'considered an "IETF Contribution". Such statements include oral '
        b"statements in IETF sessions, as well as written and electronic "
        b"communications made at any time or place, which are addressed to",
        "a3fbf07df3fa2fde4f376ca23e82737041605d9f4f4f57bd8cff2c1d4b7955ec"
        "2a97948bd3722915c8f3d337f7d370050e9e96d647b7c39f56e031ca5eb6250d"
        "4042e02785ececfa4b4bb5e8ead0440e20b6e8db09d881a7c6132f420e527950"
        "42bdfa7773d8a9051447b3291ce1411c680465552aa6c405b7764d5e87bea85a"
        "d00f8449ed8f72d0d662ab052691ca66424bc86d2df80ea41f43abf937d3259d"
        "c4b2d0dfb48a6c9139ddd7f76966e928e635553ba76c5c879d7b35d49eb2e62b"
        "0871cdac638939e25e8a1e0ef9d5280fa8ca328b351c3c765989cbcf3daa8b6c"
        "cc3aaf9f3979c92b3720fc88dc95ed84a1be059c6499b9fda236e7e818b04b0b"
        "c39c1e876b193bfe5569753f88128cc08aaa9b63d1a16f80ef2554d7189c411f"
        "5869ca52c5b83fa36ff216b9c1d30062bebcfd2dc5bce0911934fda79a86f6e6"
        "98ced759c3ff9b6477338f3da4f9cd8514ea9982ccafb341b2384dd902f3d1ab"
        "7ac61dd29c6f21ba5b862f3730e37cfdc4fd806c22f221",
    ),
    (
        bytes.fromhex(
            "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0"
        ),
        42, NONCE_ENDING_02,
        b"'Twas brillig, and the slithy toves\nDid gyre and gimble in the "
        b"wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.",
        "62e6347f95ed87a45ffae7426f27a1df5fb69110044c0d73118effa95b01e5cf"
        "166d3df2d721caf9b21e5fb14c616871fd84c54f9d65b283196c7fe4f60553eb"
        "f39c6402c42234e32a356b3e764312a61a5532055716ead6962568f87d3f3f77"
        "04c6a8d1bcd1bf4d50d6154b6da731b187b58dfd728afa36757a797ac188d1",
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

#: Ciphertexts written by ``symmetric.encrypt`` before the kernel change.
PARENT_FIXTURE = json.loads(
    (
        pathlib.Path(__file__).parent / "fixtures" / "dem_ciphertexts_pr17.json"
    ).read_text()
)


class TestChaCha20Core:
    def test_rfc7539_block(self):
        assert symmetric.chacha20_block(RFC_KEY, 1, RFC_NONCE) == RFC_BLOCK_1

    def test_rfc7539_encryption(self):
        out = symmetric.chacha20_xor(RFC_KEY, RFC_ENC_NONCE, RFC_PLAINTEXT, counter=1)
        assert out == RFC_CIPHERTEXT

    @pytest.mark.parametrize(
        "key,counter,nonce,block", RFC_A1_BLOCKS, ids=["#1", "#2", "#3", "#4", "#5"]
    )
    def test_rfc7539_appendix_a1_keystream(self, key, counter, nonce, block):
        assert symmetric.chacha20_block(key, counter, nonce).hex() == block

    @pytest.mark.parametrize(
        "key,counter,nonce,plaintext,ciphertext",
        RFC_A2_ENCRYPTIONS,
        ids=["#1", "#2", "#3"],
    )
    def test_rfc7539_appendix_a2_encryption(
        self, key, counter, nonce, plaintext, ciphertext
    ):
        out = symmetric.chacha20_xor(key, nonce, plaintext, counter=counter)
        assert out.hex() == ciphertext

    def test_xor_is_involution(self):
        data = b"attack at dawn" * 10
        nonce = bytes(12)
        once = symmetric.chacha20_xor(RFC_KEY, nonce, data)
        assert symmetric.chacha20_xor(RFC_KEY, nonce, once) == data

    def test_bad_key_length(self):
        with pytest.raises(ParameterError):
            symmetric.chacha20_block(b"short", 0, bytes(12))

    def test_bad_nonce_length(self):
        with pytest.raises(ParameterError):
            symmetric.chacha20_block(RFC_KEY, 0, bytes(8))

    def test_block_counter_does_not_wrap(self):
        """The second block would sit at counter 2^32, i.e. reuse the
        keystream of counter 0: refused, not wrapped."""
        last = 2**32 - 1
        with pytest.raises(ParameterError):
            symmetric.chacha20_xor(RFC_KEY, RFC_NONCE, bytes(128), counter=last)
        with pytest.raises(ParameterError):
            symmetric.chacha20_block(RFC_KEY, 2**32, RFC_NONCE)
        with pytest.raises(ParameterError):
            symmetric.chacha20_block(RFC_KEY, -1, RFC_NONCE)
        # One block *at* the last counter is legitimate.
        assert symmetric.chacha20_xor(
            RFC_KEY, RFC_NONCE, bytes(64), counter=last
        ) == oracle.chacha20_block(RFC_KEY, last, RFC_NONCE)


def _jobs(rng: random.Random, lengths: list[int]) -> list[tuple]:
    """One ``(key, nonce, counter, data)`` kernel job per length, every
    lane with a key, a nonce and a start counter of its own."""
    jobs = []
    for length in lengths:
        last = 2**32 - max(1, -(-length // 64))  # highest start that fits
        counter = min(last, rng.choice([0, 1, rng.randrange(2**32), last]))
        jobs.append(
            (rng.randbytes(32), rng.randbytes(12), counter, rng.randbytes(length))
        )
    return jobs


class TestKernelAgainstOracle:
    """The lane-packed kernel and the RFC transcription agree bit for bit."""

    LENGTHS = (0, 1, 63, 64, 65, 127, 128, 129, 139, 1000)
    LONG = 16 * 1024 + 37  # more than 16 KiB, and no whole number of blocks

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([0, 1, 2, 9, 500]),
        long_items=st.integers(0, 2),
        max_lanes=st.sampled_from([1, 5, symmetric._MAX_LANES]),
    )
    @settings(max_examples=30, deadline=None)
    def test_batches_match_item_by_item(self, seed, size, long_items, max_lanes):
        rng = random.Random(seed)
        lengths = [rng.choice(self.LENGTHS) for _ in range(size)]
        for _ in range(min(size, long_items)):
            lengths[rng.randrange(size)] = self.LONG
        jobs = _jobs(rng, lengths)
        # A small lane bound makes messages straddle kernel passes.
        with mock.patch.object(symmetric, "_MAX_LANES", max_lanes):
            got = symmetric._xor_many(jobs)
        assert got == [
            oracle.chacha20_xor(key, nonce, data, counter)
            for key, nonce, counter, data in jobs
        ]

    def test_a_body_longer_than_one_pass(self):
        key, nonce, counter, data = _jobs(
            random.Random(7), [64 * symmetric._MAX_LANES + 65]
        )[0]
        assert symmetric.chacha20_xor(key, nonce, data, counter) == (
            oracle.chacha20_xor(key, nonce, data, counter)
        )

    def test_against_the_cryptography_package(self):
        """A third, independent implementation (OpenSSL's).  The package
        is no dependency of this project: the check runs where it happens
        to be installed (CI's native-crypto job installs it) and skips
        elsewhere."""
        pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

        jobs = _jobs(random.Random(11), [*self.LENGTHS, self.LONG] * 3)
        expected = []
        for key, nonce, counter, data in jobs:
            # cryptography's 16-byte nonce is LE block counter || nonce.
            algorithm = algorithms.ChaCha20(key, counter.to_bytes(4, "little") + nonce)
            expected.append(Cipher(algorithm, mode=None).encryptor().update(data))
        assert symmetric._xor_many(jobs) == expected


class TestHmacSha256KnownAnswers:
    """``_mac`` and ``SessionKey._expand`` are the standard library's
    HMAC over SHA-256; pin that composition to RFC 4231."""

    @pytest.mark.parametrize(
        "key,data,tag",
        [case[1:] for case in RFC_4231],
        ids=[f"case-{case[0]}" for case in RFC_4231],
    )
    def test_rfc4231(self, key, data, tag):
        # One-shot, as _expand calls it ...
        assert hmac.new(key, data, hashlib.sha256).hexdigest() == tag
        # ... and fed in pieces, as _mac does.
        mac = hmac.new(key, digestmod=hashlib.sha256)
        for start in range(0, len(data), 7):
            mac.update(data[start:start + 7])
        assert mac.hexdigest() == tag

    def test_mac_input_layout(self):
        """tag = HMAC(mac_key, len(ad) as 8 bytes BE || ad || nonce || body)."""
        key = symmetric.SessionKey(bytes(range(32)))
        ciphertext = symmetric.encrypt(key, b"payload", b"header")
        nonce = ciphertext[: symmetric.NONCE_BYTES]
        body = ciphertext[symmetric.NONCE_BYTES:-symmetric.TAG_BYTES]
        material = (6).to_bytes(8, "big") + b"header" + nonce + body
        assert ciphertext[-symmetric.TAG_BYTES:] == hmac.new(
            key.mac_key, material, hashlib.sha256
        ).digest()
        assert body == oracle.chacha20_xor(key.cipher_key, nonce, b"payload")

    def test_sub_keys_are_labelled_hmacs_of_the_master(self):
        master = bytes(range(32))
        key = symmetric.SessionKey(master)
        assert key.cipher_key == hmac.new(
            master, b"repro/dem/cipher", hashlib.sha256
        ).digest()
        assert key.mac_key == hmac.new(
            master, b"repro/dem/mac", hashlib.sha256
        ).digest()


class TestCiphertextsOfThePreviousImplementation:
    """The DEM ciphertext layout is pinned: a body persisted by an older
    build (a cached ``comm_tuples`` or ``das_index`` entry, a recorded
    transcript) must still open.  Ciphertexts written by the kernel the
    lane-packed one replaced (fixed master key, 0 to 1 000 bytes, with
    and without associated data) decrypt under the current one."""

    MASTER = bytes.fromhex(PARENT_FIXTURE["master_key"])

    @staticmethod
    def plaintext(length: int) -> bytes:
        return bytes((7 * i + 3) % 256 for i in range(length))

    def test_fixture_covers_the_block_boundaries(self):
        cases = PARENT_FIXTURE["cases"]
        assert {case["length"] for case in cases} == {0, 1, 63, 64, 65, 139, 1000}
        assert {bool(case["associated_data"]) for case in cases} == {False, True}

    @pytest.mark.parametrize(
        "case",
        PARENT_FIXTURE["cases"],
        ids=lambda case: f"{case['length']}B-ad{len(case['associated_data']) // 2}",
    )
    def test_decrypts_one_by_one(self, case):
        plaintext = symmetric.decrypt(
            self.MASTER,
            bytes.fromhex(case["ciphertext"]),
            bytes.fromhex(case["associated_data"]),
        )
        assert plaintext == self.plaintext(case["length"])

    def test_decrypts_as_one_batch(self):
        cases = [c for c in PARENT_FIXTURE["cases"] if not c["associated_data"]]
        key = symmetric.SessionKey(self.MASTER)
        assert symmetric.decrypt_many(
            [key] * len(cases),
            [bytes.fromhex(case["ciphertext"]) for case in cases],
        ) == [self.plaintext(case["length"]) for case in cases]


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
        assert len(ct) - 100 == symmetric.ciphertext_overhead()


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
            assert len(ciphertext) == len(plaintext) + symmetric.ciphertext_overhead()
            nonce = ciphertext[: symmetric.NONCE_BYTES]
            body = ciphertext[symmetric.NONCE_BYTES:-symmetric.TAG_BYTES]
            assert body == oracle.chacha20_xor(self.KEY.cipher_key, nonce, plaintext)

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
        with mock.patch.object(symmetric, "_xor_many") as kernel:
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
        batch.append(bytes(symmetric.ciphertext_overhead() - 1))
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
