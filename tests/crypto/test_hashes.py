"""Tests for the hash constructions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import groups, hashes
from repro.errors import ParameterError


class TestCollisionFreeHash:
    def test_deterministic(self):
        assert hashes.collision_free_hash(b"x") == hashes.collision_free_hash(b"x")

    def test_distinct_inputs(self):
        assert hashes.collision_free_hash(b"x") != hashes.collision_free_hash(b"y")

    def test_tag_separation(self):
        assert hashes.collision_free_hash(b"x", b"tag-a") != (
            hashes.collision_free_hash(b"x", b"tag-b")
        )

    def test_length(self):
        assert len(hashes.collision_free_hash(b"x")) == 32


class TestExpand:
    def test_lengths(self):
        for n in (0, 1, 31, 32, 33, 100):
            assert len(hashes.expand(b"seed", n)) == n

    def test_prefix_consistency(self):
        long = hashes.expand(b"seed", 64)
        short = hashes.expand(b"seed", 16)
        assert long[:16] == short

    def test_distinct_seeds(self):
        assert hashes.expand(b"a", 32) != hashes.expand(b"b", 32)

    def test_negative_length(self):
        with pytest.raises(ParameterError):
            hashes.expand(b"seed", -1)


class TestHashToRange:
    def test_in_range(self):
        for n in (2, 17, 2**64, 2**256):
            assert 0 <= hashes.hash_to_range(b"data", n) < n

    def test_deterministic(self):
        assert hashes.hash_to_range(b"d", 1000) == hashes.hash_to_range(b"d", 1000)

    def test_invalid_modulus(self):
        with pytest.raises(ParameterError):
            hashes.hash_to_range(b"d", 0)

    def test_spread(self):
        outputs = {hashes.hash_to_range(str(i).encode(), 10**9) for i in range(100)}
        assert len(outputs) == 100


class TestIdealHash:
    @pytest.fixture(scope="class")
    def group(self):
        return groups.commutative_group(128)

    def test_output_is_quadratic_residue(self, group):
        h = hashes.IdealHash(group.p)
        for i in range(50):
            assert group.contains(h(f"input-{i}".encode()))

    def test_deterministic_across_instances(self, group):
        # Both datasources construct their own instance; equal parameters
        # must yield equal hashes (the protocol's matching soundness).
        h1, h2 = hashes.IdealHash(group.p), hashes.IdealHash(group.p)
        assert h1(b"patient-42") == h2(b"patient-42")
        assert h1 == h2

    def test_tag_separation(self, group):
        h1 = hashes.IdealHash(group.p, tag=b"run-1")
        h2 = hashes.IdealHash(group.p, tag=b"run-2")
        assert h1(b"x") != h2(b"x")
        assert h1 != h2

    @given(st.binary(min_size=1, max_size=128))
    @settings(max_examples=50, deadline=None)
    def test_always_in_group(self, group, data):
        h = hashes.IdealHash(group.p)
        assert group.contains(h(data))

    def test_no_collisions_on_sample(self, group):
        h = hashes.IdealHash(group.p)
        outputs = [h(f"v{i}".encode()) for i in range(200)]
        assert len(set(outputs)) == 200

    def test_small_modulus_rejected(self):
        with pytest.raises(ParameterError):
            hashes.IdealHash(5)


class TestFingerprint:
    def test_stable_and_short(self):
        assert hashes.fingerprint(b"key") == hashes.fingerprint(b"key")
        assert len(hashes.fingerprint(b"key")) == 16
        assert len(hashes.fingerprint(b"key", length=8)) == 8

    def test_distinct(self):
        assert hashes.fingerprint(b"a") != hashes.fingerprint(b"b")


class TestMatchDigest:
    @pytest.mark.parametrize("bits", [128, 2048])
    def test_sixteen_bytes_and_deterministic(self, bits):
        group = groups.commutative_group(bits)
        element = group.random_element()
        digest = hashes.match_digest(element, group.p)
        assert len(digest) == hashes.MATCH_DIGEST_BYTES == 16
        assert hashes.match_digest(element, group.p) == digest

    def test_never_wider_than_the_smallest_group_element(self):
        smallest = groups.commutative_group(128).p
        assert hashes.MATCH_DIGEST_BYTES <= smallest.bit_length() // 8

    def test_hashes_the_fixed_width_encoding_under_its_own_tag(self):
        p = groups.commutative_group(128).p
        encoding = (4).to_bytes(16, "big")
        digest = hashes.match_digest(4, p)
        assert digest == hashes._sha256(hashes.TAG_MATCH, encoding)[:16]
        assert digest != hashes.fingerprint(encoding)
        assert digest != hashes.collision_free_hash(encoding)[:16]

    def test_distinct_elements_distinct_digests(self):
        group = groups.commutative_group(128)
        elements = {group.random_element() for _ in range(200)}
        digests = {hashes.match_digest(x, group.p) for x in elements}
        assert len(digests) == len(elements)
