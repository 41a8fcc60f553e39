"""Tests for the SRA commutative cipher over QR_p."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import commutative as comm
from repro.crypto import groups, instrumentation
from repro.crypto.hashes import IdealHash
from repro.errors import KeyError_, ParameterError


@pytest.fixture(scope="module")
def group():
    return groups.commutative_group(128)


@pytest.fixture(scope="module")
def ideal_hash(group):
    return IdealHash(group.p)


class TestGroup:
    def test_small_modulus_rejected(self):
        with pytest.raises(ParameterError):
            comm.CommutativeGroup(7)

    def test_non_safe_shape_rejected(self):
        # 29 is prime but 29 % 4 == 1, so it cannot be a safe prime > 5.
        with pytest.raises(ParameterError):
            comm.CommutativeGroup(29)

    def test_membership(self, group):
        element = group.random_element()
        assert group.contains(element)
        assert not group.contains(0)
        assert not group.contains(group.p)

    def test_random_elements_are_residues(self, group):
        for _ in range(20):
            x = group.random_element()
            assert pow(x, group.q, group.p) == 1


class TestKeys:
    def test_exponent_coprime(self, group):
        for _ in range(20):
            key = comm.generate_key(group)
            assert math.gcd(key.exponent, group.q) == 1

    def test_out_of_range_exponent_rejected(self, group):
        with pytest.raises(KeyError_):
            comm.CommutativeKey(group, 0)
        with pytest.raises(KeyError_):
            comm.CommutativeKey(group, group.q)

    def test_non_coprime_exponent_rejected(self):
        # Build a group whose q has a small factor we can hit: use the
        # 64-bit precomputed group and the factor q itself is prime, so
        # q is the only non-coprime value below q... use exponent q -> out
        # of range anyway; instead verify gcd check via a tiny crafted case.
        group = comm.CommutativeGroup(23)  # q = 11
        with pytest.raises(KeyError_):
            comm.CommutativeKey(group, 11)


class TestShortExponents:
    """``generate_key`` draws ``max(256, |p| // 8)``-bit exponents; the
    512-bit group (|q| = 511) is the smallest shipped one where that is
    narrower than the group order."""

    @pytest.fixture(scope="class")
    def wide_group(self):
        return groups.commutative_group(512)

    #: RFC 7919 Appendix A: short-exponent widths of its safe-prime groups.
    RFC7919_WIDTHS = {2048: 225, 3072: 275, 4096: 325, 8192: 400}

    @pytest.mark.parametrize(
        "bits, expected",
        [(64, 256), (257, 256), (512, 256), (2048, 256), (3072, 384),
         (4096, 512), (8192, 1024)],
    )
    def test_width_is_a_formula_of_the_group(self, bits, expected):
        # Only |p| enters the rule, so any modulus of the right shape does.
        shaped = comm.CommutativeGroup((1 << (bits - 1)) | 3)
        assert comm.exponent_bits(shaped) == expected
        assert expected >= self.RFC7919_WIDTHS.get(bits, 0)

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_short_keys_commute(self, wide_group, data):
        k1, k2 = comm.generate_key(wide_group), comm.generate_key(wide_group)
        for key in (k1, k2):
            assert 1 <= key.exponent < wide_group.q
            assert key.exponent.bit_length() <= comm.exponent_bits(wide_group) == 256
        x = IdealHash(wide_group.p)(data)
        doubled = comm.apply(k1, comm.apply(k2, x))
        assert doubled == comm.apply(k2, comm.apply(k1, x))

    def test_short_key_is_injective_on_sample(self, wide_group):
        key = comm.generate_key(wide_group)
        inputs = {wide_group.random_element() for _ in range(50)}
        assert len({comm.apply(key, x) for x in inputs}) == len(inputs)

    @pytest.mark.parametrize("bits", [128, 256])
    def test_small_groups_keep_the_full_range(self, bits):
        # |q| <= 255 < 256: the bound is q itself, so draws fill [1, q).
        small = groups.commutative_group(bits)
        widths = {comm.generate_key(small).exponent.bit_length() for _ in range(64)}
        assert max(widths) > small.q.bit_length() - 4

    def test_full_width_exponent_still_a_valid_key(self, wide_group):
        # Exponents persisted before short keys (a comm_key cache slot)
        # stay usable: any 1 <= e < q is a key that commutes with a short one.
        key = comm.CommutativeKey(wide_group, wide_group.q - 2)
        short = comm.generate_key(wide_group)
        x = wide_group.random_element()
        assert comm.apply(key, comm.apply(short, x)) == comm.apply(
            short, comm.apply(key, x)
        )


class TestCipher:
    def test_commutativity(self, group, ideal_hash):
        k1, k2 = comm.generate_key(group), comm.generate_key(group)
        x = ideal_hash(b"alpha")
        assert comm.apply(k1, comm.apply(k2, x)) == comm.apply(k2, comm.apply(k1, x))

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_commutativity_property(self, group, ideal_hash, data):
        k1, k2 = comm.generate_key(group), comm.generate_key(group)
        x = ideal_hash(data)
        double_12 = comm.apply(k1, comm.apply(k2, x))
        double_21 = comm.apply(k2, comm.apply(k1, x))
        assert double_12 == double_21

    def test_bijectivity_on_sample(self, group):
        key = comm.generate_key(group)
        inputs = {group.random_element() for _ in range(50)}
        outputs = {comm.apply(key, x) for x in inputs}
        assert len(outputs) == len(inputs)

    def test_domain_enforced(self, group):
        key = comm.generate_key(group)
        non_residue = _find_non_residue(group)
        with pytest.raises(ParameterError):
            comm.apply(key, non_residue)

    def test_known_answer(self):
        # f_e(x) = x^e mod p: 4 = 2^2 is a residue mod 23, 4^3 = 64 = 18.
        key = comm.CommutativeKey(comm.CommutativeGroup(23), 3)
        assert comm.apply(key, 4) == 18

    def test_output_stays_in_the_domain(self, group, ideal_hash):
        # The second source applies its key to the first one's output.
        key = comm.generate_key(group)
        for data in (b"a", b"b", b"c"):
            assert group.contains(comm.apply(key, ideal_hash(data)))

    def test_apply_records_one_encryption(self, group, ideal_hash):
        key = comm.generate_key(group)
        x = ideal_hash(b"counted")
        with instrumentation.count_primitives() as counter:
            comm.apply(key, x)
        assert dict(counter.counts) == {"commutative.encrypt": 1}

    def test_distinct_keys_distinct_ciphertexts(self, group, ideal_hash):
        x = ideal_hash(b"val")
        k1, k2 = comm.generate_key(group), comm.generate_key(group)
        if k1.exponent != k2.exponent:
            assert comm.apply(k1, x) != comm.apply(k2, x)


class TestMatchingSemantics:
    """The property Listing 3 relies on: equal values match, others don't."""

    def test_equal_inputs_equal_double_encryption(self, group, ideal_hash):
        k1, k2 = comm.generate_key(group), comm.generate_key(group)
        a = ideal_hash(b"common-value")
        assert comm.apply(k1, comm.apply(k2, a)) == comm.apply(k2, comm.apply(k1, a))

    def test_distinct_inputs_never_collide(self, group, ideal_hash):
        k1, k2 = comm.generate_key(group), comm.generate_key(group)
        values = [ideal_hash(f"v{i}".encode()) for i in range(30)]
        doubled = [comm.apply(k1, comm.apply(k2, v)) for v in values]
        assert len(set(doubled)) == len(values)


def _find_non_residue(group):
    candidate = 2
    while group.contains(candidate):
        candidate += 1
    return candidate
