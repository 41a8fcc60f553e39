"""Unit and property tests for repro.crypto.numtheory."""

import math
import secrets

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import groups
from repro.crypto import numtheory as nt
from repro.errors import ParameterError

KNOWN_PRIMES = [2, 3, 5, 7, 11, 101, 7919, 104729, 2**31 - 1]
KNOWN_COMPOSITES = [1, 4, 9, 15, 341, 561, 645, 1105, 25326001, 2**32]


class TestPrimality:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_known_primes(self, p):
        assert nt.is_probable_prime(p)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_known_composites(self, n):
        # 341, 561, 645, 1105 are Fermat pseudoprimes to base 2;
        # Miller-Rabin must still reject them.
        assert not nt.is_probable_prime(n)

    def test_negative_and_zero(self):
        assert not nt.is_probable_prime(0)
        assert not nt.is_probable_prime(-7)

    @given(st.integers(min_value=2, max_value=5000))
    def test_matches_trial_division(self, n):
        by_trial = all(n % d for d in range(2, int(n**0.5) + 1)) and n >= 2
        assert nt.is_probable_prime(n) == by_trial


class TestGeneration:
    def test_generated_prime_has_exact_bits(self):
        p = nt.generate_prime(64)
        assert p.bit_length() == 64
        assert nt.is_probable_prime(p)

    def test_generated_primes_differ(self):
        assert nt.generate_prime(48) != nt.generate_prime(48)

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            nt.generate_prime(4)

    def test_safe_prime_structure(self):
        p = nt.generate_safe_prime(32)
        assert nt.is_probable_prime(p)
        assert nt.is_probable_prime((p - 1) // 2)
        assert nt.is_safe_prime(p)

    def test_is_safe_prime_rejects_plain_primes(self):
        # 13 is prime but 6 is not.
        assert not nt.is_safe_prime(13)
        assert not nt.is_safe_prime(12)
        assert nt.is_safe_prime(23)  # 23 = 2*11 + 1


class TestModularArithmetic:
    def test_modinv_round_trip(self):
        assert nt.modinv(3, 11) * 3 % 11 == 1

    def test_modinv_not_invertible(self):
        with pytest.raises(ParameterError):
            nt.modinv(6, 9)

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.sampled_from([101, 7919, 104729]),
    )
    def test_modinv_property(self, a, p):
        if a % p == 0:
            return
        assert a * nt.modinv(a, p) % p == 1


class TestFactorFromLambdaMultiple:
    @pytest.mark.parametrize("bits", [256, 512, 1024])
    def test_recovers_generated_paillier_factors(self, bits):
        from repro.crypto import paillier

        key = paillier.generate_keypair(bits)
        expected = tuple(sorted((key.p, key.q)))
        n = key.public_key.n
        assert nt.factor_from_lambda_multiple(n, key.lam) == expected
        # Any multiple does, phi(n) among them.
        assert nt.factor_from_lambda_multiple(n, (key.p - 1) * (key.q - 1)) == expected
        assert nt.factor_from_lambda_multiple(n, 6 * key.lam) == expected

    def test_shared_factors_in_p_minus_1_and_q_minus_1(self):
        # gcd(p-1, q-1) = 2 * 3 * 5 * 7 * 64: lambda(n) is far below
        # phi(n) / 2 and p - 1, q - 1 carry a long run of factors of two.
        step = 2 * 3 * 5 * 7 * 64
        found = []
        k = (1 << 100) // step
        while len(found) < 2:
            k += 1
            if nt.is_probable_prime(step * k + 1):
                found.append(step * k + 1)
        p, q = found
        assert math.gcd(p - 1, q - 1) % step == 0
        assert nt.factor_from_lambda_multiple(p * q, nt.lcm(p - 1, q - 1)) == (p, q)

    def test_small_prime_factor(self):
        assert nt.factor_from_lambda_multiple(7 * 104729, nt.lcm(6, 104728)) == (7, 104729)

    def test_not_a_multiple_of_lambda(self):
        p, q = 104729, 2**31 - 1
        lam = nt.lcm(p - 1, q - 1)
        with pytest.raises(ParameterError, match="not a multiple"):
            nt.factor_from_lambda_multiple(p * q, lam + 2)
        with pytest.raises(ParameterError, match="not a multiple"):
            nt.factor_from_lambda_multiple(p * q, lam // 2 * 2 - 2)

    @pytest.mark.parametrize("n, multiple", [(104729 * 2, 4), (35, 0), (35, 11), (9, 6)])
    def test_malformed_arguments(self, n, multiple):
        with pytest.raises(ParameterError):
            nt.factor_from_lambda_multiple(n, multiple)

    def test_prime_power_does_not_split(self):
        # lambda(p^2) = p (p - 1), but every square root of unity modulo
        # a prime power is trivial: no base can split it.
        p = 104729
        with pytest.raises(ParameterError, match="does not split"):
            nt.factor_from_lambda_multiple(p * p, p * (p - 1))


class TestJacobiAndResidues:
    def test_jacobi_matches_euler_for_primes(self):
        p = 103
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            assert nt.jacobi(a, p) == expected

    def test_jacobi_zero(self):
        assert nt.jacobi(0, 7) == 0
        assert nt.jacobi(21, 7) == 0

    def test_jacobi_requires_odd(self):
        with pytest.raises(ParameterError):
            nt.jacobi(3, 8)

    @given(
        st.sampled_from(sorted(groups.KNOWN_SAFE_PRIMES)[:5]),
        st.integers(min_value=2, max_value=2**512),
    )
    @settings(max_examples=60, deadline=None)
    def test_jacobi_matches_euler_on_safe_primes(self, bits, raw):
        # The engine replaces the Euler-criterion residuosity check with
        # a Jacobi-symbol computation; the two must agree on every
        # element of Z_p^* for the deployed safe-prime moduli.
        p = groups.safe_prime(bits)
        a = raw % p
        if a == 0:
            assert nt.jacobi(a, p) == 0
            return
        euler = pow(a, (p - 1) // 2, p)
        assert nt.jacobi(a, p) == (1 if euler == 1 else -1)

    def test_jacobi_matches_euler_on_generated_safe_prime(self):
        p = nt.generate_safe_prime(48)
        for _ in range(50):
            a = 1 + secrets.randbelow(p - 1)
            euler = pow(a, (p - 1) // 2, p)
            assert nt.jacobi(a, p) == (1 if euler == 1 else -1)

    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=2**256),
        st.sampled_from([(103, 7919), (23, 104729), (2**61 - 1, 2**127 - 1)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_jacobi_strips_any_power_of_two_and_is_multiplicative(
        self, twos, odd, primes
    ):
        # Composite moduli and long runs of trailing zero bits: the
        # symbol over p*q is the product of the two Euler criteria.
        p, q = primes
        a = odd << twos
        euler = [
            0 if a % r == 0 else (1 if pow(a, (r - 1) // 2, r) == 1 else -1)
            for r in (p, q)
        ]
        assert nt.jacobi(a, p * q) == euler[0] * euler[1]


class TestByteCodecs:
    @given(st.integers(min_value=0, max_value=2**256))
    def test_int_bytes_round_trip(self, n):
        assert nt.bytes_to_int(nt.int_to_bytes(n)) == n

    def test_fixed_length_padding(self):
        assert nt.int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_zero_encodes_one_byte(self):
        assert nt.int_to_bytes(0) == b"\x00"

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            nt.int_to_bytes(-1)


class TestRandomness:
    def test_random_coprime(self):
        for _ in range(50):
            r = nt.random_coprime(30)
            assert 1 <= r < 30
            assert math.gcd(r, 30) == 1

    def test_random_coprime_invalid(self):
        with pytest.raises(ParameterError):
            nt.random_coprime(1)
