"""Property-based tests for numtheory against stdlib oracles.

* Jacobi symbol agrees with the Euler criterion on primes,
* ``modinv(a, m) * a = 1 (mod m)`` whenever ``gcd(a, m) = 1``,
* ``powmod`` (through the installed backend) agrees with ``pow``,
* Miller-Rabin agrees with trial division.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import numtheory as nt
from repro.errors import ParameterError

#: Primes of both residue classes mod 4.
ODD_PRIMES = [103, 7919, 104729, 2**127 - 1]


@given(
    a=st.integers(min_value=1, max_value=2**256),
    p=st.sampled_from(ODD_PRIMES),
)
@settings(max_examples=80, deadline=None)
def test_jacobi_matches_euler_criterion(a, p):
    a %= p
    if a == 0:
        assert nt.jacobi(a, p) == 0
        return
    euler = pow(a, (p - 1) // 2, p)
    assert nt.jacobi(a, p) == (1 if euler == 1 else -1)


@given(
    a=st.integers(min_value=1, max_value=2**192),
    m=st.sampled_from([9, 35, 101, 104729, 2**127 - 1, 3 * (2**89 - 1)]),
)
@settings(max_examples=100, deadline=None)
def test_modinv_times_a_is_one(a, m):
    if math.gcd(a, m) != 1:
        with pytest.raises(ParameterError):
            nt.modinv(a, m)
        return
    assert nt.modinv(a, m) * a % m == 1


@given(
    base=st.integers(min_value=0, max_value=2**256),
    exponent=st.integers(min_value=0, max_value=2**96),
    modulus=st.sampled_from([2, 97, 104729, 2**127 - 1, 2**255 - 19]),
)
@settings(max_examples=100, deadline=None)
def test_powmod_matches_stdlib_pow(base, exponent, modulus):
    result = nt.powmod(base, exponent, modulus)
    assert result == pow(base, exponent, modulus)
    assert type(result) is int


@given(n=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60, deadline=None)
def test_primality_matches_trial_division(n):
    by_trial = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
    assert nt.is_probable_prime(n) == by_trial
