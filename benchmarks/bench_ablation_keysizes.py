"""A4 — Cryptographic parameter scaling.

How each protocol's primitive costs scale with its security parameter:
the SRA group modulus for the commutative cipher and the Paillier
modulus for private matching.
"""

import time

import pytest
from conftest import write_report

from repro.crypto import commutative as comm
from repro.crypto import groups, paillier
from repro.crypto.hashes import IdealHash

GROUP_BITS = (128, 256, 512)
PAILLIER_BITS = (256, 512, 1024)


@pytest.mark.parametrize("bits", GROUP_BITS)
def test_commutative_apply_scaling(benchmark, bits):
    group = groups.commutative_group(bits)
    ideal_hash = IdealHash(group.p)
    key = comm.generate_key(group)
    value = ideal_hash(b"join-value")
    benchmark(comm.apply, key, value)


@pytest.mark.parametrize("bits", PAILLIER_BITS)
def test_paillier_encrypt_scaling(benchmark, bits):
    key = paillier.generate_keypair(bits)
    benchmark(paillier.encrypt, key.public_key, 42)


@pytest.mark.parametrize("bits", PAILLIER_BITS)
def test_paillier_scalar_multiply_scaling(benchmark, bits):
    key = paillier.generate_keypair(bits)
    ciphertext = paillier.encrypt(key.public_key, 42)
    benchmark(paillier.scalar_multiply, ciphertext, 2**64 - 1)


def test_keysize_report():
    """Cost table across parameters; asserts the expected growth."""
    lines = ["A4 - primitive cost scaling (microseconds per operation)"]
    lines.append(f"{'primitive':34s} {'param':>8s} {'us/op':>10s}")

    def time_op(operation, repeat=50):
        started = time.perf_counter()
        for _ in range(repeat):
            operation()
        return (time.perf_counter() - started) / repeat * 1e6

    commutative_times = []
    for bits in GROUP_BITS:
        group = groups.commutative_group(bits)
        key = comm.generate_key(group)
        value = IdealHash(group.p)(b"v")
        cost = time_op(lambda: comm.apply(key, value))
        commutative_times.append(cost)
        lines.append(f"{'commutative f_e(x)':34s} {bits:>8d} {cost:>10.1f}")

    paillier_times = []
    for bits in PAILLIER_BITS:
        key = paillier.generate_keypair(bits)
        cost = time_op(lambda: paillier.encrypt(key.public_key, 42), repeat=20)
        paillier_times.append(cost)
        lines.append(f"{'paillier encrypt':34s} {bits:>8d} {cost:>10.1f}")

    assert commutative_times[-1] > commutative_times[0]
    assert paillier_times[-1] > paillier_times[0]
    write_report("ablation_keysizes.txt", "\n".join(lines))
