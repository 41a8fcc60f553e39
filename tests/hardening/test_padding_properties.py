"""Property tests for the padding-policy algebra (hypothesis).

The hardened mode's safety argument rests on a handful of pure
functions; these properties pin them down over the whole input space:

* wrap/unwrap is lossless for real payloads — padding can never change
  what the client decodes;
* dummies always unwrap to ``None`` — they can never masquerade as
  rows;
* padded lengths are quantum multiples and depend only on the *maximum*
  payload length in a channel, so adjacent workloads with the same
  maxima produce byte-identical ciphertext size profiles;
* the bucket bound is a function of adjacency invariants alone and
  dominates every real occupancy it is meant to cover.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import ParameterError, ProtocolError
from repro.hardening import HEADER_BYTES, Hardening, PaddingPolicy

payloads = st.binary(min_size=0, max_size=512)
quanta = st.integers(min_value=1, max_value=256)


@given(payload=payloads, quantum=quanta)
def test_wrap_unwrap_roundtrip(payload, quantum):
    policy = PaddingPolicy(quantum=quantum)
    target = policy.padded_length(len(payload))
    padded = policy.wrap(payload, target)
    assert len(padded) == target
    assert policy.unwrap(padded) == payload


@given(payload=payloads, quantum=quanta)
def test_padded_length_is_quantum_multiple_and_sufficient(payload, quantum):
    policy = PaddingPolicy(quantum=quantum)
    target = policy.padded_length(len(payload))
    assert target % quantum == 0
    assert target >= HEADER_BYTES + len(payload)
    # Tightness: one quantum less would not fit the wrapped payload.
    assert target - quantum < HEADER_BYTES + len(payload)


@given(target=st.integers(min_value=1, max_value=1024))
def test_dummy_always_unwraps_to_discard(target):
    policy = PaddingPolicy()
    dummy = policy.wrap_dummy(target)
    assert len(dummy) == target
    assert policy.unwrap(dummy) is None


@given(
    lengths=st.lists(st.integers(min_value=0, max_value=300), min_size=1,
                     max_size=20),
    quantum=quanta,
)
def test_uniform_wrapping_equalizes_sizes(lengths, quantum):
    """Within one channel every wrapped plaintext has the same length,
    and that length depends only on the maximum payload length."""
    hardening = Hardening(PaddingPolicy(quantum=quantum))
    items = [bytes(length) for length in lengths]
    wrapped, target = hardening.wrap_uniform(items)
    assert {len(item) for item in wrapped} == {target}
    assert target == hardening.policy.padded_length(max(lengths))
    for original, padded in zip(items, wrapped):
        assert hardening.unwrap(padded) == original


@given(
    max_multiplicity=st.integers(min_value=0, max_value=16),
    domain_size=st.integers(min_value=0, max_value=64),
    buckets=st.integers(min_value=1, max_value=16),
)
def test_bucket_bound_dominates_any_real_occupancy(
    max_multiplicity, domain_size, buckets
):
    """A bucket of k values holds at most k * max_multiplicity rows;
    the equi_depth bound must cover the largest possible k."""
    policy = PaddingPolicy()
    bound = policy.bucket_bound(
        max_multiplicity, domain_size, buckets, "equi_depth"
    )
    if domain_size == 0 or max_multiplicity == 0:
        assert bound == 0
        return
    effective = min(buckets, domain_size)
    worst_values_per_bucket = -(-domain_size // effective)
    assert bound >= worst_values_per_bucket * max_multiplicity
    # Singleton buckets hold exactly one value.
    assert policy.bucket_bound(
        max_multiplicity, domain_size, buckets, "singleton"
    ) == max_multiplicity


@given(payload=payloads)
@settings(max_examples=25)
def test_wrap_rejects_undersized_target(payload):
    policy = PaddingPolicy()
    with pytest.raises(ParameterError):
        policy.wrap(payload, HEADER_BYTES + len(payload) - 1)


class TestUnwrapRejectsMalformedPlaintexts:
    def test_empty(self):
        with pytest.raises(ProtocolError):
            PaddingPolicy().unwrap(b"")

    def test_unknown_marker(self):
        with pytest.raises(ProtocolError):
            PaddingPolicy().unwrap(b"\x07" + b"\x00" * 16)

    def test_truncated_header(self):
        with pytest.raises(ProtocolError):
            PaddingPolicy().unwrap(b"\x01\x00\x00")

    def test_declared_length_exceeds_body(self):
        padded = b"\x01" + (100).to_bytes(4, "big") + b"short"
        with pytest.raises(ProtocolError):
            PaddingPolicy().unwrap(padded)


class TestAccounting:
    def test_stats_track_real_padded_and_dummy_bytes(self):
        hardening = Hardening(PaddingPolicy(quantum=8))
        wrapped, target = hardening.wrap_uniform([b"abc", b"defgh"])
        hardening.dummy(target)
        assert hardening.stats.real_bytes == 8
        assert hardening.stats.padded_bytes == 3 * target
        assert hardening.stats.dummy_items == 1
        artifact = hardening.artifact()
        assert artifact["pad_bytes_total"] == 3 * target - 8
        assert artifact["overhead_factor"] == round(3 * target / 8, 4)

    def test_policy_rejects_nonpositive_parameters(self):
        for kwargs in ({"batch_size": 0}, {"quantum": 0}, {"table_quantum": -1}):
            with pytest.raises(ParameterError):
                PaddingPolicy(**kwargs)
