"""Tests for the private-matching payload encoding."""

import secrets

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import payload
from repro.errors import EncodingError

BOUND = 1 << 1024  # a comfortable message space for most tests


class TestRoundTrip:
    def test_basic(self):
        value = payload.encode_payload((42,), b"tuple-set-bytes", BOUND)
        decoded = payload.decode_payload(value)
        assert decoded is not None
        assert decoded.body == b"tuple-set-bytes"

    def test_string_key(self):
        value = payload.encode_payload(("patient-7", 3), b"body", BOUND)
        decoded = payload.decode_payload(value)
        assert decoded is not None

    def test_empty_body(self):
        value = payload.encode_payload((1,), b"", BOUND)
        decoded = payload.decode_payload(value)
        assert decoded is not None and decoded.body == b""

    @given(
        st.tuples(st.integers(0, 10**6), st.text(max_size=8)),
        st.binary(max_size=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, key, body):
        decoded = payload.decode_payload(payload.encode_payload(key, body, BOUND))
        assert decoded is not None
        assert decoded.body == body


class TestRejection:
    def test_random_values_rejected(self):
        # The core soundness property of step 8: masked non-matches
        # decrypt to (essentially) uniform values, which must not parse.
        for _ in range(500):
            assert payload.decode_payload(secrets.randbelow(BOUND)) is None

    def test_zero_and_negative(self):
        assert payload.decode_payload(0) is None
        assert payload.decode_payload(-5) is None

    def test_bit_flip_rejected(self):
        value = payload.encode_payload((42,), b"data", BOUND)
        for shift in (0, 8, 40, value.bit_length() - 2):
            assert payload.decode_payload(value ^ (1 << shift)) is None

    def test_size_bound(self):
        with pytest.raises(EncodingError):
            payload.encode_payload((1,), b"x" * 100, 1 << 256)


class TestSessionBody:
    def test_split(self):
        session_key = bytes(range(32))
        token = b"tokens!!"
        key, tok = payload.split_session_body(session_key + token)
        assert key == session_key and tok == token

    def test_malformed(self):
        with pytest.raises(EncodingError):
            payload.split_session_body(b"short")

