"""Tests for canonical byte and integer encodings."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EncodingError
from repro.relational import encoding
from repro.relational.relation import Relation
from repro.relational.schema import schema

S = schema("R", k="int", name="string", flag="bool")

value_strategy = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.text(max_size=30),
    st.booleans(),
)


class TestValueEncoding:
    def test_type_disambiguation(self):
        # 1 (int), "1" (string) and True (bool) must encode differently.
        encodings = {
            encoding.encode_value(1),
            encoding.encode_value("1"),
            encoding.encode_value(True),
        }
        assert len(encodings) == 3

    @given(value_strategy)
    def test_deterministic(self, value):
        assert encoding.encode_value(value) == encoding.encode_value(value)

    def test_unsupported(self):
        with pytest.raises(EncodingError):
            encoding.encode_value(3.5)

    @given(st.one_of(value_strategy, st.integers()))
    def test_decode_value_inverts_encode_value(self, value):
        decoded = encoding.decode_value(encoding.encode_value(value))
        assert decoded == value and type(decoded) is type(value)

    def test_decode_value_rejects_an_unknown_tag(self):
        for data in (b"x1", b""):
            with pytest.raises(EncodingError, match="unknown value tag"):
                encoding.decode_value(data)


class TestRowEncoding:
    ROW = (42, "ada lovelace", True)

    def test_round_trip(self):
        assert encoding.decode_row(encoding.encode_row(self.ROW), S) == self.ROW

    @given(
        st.tuples(
            st.integers(min_value=-(10**6), max_value=10**6),
            st.text(max_size=50),
            st.booleans(),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, row):
        assert encoding.decode_row(encoding.encode_row(row), S) == row

    def test_truncated_rejected(self):
        data = encoding.encode_row(self.ROW)
        with pytest.raises(EncodingError):
            encoding.decode_row(data[:-1], S)

    def test_trailing_bytes_rejected(self):
        data = encoding.encode_row(self.ROW) + b"x"
        with pytest.raises(EncodingError):
            encoding.decode_row(data, S)

    def test_type_mismatch_rejected(self):
        # Encode under a different column order, decode under S.
        data = encoding.encode_row(("ada", 42, True))
        with pytest.raises(EncodingError):
            encoding.decode_row(data, S)

    def test_injective_on_sample(self):
        rows = [(i, f"s{i}", i % 2 == 0) for i in range(100)]
        encoded = {encoding.encode_row(row) for row in rows}
        assert len(encoded) == 100


class TestRowsEncoding:
    def test_round_trip(self):
        rows = ((1, "a", True), (2, "b", False))
        assert encoding.decode_rows(encoding.encode_rows(rows), S) == rows

    def test_empty(self):
        assert encoding.decode_rows(encoding.encode_rows(()), S) == ()

    def test_truncated(self):
        data = encoding.encode_rows(((1, "a", True),))
        with pytest.raises(EncodingError):
            encoding.decode_rows(data[:-2], S)

    def test_too_short(self):
        with pytest.raises(EncodingError):
            encoding.decode_rows(b"\x00", S)


class TestRelationEncoding:
    def test_schema_header_then_rows(self):
        rows = ((1, "a", True), (2, "b", False))
        data = encoding.encode_relation(Relation(S, rows))
        length = int.from_bytes(data[:4], "big")
        assert data[4:4 + length] == (
            b'{"name":"R","attributes":[["k","int"],["name","string"],'
            b'["flag","bool"]]}'
        )
        assert data[4 + length:] == encoding.encode_rows(rows)

    def test_schema_is_part_of_the_encoding(self):
        rows = [(1, "a", True)]
        renamed = Relation(S, rows).rename("Q")
        assert encoding.encode_relation(renamed) != encoding.encode_relation(
            Relation(S, rows)
        )

