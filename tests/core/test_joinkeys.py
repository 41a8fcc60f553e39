"""Tests for join-key extraction and encodings."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import joinkeys
from repro.errors import EncodingError
from repro.relational.relation import Relation
from repro.relational.schema import schema

S = schema("R", k="int", t="string", p="string")
R = Relation(
    S,
    [
        (1, "a", "x1"),
        (1, "a", "x2"),
        (1, "b", "x3"),
        (2, "a", "x4"),
    ],
)

key_strategy = st.tuples(
    st.integers(min_value=0, max_value=10**9),
    st.text(max_size=10),
    st.booleans(),
)


class TestExtraction:
    def test_single_attribute_key(self):
        keys = joinkeys.active_key_domain(R, ("k",))
        assert keys == ((1,), (2,))

    def test_composite_key(self):
        keys = joinkeys.active_key_domain(R, ("k", "t"))
        assert set(keys) == {(1, "a"), (1, "b"), (2, "a")}

    def test_group_by_single(self):
        groups = joinkeys.group_by_key(R, ("k",))
        assert len(groups[(1,)]) == 3
        assert len(groups[(2,)]) == 1

    def test_group_by_composite(self):
        groups = joinkeys.group_by_key(R, ("k", "t"))
        assert len(groups[(1, "a")]) == 2
        assert len(groups[(1, "b")]) == 1

    def test_groups_cover_relation(self):
        groups = joinkeys.group_by_key(R, ("k", "t"))
        assert sum(len(rows) for rows in groups.values()) == len(R)

    def test_key_of(self):
        row = R.rows[0]
        assert joinkeys.key_of(R, row, ("t", "k")) == (row[1], row[0])


class TestEncoding:
    def test_canonical_across_attribute_sources(self):
        # Two sources with different schemas, same key values -> same
        # encoding (the matching-soundness property).
        assert joinkeys.encode_key((1, "a")) == joinkeys.encode_key((1, "a"))

    def test_distinct_keys_distinct_encodings(self):
        keys = [(1, "a"), (1, "b"), (2, "a"), ("1", "a"), (12, ""), (1, "a2")]
        encodings = {joinkeys.encode_key(k) for k in keys}
        assert len(encodings) == len(keys)

    def test_no_concatenation_ambiguity(self):
        assert joinkeys.encode_key(("ab", "c")) != joinkeys.encode_key(("a", "bc"))

    @given(key_strategy)
    @settings(max_examples=100, deadline=None)
    def test_int_round_trip(self, key):
        assert joinkeys.int_to_key(joinkeys.key_to_int(key, 128)) == key

    def test_empty_string_component(self):
        key = (0, "", False)
        assert joinkeys.int_to_key(joinkeys.key_to_int(key)) == key

    def test_size_bound_enforced(self):
        with pytest.raises(EncodingError):
            joinkeys.key_to_int(("x" * 100,), max_bytes=16)

    def test_invalid_int_decodings(self):
        with pytest.raises(EncodingError):
            joinkeys.int_to_key(0)
        with pytest.raises(EncodingError):
            joinkeys.int_to_key(2)  # missing sentinel


def _raw_root(*fields: bytes) -> int:
    """A root built by hand from already-tagged field encodings."""
    parts = [b"\x01", len(fields).to_bytes(2, "big")]
    for field in fields:
        parts += [len(field).to_bytes(4, "big"), field]
    return int.from_bytes(b"".join(parts), "big")


class TestIntRoots:
    """``key_to_int`` / ``int_to_key`` on single values: the integer roots
    private matching puts into its polynomials."""

    @pytest.mark.parametrize(
        "value",
        [0, 1, 255, 10**12, -7, "", "a", "héllo wörld", True, False],
    )
    def test_single_value_round_trip(self, value):
        decoded = joinkeys.int_to_key(joinkeys.key_to_int((value,)))
        assert decoded == (value,)
        assert type(decoded[0]) is type(value)

    def test_injective_across_types(self):
        values = [0, 1, "0", "1", True, False, "", 256]
        roots = {joinkeys.key_to_int((value,)) for value in values}
        assert len(roots) == len(values)

    def test_hand_built_root_decodes(self):
        assert joinkeys.int_to_key(_raw_root(b"i42", b"sab")) == (42, "ab")

    def test_unknown_value_tag_rejected(self):
        with pytest.raises(EncodingError, match="tag"):
            joinkeys.int_to_key(_raw_root(b"x1"))

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            joinkeys.int_to_key(-1)

    def test_trailing_bytes_rejected(self):
        root = joinkeys.key_to_int((7,))
        with pytest.raises(EncodingError, match="trailing"):
            joinkeys.int_to_key(root << 8)

    def test_truncated_field_rejected(self):
        root = joinkeys.key_to_int(("abc",))
        with pytest.raises(EncodingError, match="truncated"):
            joinkeys.int_to_key(root >> 8)
