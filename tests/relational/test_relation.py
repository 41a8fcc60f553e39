"""Tests for Relation: set semantics, typed rows, helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError
from repro.relational.relation import Relation, relation
from repro.relational.schema import schema

S = schema("R", k="int", label="string")


class TestConstruction:
    def test_basic(self):
        r = Relation(S, [(1, "a"), (2, "b")])
        assert len(r) == 2

    def test_duplicates_collapse(self):
        r = Relation(S, [(1, "a"), (1, "a"), (2, "b")])
        assert len(r) == 2

    def test_arity_checked(self):
        with pytest.raises(SchemaError):
            Relation(S, [(1,)])

    def test_types_checked(self):
        with pytest.raises(SchemaError):
            Relation(S, [("one", "a")])
        with pytest.raises(SchemaError):
            Relation(S, [(True, "a")])  # bool is not int in the model

    def test_empty(self):
        r = Relation(S, [])
        assert len(r) == 0 and list(r) == []

    def test_dict_rows(self):
        r = relation(S, [{"k": 1, "label": "a"}, (2, "b")])
        assert (1, "a") in r and (2, "b") in r

    def test_dict_rows_missing_attribute(self):
        with pytest.raises(SchemaError):
            relation(S, [{"k": 1}])

    def test_deterministic_order(self):
        r1 = Relation(S, [(2, "b"), (1, "a")])
        r2 = Relation(S, [(1, "a"), (2, "b")])
        assert r1.rows == r2.rows


class TestEquality:
    def test_name_independent(self):
        r1 = Relation(S, [(1, "a")])
        r2 = Relation(S.rename("other"), [(1, "a")])
        assert r1 == r2

    def test_content_sensitive(self):
        assert Relation(S, [(1, "a")]) != Relation(S, [(2, "a")])

    def test_attribute_sensitive(self):
        other = schema("R", k="int", tag="string")
        assert Relation(S, [(1, "a")]) != Relation(other, [(1, "a")])

    def test_hashable(self):
        assert Relation(S, [(1, "a")]) in {Relation(S, [(1, "a")])}


class TestHelpers:
    @pytest.fixture
    def r(self):
        return Relation(S, [(1, "a"), (1, "b"), (2, "c"), (3, "d")])

    def test_value(self, r):
        row = r.rows[0]
        assert r.value(row, "k") == row[0]
        assert r.value(row, "R.label") == row[1]

    def test_active_domain(self, r):
        assert r.active_domain("k") == (1, 2, 3)
        assert set(r.active_domain("label")) == {"a", "b", "c", "d"}

    def test_tuples_with(self, r):
        sub = r.tuples_with("k", 1)
        assert set(sub.rows) == {(1, "a"), (1, "b")}

    def test_tuples_with_absent_value(self, r):
        assert len(r.tuples_with("k", 99)) == 0

    def test_group_by(self, r):
        groups = r.group_by("k")
        assert set(groups) == {1, 2, 3}
        assert set(groups[1]) == {(1, "a"), (1, "b")}
        # Union of groups is the relation.
        total = sum(len(rows) for rows in groups.values())
        assert total == len(r)

    def test_filter(self, r):
        evens = r.filter(lambda row: row[0] % 2 == 0)
        assert set(evens.rows) == {(2, "c")}

    def test_rename(self, r):
        assert r.rename("X").name == "X"

    def test_pretty_contains_rows(self, r):
        rendered = r.pretty()
        assert "k" in rendered and "label" in rendered
        assert "a" in rendered

    def test_pretty_truncation(self):
        big = Relation(S, [(i, f"v{i}") for i in range(50)])
        rendered = big.pretty(max_rows=5)
        assert "more rows" in rendered


@given(
    st.lists(
        st.tuples(st.integers(0, 20), st.text(max_size=4)),
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_group_by_partitions_relation(rows):
    r = Relation(S, rows)
    groups = r.group_by("k")
    reassembled = {row for group in groups.values() for row in group}
    assert reassembled == set(r.rows)
    for key, group in groups.items():
        assert all(row[0] == key for row in group)
