"""Tests for the relational algebra operators and trees."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QueryError, SchemaError
from repro.relational import algebra
from repro.relational.conditions import (
    AttributeComparison,
    Comparison,
    TrueCondition,
)
from repro.relational.relation import Relation
from repro.relational.schema import schema

S1 = schema("R1", k="int", a="string")
S2 = schema("R2", k="int", b="string")

R1 = Relation(S1, [(1, "x"), (2, "y"), (3, "z"), (3, "w")])
R2 = Relation(S2, [(2, "p"), (3, "q"), (4, "r")])


class TestSelect:
    def test_basic(self):
        out = algebra.select(R1, Comparison("k", ">", 1))
        assert set(out.rows) == {(2, "y"), (3, "z"), (3, "w")}

    def test_true_selects_all(self):
        assert algebra.select(R1, TrueCondition()) == R1

    def test_qualified_attribute(self):
        out = algebra.select(R1, Comparison("R1.k", "=", 2))
        assert set(out.rows) == {(2, "y")}


class TestProject:
    def test_basic(self):
        out = algebra.project(R1, ["k"])
        assert set(out.rows) == {(1,), (2,), (3,)}  # duplicates collapse

    def test_reorder(self):
        out = algebra.project(R1, ["a", "k"])
        assert (2, "y") not in out.rows
        assert ("y", 2) in out.rows

    def test_unknown_attribute(self):
        with pytest.raises(SchemaError):
            algebra.project(R1, ["missing"])


class TestProduct:
    def test_cardinality(self):
        out = algebra.product(R1, R2)
        assert len(out) == len(R1) * len(R2)

    def test_collision_prefixing(self):
        out = algebra.product(R1, R2)
        assert "R2_k" in out.schema.names()

    def test_select_product_equals_filtered_product(self):
        cond = AttributeComparison("R1.k", "=", "R2.k")
        fused = algebra.select_product(R1, R2, cond)
        assert len(fused) == 3  # k=2 (1 pair), k=3 (2x1 pairs)

    def test_select_product_ambiguous_bare_name(self):
        with pytest.raises(QueryError):
            algebra.select_product(R1, R2, Comparison("k", "=", 2))

    def test_select_product_bare_unique_name(self):
        out = algebra.select_product(R1, R2, Comparison("a", "=", "y"))
        assert len(out) == len(R2)

    def test_select_product_unknown_qualifier(self):
        with pytest.raises(QueryError):
            algebra.select_product(R1, R2, Comparison("R9.k", "=", 1))


class TestNaturalJoin:
    def test_basic(self):
        out = algebra.natural_join(R1, R2)
        assert set(out.rows) == {
            (2, "y", "p"),
            (3, "z", "q"),
            (3, "w", "q"),
        }

    def test_schema(self):
        out = algebra.natural_join(R1, R2)
        assert out.schema.names() == ("k", "a", "b")

    def test_no_common_attributes_degenerates_to_product(self):
        other = Relation(schema("R3", c="string"), [("m",), ("n",)])
        out = algebra.natural_join(R1, other)
        assert len(out) == len(R1) * 2

    def test_empty_side(self):
        empty = Relation(S2, [])
        assert len(algebra.natural_join(R1, empty)) == 0

    def test_join_equals_select_product_then_project(self):
        # The textbook identity behind the DAS client query.
        cond = AttributeComparison("R1.k", "=", "R2.k")
        fused = algebra.select_product(R1, R2, cond)
        projected = algebra.project(fused, ["k", "a", "b"])
        assert projected == algebra.natural_join(R1, R2)


class TestTrees:
    ENV = {"R1": R1, "R2": R2}

    def test_partial_query_leaf(self):
        leaf = algebra.PartialQuery("R1")
        assert leaf.evaluate(self.ENV) == R1
        assert leaf.sql == "select * from R1"

    def test_partial_query_with_condition(self):
        leaf = algebra.PartialQuery("R1", Comparison("k", ">", 2))
        assert len(leaf.evaluate(self.ENV)) == 2
        assert "where" in leaf.sql

    def test_unbound_leaf(self):
        with pytest.raises(QueryError):
            algebra.PartialQuery("R9").evaluate(self.ENV)

    def test_join_tree(self):
        tree = algebra.Join(algebra.PartialQuery("R1"), algebra.PartialQuery("R2"))
        assert tree.evaluate(self.ENV) == algebra.natural_join(R1, R2)

    def test_select_project_tree(self):
        tree = algebra.Project(
            ("k", "b"),
            algebra.Select(
                Comparison("k", "=", 3),
                algebra.Join(
                    algebra.PartialQuery("R1"), algebra.PartialQuery("R2")
                ),
            ),
        )
        assert set(tree.evaluate(self.ENV).rows) == {(3, "q")}

    def test_leaves_in_order(self):
        tree = algebra.Join(algebra.PartialQuery("R1"), algebra.PartialQuery("R2"))
        assert [leaf.relation_name for leaf in tree.leaves()] == ["R1", "R2"]

    def test_describe_renders_tree(self):
        tree = algebra.Select(
            Comparison("k", "=", 3),
            algebra.Join(algebra.PartialQuery("R1"), algebra.PartialQuery("R2")),
        )
        text = tree.describe()
        assert "Select" in text and "Join" in text and "PartialQuery" in text


@given(
    st.lists(st.tuples(st.integers(0, 10), st.text(max_size=3)), max_size=20),
    st.lists(st.tuples(st.integers(0, 10), st.text(max_size=3)), max_size=20),
)
@settings(max_examples=50, deadline=None)
def test_natural_join_matches_nested_loop(rows_1, rows_2):
    """The hash join must agree with the obvious nested-loop definition."""
    r1 = Relation(S1, rows_1)
    r2 = Relation(S2, rows_2)
    expected = {
        (k1, a, b)
        for (k1, a) in r1.rows
        for (k2, b) in r2.rows
        if k1 == k2
    }
    assert set(algebra.natural_join(r1, r2).rows) == expected
