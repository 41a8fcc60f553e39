"""Tests for the SQL2Algebra front end."""

import pytest

from repro.errors import QueryError
from repro.relational import algebra, sql
from repro.relational.relation import Relation
from repro.relational.schema import schema

S1 = schema("R1", k="int", a="string")
S2 = schema("R2", k="int", b="string")
ENV = {
    "R1": Relation(S1, [(1, "x"), (2, "y"), (3, "z")]),
    "R2": Relation(S2, [(2, "p"), (3, "q"), (4, "r")]),
}


class TestTokenizer:
    def test_basic(self):
        kinds = [t.kind for t in sql.tokenize("select * from R1")]
        assert kinds == ["keyword", "symbol", "keyword", "ident", "end"]

    def test_string_literal_with_escape(self):
        tokens = sql.tokenize("select * from R where a = 'it''s'")
        strings = [t for t in tokens if t.kind == "string"]
        assert strings[0].text == "'it''s'"

    def test_operators(self):
        tokens = sql.tokenize("a <= 1 and b >= 2 or c <> 3")
        symbols = [t.text for t in tokens if t.kind == "symbol"]
        assert symbols == ["<=", ">=", "<>"]

    def test_unknown_character(self):
        with pytest.raises(QueryError):
            sql.tokenize("select # from R")


class TestParser:
    def test_select_star(self):
        tree = sql.parse("select * from R1")
        assert isinstance(tree, algebra.PartialQuery)
        assert tree.evaluate(ENV) == ENV["R1"]

    def test_natural_join(self):
        tree = sql.parse("select * from R1 natural join R2")
        assert isinstance(tree, algebra.Join)
        assert len(tree.evaluate(ENV)) == 2

    def test_three_way_chain(self):
        tree = sql.parse("select * from R1 natural join R2 natural join R1")
        assert len(tree.leaves()) == 3

    def test_projection(self):
        tree = sql.parse("select k, b from R1 natural join R2")
        out = tree.evaluate(ENV)
        assert out.schema.names() == ("k", "b")

    def test_where_clause(self):
        tree = sql.parse("select * from R1 where k > 1 and a != 'z'")
        assert set(tree.evaluate(ENV).rows) == {(2, "y")}

    def test_where_or_not(self):
        tree = sql.parse("select * from R1 where k = 1 or not k < 3")
        assert set(tree.evaluate(ENV).rows) == {(1, "x"), (3, "z")}

    def test_parentheses(self):
        tree = sql.parse("select * from R1 where (k = 1 or k = 3) and a != 'x'")
        assert set(tree.evaluate(ENV).rows) == {(3, "z")}

    def test_string_literal(self):
        tree = sql.parse("select * from R1 where a = 'y'")
        assert set(tree.evaluate(ENV).rows) == {(2, "y")}

    def test_mirrored_literal_comparison(self):
        tree = sql.parse("select * from R1 where 2 < k")
        assert set(tree.evaluate(ENV).rows) == {(3, "z")}

    def test_join_on(self):
        tree = sql.parse("select * from R1 join R2 on R1.k = R2.k")
        assert len(tree.evaluate(ENV)) == 2

    def test_comma_product(self):
        tree = sql.parse("select * from R1, R2")
        assert len(tree.evaluate(ENV)) == 9

    def test_qualified_projection(self):
        tree = sql.parse("select R1.k from R1")
        assert tree.evaluate(ENV).schema.names() == ("k",)

    def test_case_insensitive_keywords(self):
        tree = sql.parse("SELECT * FROM R1 NATURAL JOIN R2 WHERE k = 2")
        assert len(tree.evaluate(ENV)) == 1


class TestParserErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "from R1",
            "select from R1",
            "select * R1",
            "select * from",
            "select * from R1 where",
            "select * from R1 where k =",
            "select * from R1 where 1 = 2",  # no attribute operand
            "select * from R1 natural R2",
            "select * from R1 join R2",  # missing ON
            "select * from R1 extra",
            "select * from R1 where (k = 1",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(QueryError):
            sql.parse(bad)


class TestPartialQueries:
    def test_leaves_returned(self):
        tree = sql.parse("select * from R1 natural join R2")
        leaves = tree.leaves()
        assert [leaf.sql for leaf in leaves] == [
            "select * from R1",
            "select * from R2",
        ]
