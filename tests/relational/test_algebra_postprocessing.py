"""Tests for evaluate_above_join (client-side query post-processing)."""

import pytest

from repro.errors import QueryError
from repro.relational import algebra, sql
from repro.relational.algebra import evaluate_above_join, natural_join
from repro.relational.relation import Relation
from repro.relational.schema import schema

S1 = schema("R1", k="int", a="string")
S2 = schema("R2", k="int", b="string")
R1 = Relation(S1, [(1, "x"), (2, "y"), (3, "z")])
R2 = Relation(S2, [(1, "p"), (2, "q"), (3, "r")])
JOINED = natural_join(R1, R2)


class TestEvaluateAboveJoin:
    def test_bare_join_is_identity(self):
        tree = sql.parse("select * from R1 natural join R2")
        assert evaluate_above_join(tree, JOINED) == JOINED

    def test_selection_applied(self):
        tree = sql.parse("select * from R1 natural join R2 where k > 1")
        out = evaluate_above_join(tree, JOINED)
        assert {row[0] for row in out} == {2, 3}

    def test_projection_applied(self):
        tree = sql.parse("select b, k from R1 natural join R2")
        out = evaluate_above_join(tree, JOINED)
        assert out.schema.names() == ("b", "k")

    def test_select_then_project(self):
        tree = sql.parse(
            "select a from R1 natural join R2 where b = 'q'"
        )
        out = evaluate_above_join(tree, JOINED)
        assert out.rows == (("y",),)

    def test_matches_full_tree_evaluation(self):
        env = {"R1": R1, "R2": R2}
        for query in (
            "select * from R1 natural join R2 where k != 2",
            "select k from R1 natural join R2",
            "select a, b from R1 natural join R2 where k >= 2 and a != 'z'",
        ):
            tree = sql.parse(query)
            assert evaluate_above_join(tree, JOINED) == tree.evaluate(env)

    def test_unsupported_operator_rejected(self):
        tree = algebra.PartialQuery("R3")
        with pytest.raises(QueryError):
            evaluate_above_join(tree, JOINED)
