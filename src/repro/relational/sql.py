"""SQL2Algebra: a small SQL front end producing algebra trees.

Section 2: *"SQL queries for instance can be transformed into a so-called
'algebra tree' (with relational operators in the inner nodes of the tree
and partial queries at the leaves) by using the 'SQL2Algebra' library."*

This module is our SQL2Algebra.  The supported fragment covers the
paper's queries and the extensions exercised by examples and tests::

    SELECT * FROM R1 NATURAL JOIN R2
    SELECT patient, disease FROM R1 NATURAL JOIN R2 WHERE age > 40
    SELECT * FROM R1                                      -- partial query
    SELECT * FROM R1 NATURAL JOIN R2 WHERE k = -1         -- no arithmetic

Parsing is a hand-written tokenizer + recursive-descent parser; the
output is an :class:`~repro.relational.algebra.AlgebraNode` tree whose
leaves are :class:`~repro.relational.algebra.PartialQuery` nodes — one
per datasource relation, exactly what the mediator forwards.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import QueryError
from repro.relational import algebra
from repro.relational.conditions import (
    AttributeComparison,
    Comparison,
    Condition,
    Not,
    conjunction,
    disjunction,
)
from repro.relational.schema import Value

_TOKEN_PATTERN = re.compile(
    r"""
    \s*(?:
        (?P<number>-?\d+)
      | (?P<string>'(?:[^']|'')*')
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<symbol><=|>=|!=|<>|=|<|>|\(|\)|,|\*|\.)
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "from", "where", "natural", "join", "on",
    "and", "or", "not", "true", "false",
}


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "string" | "ident" | "keyword" | "symbol" | "end"
    text: str


def tokenize(sql: str) -> list[Token]:
    """Split a query string into tokens; raises on unknown characters."""
    tokens: list[Token] = []
    position = 0
    while position < len(sql):
        match = _TOKEN_PATTERN.match(sql, position)
        if match is None:
            remainder = sql[position:].strip()
            if not remainder:
                break
            raise QueryError(f"cannot tokenize query near {remainder[:20]!r}")
        position = match.end()
        if match.lastgroup == "number":
            tokens.append(Token("number", match.group("number")))
        elif match.lastgroup == "string":
            tokens.append(Token("string", match.group("string")))
        elif match.lastgroup == "ident":
            text = match.group("ident")
            kind = "keyword" if text.lower() in _KEYWORDS else "ident"
            tokens.append(Token(kind, text))
        elif match.lastgroup == "symbol":
            tokens.append(Token("symbol", match.group("symbol")))
    tokens.append(Token("end", ""))
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.position = 0

    # -- token helpers ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def accept_keyword(self, keyword: str) -> bool:
        token = self.peek()
        if token.kind == "keyword" and token.text.lower() == keyword:
            self.advance()
            return True
        return False

    def expect_keyword(self, keyword: str) -> None:
        if not self.accept_keyword(keyword):
            raise QueryError(f"expected {keyword.upper()!r} near {self.peek().text!r}")

    def accept_symbol(self, symbol: str) -> bool:
        token = self.peek()
        if token.kind == "symbol" and token.text == symbol:
            self.advance()
            return True
        return False

    def expect_symbol(self, symbol: str) -> None:
        if not self.accept_symbol(symbol):
            raise QueryError(f"expected {symbol!r} near {self.peek().text!r}")

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind != "ident":
            raise QueryError(f"expected identifier near {token.text!r}")
        return self.advance().text

    # -- grammar ----------------------------------------------------------

    def parse_query(self) -> algebra.AlgebraNode:
        self.expect_keyword("select")
        projection = self._parse_select_list()
        self.expect_keyword("from")
        tree = self._parse_table_expression()
        if self.accept_keyword("where"):
            tree = algebra.Select(self._parse_condition(), tree)
        if self.peek().kind != "end":
            raise QueryError(f"unexpected trailing input: {self.peek().text!r}")
        if projection is not None:
            tree = algebra.Project(tuple(projection), tree)
        return tree

    def _parse_select_list(self) -> list[str] | None:
        if self.accept_symbol("*"):
            return None
        names = [self._parse_attribute_name()]
        while self.accept_symbol(","):
            names.append(self._parse_attribute_name())
        return names

    def _parse_attribute_name(self) -> str:
        name = self.expect_ident()
        if self.accept_symbol("."):
            name = f"{name}.{self.expect_ident()}"
        return name

    def _parse_table_expression(self) -> algebra.AlgebraNode:
        tree: algebra.AlgebraNode = algebra.PartialQuery(self.expect_ident())
        while True:
            if self.accept_keyword("natural"):
                self.expect_keyword("join")
                tree = algebra.Join(tree, algebra.PartialQuery(self.expect_ident()))
            elif self.accept_keyword("join"):
                right = algebra.PartialQuery(self.expect_ident())
                self.expect_keyword("on")
                condition = self._parse_condition()
                tree = algebra.Select(condition, algebra.Product(tree, right))
            elif self.accept_symbol(","):
                tree = algebra.Product(
                    tree, algebra.PartialQuery(self.expect_ident())
                )
            else:
                return tree

    def _parse_condition(self) -> Condition:
        return self._parse_or()

    def _parse_or(self) -> Condition:
        clauses = [self._parse_and()]
        while self.accept_keyword("or"):
            clauses.append(self._parse_and())
        return disjunction(clauses)

    def _parse_and(self) -> Condition:
        clauses = [self._parse_not()]
        while self.accept_keyword("and"):
            clauses.append(self._parse_not())
        return conjunction(clauses)

    def _parse_not(self) -> Condition:
        if self.accept_keyword("not"):
            return Not(self._parse_not())
        if self.accept_symbol("("):
            condition = self._parse_condition()
            self.expect_symbol(")")
            return condition
        return self._parse_comparison()

    def _parse_comparison(self) -> Condition:
        left_kind, left = self._parse_operand()
        token = self.peek()
        if token.kind != "symbol" or token.text not in (
            "=", "!=", "<>", "<", "<=", ">", ">=",
        ):
            raise QueryError(f"expected comparison operator near {token.text!r}")
        op = self.advance().text
        if op == "<>":
            op = "!="
        right_kind, right = self._parse_operand()
        if left_kind == "attribute" and right_kind == "attribute":
            return AttributeComparison(left, op, right)
        if left_kind == "attribute":
            return Comparison(left, op, right)
        if right_kind == "attribute":
            return Comparison(right, _mirror(op), left)
        raise QueryError("comparison needs at least one attribute operand")

    def _parse_operand(self) -> tuple[str, Value | str]:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return "literal", int(token.text)
        if token.kind == "string":
            self.advance()
            return "literal", token.text[1:-1].replace("''", "'")
        if token.kind == "keyword" and token.text.lower() in ("true", "false"):
            self.advance()
            return "literal", token.text.lower() == "true"
        if token.kind == "ident":
            return "attribute", self._parse_attribute_name()
        raise QueryError(f"expected operand near {token.text!r}")


def _mirror(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)


def parse(sql: str) -> algebra.AlgebraNode:
    """Parse a SQL query into an algebra tree (the SQL2Algebra entry point)."""
    return _Parser(tokenize(sql)).parse_query()


def parse_partial(sql: str) -> algebra.PartialQuery:
    """Parse what a datasource receives, ``select * from R [where c]``,
    into its :class:`~repro.relational.algebra.PartialQuery` leaf."""
    tree = parse(sql)
    if isinstance(tree, algebra.Select) and isinstance(
        tree.child, algebra.PartialQuery
    ):
        tree = algebra.PartialQuery(tree.child.relation_name, tree.condition)
    if not isinstance(tree, algebra.PartialQuery):
        raise QueryError(f"not a partial query: {sql!r}")
    return tree
