"""Condition ASTs for selections and join predicates.

The DAS protocol manipulates conditions *symbolically*: the client-side
query translator builds the server condition ``Cond_S`` — a disjunction
over pairs of overlapping partition index values — and the client
condition ``Cond_C`` (equality of the real join attributes after
decryption).  Conditions therefore need to be first-class values that can
be constructed, composed, serialized into transcripts, and evaluated.

Evaluation happens against a *resolver*: a function from (possibly
qualified) attribute names to values, supplied by the algebra operators.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import QueryError
from repro.relational.schema import Value

Resolver = Callable[[str], Value]

_OPERATORS: dict[str, Callable[[Value, Value], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Condition:
    """Base class for condition AST nodes."""

    def evaluate(self, resolve: Resolver) -> bool:
        raise NotImplementedError

    # Composition sugar mirrors the paper's wedge/vee notation.
    def __and__(self, other: "Condition") -> "Condition":
        return And((self, other))

    def __or__(self, other: "Condition") -> "Condition":
        return Or((self, other))

    def __invert__(self) -> "Condition":
        return Not(self)

    def attributes(self) -> frozenset[str]:
        """All attribute names the condition references."""
        raise NotImplementedError


@dataclass(frozen=True)
class TrueCondition(Condition):
    """The always-true condition (identity of conjunction)."""

    def evaluate(self, resolve: Resolver) -> bool:
        return True

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return "TRUE"


@dataclass(frozen=True)
class FalseCondition(Condition):
    """The always-false condition (identity of disjunction).

    ``Cond_S`` over index tables with *no* overlapping partitions is the
    empty disjunction — this node — and correctly selects nothing.
    """

    def evaluate(self, resolve: Resolver) -> bool:
        return False

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return "FALSE"


@dataclass(frozen=True)
class Comparison(Condition):
    """``attribute op literal`` — e.g. ``R1S.Ajoin = index(p1)``."""

    attribute: str
    op: str
    value: Value

    def __post_init__(self) -> None:
        if self.op not in _OPERATORS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, resolve: Resolver) -> bool:
        return _OPERATORS[self.op](resolve(self.attribute), self.value)

    def attributes(self) -> frozenset[str]:
        return frozenset({self.attribute})

    def __str__(self) -> str:
        # A string reads back through the SQL tokenizer: single quotes,
        # '' for a quote, and no escapes.
        if isinstance(self.value, str):
            literal = "'" + self.value.replace("'", "''") + "'"
        else:
            literal = repr(self.value)
        return f"{self.attribute} {self.op} {literal}"


@dataclass(frozen=True)
class AttributeComparison(Condition):
    """``attribute op attribute`` — e.g. ``R1.Ajoin = R2.Ajoin``."""

    left: str
    op: str
    right: str

    def __post_init__(self) -> None:
        if self.op not in _OPERATORS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, resolve: Resolver) -> bool:
        return _OPERATORS[self.op](resolve(self.left), resolve(self.right))

    def attributes(self) -> frozenset[str]:
        return frozenset({self.left, self.right})

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Condition):
    clauses: tuple[Condition, ...]

    def evaluate(self, resolve: Resolver) -> bool:
        return all(clause.evaluate(resolve) for clause in self.clauses)

    def attributes(self) -> frozenset[str]:
        return frozenset().union(*(c.attributes() for c in self.clauses))

    def __str__(self) -> str:
        return "(" + " AND ".join(str(c) for c in self.clauses) + ")"


@dataclass(frozen=True)
class Or(Condition):
    clauses: tuple[Condition, ...]

    def evaluate(self, resolve: Resolver) -> bool:
        return any(clause.evaluate(resolve) for clause in self.clauses)

    def attributes(self) -> frozenset[str]:
        return frozenset().union(*(c.attributes() for c in self.clauses))

    def __str__(self) -> str:
        return "(" + " OR ".join(str(c) for c in self.clauses) + ")"


@dataclass(frozen=True)
class Not(Condition):
    clause: Condition

    def evaluate(self, resolve: Resolver) -> bool:
        return not self.clause.evaluate(resolve)

    def attributes(self) -> frozenset[str]:
        return self.clause.attributes()

    def __str__(self) -> str:
        return f"NOT {self.clause}"


def conjunction(clauses: Iterable[Condition]) -> Condition:
    """AND of clauses; empty input yields :class:`TrueCondition`."""
    clauses = tuple(clauses)
    if not clauses:
        return TrueCondition()
    if len(clauses) == 1:
        return clauses[0]
    return And(clauses)


def disjunction(clauses: Iterable[Condition]) -> Condition:
    """OR of clauses; empty input yields :class:`FalseCondition`.

    This is exactly how ``Cond_S`` is assembled from overlapping
    partition pairs in Section 3.1.
    """
    clauses = tuple(clauses)
    if not clauses:
        return FalseCondition()
    if len(clauses) == 1:
        return clauses[0]
    return Or(clauses)
