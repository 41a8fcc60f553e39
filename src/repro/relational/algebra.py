"""Relational algebra: direct operators and query trees.

Two layers live here:

* **Direct operators** (:func:`select`, :func:`project`,
  :func:`natural_join`, :func:`select_product`, ...) — pure functions on
  :class:`~repro.relational.relation.Relation` values.  These compute
  reference results for the protocol tests and implement the mediator's
  server-query evaluation (``sigma_CondS(R1S x R2S)``).
* **Algebra trees** — the "algebra tree (with relational operators in the
  inner nodes and partial queries at the leaves)" that the mediator's
  SQL2Algebra component produces (Section 2).  Trees evaluate against an
  environment mapping relation names to relation instances and expose the
  leaves so the mediator can decompose a global query into partial
  queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import QueryError
from repro.relational.conditions import Condition, Resolver
from repro.relational.relation import Relation, Row
from repro.relational.schema import Attribute, Schema, Value

# ---------------------------------------------------------------------------
# Direct operators
# ---------------------------------------------------------------------------


def select(relation: Relation, condition: Condition) -> Relation:
    """``sigma_condition(relation)``."""

    def resolve_for(row: Row) -> Resolver:
        return lambda name: relation.value(row, name)

    rows = [row for row in relation if condition.evaluate(resolve_for(row))]
    return Relation(relation.schema, rows)


def project(relation: Relation, attributes: Iterable[str]) -> Relation:
    """``pi_attributes(relation)`` (set semantics: duplicates collapse)."""
    attributes = list(attributes)
    positions = [relation.schema.position(name) for name in attributes]
    projected = relation.schema.project(attributes)
    return Relation(projected, [tuple(row[i] for i in positions) for row in relation])


def product(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """Cross product; colliding attribute names get relation prefixes."""
    result_name = name or f"{left.name}_x_{right.name}"
    left_names = set(left.schema.names())
    attributes = list(left.schema.attributes)
    for attribute in right.schema.attributes:
        if attribute.name in left_names:
            attributes.append(
                Attribute(f"{right.name}_{attribute.name}", attribute.type)
            )
        else:
            attributes.append(attribute)
    schema = Schema(result_name, attributes)
    rows = [l + r for l in left for r in right]
    return Relation(schema, rows)


def select_product(
    left: Relation,
    right: Relation,
    condition: Condition,
    name: str | None = None,
) -> Relation:
    """Fused ``sigma_condition(left x right)`` with qualified resolution.

    The condition may reference attributes as ``left_name.attr`` /
    ``right_name.attr`` (or bare names when unambiguous), exactly like
    the paper's ``Cond_S`` references ``R1S.Ajoin`` and ``R2S.Ajoin``.
    This is the mediator's server-query evaluator, fused so it does not
    materialize the full cross product first.
    """
    result_name = name or f"{left.name}_x_{right.name}"

    def resolver(l_row: Row, r_row: Row) -> Resolver:
        def resolve(attribute: str) -> Value:
            if "." in attribute:
                qualifier, bare = attribute.split(".", 1)
                if qualifier == left.name:
                    return left.value(l_row, bare)
                if qualifier == right.name:
                    return right.value(r_row, bare)
                raise QueryError(f"unknown qualifier in {attribute!r}")
            in_left = left.schema.has(attribute)
            in_right = right.schema.has(attribute)
            if in_left and in_right:
                raise QueryError(f"ambiguous attribute {attribute!r}")
            if in_left:
                return left.value(l_row, attribute)
            if in_right:
                return right.value(r_row, attribute)
            raise QueryError(f"unknown attribute {attribute!r}")

        return resolve

    matches = [
        l_row + r_row
        for l_row in left
        for r_row in right
        if condition.evaluate(resolver(l_row, r_row))
    ]
    # Build the product schema (with prefixes for collisions) lazily but
    # identically to product().
    left_names = set(left.schema.names())
    attributes = list(left.schema.attributes)
    for attribute in right.schema.attributes:
        if attribute.name in left_names:
            attributes.append(
                Attribute(f"{right.name}_{attribute.name}", attribute.type)
            )
        else:
            attributes.append(attribute)
    return Relation(Schema(result_name, attributes), matches)


def natural_join(
    left: Relation, right: Relation, name: str | None = None
) -> Relation:
    """Natural join on all shared attribute names.

    This is the reference implementation the protocols are tested
    against: every protocol's decrypted global result must equal
    ``natural_join(R1, R2)``.
    """
    common = left.schema.common_attributes(right.schema)
    if not common:
        return product(left, right, name)
    result_name = name or f"{left.name}_join_{right.name}"
    schema = left.schema.join_schema(right.schema, result_name)
    right_extra = [
        n for n in right.schema.names() if n not in set(left.schema.names())
    ]
    right_extra_positions = [right.schema.position(n) for n in right_extra]
    common_left = [left.schema.position(n) for n in common]
    common_right = [right.schema.position(n) for n in common]

    # Hash join on the shared attributes.
    buckets: dict[tuple[Value, ...], list[Row]] = {}
    for row in right:
        key = tuple(row[i] for i in common_right)
        buckets.setdefault(key, []).append(row)
    rows = []
    for l_row in left:
        key = tuple(l_row[i] for i in common_left)
        for r_row in buckets.get(key, ()):
            rows.append(l_row + tuple(r_row[i] for i in right_extra_positions))
    return Relation(schema, rows)


# ---------------------------------------------------------------------------
# Algebra trees (SQL2Algebra output)
# ---------------------------------------------------------------------------


class AlgebraNode:
    """Base class for query-tree nodes."""

    def evaluate(self, env: Mapping[str, Relation]) -> Relation:
        raise NotImplementedError

    def leaves(self) -> list["PartialQuery"]:
        """All partial-query leaves, left to right."""
        raise NotImplementedError

    def describe(self, indent: int = 0) -> str:
        """Indented tree rendering (for examples and transcripts)."""
        raise NotImplementedError


@dataclass(frozen=True)
class PartialQuery(AlgebraNode):
    """A leaf: ``select * from <relation>`` executed by one datasource.

    The paper keeps partial queries to ``select *``; the optional
    ``condition`` supports the selection push-down extension (Section 8),
    in which case the SQL the datasource executes carries a WHERE clause.
    """

    relation_name: str
    condition: Condition | None = None

    @property
    def sql(self) -> str:
        if self.condition is None:
            return f"select * from {self.relation_name}"
        return f"select * from {self.relation_name} where {self.condition}"

    def evaluate(self, env: Mapping[str, Relation]) -> Relation:
        if self.relation_name not in env:
            raise QueryError(f"no relation bound for {self.relation_name!r}")
        result = env[self.relation_name]
        if self.condition is not None:
            result = select(result, self.condition)
        return result

    def leaves(self) -> list["PartialQuery"]:
        return [self]

    def describe(self, indent: int = 0) -> str:
        return " " * indent + f"PartialQuery[{self.sql}]"


@dataclass(frozen=True)
class Select(AlgebraNode):
    condition: Condition
    child: AlgebraNode

    def evaluate(self, env: Mapping[str, Relation]) -> Relation:
        # A selection directly over a product (the JOIN ... ON shape) is
        # evaluated fused, so the condition may use qualified names of
        # the *original* relations (R1.k = R2.k).
        if isinstance(self.child, Product):
            return select_product(
                self.child.left.evaluate(env),
                self.child.right.evaluate(env),
                self.condition,
            )
        return select(self.child.evaluate(env), self.condition)

    def leaves(self) -> list[PartialQuery]:
        return self.child.leaves()

    def describe(self, indent: int = 0) -> str:
        return (
            " " * indent
            + f"Select[{self.condition}]\n"
            + self.child.describe(indent + 2)
        )


@dataclass(frozen=True)
class Project(AlgebraNode):
    attributes: tuple[str, ...]
    child: AlgebraNode

    def evaluate(self, env: Mapping[str, Relation]) -> Relation:
        return project(self.child.evaluate(env), self.attributes)

    def leaves(self) -> list[PartialQuery]:
        return self.child.leaves()

    def describe(self, indent: int = 0) -> str:
        return (
            " " * indent
            + f"Project[{', '.join(self.attributes)}]\n"
            + self.child.describe(indent + 2)
        )


@dataclass(frozen=True)
class Join(AlgebraNode):
    """Natural join node — the operation the paper's protocols secure."""

    left: AlgebraNode
    right: AlgebraNode

    def evaluate(self, env: Mapping[str, Relation]) -> Relation:
        return natural_join(self.left.evaluate(env), self.right.evaluate(env))

    def leaves(self) -> list[PartialQuery]:
        return self.left.leaves() + self.right.leaves()

    def describe(self, indent: int = 0) -> str:
        return (
            " " * indent
            + "Join\n"
            + self.left.describe(indent + 2)
            + "\n"
            + self.right.describe(indent + 2)
        )


@dataclass(frozen=True)
class Product(AlgebraNode):
    left: AlgebraNode
    right: AlgebraNode

    def evaluate(self, env: Mapping[str, Relation]) -> Relation:
        return product(self.left.evaluate(env), self.right.evaluate(env))

    def leaves(self) -> list[PartialQuery]:
        return self.left.leaves() + self.right.leaves()

    def describe(self, indent: int = 0) -> str:
        return (
            " " * indent
            + "Product\n"
            + self.left.describe(indent + 2)
            + "\n"
            + self.right.describe(indent + 2)
        )


def evaluate_above_join(tree: AlgebraNode, join_result: Relation) -> Relation:
    """Apply the operators sitting *above* the join to its result.

    The delivery protocols produce the (decrypted) join; any remaining
    Select/Project layers of the global query are the client's local
    post-processing.  Conditions must use bare attribute names of the
    join schema (qualified base-relation names no longer exist after the
    join collapses shared attributes).
    """
    if isinstance(tree, Join):
        return join_result
    if isinstance(tree, Select):
        return select(evaluate_above_join(tree.child, join_result), tree.condition)
    if isinstance(tree, Project):
        return project(
            evaluate_above_join(tree.child, join_result), tree.attributes
        )
    raise QueryError(
        f"cannot post-process operator {type(tree).__name__} above the join"
    )
