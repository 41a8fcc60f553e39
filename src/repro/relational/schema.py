"""Relational schemas: attributes, types, and name resolution.

The paper works with relations ``R(A_1, ..., A_n)`` whose attributes have
typed domains; the join attribute's *active domain* (the set of values
actually occurring) drives all three protocols.  We support integer,
string and boolean attribute domains — enough to model the paper's
examples (including the "small domain, just yes and no" warning of
Section 6) while keeping canonical byte encodings simple.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import SchemaError

#: Values a relation may hold.
Value = int | str | bool


class AttributeType(enum.Enum):
    """Typed attribute domains with canonical encodings."""

    INT = "int"
    STRING = "string"
    BOOL = "bool"

    @classmethod
    def of(cls, value: Value) -> "AttributeType":
        """Infer the attribute type of a Python value."""
        # bool first: bool is a subclass of int.
        if isinstance(value, bool):
            return cls.BOOL
        if isinstance(value, int):
            return cls.INT
        if isinstance(value, str):
            return cls.STRING
        raise SchemaError(f"unsupported value type: {type(value).__name__}")


#: The exact Python type of a value in each domain.
_PYTHON_TYPES = {AttributeType.INT: int, AttributeType.STRING: str, AttributeType.BOOL: bool}


@dataclass(frozen=True)
class Attribute:
    """A named, typed attribute."""

    name: str
    type: AttributeType = AttributeType.INT

    def __post_init__(self) -> None:
        if not self.name or "." in self.name:
            raise SchemaError(f"invalid attribute name: {self.name!r}")

    def accepts(self, value: Value) -> bool:
        return AttributeType.of(value) is self.type


class Schema:
    """A named relation schema — an ordered sequence of attributes.

    Attribute lookup accepts both bare names (``"disease"``) and
    qualified names (``"R1.disease"``); the paper qualifies the join
    attribute as ``R1.Ajoin`` / ``R2.Ajoin`` when disambiguation is
    needed, and so do we.
    """

    def __init__(self, relation_name: str, attributes: Sequence[Attribute]) -> None:
        if not relation_name:
            raise SchemaError("relation name must be non-empty")
        names = [attribute.name for attribute in attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in {relation_name}")
        if not attributes:
            raise SchemaError(f"schema {relation_name} must have attributes")
        self.relation_name = relation_name
        self.attributes = tuple(attributes)
        self._positions = {attribute.name: i for i, attribute in enumerate(attributes)}
        #: Per column, the one Python type a plain value of it has.
        self.column_types = tuple(
            _PYTHON_TYPES[attribute.type] for attribute in self.attributes
        )

    # -- lookup -------------------------------------------------------

    def position(self, name: str) -> int:
        """Index of an attribute by bare or qualified name."""
        bare = self.resolve(name)
        return self._positions[bare]

    def resolve(self, name: str) -> str:
        """Normalize a (possibly qualified) attribute name to a bare one."""
        if "." in name:
            qualifier, bare = name.split(".", 1)
            if qualifier != self.relation_name:
                raise SchemaError(
                    f"attribute {name!r} does not belong to {self.relation_name}"
                )
            name = bare
        if name not in self._positions:
            raise SchemaError(
                f"unknown attribute {name!r} in {self.relation_name}"
                f"({', '.join(self.names())})"
            )
        return name

    def attribute(self, name: str) -> Attribute:
        return self.attributes[self.position(name)]

    def has(self, name: str) -> bool:
        try:
            self.resolve(name)
        except SchemaError:
            return False
        return True

    def names(self) -> tuple[str, ...]:
        return tuple(attribute.name for attribute in self.attributes)

    # -- construction helpers ------------------------------------------

    def rename(self, relation_name: str) -> "Schema":
        return Schema(relation_name, self.attributes)

    def project(self, names: Iterable[str]) -> "Schema":
        """Schema restricted (and reordered) to the given attributes."""
        return Schema(
            self.relation_name, [self.attribute(name) for name in names]
        )

    def common_attributes(self, other: "Schema") -> tuple[str, ...]:
        """Bare names present in both schemas, in this schema's order.

        This is the mediator's job in the paper: from the embedded global
        schema it "can identify the sets A_1 and A_2 of attributes that
        have to be considered in the JOIN operation".
        """
        other_names = set(other.names())
        return tuple(name for name in self.names() if name in other_names)

    def join_schema(self, other: "Schema", relation_name: str) -> "Schema":
        """Schema of the natural join: shared attributes once, then rest."""
        merged = list(self.attributes)
        seen = set(self.names())
        for attribute in other.attributes:
            if attribute.name in seen:
                ours = self.attribute(attribute.name)
                if ours.type is not attribute.type:
                    raise SchemaError(
                        f"type clash on join attribute {attribute.name!r}"
                    )
                continue
            merged.append(attribute)
        return Schema(relation_name, merged)

    # -- dunder ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Schema)
            and self.relation_name == other.relation_name
            and self.attributes == other.attributes
        )

    def __hash__(self) -> int:
        return hash((self.relation_name, self.attributes))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{attribute.name}:{attribute.type.value}" for attribute in self.attributes
        )
        return f"Schema({self.relation_name}[{inner}])"


def schema(relation_name: str, **attribute_types: str | AttributeType) -> Schema:
    """Concise schema constructor.

    >>> schema("R1", patient="string", disease="string", age="int")
    Schema(R1[patient:string, disease:string, age:int])
    """
    attributes = []
    for name, type_spec in attribute_types.items():
        if isinstance(type_spec, str):
            type_spec = AttributeType(type_spec)
        attributes.append(Attribute(name, type_spec))
    return Schema(relation_name, attributes)
