"""Relations and tuples (set semantics, immutable).

A :class:`Relation` is an immutable set of typed rows under a
:class:`~repro.relational.schema.Schema`.  Set semantics match the
paper's formal model; rows keep a deterministic iteration order (sorted
by canonical encoding) so protocol transcripts and benchmarks are
reproducible.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.relational.schema import Schema, Value

#: A row is a tuple of values positionally matching the schema.
Row = tuple[Value, ...]


def _sort_key(row: Row) -> tuple:
    """Type-stable sort key (ints, strs and bools cannot be compared)."""
    return tuple((type(v).__name__, v) for v in row)


class Relation:
    """An immutable relation instance.

    Construction validates every row against the schema (arity and
    types); duplicate rows collapse (set semantics).
    """

    def __init__(self, schema: Schema, rows: Iterable[Sequence[Value]]) -> None:
        # A row whose values have exactly the column types passes in one
        # comparison; anything else (a bool offered to an INT column, a
        # str subclass, an unsupported type) goes through Attribute.accepts.
        types = schema.column_types
        validated: set[Row] = set()
        subclassed = False
        for raw in rows:
            row = tuple(raw)
            if len(row) != len(types):
                raise SchemaError(
                    f"row arity {len(row)} does not match schema "
                    f"{schema.relation_name} ({len(schema)} attributes)"
                )
            if tuple(map(type, row)) != types:
                for attribute, value in zip(schema.attributes, row):
                    if not attribute.accepts(value):
                        raise SchemaError(
                            f"value {value!r} invalid for attribute "
                            f"{attribute.name}:{attribute.type.value}"
                        )
                subclassed = True
            validated.add(row)
        self.schema = schema
        # Each column of plain rows holds one type, so the rows themselves
        # sort exactly as the type-tagged key does; a subclass value
        # (an IntEnum, a str subclass) carries its own type name into it.
        self._rows = tuple(
            sorted(validated, key=_sort_key) if subclassed else sorted(validated)
        )

    # -- accessors -----------------------------------------------------

    @property
    def rows(self) -> tuple[Row, ...]:
        return self._rows

    @property
    def name(self) -> str:
        return self.schema.relation_name

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Sequence[Value]) -> bool:
        return tuple(row) in set(self._rows)

    def __eq__(self, other: object) -> bool:
        """Equality up to row content and *bare* attribute names/types.

        Relation names are presentation metadata (the global result may
        be called ``R1_join_R2`` while the reference join is ``ref``), so
        they do not participate in equality.
        """
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.schema.attributes == other.schema.attributes
            and set(self._rows) == set(other._rows)
        )

    def __hash__(self) -> int:
        return hash((self.schema.attributes, self._rows))

    def __repr__(self) -> str:
        return f"Relation({self.name}, {len(self)} rows)"

    # -- row-level helpers ----------------------------------------------

    def value(self, row: Row, attribute: str) -> Value:
        """Value of ``attribute`` in ``row``."""
        return row[self.schema.position(attribute)]

    def active_domain(self, attribute: str) -> tuple[Value, ...]:
        """The *active domain* of an attribute: distinct values, sorted.

        ``domactive(A)`` in the paper — the values that actually occur.
        """
        position = self.schema.position(attribute)
        values = {row[position] for row in self._rows}
        return tuple(sorted(values, key=lambda v: (type(v).__name__, v)))

    def tuples_with(self, attribute: str, value: Value) -> "Relation":
        """``Tup_i(a)``: rows whose join attribute equals ``value``."""
        position = self.schema.position(attribute)
        return Relation(
            self.schema, [row for row in self._rows if row[position] == value]
        )

    def group_by(self, attribute: str) -> dict[Value, tuple[Row, ...]]:
        """All ``Tup_i(a)`` sets at once, keyed by join value."""
        position = self.schema.position(attribute)
        groups: dict[Value, list[Row]] = {}
        for row in self._rows:
            groups.setdefault(row[position], []).append(row)
        return {value: tuple(rows) for value, rows in groups.items()}

    def filter(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Rows satisfying an arbitrary predicate (used by access control)."""
        return Relation(self.schema, [row for row in self._rows if predicate(row)])

    def rename(self, relation_name: str) -> "Relation":
        return Relation(self.schema.rename(relation_name), self._rows)

    def pretty(self, max_rows: int = 20) -> str:
        """ASCII table rendering for examples and reports."""
        names = self.schema.names()
        shown = self._rows[:max_rows]
        columns = [
            [name] + [str(row[i]) for row in shown] for i, name in enumerate(names)
        ]
        widths = [max(len(cell) for cell in column) for column in columns]
        def fmt(cells: Sequence[str]) -> str:
            return " | ".join(cell.ljust(w) for cell, w in zip(cells, widths))
        header = fmt(names)
        ruler = "-+-".join("-" * w for w in widths)
        body = [fmt([str(v) for v in row]) for row in shown]
        suffix = [] if len(self._rows) <= max_rows else [
            f"... ({len(self._rows) - max_rows} more rows)"
        ]
        return "\n".join(
            [f"{self.name} ({len(self)} rows)", header, ruler, *body, *suffix]
        )


def relation(
    schema: Schema, rows: Iterable[Mapping[str, Value] | Sequence[Value]]
) -> Relation:
    """Build a relation from positional rows or attribute dictionaries."""
    normalized: list[Sequence[Value]] = []
    names = schema.names()
    for row in rows:
        if isinstance(row, Mapping):
            missing = set(names) - set(row)
            if missing:
                raise SchemaError(f"row missing attributes: {sorted(missing)}")
            normalized.append(tuple(row[name] for name in names))
        else:
            normalized.append(row)
    return Relation(schema, normalized)
