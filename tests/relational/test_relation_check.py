"""``Relation``'s column-typed row check against the per-value reference.

The constructor compares each row's value types with the exact Python
types the schema precomputes per column and sorts plain rows by the row
tuples themselves; only a row holding some other type goes through
``Attribute.accepts`` and the type-tagged sort.  The reference below is
the constructor as it was before that shortcut: every value through
``accepts``, every set sorted by the type-tagged key.  Both must keep the
same rows in the same order (the same values, down to their types) and
raise the same ``SchemaError`` text.
"""

import enum

from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, AttributeType, Schema


class Colour(enum.IntEnum):
    RED = 1
    GREEN = 2


class Tag(str):
    pass


def reference_rows(schema: Schema, rows: list) -> tuple:
    validated = set()
    for raw in rows:
        row = tuple(raw)
        if len(row) != len(schema):
            raise SchemaError(
                f"row arity {len(row)} does not match schema "
                f"{schema.relation_name} ({len(schema)} attributes)"
            )
        for attribute, value in zip(schema.attributes, row):
            if not attribute.accepts(value):
                raise SchemaError(
                    f"value {value!r} invalid for attribute "
                    f"{attribute.name}:{attribute.type.value}"
                )
        validated.add(row)
    return tuple(
        sorted(validated, key=lambda row: tuple((type(v).__name__, v) for v in row))
    )


def outcome(build) -> tuple:
    """Rows with their value types, or the error text."""
    try:
        rows = build()
    except SchemaError as exc:
        return ("SchemaError", str(exc))
    return rows, [tuple(map(type, row)) for row in rows]


def assert_same(schema: Schema, rows: list) -> None:
    assert outcome(lambda: Relation(schema, rows).rows) == outcome(
        lambda: reference_rows(schema, rows)
    )


PLAIN = {
    AttributeType.INT: st.integers(-3, 3),
    AttributeType.STRING: st.text("ab", max_size=2),
    AttributeType.BOOL: st.booleans(),
}
#: Subclass values the column still accepts: they take the fallback.
SUBCLASS = {
    AttributeType.INT: st.sampled_from(list(Colour)),
    AttributeType.STRING: st.text("ab", max_size=2).map(Tag),
    AttributeType.BOOL: st.booleans(),
}
ANY_VALUE = st.one_of(
    *PLAIN.values(),
    *SUBCLASS.values(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
)

column_types = st.lists(st.sampled_from(list(AttributeType)), min_size=1, max_size=4)


def make_schema(types: list) -> Schema:
    return Schema("R", [Attribute(f"a{i}", t) for i, t in enumerate(types)])


def rows_of(draw, types: list, value) -> list:
    return draw(
        st.lists(st.tuples(*(value(t) for t in types)), max_size=12)
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), column_types)
def test_plain_int_str_and_bool_columns(data, types):
    rows = rows_of(data.draw, types, PLAIN.__getitem__)
    assert_same(make_schema(types), rows)


@settings(max_examples=60, deadline=None)
@given(st.data(), column_types)
def test_intenum_and_str_subclass_values_take_the_fallback(data, types):
    rows = rows_of(
        data.draw, types, lambda t: st.one_of(PLAIN[t], SUBCLASS[t])
    )
    assert_same(make_schema(types), rows)


@settings(max_examples=50, deadline=None)
@given(st.data(), column_types)
def test_bools_offered_to_int_columns(data, types):
    types = [AttributeType.INT, *types]
    rows = rows_of(
        data.draw,
        types,
        lambda t: st.one_of(PLAIN[t], st.booleans())
        if t is AttributeType.INT
        else PLAIN[t],
    )
    assert_same(make_schema(types), rows)


@settings(max_examples=50, deadline=None)
@given(
    column_types,
    st.lists(st.lists(st.integers(-3, 3), max_size=5).map(tuple), max_size=8),
)
def test_rows_of_the_wrong_arity(types, rows):
    assert_same(make_schema([AttributeType.INT] * len(types)), rows)


@settings(max_examples=80, deadline=None)
@given(st.data(), column_types)
def test_any_value_in_any_column(data, types):
    rows = rows_of(data.draw, types, lambda t: ANY_VALUE)
    assert_same(make_schema(types), rows)


def test_a_bool_in_an_int_column_names_the_value():
    schema = make_schema([AttributeType.INT])
    assert outcome(lambda: Relation(schema, [(1,), (True,)]).rows) == (
        "SchemaError",
        "value True invalid for attribute a0:int",
    )


def test_a_subclass_value_keeps_its_place_in_the_type_tagged_order():
    schema = make_schema([AttributeType.INT])
    # "Colour" sorts before "int": the enum member comes first.
    assert Relation(schema, [(5,), (Colour.GREEN,)]).rows == ((Colour.GREEN,), (5,))
    assert Relation(schema, [(5,), (2,)]).rows == ((2,), (5,))
