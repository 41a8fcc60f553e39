"""Tests for schemas, attributes and name resolution."""

import pytest

from repro.errors import SchemaError
from repro.relational.schema import Attribute, AttributeType, Schema, schema


class TestAttributeType:
    def test_inference(self):
        assert AttributeType.of(5) is AttributeType.INT
        assert AttributeType.of("x") is AttributeType.STRING
        assert AttributeType.of(True) is AttributeType.BOOL

    def test_bool_not_int(self):
        # bool is a subclass of int in Python; the model keeps them apart.
        assert AttributeType.of(True) is not AttributeType.INT

    def test_unsupported(self):
        with pytest.raises(SchemaError):
            AttributeType.of(3.14)


class TestAttribute:
    def test_accepts(self):
        a = Attribute("age", AttributeType.INT)
        assert a.accepts(30)
        assert not a.accepts("thirty")
        assert not a.accepts(True)

    def test_invalid_names(self):
        with pytest.raises(SchemaError):
            Attribute("")
        with pytest.raises(SchemaError):
            Attribute("a.b")


class TestSchema:
    @pytest.fixture
    def s(self):
        return schema("R1", k="int", name="string", flag="bool")

    def test_helper_builds_types(self, s):
        assert s.attribute("k").type is AttributeType.INT
        assert s.attribute("name").type is AttributeType.STRING
        assert s.attribute("flag").type is AttributeType.BOOL

    def test_position_lookup(self, s):
        assert s.position("k") == 0
        assert s.position("flag") == 2

    def test_qualified_resolution(self, s):
        assert s.position("R1.name") == 1
        assert s.resolve("R1.k") == "k"

    def test_wrong_qualifier_rejected(self, s):
        with pytest.raises(SchemaError):
            s.position("R2.k")

    def test_unknown_attribute_rejected(self, s):
        with pytest.raises(SchemaError):
            s.position("missing")

    def test_has(self, s):
        assert s.has("k") and s.has("R1.k")
        assert not s.has("zzz") and not s.has("R2.k")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema("R", [Attribute("a"), Attribute("a")])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Schema("R", [])
        with pytest.raises(SchemaError):
            Schema("", [Attribute("a")])

    def test_names(self, s):
        assert s.names() == ("k", "name", "flag")

    def test_rename(self, s):
        renamed = s.rename("R9")
        assert renamed.relation_name == "R9"
        assert renamed.attributes == s.attributes

    def test_project(self, s):
        projected = s.project(["flag", "k"])
        assert projected.names() == ("flag", "k")

    def test_common_attributes(self, s):
        other = schema("R2", k="int", extra="string")
        assert s.common_attributes(other) == ("k",)
        assert other.common_attributes(s) == ("k",)

    def test_join_schema(self, s):
        other = schema("R2", k="int", extra="string")
        joined = s.join_schema(other, "J")
        assert joined.names() == ("k", "name", "flag", "extra")
        assert joined.relation_name == "J"

    def test_join_schema_type_clash(self, s):
        other = schema("R2", k="string")
        with pytest.raises(SchemaError):
            s.join_schema(other, "J")

    def test_equality_and_hash(self, s):
        same = schema("R1", k="int", name="string", flag="bool")
        assert s == same
        assert hash(s) == hash(same)
        assert s != s.rename("R2")

    def test_iteration_and_len(self, s):
        assert len(s) == 3
        assert [a.name for a in s] == ["k", "name", "flag"]
