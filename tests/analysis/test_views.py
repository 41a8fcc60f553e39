"""Tests for view flattening."""

from dataclasses import dataclass

import pytest

from repro.analysis.views import iter_byte_material, view_material
from repro.mediation.network import Network
from repro.transport.base import PartyView


class TestByteMaterial:
    def test_bytes_pass_through(self):
        assert list(iter_byte_material(b"raw")) == [b"raw"]

    def test_strings_utf8(self):
        assert list(iter_byte_material("héllo")) == ["héllo".encode()]

    def test_ints_big_endian(self):
        assert list(iter_byte_material(258)) == [b"\x01\x02"]

    def test_none_and_bool_skipped(self):
        assert list(iter_byte_material(None)) == []
        assert list(iter_byte_material(True)) == []

    def test_containers_flattened(self):
        material = list(iter_byte_material({"k": [b"a", (b"b",)]}))
        assert b"a" in material and b"b" in material and b"k" in material

    def test_equal_sets_yield_equal_material(self):
        # 1 and 9 share a hash slot, so insertion order decides how
        # each set iterates; the material must not depend on it.
        first, second = frozenset([1, 9]), frozenset([9, 1])
        assert list(first) != list(second)
        assert list(iter_byte_material(first)) == list(
            iter_byte_material(second)
        )

    def test_dataclasses_flattened(self):
        @dataclass
        class Box:
            inner: bytes

        assert b"secret" in list(iter_byte_material(Box(b"secret")))

    def test_to_bytes_objects(self):
        class Blob:
            def to_bytes(self):
                return b"blob-bytes"

        assert list(iter_byte_material(Blob())) == [b"blob-bytes"]

    def test_unwalkable_objects_fail_closed(self):
        """No repr stands in for material the walker cannot see."""
        with pytest.raises(TypeError, match="object"):
            list(iter_byte_material([b"ok", object()]))


class TestViewMaterial:
    @pytest.fixture
    def network(self):
        net = Network()
        net.register("a")
        net.register("b")
        return net

    def test_received_only_by_default(self, network):
        to_b = network.send("a", "b", "kind", b"sent-by-a")
        to_a = network.send("b", "a", "kind", b"sent-by-b")
        material = view_material(PartyView("a", sent=[to_b], received=[to_a]))
        assert b"sent-by-b" in material
        assert b"sent-by-a" not in material

    def test_separators_prevent_cross_fragment_matches(self, network):
        message = network.send("a", "b", "kind", [b"AB", b"CD"])
        material = view_material(PartyView("b", received=[message]))
        assert b"ABCD" not in material
        assert b"AB" in material
