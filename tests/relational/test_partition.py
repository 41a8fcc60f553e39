"""Tests for domain partitioning and index tables."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PartitionError
from repro.relational.partition import (
    IndexTable,
    Partition,
    build_index_table,
    equi_depth,
    singleton,
)


class TestPartition:
    def test_empty_rejected(self):
        with pytest.raises(PartitionError):
            Partition(frozenset())

    def test_bounds_validated(self):
        with pytest.raises(PartitionError):
            Partition(frozenset({5}), (6, 10))
        with pytest.raises(PartitionError):
            Partition(frozenset({5}), (10, 1))

    def test_value_overlap(self):
        a = Partition(frozenset({1, 2}))
        b = Partition(frozenset({2, 3}))
        c = Partition(frozenset({4}))
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_range_overlap(self):
        a = Partition(frozenset({1, 5}), (1, 5))
        b = Partition(frozenset({4}), (4, 8))
        c = Partition(frozenset({9}), (9, 12))
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_range_overlap_without_shared_actives(self):
        # The sound case: ranges intersect although the active values
        # differ - the *other* source may hold values in the gap.
        a = Partition(frozenset({1, 10}), (1, 10))
        b = Partition(frozenset({5}), (5, 6))
        assert a.overlaps(b)
        assert not (a.values & b.values)

    def test_descriptor_stability(self):
        a = Partition(frozenset({"x", "y"}))
        b = Partition(frozenset({"y", "x"}))
        assert a.descriptor() == b.descriptor()


class TestStrategies:
    def test_equi_depth_balanced(self):
        partitions = equi_depth(list(range(12)), 4)
        assert len(partitions) == 4
        assert all(len(p.values) == 3 for p in partitions)

    def test_equi_depth_strings(self):
        partitions = equi_depth(["a", "b", "c", "d", "e"], 2)
        covered = set().union(*(p.values for p in partitions))
        assert covered == {"a", "b", "c", "d", "e"}

    def test_equi_depth_more_buckets_than_values(self):
        partitions = equi_depth([1, 2], 10)
        assert len(partitions) == 2

    def test_singleton(self):
        partitions = singleton([3, 1, 2])
        assert len(partitions) == 3
        assert all(len(p.values) == 1 for p in partitions)

    def test_zero_buckets_rejected(self):
        with pytest.raises(PartitionError):
            equi_depth([1], 0)

    def test_negative_buckets_rejected(self):
        with pytest.raises(PartitionError):
            equi_depth([1, 2], -3)

    def test_equi_depth_empty_domain(self):
        assert equi_depth([], 3) == []

    def test_singleton_empty_domain(self):
        assert singleton([]) == []

    def test_equi_depth_single_bucket(self):
        partitions = equi_depth([11, 3, 7], 1)
        assert len(partitions) == 1
        assert partitions[0].values == {3, 7, 11}
        assert partitions[0].bounds == (3, 11)

    def test_equi_depth_int_buckets_are_ascending_ranges(self):
        partitions = equi_depth([1, 5, 9, 13, 22, 40], 3)
        assert [p.bounds for p in partitions] == [(1, 5), (9, 13), (22, 40)]
        for p in partitions:
            assert p.bounds == (min(p.values), max(p.values))

    def test_equi_depth_string_buckets_have_no_bounds(self):
        partitions = equi_depth(["a", "b", "c", "d"], 2)
        assert all(p.bounds is None for p in partitions)

    def test_equi_depth_disjoint(self):
        partitions = equi_depth(range(100), 7)
        assert len(partitions) <= 7
        seen = set()
        for p in partitions:
            assert not (p.values & seen)
            seen |= p.values
        assert seen == set(range(100))

    def test_equi_depth_counts_each_value_once(self):
        partitions = equi_depth([1, 1, 2, 2, 2, 3], 3)
        assert [p.values for p in partitions] == [{1}, {2}, {3}]

    def test_singleton_counts_each_value_once(self):
        partitions = singleton([2, 2, 1, 2])
        assert [p.values for p in partitions] == [{1}, {2}]

    def test_equi_depth_ignores_input_order(self):
        assert equi_depth([9, 2, 7, 4, 1], 2) == equi_depth([1, 2, 4, 7, 9], 2)

    @given(
        st.sets(st.integers(0, 1000), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_strategies_partition_domain(self, domain, buckets):
        for strategy in (
            lambda: equi_depth(domain, buckets),
            lambda: singleton(domain),
        ):
            partitions = strategy()
            covered = [v for p in partitions for v in p.values]
            assert sorted(covered) == sorted(domain)  # no gaps, no dups


class TestIndexTable:
    @pytest.fixture
    def table(self):
        return build_index_table(
            "R1.k", equi_depth([1, 2, 3, 4, 5, 6], 3), salt=b"fixed-salt"
        )

    def test_index_of(self, table):
        for value in (1, 4, 6):
            index = table.index_of(value)
            assert value in table_values(table, index)

    def test_index_of_uncovered(self, table):
        with pytest.raises(PartitionError):
            table.index_of(99)

    def test_unique_index_values(self, table):
        indexes = [index for _, index in table.entries]
        assert len(set(indexes)) == len(indexes)

    def test_salts_decorrelate_tables(self):
        partitions = equi_depth([1, 2, 3, 4], 2)
        t1 = build_index_table("R.k", partitions, salt=b"salt-1")
        t2 = build_index_table("R.k", partitions, salt=b"salt-2")
        assert {i for _, i in t1.entries} != {i for _, i in t2.entries}

    def test_covered_values(self, table):
        assert table.covered_values() == frozenset({1, 2, 3, 4, 5, 6})

    def test_overlapping_pairs(self):
        t1 = build_index_table("R1.k", equi_depth([1, 2, 3, 4], 2), salt=b"a")
        t2 = build_index_table("R2.k", equi_depth([3, 4, 5, 6], 2), salt=b"b")
        pairs = t1.overlapping_pairs(t2)
        # {3,4} of t1 overlaps {3,4} of t2 only.
        assert len(pairs) == 1
        index_1, index_2 = pairs[0]
        assert table_values(t1, index_1) == frozenset({3, 4})
        assert table_values(t2, index_2) == frozenset({3, 4})

    def test_no_overlap(self):
        t1 = build_index_table("R1.k", singleton([1, 2]), salt=b"a")
        t2 = build_index_table("R2.k", singleton([8, 9]), salt=b"b")
        assert t1.overlapping_pairs(t2) == []

    def test_serialization_round_trip(self, table):
        restored = IndexTable.from_bytes(table.to_bytes())
        assert restored.attribute == table.attribute
        assert [i for _, i in restored.entries] == [i for _, i in table.entries]
        assert restored.covered_values() == table.covered_values()

    def test_serialization_with_bounds_and_strings(self):
        table = build_index_table(
            "R.name", equi_depth(["ada", "bob", "eve"], 2), salt=b"s"
        )
        restored = IndexTable.from_bytes(table.to_bytes())
        assert restored.covered_values() == frozenset({"ada", "bob", "eve"})

    def test_serialized_bytes_are_pinned(self):
        """Every value type, through the one tag table of
        :mod:`repro.relational.encoding`, in a fixed text form."""
        table = IndexTable(
            "R1.k",
            (
                (Partition(frozenset({True, -7})), 11),
                (Partition(frozenset({2**63 + 5, "żółw"})), 12),
            ),
        )
        data = table.to_bytes()
        assert data == (
            b'{"attribute":"R1.k","entries":[{"values":["6231","692d37"],'
            b'"bounds":null,"index":11},{"values":["69393232333337323033'
            b'36383534373735383133","73c5bcc3b3c58277"],"bounds":null,'
            b'"index":12}]}'
        )
        restored = IndexTable.from_bytes(data)
        assert restored == table
        values = restored.covered_values()
        assert {type(value) for value in values} == {bool, int, str}
        assert restored.to_bytes() == data

    def test_duplicate_index_values_rejected(self):
        p1, p2 = Partition(frozenset({1})), Partition(frozenset({2}))
        with pytest.raises(PartitionError):
            IndexTable("R.k", ((p1, 7), (p2, 7)))

    def test_overlapping_partitions_rejected(self):
        p1, p2 = Partition(frozenset({1, 2})), Partition(frozenset({2, 3}))
        with pytest.raises(PartitionError):
            IndexTable("R.k", ((p1, 1), (p2, 2)))


def table_values(table, index):
    (values,) = [p.values for p, i in table.entries if i == index]
    return values


def scanned_index_of(table: IndexTable, value) -> int:
    """The partition scan ``index_of`` replaced: the oracle."""
    for partition, index in table.entries:
        if value in partition.values:
            return index
    raise PartitionError(f"value {value!r} not covered by any partition")


domains = {
    "int": st.sets(st.integers(-50, 50), min_size=1, max_size=30),
    "string": st.sets(st.text("abcxyz", max_size=3), min_size=1, max_size=30),
    "mixed": st.sets(
        st.one_of(st.integers(-5, 5), st.text("ab", max_size=2)),
        min_size=1, max_size=30,
    ),
}


class TestIndexOfIsOneLookup:
    """``index_of`` reads the value -> index dict ``__post_init__``
    builds; it must answer exactly as the partition scan did."""

    @pytest.mark.parametrize("domain", sorted(domains))
    @pytest.mark.parametrize("strategy", ["equi_depth", "singleton"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_the_scan_for_every_value(self, domain, strategy, data):
        values = data.draw(domains[domain])
        buckets = data.draw(st.integers(1, 8))
        partitions = (
            equi_depth(values, buckets) if strategy == "equi_depth"
            else singleton(values)
        )
        table = build_index_table("R.k", partitions, salt=b"s")
        for value in values:
            assert table.index_of(value) == scanned_index_of(table, value)
        assert table.covered_values() == frozenset(values)
        for uncovered in (99, "zz", -99):
            if uncovered not in values:
                with pytest.raises(PartitionError, match="not covered"):
                    table.index_of(uncovered)
        # Equality and the bytes see the entries alone.
        assert IndexTable.from_bytes(table.to_bytes()).entries == table.entries
