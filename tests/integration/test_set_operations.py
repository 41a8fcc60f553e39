"""Encrypted set operations via the join protocols (Section 8).

"Inclusion of other relational operations is a demanding field of
further research" — one operation falls out of the existing machinery
for free: **encrypted intersection**.  When both relations share their
entire schema, the natural join *is* the intersection, so any of the
three protocols computes it over ciphertexts unchanged.  These tests pin
that down, together with the value-level intersection the commutative
protocol's artifacts expose.
"""

import pytest

from repro import Federation, run_join_query
from repro.mediation.access_control import allow_all
from repro.relational.relation import Relation
from repro.relational.schema import schema

S_A = schema("A", item="string", category="string", stock="int")
S_B = schema("B", item="string", category="string", stock="int")

A = Relation(
    S_A,
    [
        ("bolt", "fastener", 100),
        ("nut", "fastener", 250),
        ("gear", "drive", 30),
        ("belt", "drive", 12),
    ],
)
B = Relation(
    S_B,
    [
        ("bolt", "fastener", 100),
        ("nut", "fastener", 999),  # same item, different stock: no match
        ("gear", "drive", 30),
        ("cam", "drive", 7),
    ],
)


def build_federation(ca, client):
    federation = Federation(ca=ca)
    federation.add_source("SA", [(A, allow_all())])
    federation.add_source("SB", [(B, allow_all())])
    federation.attach_client(client)
    return federation


class TestEncryptedIntersection:
    EXPECTED = set(A.rows) & set(B.rows)

    @pytest.mark.parametrize(
        "protocol", ["commutative", "private-matching"]
    )
    def test_full_schema_join_is_intersection(self, ca, client, protocol):
        result = run_join_query(
            build_federation(ca, client),
            "select * from A natural join B",
            protocol=protocol,
        )
        assert set(result.global_result.rows) == self.EXPECTED
        assert set(result.global_result.rows) == {
            ("bolt", "fastener", 100),
            ("gear", "drive", 30),
        }

    def test_intersection_leaks_only_counts(self, ca, client):
        result = run_join_query(
            build_federation(ca, client),
            "select * from A natural join B",
            protocol="commutative",
        )
        # The mediator matched whole-row keys without seeing any row.
        assert result.artifacts["intersection_size"] == 2
        from repro.analysis.leakage import verify_no_plaintext_leak

        assert verify_no_plaintext_leak(result, [A, B]) == []

    def test_projection_gives_value_intersection(self, ca, client):
        """π_item of the encrypted intersection = set intersection of
        the item columns *restricted to fully matching rows*."""
        result = run_join_query(
            build_federation(ca, client),
            "select item from A natural join B",
            protocol="commutative",
        )
        assert {row[0] for row in result.global_result} == {"bolt", "gear"}


class TestSingleColumnIntersection:
    """Pure value-set intersection: project each side to the key column
    (modelled as single-attribute relations at the sources)."""

    def test_value_sets(self, ca, client):
        keys_a = Relation(schema("KA", item="string"),
                          [(row[0],) for row in A])
        keys_b = Relation(schema("KB", item="string"),
                          [(row[0],) for row in B])
        federation = Federation(ca=ca)
        federation.add_source("SA", [(keys_a, allow_all())])
        federation.add_source("SB", [(keys_b, allow_all())])
        federation.attach_client(client)
        result = run_join_query(
            federation, "select * from KA natural join KB",
            protocol="commutative",
        )
        assert {row[0] for row in result.global_result} == {
            "bolt", "nut", "gear",
        }
