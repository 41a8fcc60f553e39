"""Tests for the mediator's registry and query decomposition."""

import pytest

from repro.errors import QueryError
from repro.mediation.mediator import Mediator
from repro.relational.schema import schema

S1 = schema("R1", k="int", a="string")
S2 = schema("R2", k="int", b="string")
S3 = schema("R3", c="string")
S_SAME = schema("R4", k="int", z="string")
S_MULTI_1 = schema("M1", k="int", t="string", a="string")
S_MULTI_2 = schema("M2", k="int", t="string", b="string")


@pytest.fixture
def mediator():
    mediator = Mediator()
    mediator.register_source("S1", S1, S_MULTI_1)
    mediator.register_source("S2", S2, S3, S_MULTI_2)
    mediator.register_source("S1b", S_SAME)
    return mediator


class TestRegistry:
    def test_localize(self, mediator):
        assert mediator.localize("R1") == "S1"
        assert mediator.localize("R3") == "S2"

    def test_unknown_relation(self, mediator):
        with pytest.raises(QueryError):
            mediator.localize("R99")

    def test_duplicate_registration_rejected(self, mediator):
        with pytest.raises(QueryError):
            mediator.register_source("S3", S1)


class TestDecomposition:
    def test_basic_join(self, mediator):
        decomposition = mediator.decompose_join(
            "select * from R1 natural join R2"
        )
        assert decomposition.source_names == ("S1", "S2")
        assert decomposition.join_attributes == ("k",)
        assert [q.sql for q in decomposition.partial_queries] == [
            "select * from R1",
            "select * from R2",
        ]

    def test_multi_attribute_join(self, mediator):
        decomposition = mediator.decompose_join(
            "select * from M1 natural join M2"
        )
        assert decomposition.join_attributes == ("k", "t")

    def test_projection_and_selection_allowed(self, mediator):
        decomposition = mediator.decompose_join(
            "select k from R1 natural join R2 where k > 3"
        )
        assert len(decomposition.partial_queries) == 2

    def test_no_join_rejected(self, mediator):
        with pytest.raises(QueryError):
            mediator.decompose_join("select * from R1")

    def test_three_relations_rejected(self, mediator):
        with pytest.raises(QueryError):
            mediator.decompose_join(
                "select * from R1 natural join R2 natural join R4"
            )

    @pytest.mark.parametrize(
        "query",
        [
            "select * from R1 join R2 on R1.k = R2.k join R4 on R2.k = R4.k",
            "select * from R1, R2, R4",
        ],
        ids=["join-on", "product"],
    )
    def test_three_relations_without_a_join_node_rejected(
        self, mediator, query
    ):
        with pytest.raises(QueryError, match="exactly one JOIN"):
            mediator.decompose_join(query)

    def test_disjoint_schemas_rejected(self, mediator):
        with pytest.raises(QueryError):
            mediator.decompose_join("select * from R1 natural join R3")

    def test_same_source_rejected(self, mediator):
        with pytest.raises(QueryError):
            mediator.decompose_join("select * from R2 natural join R3")

    def test_unknown_relation_rejected(self, mediator):
        with pytest.raises(QueryError):
            mediator.decompose_join("select * from R1 natural join R99")


class TestCredentialSelection:
    def test_all_forwarded_without_interests(self, mediator, ca, rsa_key):
        credential = ca.issue_credential({("role", "x")}, rsa_key.public_key())
        assert mediator.select_credentials("S1", [credential]) == [credential]

    def test_relevant_subset(self, ca, rsa_key):
        mediator = Mediator()
        mediator.register_source(
            "S1", S1, property_names=frozenset({"role"})
        )
        role_cred = ca.issue_credential({("role", "a")}, rsa_key.public_key())
        org_cred = ca.issue_credential({("org", "acme")}, rsa_key.public_key())
        selected = mediator.select_credentials("S1", [role_cred, org_cred])
        assert selected == [role_cred]

    def test_fallback_when_nothing_relevant(self, ca, rsa_key):
        mediator = Mediator()
        mediator.register_source(
            "S1", S1, property_names=frozenset({"clearance"})
        )
        org_cred = ca.issue_credential({("org", "acme")}, rsa_key.public_key())
        assert mediator.select_credentials("S1", [org_cred]) == [org_cred]
