"""Tests for credential-based access control and datasources."""

import pytest

from repro.errors import AccessDenied, CredentialError, QueryError
from repro.mediation.access_control import (
    AccessPolicy,
    AccessRule,
    allow_all,
    require,
)
from repro.mediation.datasource import DataSource
from repro.relational.algebra import PartialQuery
from repro.relational.conditions import Comparison
from repro.relational.relation import Relation
from repro.relational.schema import schema

S = schema("R", k="int", department="string")
DATA = Relation(
    S,
    [
        (1, "oncology"),
        (2, "cardiology"),
        (3, "oncology"),
    ],
)


@pytest.fixture(scope="module")
def physician_credential(ca, rsa_key):
    return ca.issue_credential({("role", "physician")}, rsa_key.public_key())


@pytest.fixture(scope="module")
def admin_credential(ca, rsa_key):
    return ca.issue_credential(
        {("role", "admin"), ("clearance", "top")}, rsa_key.public_key()
    )


class TestPolicyEvaluation:
    def test_allow_all(self, physician_credential):
        assert allow_all().evaluate(DATA, [physician_credential]) == DATA

    def test_unsatisfied_denied(self, physician_credential):
        policy = require(("role", "admin"))
        with pytest.raises(AccessDenied):
            policy.evaluate(DATA, [physician_credential])

    def test_row_filtering(self, physician_credential):
        policy = require(
            ("role", "physician"),
            condition=Comparison("department", "=", "oncology"),
        )
        permitted = policy.evaluate(DATA, [physician_credential])
        assert set(permitted.rows) == {(1, "oncology"), (3, "oncology")}

    def test_union_of_satisfied_rules(self, admin_credential):
        policy = AccessPolicy(
            rules=[
                AccessRule(
                    frozenset({("role", "admin")}),
                    Comparison("k", "=", 1),
                ),
                AccessRule(
                    frozenset({("clearance", "top")}),
                    Comparison("k", "=", 2),
                ),
            ]
        )
        permitted = policy.evaluate(DATA, [admin_credential])
        assert {row[0] for row in permitted} == {1, 2}

    def test_satisfied_rule_with_zero_rows_still_authorizes(
        self, physician_credential
    ):
        policy = require(
            ("role", "physician"), condition=Comparison("k", "=", 999)
        )
        assert len(policy.evaluate(DATA, [physician_credential])) == 0

    def test_multiple_required_properties(self, admin_credential,
                                          physician_credential):
        policy = require(("role", "admin"), ("clearance", "top"))
        assert len(policy.evaluate(DATA, [admin_credential])) == 3
        with pytest.raises(AccessDenied):
            policy.evaluate(DATA, [physician_credential])

    def test_properties_pool_across_credentials(
        self, ca, rsa_key, physician_credential
    ):
        # Two credentials each assert one property; together they satisfy
        # a two-property rule.
        clearance = ca.issue_credential(
            {("clearance", "top")}, rsa_key.public_key()
        )
        policy = require(("role", "physician"), ("clearance", "top"))
        permitted = policy.evaluate(DATA, [physician_credential, clearance])
        assert len(permitted) == 3


class TestSatisfiedRuleCount:
    """One satisfied rule returns its own grant; two or more their union.
    Either way the schema and the rows are those of the union."""

    ONCOLOGY = Comparison("department", "=", "oncology")
    FIRST = Comparison("k", "=", 1)

    @staticmethod
    def union(relation, rules):
        granted: set = set()
        for rule in rules:
            granted |= set(rule.granted_rows(relation).rows)
        return Relation(relation.schema, granted)

    @pytest.mark.parametrize(
        "conditions",
        [(None,), (ONCOLOGY,), (None, FIRST), (ONCOLOGY, FIRST), (FIRST, FIRST)],
        ids=["one-rule", "one-conditioned", "two-one-unconditioned",
             "two-conditioned", "two-overlapping"],
    )
    def test_the_grant_is_the_union(self, physician_credential, conditions):
        rules = [
            AccessRule(frozenset({("role", "physician")}), condition)
            for condition in conditions
        ]
        unsatisfied = AccessRule(frozenset({("role", "admin")}))
        policy = AccessPolicy(rules=[unsatisfied, *rules])
        permitted = policy.evaluate(DATA, [physician_credential])
        expected = self.union(DATA, rules)
        assert permitted.schema == expected.schema
        assert permitted.rows == expected.rows

    def test_one_unconditioned_rule_grants_the_relation_itself(
        self, physician_credential
    ):
        assert allow_all().evaluate(DATA, [physician_credential]) is DATA

    @pytest.mark.parametrize("condition", [None, ONCOLOGY])
    def test_no_satisfied_rule_is_denied(self, physician_credential, condition):
        policy = AccessPolicy(
            rules=[AccessRule(frozenset({("role", "admin")}), condition)]
        )
        with pytest.raises(AccessDenied, match="satisfy no access rule"):
            policy.evaluate(DATA, [physician_credential])


class TestDataSource:
    @pytest.fixture
    def source(self, ca):
        source = DataSource(name="S1", ca_key=ca.verification_key)
        source.add_relation(
            DATA,
            require(
                ("role", "physician"),
                condition=Comparison("department", "=", "oncology"),
            ),
        )
        return source

    def test_execute_with_valid_credentials(self, source, physician_credential):
        result = source.execute_partial_query(
            PartialQuery("R"), [physician_credential]
        )
        assert set(result.rows) == {(1, "oncology"), (3, "oncology")}

    def test_unknown_relation(self, source, physician_credential):
        with pytest.raises(QueryError):
            source.execute_partial_query(
                PartialQuery("missing"), [physician_credential]
            )

    def test_denied_without_properties(self, source, ca, rsa_key):
        wrong = ca.issue_credential({("role", "student")}, rsa_key.public_key())
        with pytest.raises(AccessDenied):
            source.execute_partial_query(PartialQuery("R"), [wrong])

    def test_tampered_credential_hard_error(self, source, physician_credential):
        from repro.mediation.credentials import Credential

        forged = Credential(
            properties=frozenset({("role", "physician")}),
            public_key=physician_credential.public_key,
            issuer=physician_credential.issuer,
            signature=b"\x00" * len(physician_credential.signature),
        )
        with pytest.raises(CredentialError):
            source.execute_partial_query(PartialQuery("R"), [forged])

    def test_no_ca_key_configured(self, physician_credential):
        source = DataSource(name="naked")
        source.add_relation(DATA)
        with pytest.raises(CredentialError):
            source.execute_partial_query(PartialQuery("R"), [physician_credential])

    def test_relevant_property_names_collected(self, source):
        assert "role" in source.relevant_property_names

    def test_partial_query_condition_pushdown(self, source, physician_credential):
        query = PartialQuery("R", Comparison("k", ">", 1))
        result = source.execute_partial_query(query, [physician_credential])
        # Policy filter AND pushdown condition both apply.
        assert set(result.rows) == {(3, "oncology")}
