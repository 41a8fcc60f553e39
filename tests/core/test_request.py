"""Tests for the Listing 1 request phase."""

import pytest

from repro.core.request import run_request_phase
from repro.errors import AccessDenied, MediationError, QueryError
from repro.mediation.access_control import require

QUERY = "select * from R1 natural join R2"


class TestRequestPhase:
    def test_outcome_shape(self, federation, workload):
        outcome = run_request_phase(federation, QUERY)
        assert outcome.source_names == ("S1", "S2")
        assert outcome.join_attributes == ("k",)
        assert outcome.partial_results["S1"] == workload.relation_1
        assert outcome.partial_results["S2"] == workload.relation_2

    def test_message_flow(self, federation, client):
        run_request_phase(federation, QUERY)
        transcript = federation.network.transcript
        assert [m.kind for m in transcript] == [
            "global_query",
            "partial_query",
            "partial_query",
        ]
        assert transcript[0].sender == client.name
        assert {m.receiver for m in transcript[1:]} == {"S1", "S2"}

    def test_credentials_attached_to_query(self, federation, client):
        run_request_phase(federation, QUERY)
        query_message = federation.network.transcript[0]
        assert query_message.body["credentials"] == client.credentials

    def test_join_attributes_forwarded(self, federation):
        run_request_phase(federation, QUERY)
        for message in federation.network.transcript:
            if message.kind != "partial_query":
                continue
            assert message.body["join_attributes"] == ("k",)

    def test_access_control_enforced(self, make_federation, workload):
        # Policy demands a property the client doesn't have.
        denied = make_federation(
            workload, policy_1=require(("role", "superuser"))
        )
        with pytest.raises(AccessDenied):
            run_request_phase(denied, QUERY)

    def test_no_client_attached(self, make_federation, workload):
        federation = make_federation(workload, attach_client=False)
        with pytest.raises(MediationError):
            run_request_phase(federation, QUERY)

    def test_bad_query_rejected(self, federation):
        with pytest.raises(QueryError):
            run_request_phase(federation, "select * from R1")

    def test_schema_of(self, federation, workload):
        outcome = run_request_phase(federation, QUERY)
        assert outcome.schema_of("S1") == workload.relation_1.schema
