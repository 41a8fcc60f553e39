"""Tests for the end-to-end runner and federation wiring."""

import pytest

from repro import (
    CommutativeConfig,
    DASConfig,
    Federation,
    reference_join,
    run_join_query,
)
from repro.core.runner import PROTOCOLS
from repro.errors import MediationError, ProtocolError
from repro.mediation.access_control import allow_all

QUERY = "select * from R1 natural join R2"


class TestRunner:
    def test_unknown_protocol(self, federation):
        with pytest.raises(ProtocolError):
            run_join_query(federation, QUERY, protocol="quantum")

    def test_config_type_checked(self, federation):
        with pytest.raises(ProtocolError):
            run_join_query(
                federation, QUERY, protocol="das", config=CommutativeConfig()
            )

    def test_registry_complete(self):
        assert set(PROTOCOLS) == {"das", "commutative", "private-matching"}

    def test_result_metadata(self, make_federation, workload):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        assert result.query == QUERY
        assert result.protocol == "commutative"
        assert result.total_seconds() > 0
        assert result.total_bytes() > 0
        assert "protocol: commutative" in result.summary()

    def test_crypto_artifact_names_the_arithmetic(
        self, make_federation, workload
    ):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        assert result.artifacts["crypto"] == {"bigint": "python"}

    def test_timings_per_party(self, make_federation, workload, client):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="das",
            config=DASConfig(),
        )
        assert result.seconds_at(client.name) > 0
        assert result.seconds_at("S1") > 0

    def test_reference_join_matches_projection_query(
        self, make_federation, workload
    ):
        query = "select k from R1 natural join R2 where k >= 0"
        reference = reference_join(make_federation(workload), query)
        assert reference.schema.names() == ("k",)


class TestFederation:
    def test_duplicate_source_rejected(self, federation, workload):
        with pytest.raises(MediationError):
            federation.add_source("S1", [(workload.relation_1, allow_all())])

    def test_second_client_rejected(self, federation, client):
        with pytest.raises(MediationError):
            federation.attach_client(client)

    def test_unknown_source_lookup(self, federation):
        with pytest.raises(MediationError):
            federation.source("S99")

    def test_require_client_without_client(self, make_federation, workload):
        federation = make_federation(workload, attach_client=False)
        with pytest.raises(MediationError):
            federation.require_client()

    def test_parties_registered_on_bus(self, federation, client):
        assert set(federation.network.parties()) == {
            "mediator",
            "S1",
            "S2",
            client.name,
        }
