"""Tests for Listing/Figure conformance checking (E3/E4)."""

import dataclasses

import pytest

from repro import DASConfig, run_join_query
from repro.analysis.conformance import (
    architecture_edges,
    check_flow,
    expected_flow,
)
from repro.errors import ProtocolError
from repro.telemetry.observables import detect_roles

QUERY = "select * from R1 natural join R2"


@pytest.fixture(scope="module")
def factory(ca, client, workload):
    from repro import Federation
    from repro.mediation.access_control import allow_all

    def make():
        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        return federation

    return make


class TestFlowConformance:
    @pytest.mark.parametrize(
        "protocol,config",
        [
            ("das", None),
            ("das", DASConfig(setting="mediator")),
            ("commutative", None),
            ("private-matching", None),
        ],
    )
    def test_transcripts_conform(self, factory, protocol, config):
        result = run_join_query(factory(), QUERY, protocol=protocol, config=config)
        flow = check_flow(result)
        assert flow.conforms, flow.mismatches

    def test_expected_flow_unknown_protocol(self):
        with pytest.raises(ProtocolError):
            expected_flow("quantum")

    def test_mismatch_detection(self, factory):
        result = run_join_query(factory(), QUERY, protocol="commutative")
        # Inject an extra out-of-protocol message and re-check.
        result.network.send("S1", "mediator", "commutative_m_set", [])
        # The injected message lies past the run's own range; check the
        # whole transcript, which holds it.
        flow = check_flow(dataclasses.replace(result, message_range=None))
        assert not flow.conforms
        assert any("flow length" in m for m in flow.mismatches)


class TestArchitecture:
    @pytest.mark.parametrize(
        "protocol", ["das", "commutative", "private-matching"]
    )
    def test_star_topology(self, factory, protocol):
        result = run_join_query(factory(), QUERY, protocol=protocol)
        facts = architecture_edges(result)
        assert all(facts.values()), facts

    def test_role_detection(self, factory, client):
        result = run_join_query(factory(), QUERY, protocol="das")
        assert detect_roles(result.messages) == {
            "client": client.name, "mediator": "mediator", "sources": ["S1", "S2"],
        }

    def test_sources_never_talk_directly(self, factory):
        # Even in the commutative protocol - where sources process each
        # other's messages - everything routes through the mediator.
        result = run_join_query(factory(), QUERY, protocol="commutative")
        for message in result.network.transcript:
            assert not (
                message.sender in ("S1", "S2")
                and message.receiver in ("S1", "S2")
            )
