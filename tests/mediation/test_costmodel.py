"""Tests for the network cost model."""

import pytest

from repro.errors import ParameterError
from repro.mediation.costmodel import INTERNET, LAN, PRESETS, WAN, NetworkCostModel
from repro.mediation.network import ENVELOPE_BYTES, Network


@pytest.fixture
def network():
    net = Network()
    for party in ("a", "b", "c"):
        net.register(party)
    net.send("a", "b", "k", b"x" * (1000 - ENVELOPE_BYTES))
    net.send("b", "c", "k", b"x" * (2000 - ENVELOPE_BYTES))
    net.send("c", "a", "k", b"x" * (3000 - ENVELOPE_BYTES))
    return net


class TestModel:
    def test_message_cost(self):
        model = NetworkCostModel("m", latency_seconds=0.01,
                                 bandwidth_bytes_per_second=1000)
        assert model.message_cost(500) == pytest.approx(0.01 + 0.5)

    def test_transcript_cost_serial(self, network):
        model = NetworkCostModel("m", latency_seconds=0.1,
                                 bandwidth_bytes_per_second=1e6)
        expected = 3 * 0.1 + (1000 + 2000 + 3000) / 1e6
        assert model.transcript_cost(network) == pytest.approx(expected)

    def test_link_cost(self, network):
        model = NetworkCostModel("m", latency_seconds=0.0,
                                 bandwidth_bytes_per_second=1000)
        assert model.link_cost(network, "a", "b") == pytest.approx(1.0)
        assert model.link_cost(network, "b", "a") == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            NetworkCostModel("bad", latency_seconds=-1,
                             bandwidth_bytes_per_second=1)
        with pytest.raises(ParameterError):
            NetworkCostModel("bad", latency_seconds=0,
                             bandwidth_bytes_per_second=0)


class TestPresets:
    def test_ordering(self, network):
        lan = LAN.transcript_cost(network)
        wan = WAN.transcript_cost(network)
        internet = INTERNET.transcript_cost(network)
        assert lan < wan < internet

    def test_registry(self):
        assert set(PRESETS) == {"lan", "wan", "internet"}
        assert PRESETS["wan"] is WAN


class TestProtocolRankingUnderModels:
    def test_latency_shifts_the_balance(self, ca, client, skewed_workload):
        """On a LAN bytes dominate; at very high latency the *message
        count* dominates, and DAS (8 messages) beats both others.

        The workload has several rows per join value.  DAS's server
        result ships each selected row once plus 8 bytes per pair of
        the bucket cross-product, so it undercuts PM's Paillier traffic
        even on bytes; the commutative protocol (12 messages of bare
        group elements) is the one that is lighter than DAS on bytes and
        heavier on round trips.
        """
        workload = skewed_workload
        from repro import Federation, run_join_query
        from repro.mediation.access_control import allow_all

        def run(protocol):
            federation = Federation(ca=ca)
            federation.add_source("S1", [(workload.relation_1, allow_all())])
            federation.add_source("S2", [(workload.relation_2, allow_all())])
            federation.attach_client(client)
            return run_join_query(
                federation, "select * from R1 natural join R2",
                protocol=protocol,
            )

        das = run("das")
        commutative = run("commutative")
        pm = run("private-matching")
        satellite = NetworkCostModel(
            "satellite", latency_seconds=10.0,
            bandwidth_bytes_per_second=1e9,
        )
        assert satellite.transcript_cost(das.network) < (
            satellite.transcript_cost(commutative.network)
        ) < satellite.transcript_cost(pm.network)
        # With pure bandwidth costs the first two swap places.
        bulk = NetworkCostModel(
            "bulk", latency_seconds=0.0, bandwidth_bytes_per_second=1e3
        )
        assert bulk.transcript_cost(commutative.network) < (
            bulk.transcript_cost(das.network)
        ) < bulk.transcript_cost(pm.network)
