"""Tests for the differential leakage auditor and its artifact."""

import pytest

from repro import Federation
from repro.analysis.audit import (
    AUDIT_PROTOCOLS,
    DEFAULT_GATE_RULES,
    LEAKAGE_SCHEMA,
    AuditConfig,
    adjacent_workload,
    differential_audit,
    leakage_json,
    trace_distances,
)
from repro.errors import ParameterError
from repro.mediation.access_control import allow_all
from repro.relational.datagen import WorkloadSpec, generate
from repro.telemetry.observables import ObservableTrace, ObservedMessage

#: Small-but-joinable audit workload (6 runs per protocol audited).
MINI_SPEC = WorkloadSpec(
    domain_1=4,
    domain_2=4,
    overlap=2,
    rows_per_value_1=1,
    rows_per_value_2=1,
    seed=3,
)


@pytest.fixture
def audit_factory(ca, client):
    """Reuse the session's key material across audit runs."""

    def factory(workload, network):
        federation = Federation(ca=ca, network=network)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        return federation

    return factory


class TestAdjacentWorkload:
    def test_moves_exactly_one_join_value(self):
        base = generate(MINI_SPEC)
        adjacent, perturbation = adjacent_workload(base)
        victim = base.shared_values[0]
        join = base.spec.join_attribute
        # Same shape, one value moved out of the intersection.
        assert len(adjacent.relation_1.rows) == len(base.relation_1.rows)
        assert adjacent.relation_2.rows == base.relation_2.rows
        assert victim not in adjacent.relation_1.active_domain(join)
        assert victim not in adjacent.shared_values
        assert len(adjacent.shared_values) == len(base.shared_values) - 1
        assert perturbation["rows_rewritten"] >= 1
        assert perturbation["replaced_value"] == str(victim)

    def test_replacement_outside_both_active_domains(self):
        base = generate(MINI_SPEC)
        adjacent, perturbation = adjacent_workload(base)
        join = base.spec.join_attribute
        replacement = perturbation["replacement"]
        taken = {
            str(value)
            for value in (
                *base.relation_1.active_domain(join),
                *base.relation_2.active_domain(join),
            )
        }
        assert replacement not in taken

    def test_requires_a_shared_value(self):
        base = generate(MINI_SPEC)
        disjoint = type(base)(
            spec=base.spec,
            relation_1=base.relation_1,
            relation_2=base.relation_2,
            shared_values=(),
        )
        with pytest.raises(ParameterError):
            adjacent_workload(disjoint)


class TestAuditConfig:
    def test_rejects_unknown_transport(self):
        for transport in ("carrier-pigeon", "cluster"):
            with pytest.raises(ParameterError):
                AuditConfig(transport=transport)

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ParameterError):
            AuditConfig(protocols=("merge-join",))


class TestTraceDistances:
    def trace(self, events, cardinalities=None):
        trace = ObservableTrace("mediator", "das", "Network")
        for position, (link, kind, size) in enumerate(events):
            trace.messages.append(
                ObservedMessage(position, link, kind, "received", size)
            )
        for kind, sizes in (cardinalities or {}).items():
            trace.result_sizes[kind] = sizes
        return trace

    def test_identical_traces_are_zero_distance(self):
        events = [("a->b", "q", 64), ("b->a", "r", 128)]
        distances = trace_distances(self.trace(events), self.trace(events))
        assert all(value == 0.0 for value in distances.values())
        assert "timing_tv" not in distances

    def test_extra_message_moves_every_count_channel(self):
        base = self.trace([("a->b", "q", 64)])
        adjacent = self.trace([("a->b", "q", 64), ("a->b", "q", 64)])
        distances = trace_distances(base, adjacent)
        assert distances["max_count_delta"] == 1.0
        assert distances["max_bucket_count_delta"] == 1.0
        assert distances["sequence_divergence"] == 0.5
        assert distances["messages_tv"] == 0.0  # same support, same mass

    def test_cardinality_channel(self):
        base = self.trace([], cardinalities={"result": [10]})
        adjacent = self.trace([], cardinalities={"result": [14]})
        assert trace_distances(base, adjacent)["max_cardinality_delta"] == 4.0

    def test_timing_channel_only_on_request(self):
        base = self.trace([])
        base.latency_buckets = {"join": {"le_1": 1}}
        adjacent = self.trace([])
        adjacent.latency_buckets = {"join": {"le_inf": 1}}
        assert "timing_tv" not in trace_distances(base, adjacent)
        assert trace_distances(base, adjacent, True)["timing_tv"] == 1.0


class TestDifferentialAudit:
    @pytest.fixture(scope="class")
    def document(self, ca, client):
        def factory(workload, network):
            federation = Federation(ca=ca, network=network)
            federation.add_source("S1", [(workload.relation_1, allow_all())])
            federation.add_source("S2", [(workload.relation_2, allow_all())])
            federation.attach_client(client)
            return federation

        return differential_audit(
            AuditConfig(spec=MINI_SPEC), federation_factory=factory
        )

    def test_artifact_schema(self, document):
        assert document["schema"] == LEAKAGE_SCHEMA
        assert document["transport"] == "bus"
        assert document["canary"] is False
        assert set(document["protocols"]) == set(AUDIT_PROTOCOLS)
        assert document["workload"]["perturbation"]["rows_rewritten"] >= 1

    def test_every_adversary_audited_per_protocol(self, document):
        for entry in document["protocols"].values():
            assert set(entry["adversaries"]) == {
                "network", "mediator", "datasource:S1", "datasource:S2",
            }

    def test_gate_covers_every_gated_metric(self, document):
        gate = document["gate"]
        expected = (
            len(document["protocols"]) * 4 * len(DEFAULT_GATE_RULES)
        )
        assert len(gate) == expected
        for key, rule in gate.items():
            protocol, adversary, metric = key.split("/")
            assert protocol in AUDIT_PROTOCOLS
            assert metric in DEFAULT_GATE_RULES
            assert rule["direction"] == "max"

    def test_table1_ordering_is_measured(self, document):
        """DAS leaks the most to the mediator, private matching the
        least — Table 1's qualitative ranking as measured distances."""
        mediator = {
            protocol: entry["adversaries"]["mediator"]["distances"]
            for protocol, entry in document["protocols"].items()
        }
        assert mediator["das"]["max_cardinality_delta"] > 0
        assert mediator["private-matching"]["max_count_delta"] == 0.0
        assert mediator["private-matching"]["messages_tv"] == 0.0

    def test_deterministic_across_runs(self, document, audit_factory):
        again = differential_audit(
            AuditConfig(spec=MINI_SPEC), federation_factory=audit_factory
        )
        assert leakage_json(document) == leakage_json(again)

    def test_canary_breaches_the_declared_gate(self, document, audit_factory):
        from repro.telemetry.observables import size_bucket

        canary = differential_audit(
            AuditConfig(spec=MINI_SPEC, canary=True, protocols=("das",)),
            federation_factory=audit_factory,
        )
        kinds = canary["protocols"]["das"]["adversaries"]["network"]["base"][
            "kinds"
        ]
        assert any("leak_pad" in kind for kind in kinds)
        # The pad count tracks body cardinality, so the count channel
        # must exceed the honest document's gate bound.
        distances = canary["protocols"]["das"]["adversaries"]["network"][
            "distances"
        ]
        rule = document["gate"]["das/network/max_count_delta"]
        honest = document["protocols"]["das"]["adversaries"]["network"][
            "distances"
        ]["max_count_delta"]
        bound = honest * (1 + rule["tolerance"]) + rule["slack"]
        assert distances["max_count_delta"] > bound
        assert size_bucket(32) == 64  # pads land in the floor bucket

    def test_tcp_and_bus_expose_identical_interaction_patterns(
        self, audit_factory, document
    ):
        """The capture path is the shared transcript, so the per-kind
        message counts must match across transports (sizes may bucket
        differently — TCP measures real wire bytes)."""
        tcp = differential_audit(
            AuditConfig(
                spec=MINI_SPEC, transport="tcp", protocols=("commutative",)
            ),
            federation_factory=audit_factory,
        )
        bus = document["protocols"]["commutative"]["adversaries"]
        over_tcp = tcp["protocols"]["commutative"]["adversaries"]
        for adversary in bus:
            bus_kinds = {
                key.split("|")[1]: count
                for key, count in bus[adversary]["base"]["kinds"].items()
            }
            tcp_kinds = {
                key.split("|")[1]: count
                for key, count in over_tcp[adversary]["base"]["kinds"].items()
            }
            assert bus_kinds == tcp_kinds, adversary
