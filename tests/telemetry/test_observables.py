"""Tests for the adversary's-eye observable traces."""

from collections import namedtuple

import pytest

from repro import run_join_query
from repro.errors import ProtocolError, TelemetryError
from repro.telemetry.observables import (
    MIN_SIZE_BUCKET,
    ObservableTrace,
    ObservedMessage,
    adversary_traces,
    detect_roles,
    latency_bucket,
    network_trace_from_records,
    observable_items,
    observables_artifact,
    size_bucket,
)

QUERY = "select * from R1 natural join R2"


class TestSizeBucket:
    def test_floor_bucket_absorbs_small_messages(self):
        assert size_bucket(0) == MIN_SIZE_BUCKET
        assert size_bucket(1) == MIN_SIZE_BUCKET
        assert size_bucket(MIN_SIZE_BUCKET) == MIN_SIZE_BUCKET

    def test_powers_of_two_are_their_own_bucket(self):
        assert size_bucket(128) == 128
        assert size_bucket(4096) == 4096

    def test_one_past_a_boundary_moves_up(self):
        assert size_bucket(MIN_SIZE_BUCKET + 1) == 2 * MIN_SIZE_BUCKET
        assert size_bucket(129) == 256


class TestObservableItems:
    def test_opaque_bodies_are_uncountable(self):
        assert observable_items(None) is None
        assert observable_items(b"ciphertext") is None
        assert observable_items("token") is None
        assert observable_items(42) is None

    def test_collections_expose_their_length(self):
        assert observable_items([1, 2, 3]) == 3
        assert observable_items((1,)) == 1

    def test_envelope_dict_reports_largest_collection(self):
        assert observable_items({"relation": [1, 2, 3], "meta": "x"}) == 3
        # No inner collection: the key count itself is the structure.
        assert observable_items({"a": 1, "b": 2}) == 2


class TestLatencyBucket:
    def test_maps_to_histogram_labels(self):
        assert latency_bucket(0.0).startswith("le_")
        assert latency_bucket(10_000.0) == "le_inf"


class TestAdversaryTraces:
    @pytest.fixture(scope="class")
    def result(self, ca, client, workload):
        from repro import Federation
        from repro.mediation.access_control import allow_all

        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        return run_join_query(federation, QUERY, protocol="commutative")

    def test_one_trace_per_adversary(self, result):
        traces = adversary_traces(result)
        assert set(traces) == {
            "network", "mediator", "datasource:S1", "datasource:S2",
        }

    def test_client_identity_is_canonicalized(self, result):
        """The configured client name ('test-client' here) is deployment
        presentation, not observable structure — links must say 'client'
        so artifacts compare across differently-named clients."""
        traces = adversary_traces(result)
        links = {m.link for t in traces.values() for m in t.messages}
        assert any(link.startswith("client->") for link in links)
        assert not any("test-client" in link for link in links)

    def test_network_observer_sees_framing_not_bodies(self, result):
        network = adversary_traces(result)["network"]
        assert network.messages, "wire observer saw no traffic"
        assert all(m.direction == "wire" for m in network.messages)
        assert all(m.items is None for m in network.messages)
        assert network.result_sizes == {}

    def test_mediator_counts_ciphertext_structure(self, result):
        mediator = adversary_traces(result)["mediator"]
        directions = {m.direction for m in mediator.messages}
        assert directions <= {"sent", "received"}
        # Tuple-wise encryption leaves row counts observable.
        assert mediator.result_sizes

    def test_datasource_sees_only_its_own_link(self, result):
        s1 = adversary_traces(result)["datasource:S1"]
        assert s1.messages
        assert all(
            m.link.startswith("S1->") or m.link.endswith("->S1")
            for m in s1.messages
        )

    def test_roles_detected_from_transcript(self, result):
        roles = detect_roles(result.messages)
        assert roles["mediator"] == "mediator"
        assert set(roles["sources"]) == {"S1", "S2"}

    def test_observables_artifact_is_built_on_demand(self, result):
        assert "observables" not in result.artifacts
        artifact = observables_artifact(result)
        assert set(artifact) >= {"network", "mediator"}
        assert artifact["network"]["messages"] > 0

    def test_artifact_covers_the_run_not_the_federations_history(
        self, ca, client, workload
    ):
        """A federation answering a series of queries keeps one growing
        transcript; each result's observables describe that run alone
        (and cost the same to compute whatever came before)."""
        from repro import Federation
        from repro.mediation.access_control import allow_all

        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        results = [
            run_join_query(federation, QUERY, protocol="das") for _ in range(3)
        ]
        first, *later = (observables_artifact(result) for result in results)
        for artifact in later:
            assert artifact == first
        # The full history stays available to whoever asks for it.
        history = results[-1].network.transcript
        assert len(history) == 3 * first["network"]["messages"]

    def test_detect_roles_rejects_empty_transcript(self):
        with pytest.raises(ProtocolError):
            detect_roles([])


class TestTraceDistributions:
    def trace(self, events):
        trace = ObservableTrace("network", "das", "Network")
        for position, (link, kind, size) in enumerate(events):
            trace.messages.append(
                ObservedMessage(position, link, kind, "wire", size)
            )
        return trace

    def test_kind_counts_and_size_histogram(self):
        trace = self.trace([
            ("a->b", "q", 64), ("a->b", "q", 128), ("b->a", "r", 64),
        ])
        assert trace.kind_counts() == {"a->b|q": 2, "b->a|r": 1}
        assert trace.size_histogram() == {
            "a->b|q|64": 1, "a->b|q|128": 1, "b->a|r|64": 1,
        }
        assert trace.event_sequence() == [
            "a->b|q|64", "a->b|q|128", "b->a|r|64",
        ]

    def test_bucket_frequency_shape_is_label_free(self):
        trace = self.trace([])
        trace.bucket_frequencies = {"salted-x": 2, "salted-y": 5}
        assert trace.bucket_frequency_shape() == [5, 2]

    def test_summary_is_json_shaped(self):
        trace = self.trace([("a->b", "q", 64)])
        summary = trace.summary()
        assert summary["messages"] == 1
        assert summary["kinds"] == {"a->b|q": 1}
        assert summary["bucket_frequency_shape"] == []


class TestNetworkTraceFromRecords:
    Record = namedtuple(
        "Record", "sequence sender receiver kind wire_bytes"
    )

    def test_orders_by_sequence_and_buckets_wire_bytes(self):
        records = [
            self.Record(2, "mediator", "client", "result", 5000),
            self.Record(1, "client", "mediator", "global_query", 100),
        ]
        trace = network_trace_from_records(records, "commutative")
        assert trace.adversary == "network"
        assert trace.transport == "TcpTransport"
        assert [m.kind for m in trace.messages] == ["global_query", "result"]
        assert [m.size_bucket for m in trace.messages] == [128, 8192]


class TestHistogramQuantileBoundaries:
    """Boundary percentiles of the telemetry histogram estimator."""

    def histogram(self):
        from repro.telemetry.metrics import Histogram

        return Histogram(buckets=(0.1, 1.0, 10.0))

    def test_empty_histogram_has_no_quantiles(self):
        assert self.histogram().quantile(0.5) == 0.0

    def test_zero_and_one_fractions(self):
        histogram = self.histogram()
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 0.0
        assert histogram.quantile(1.0) == 10.0

    def test_interpolates_within_bucket(self):
        histogram = self.histogram()
        histogram.observe(0.5)
        histogram.observe(0.6)
        # Median of two observations in (0.1, 1.0]: halfway in.
        assert histogram.quantile(0.5) == pytest.approx(0.55, abs=0.5)
        assert 0.1 < histogram.quantile(0.5) <= 1.0

    def test_inf_bucket_clamps_to_last_finite_bound(self):
        histogram = self.histogram()
        histogram.observe(1e9)
        assert histogram.quantile(0.99) == 10.0

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(TelemetryError):
            self.histogram().quantile(1.5)
        with pytest.raises(TelemetryError):
            self.histogram().quantile(-0.1)
