"""Tests for step timing and the MediationResult container."""

import time

from repro.core.result import MediationResult, StepTiming
from repro.core.timing import (
    STEP_FAILURES_METRIC,
    STEP_SECONDS_METRIC,
    timed,
)
from repro.crypto.instrumentation import PrimitiveCounter
from repro.mediation.network import Network
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.telemetry import MetricsRegistry, Tracer, use_metrics, use_tracer


def make_result():
    network = Network()
    network.register("a")
    network.register("b")
    return MediationResult(
        protocol="test",
        query="select *",
        global_result=Relation(schema("R", k="int"), [(1,)]),
        network=network,
        primitive_counter=PrimitiveCounter(),
    )


class TestTimed:
    def test_records_duration(self):
        result = make_result()
        with timed(result, "client", "work"):
            time.sleep(0.01)
        assert len(result.timings) == 1
        timing = result.timings[0]
        assert timing.party == "client" and timing.step == "work"
        assert timing.seconds >= 0.01

    def test_records_on_exception(self):
        result = make_result()
        try:
            with timed(result, "client", "failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert result.timings[0].step == "failing"

    def test_failing_step_still_records_duration_and_is_marked(self):
        result = make_result()
        try:
            with timed(result, "client", "failing"):
                time.sleep(0.01)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        timing = result.timings[0]
        assert timing.seconds >= 0.01
        assert timing.ok is False
        assert result.failed_steps() == [timing]
        assert "client/failing" in result.summary()

    def test_successful_step_marked_ok(self):
        result = make_result()
        with timed(result, "client", "work"):
            pass
        assert result.timings[0].ok is True
        assert result.failed_steps() == []

    def test_feeds_histogram_and_failure_counter(self):
        result = make_result()
        registry = MetricsRegistry()
        with use_metrics(registry):
            with timed(result, "client", "work"):
                pass
            try:
                with timed(result, "client", "work"):
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
        labels = {"party": "client", "step": "work"}
        histogram = registry.histogram(STEP_SECONDS_METRIC, labels)
        assert histogram.count == 2
        assert registry.value(STEP_FAILURES_METRIC, labels) == 1

    def test_opens_a_step_span(self):
        result = make_result()
        tracer = Tracer()
        with use_tracer(tracer):
            with timed(result, "client", "work"):
                pass
            try:
                with timed(result, "client", "bad"):
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
        (work,) = tracer.find("work")
        (bad,) = tracer.find("bad")
        assert work.party == "client" and work.status == "ok"
        assert bad.status == "error"


class TestMediationResult:
    def test_seconds_aggregation(self):
        result = make_result()
        result.add_timing("client", "a", 0.5)
        result.add_timing("client", "b", 0.25)
        result.add_timing("S1", "c", 1.0)
        assert result.total_seconds() == 1.75

    def test_total_bytes_delegates_to_network(self):
        result = make_result()
        result.network.send("a", "b", "kind", b"12345")
        assert result.total_bytes() == result.network.total_bytes()

    def test_interaction_count_delegates(self):
        result = make_result()
        result.network.send("a", "b", "kind", None)
        assert result.interaction_count("a", "b") == 1

    def test_summary_mentions_key_facts(self):
        result = make_result()
        result.add_timing("client", "a", 0.5)
        summary = result.summary()
        assert "protocol: test" in summary
        assert "1 rows" in summary

    def test_step_timing_dataclass(self):
        timing = StepTiming("p", "s", 1.5)
        assert (timing.party, timing.step, timing.seconds) == ("p", "s", 1.5)
