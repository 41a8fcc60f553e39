"""Tests for the live Prometheus scrape endpoint and exporter edge cases."""

import json
import socket

import pytest

from repro.errors import TelemetryError
from repro.telemetry.exporters import (
    prometheus_exposition,
    registry_snapshot_json,
    validate_exposition,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.scrape import (
    EXPOSITION_CONTENT_TYPE,
    MetricsScrapeServer,
)


def raw_request(address, request: bytes) -> str:
    """Send one raw HTTP request; the response up to the server's close."""
    with socket.create_connection(address, timeout=5) as connection:
        connection.sendall(request)
        chunks = []
        while chunk := connection.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks).decode()


def http_get(server_render, path, method="GET"):
    """Start a scrape server, issue one raw HTTP request, tear down."""
    server = MetricsScrapeServer(server_render)
    host, port = server.start()
    try:
        return raw_request(
            (host, port),
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode(),
        )
    finally:
        server.stop()


class TestMetricsScrapeServer:
    def test_serves_live_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_scrapes_total").inc(3)
        response = http_get(
            lambda: prometheus_exposition(registry), "/metrics"
        )
        headers, body = response.split("\r\n\r\n", 1)
        assert headers.startswith("HTTP/1.1 200 OK")
        assert f"Content-Type: {EXPOSITION_CONTENT_TYPE}" in headers
        assert "repro_scrapes_total 3" in body
        assert validate_exposition(body) == []

    def test_render_runs_per_request(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_live_total")

        server = MetricsScrapeServer(lambda: prometheus_exposition(registry))
        address = server.start()
        try:
            bodies = []
            for _ in range(2):
                counter.inc()
                bodies.append(
                    raw_request(address, b"GET /metrics HTTP/1.1\r\n\r\n")
                )
        finally:
            server.stop()
        first, second = bodies
        assert "repro_live_total 1" in first
        assert "repro_live_total 2" in second

    def test_unknown_path_is_404(self):
        response = http_get(lambda: "", "/admin")
        assert response.startswith("HTTP/1.1 404")

    def test_non_get_is_405(self):
        response = http_get(lambda: "", "/metrics", method="POST")
        assert response.startswith("HTTP/1.1 405")

    def test_render_failure_is_500_not_a_crash(self):
        def broken():
            raise RuntimeError("registry gone")

        response = http_get(broken, "/metrics")
        assert response.startswith("HTTP/1.1 500")


class TestEmptyRegistrySnapshots:
    def test_snapshot_and_json_of_empty_registry(self):
        registry = MetricsRegistry()
        assert registry.snapshot() == {}
        assert json.loads(registry_snapshot_json(registry)) == {}

    def test_empty_exposition_is_valid(self):
        exposition = prometheus_exposition(MetricsRegistry())
        assert validate_exposition(exposition) == []

    def test_merging_an_empty_snapshot_is_a_noop(self):
        registry = MetricsRegistry()
        registry.merge({})
        assert registry.snapshot() == {}


class TestSnapshotMergeAcrossCollectors:
    """Harvesting endpoint collectors folds overlapping names together."""

    def endpoint_registry(self, party, sends):
        registry = MetricsRegistry()
        registry.counter(
            "repro_messages_total", {"party": party}, help_text="msgs"
        ).inc(sends)
        registry.counter("repro_runs_total").inc(1)
        registry.gauge("repro_inflight").set(sends)
        registry.histogram(
            "repro_step_seconds", buckets=(0.1, 1.0)
        ).observe(0.05)
        return registry

    def test_overlapping_counters_add_disjoint_labels_coexist(self):
        merged = MetricsRegistry()
        merged.merge(self.endpoint_registry("S1", 4).snapshot())
        merged.merge(self.endpoint_registry("S2", 6).snapshot())
        # Same name, same labels: totals add.
        assert merged.value("repro_runs_total") == 2
        # Same name, disjoint labels: children coexist.
        assert merged.value("repro_messages_total", {"party": "S1"}) == 4
        assert merged.value("repro_messages_total", {"party": "S2"}) == 6
        assert merged.total("repro_messages_total") == 10

    def test_histograms_add_and_gauges_take_last_value(self):
        merged = MetricsRegistry()
        merged.merge(self.endpoint_registry("S1", 4).snapshot())
        merged.merge(self.endpoint_registry("S2", 6).snapshot())
        histogram = merged.histogram(
            "repro_step_seconds", buckets=(0.1, 1.0)
        )
        assert histogram.count == 2
        assert merged.value("repro_inflight") == 6  # last write wins

    def test_merged_exposition_stays_valid(self):
        merged = MetricsRegistry()
        merged.merge(self.endpoint_registry("S1", 4).snapshot())
        merged.merge(self.endpoint_registry("S2", 6).snapshot())
        assert validate_exposition(prometheus_exposition(merged)) == []

    def test_incompatible_bucket_layouts_rejected(self):
        merged = MetricsRegistry()
        merged.histogram("repro_step_seconds", buckets=(0.5,)).observe(0.1)
        with pytest.raises(TelemetryError):
            merged.merge(self.endpoint_registry("S1", 1).snapshot())

    def test_unknown_kind_rejected(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().merge({"repro_x": {"kind": "summary"}})
