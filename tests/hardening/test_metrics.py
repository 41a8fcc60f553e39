"""Cross-protocol conformance of the hardening artifact and metrics.

Every hardened run must expose the same observability surface no
matter which protocol produced it: an ``artifacts["hardening"]``
digest with a sane overhead factor, and the three
``repro_hardening_*`` Prometheus counters — scrapeable live through
:class:`~repro.telemetry.scrape.MetricsScrapeServer`, exactly what
``repro serve --metrics-port`` wires up.
"""

import pytest

from repro import Federation, run_join_query
from repro.hardening import (
    DUMMY_ITEMS_METRIC,
    FRAMES_METRIC,
    PAD_BYTES_METRIC,
)
from repro.mediation.access_control import allow_all
from repro.telemetry.exporters import (
    prometheus_exposition,
    validate_exposition,
)
from repro.telemetry.metrics import MetricsRegistry, use_metrics
from repro.telemetry.scrape import MetricsScrapeServer

from tests.telemetry.test_scrape import raw_request

QUERY = "select * from R1 natural join R2"
PROTOCOLS = ["das", "commutative", "private-matching"]

ARTIFACT_KEYS = {
    "enabled", "policy", "real_bytes_total", "padded_bytes_total",
    "pad_bytes_total", "overhead_factor", "dummy_items_total",
    "frames_total", "dummy_frames_total",
}


def build(ca, client, workload):
    federation = Federation(ca=ca)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestHardeningConformance:
    def test_artifact_shape_and_counters(self, ca, client, workload, protocol):
        registry = MetricsRegistry()
        with use_metrics(registry):
            federation = build(ca, client, workload)
            result = run_join_query(
                federation, QUERY, protocol=protocol, hardening=True
            )
        artifact = result.artifacts["hardening"]
        assert set(artifact) == ARTIFACT_KEYS
        assert artifact["overhead_factor"] >= 1.0
        assert artifact["pad_bytes_total"] == (
            artifact["padded_bytes_total"] - artifact["real_bytes_total"]
        )
        assert artifact["pad_bytes_total"] > 0
        # The run folded its accounting into the installed registry.
        assert registry.value(
            PAD_BYTES_METRIC, {"protocol": protocol}
        ) == artifact["pad_bytes_total"]
        assert registry.value(
            DUMMY_ITEMS_METRIC, {"protocol": protocol}
        ) == artifact["dummy_items_total"]
        assert registry.value(
            FRAMES_METRIC, {"protocol": protocol}
        ) == artifact["frames_total"]


class TestPrometheusSurface:
    @pytest.fixture(scope="class")
    def registry(self, ca, client, workload):
        registry = MetricsRegistry()
        with use_metrics(registry):
            federation = build(ca, client, workload)
            run_join_query(
                federation, QUERY, protocol="commutative", hardening=True
            )
        return registry

    def test_exposition_carries_hardening_counters(self, registry):
        text = prometheus_exposition(registry)
        assert validate_exposition(text) == []
        assert PAD_BYTES_METRIC in text
        assert 'protocol="commutative"' in text

    def test_live_scrape_serves_hardening_counters(self, registry):
        """GET /metrics on the scrape endpoint (the --metrics-port
        surface) exposes the padding counters."""

        server = MetricsScrapeServer(lambda: prometheus_exposition(registry))
        try:
            body = raw_request(
                server.start(), b"GET /metrics HTTP/1.1\r\n\r\n"
            )
        finally:
            server.stop()
        assert "200 OK" in body
        assert PAD_BYTES_METRIC in body

    def test_unhardened_runs_leave_counters_untouched(self, ca, client, workload):
        registry = MetricsRegistry()
        with use_metrics(registry):
            federation = build(ca, client, workload)
            run_join_query(federation, QUERY, protocol="commutative")
        assert PAD_BYTES_METRIC not in prometheus_exposition(registry)
