"""Unified telemetry: distributed tracing, metrics, exporters, logging.

This package supersedes the repo's three historical ad-hoc measurement
mechanisms with one coherent layer:

* :mod:`repro.telemetry.tracing` — ``contextvars``-based spans around
  every protocol step, message delivery, endpoint receipt, and crypto
  batch; trace context propagates through the TCP envelope, so a
  distributed run yields one trace.
* :mod:`repro.telemetry.metrics` — a :class:`MetricsRegistry` of
  counters/gauges/histograms absorbing primitive invocation counts
  (the Table 2 data), per-link message bytes, and step latencies.
  :class:`repro.crypto.instrumentation.PrimitiveCounter` (the per-run
  counter a result carries), :func:`repro.core.timing.timed`, and the
  transport transcript feed the same registry.
* :mod:`repro.telemetry.exporters` — Chrome trace-event JSON (open in
  Perfetto), Prometheus text exposition, and JSON snapshots.
* :mod:`repro.telemetry.logsetup` — structured per-party logging.

See ``docs/observability.md`` for the span model, the envelope
propagation format, and how to read a trace.
"""

from repro.telemetry.metrics import (
    PRIMITIVE_OPS_METRIC,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_metrics,
)
from repro.telemetry.tracing import (
    Span,
    SpanContext,
    Tracer,
    current_context,
    current_span,
    get_tracer,
    set_tracer,
    span,
    use_tracer,
)
from repro.telemetry.exporters import (
    chrome_trace,
    prometheus_exposition,
    registry_snapshot_json,
    validate_chrome_trace,
    validate_exposition,
    write_chrome_trace,
    write_metrics,
)
from repro.telemetry.logsetup import configure_logging, party_logger
from repro.telemetry.observables import (
    ObservableTrace,
    ObservedMessage,
    adversary_traces,
    network_trace_from_records,
    observables_artifact,
    size_bucket,
)
from repro.telemetry.scrape import MetricsScrapeServer

__all__ = [
    "PRIMITIVE_OPS_METRIC",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScrapeServer",
    "ObservableTrace",
    "ObservedMessage",
    "adversary_traces",
    "network_trace_from_records",
    "observables_artifact",
    "size_bucket",
    "Span",
    "SpanContext",
    "Tracer",
    "chrome_trace",
    "configure_logging",
    "current_context",
    "current_span",
    "get_registry",
    "get_tracer",
    "party_logger",
    "prometheus_exposition",
    "registry_snapshot_json",
    "set_registry",
    "set_tracer",
    "span",
    "use_metrics",
    "use_tracer",
    "validate_chrome_trace",
    "validate_exposition",
    "write_chrome_trace",
    "write_metrics",
]
