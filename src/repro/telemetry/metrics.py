"""The metrics registry: counters, gauges, and histograms.

One registry absorbs the repo's three historical measurement paths
behind a single API:

* **primitive invocation counts** — :func:`repro.crypto.instrumentation.
  record` forwards every operation into
  :data:`PRIMITIVE_OPS_METRIC` next to the per-run
  :class:`~repro.crypto.instrumentation.PrimitiveCounter` stack, so the
  Table 2 totals are available as Prometheus counters with identical
  values,
* **per-link message traffic** — :class:`repro.transport.base.Transport`
  counts messages and bytes per ``(transport, sender, receiver, kind)``,
* **step latencies** — :func:`repro.core.timing.timed` observes each
  protocol step into a histogram and counts failures.

The model follows the Prometheus exposition format: a metric *family*
(name, kind, help) owns one instrument per label set.  Counters only go
up, gauges go anywhere, histograms record cumulative bucket counts plus
``sum``/``count``.  :func:`repro.telemetry.exporters.
prometheus_exposition` renders a registry; :meth:`MetricsRegistry.
snapshot` / :meth:`MetricsRegistry.merge` serialize and recombine
registries across the TCP process boundary (endpoint fetch).

Installation mirrors the tracer: :func:`set_registry` /
:func:`use_metrics` install one registry process-wide, and every
instrumented site degrades to a single global read when none is
installed.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro.errors import TelemetryError

#: Family name the crypto instrumentation layer forwards into.
PRIMITIVE_OPS_METRIC = "repro_crypto_primitive_ops_total"

#: Latency buckets (seconds) sized for protocol steps: sub-millisecond
#: bookkeeping through multi-second big-integer batches.
DEFAULT_SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelSet = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any] | None) -> LabelSet:
    if not labels:
        return ()
    for name in labels:
        if not _LABEL_NAME.match(name):
            raise TelemetryError(f"invalid label name {name!r}")
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError("counters can only increase")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise TelemetryError("histogram buckets must be sorted and non-empty")
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * len(self.buckets)  # cumulative at render
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                break
        # values above the last bound land only in the implicit +Inf
        # bucket, which is rendered as `count`.

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf excluded."""
        running = 0
        out = []
        for bound, bucket in zip(self.buckets, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        return out

    def quantile(self, fraction: float) -> float:
        """Estimate the ``fraction``-quantile from the bucket counts.

        Prometheus-style linear interpolation inside the target bucket.
        Boundary semantics: ``fraction <= 0`` returns 0.0 (every
        observation exceeds nothing), ``fraction >= 1`` the upper bound
        of the highest occupied bucket; observations above the last
        bound (the implicit +Inf bucket) clamp to the last finite bound
        — the estimate cannot exceed what the layout can resolve.
        An empty histogram has no quantiles and returns 0.0.
        """
        if not 0.0 <= fraction <= 1.0:
            raise TelemetryError(
                f"quantile fraction must be in [0, 1], got {fraction}"
            )
        if self.count == 0 or fraction == 0.0:
            return 0.0
        rank = fraction * self.count
        previous_bound, previous_cumulative = 0.0, 0
        for bound, cumulative in self.cumulative():
            if rank <= cumulative:
                in_bucket = cumulative - previous_cumulative
                if in_bucket == 0:
                    return bound
                position = (rank - previous_cumulative) / in_bucket
                return previous_bound + position * (bound - previous_bound)
            previous_bound, previous_cumulative = bound, cumulative
        # rank falls in the +Inf bucket: clamp to the last finite bound.
        return self.buckets[-1]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One metric family: shared name/kind/help, children per label set."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(
        self, name: str, kind: str, help_text: str,
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.children: dict[LabelSet, Any] = {}

    def child(self, key: LabelSet) -> Any:
        instrument = self.children.get(key)
        if instrument is None:
            if self.kind == "histogram":
                instrument = Histogram(self.buckets or DEFAULT_SECONDS_BUCKETS)
            else:
                instrument = _KINDS[self.kind]()
            self.children[key] = instrument
        return instrument


class MetricsRegistry:
    """Registry of metric families; thread-safe, serializable."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.RLock()

    # -- instrument access ------------------------------------------------

    def _family(
        self, name: str, kind: str, help_text: str,
        buckets: tuple[float, ...] | None = None,
    ) -> _Family:
        if not _METRIC_NAME.match(name):
            raise TelemetryError(f"invalid metric name {name!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise TelemetryError(
                    f"metric {name!r} already registered as {family.kind}"
                )
            return family

    def counter(
        self, name: str, labels: Mapping[str, Any] | None = None,
        help_text: str = "",
    ) -> Counter:
        if not name.endswith("_total"):
            raise TelemetryError(
                f"counter {name!r} must end in '_total' (Prometheus convention)"
            )
        family = self._family(name, "counter", help_text)
        with self._lock:
            return family.child(_label_key(labels))

    def gauge(
        self, name: str, labels: Mapping[str, Any] | None = None,
        help_text: str = "",
    ) -> Gauge:
        family = self._family(name, "gauge", help_text)
        with self._lock:
            return family.child(_label_key(labels))

    def histogram(
        self, name: str, labels: Mapping[str, Any] | None = None,
        help_text: str = "", buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        family = self._family(name, "histogram", help_text, buckets)
        with self._lock:
            return family.child(_label_key(labels))

    # -- primitive invocation counts ---------------------------------------

    def record_primitive(self, operation: str, amount: int = 1) -> None:
        """Absorb one :func:`repro.crypto.instrumentation.record` call."""
        self.counter(
            PRIMITIVE_OPS_METRIC,
            {"operation": operation},
            help_text="Crypto primitive invocations by operation name",
        ).inc(amount)

    def primitive_counts(self) -> dict[str, int]:
        """Operation -> total, shaped like ``PrimitiveCounter.counts``."""
        with self._lock:
            family = self._families.get(PRIMITIVE_OPS_METRIC)
            if family is None:
                return {}
            return {
                dict(key)["operation"]: int(child.value)
                for key, child in family.children.items()
            }

    # -- queries ----------------------------------------------------------

    def value(self, name: str, labels: Mapping[str, Any] | None = None) -> float:
        """Current value of one counter/gauge child (0.0 when absent)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return 0.0
            child = family.children.get(_label_key(labels))
            if child is None:
                return 0.0
            if isinstance(child, Histogram):
                raise TelemetryError(f"{name!r} is a histogram; read its fields")
            return child.value

    def total(self, name: str) -> float:
        """Sum of a family's children (counter/gauge values)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return 0.0
            return sum(
                child.sum if isinstance(child, Histogram) else child.value
                for child in family.children.values()
            )

    def families(self) -> list[tuple[str, str, str, dict[LabelSet, Any]]]:
        """``(name, kind, help, children)`` rows, name-ordered."""
        with self._lock:
            return [
                (f.name, f.kind, f.help, dict(f.children))
                for f in sorted(self._families.values(), key=lambda f: f.name)
            ]

    # -- serialization -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-able snapshot of every family and child."""
        out: dict[str, Any] = {}
        with self._lock:
            for name, family in sorted(self._families.items()):
                children = []
                for key, child in family.children.items():
                    entry: dict[str, Any] = {"labels": dict(key)}
                    if isinstance(child, Histogram):
                        entry["buckets"] = list(child.buckets)
                        entry["bucket_counts"] = list(child.bucket_counts)
                        entry["sum"] = child.sum
                        entry["count"] = child.count
                    else:
                        entry["value"] = child.value
                    children.append(entry)
                out[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "children": children,
                }
        return out

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` in: counters/histograms add, gauges
        take the incoming value (last write wins)."""
        for name, data in snapshot.items():
            kind = data.get("kind")
            if kind not in _KINDS:
                raise TelemetryError(f"snapshot has unknown kind {kind!r}")
            for entry in data.get("children", ()):
                labels = entry.get("labels") or None
                if kind == "counter":
                    self.counter(name, labels, data.get("help", "")).inc(
                        float(entry["value"])
                    )
                elif kind == "gauge":
                    self.gauge(name, labels, data.get("help", "")).set(
                        float(entry["value"])
                    )
                else:
                    incoming_buckets = tuple(entry["buckets"])
                    histogram = self.histogram(
                        name, labels, data.get("help", ""),
                        buckets=incoming_buckets,
                    )
                    if histogram.buckets != incoming_buckets:
                        raise TelemetryError(
                            f"histogram {name!r} bucket layouts differ"
                        )
                    for index, count in enumerate(entry["bucket_counts"]):
                        histogram.bucket_counts[index] += int(count)
                    histogram.sum += float(entry["sum"])
                    histogram.count += int(entry["count"])


# ---------------------------------------------------------------------------
# Process-wide installation.
# ---------------------------------------------------------------------------

_installed_registry: MetricsRegistry | None = None


def get_registry() -> MetricsRegistry | None:
    return _installed_registry


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install ``registry`` process-wide; returns the previous one."""
    global _installed_registry
    previous, _installed_registry = _installed_registry, registry
    return previous


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` (tests and benchmarks)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
