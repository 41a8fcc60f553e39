"""Span-based distributed tracing for the mediation protocols.

A protocol run is a tree of **spans**: the root covers the whole query,
protocol steps (``timed``), message deliveries (``send:<kind>``),
endpoint receipts (``recv:<kind>``), and crypto-engine batches
(``crypto:<unit>``) nest below it.  Every span carries the party it ran
at, so one trace reconstructs the paper's Figure 1/2 interaction
diagram with real timings attached.

Three pieces:

* :class:`Span` / :class:`SpanContext` — the recorded unit and its
  propagatable identity ``(trace_id, span_id)``,
* :class:`Tracer` — a collector; :meth:`Tracer.span` opens a child of
  the current span (a :mod:`contextvars` variable, so nesting follows
  the call stack even across the engine's batch helpers),
* module-level installation — :func:`set_tracer` / :func:`use_tracer`
  install one tracer process-wide; :func:`span` is the no-op-when-idle
  entry point the instrumented code calls.  With no tracer installed a
  span costs one global read, mirroring the opt-in design of
  :mod:`repro.crypto.instrumentation`.

Cross-process stitching: the TCP envelope carries the sending span's
``(trace_id, span_id)`` (see :mod:`repro.transport.codec`), and
receiving endpoints record ``recv:`` spans under that parent — so one
``repro query --transport tcp`` against three ``serve`` processes
yields a single stitched trace.

Span and trace IDs are drawn from :func:`os.urandom` directly so
telemetry never perturbs the :mod:`random` module state the protocols'
shuffles rely on.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.errors import TelemetryError
from repro.session import current_session_id

#: W3C-trace-context-sized identifiers (hex strings).
TRACE_ID_BYTES = 16
SPAN_ID_BYTES = 8


def new_trace_id() -> str:
    return os.urandom(TRACE_ID_BYTES).hex()


def new_span_id() -> str:
    return os.urandom(SPAN_ID_BYTES).hex()


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of one span."""

    trace_id: str
    span_id: str

    def to_wire(self) -> tuple[str, str]:
        """Compact form carried in the TCP message envelope."""
        return (self.trace_id, self.span_id)

    @staticmethod
    def from_wire(raw: Any) -> "SpanContext | None":
        """Inverse of :meth:`to_wire`; tolerates absent/malformed input."""
        if (
            isinstance(raw, (tuple, list))
            and len(raw) == 2
            and all(isinstance(part, str) and part for part in raw)
        ):
            return SpanContext(trace_id=raw[0], span_id=raw[1])
        return None


@dataclass
class Span:
    """One traced unit of work at one party."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    party: str
    #: Wall-clock start (epoch seconds) — comparable across processes.
    start: float
    #: Monotonic duration in seconds; 0.0 while the span is open.
    seconds: float = 0.0
    status: str = "ok"
    attributes: dict[str, Any] = field(default_factory=dict)
    _perf_start: float | None = field(
        default=None, repr=False, compare=False
    )

    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def end(self) -> float:
        return self.start + self.seconds

    def to_dict(self) -> dict[str, Any]:
        """Wire/JSON form (used by endpoint fetch)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "party": self.party,
            "start": self.start,
            "seconds": self.seconds,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Span":
        try:
            return Span(
                trace_id=data["trace_id"],
                span_id=data["span_id"],
                parent_id=data.get("parent_id"),
                name=data["name"],
                party=data["party"],
                start=float(data["start"]),
                seconds=float(data.get("seconds", 0.0)),
                status=data.get("status", "ok"),
                attributes=dict(data.get("attributes", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(f"malformed span record: {exc}") from exc


#: The innermost open span of the current logical context.
_current_span: ContextVar[Span | None] = ContextVar(
    "repro_current_span", default=None
)


class Tracer:
    """Collects the spans of one trace (or, on endpoints, of many).

    The tracer owns a default ``trace_id`` for root spans; spans opened
    under an explicit or ambient parent inherit the parent's trace ID
    instead, which is how endpoint collectors record spans belonging to
    a remote caller's trace.
    """

    def __init__(self, trace_id: str | None = None, service: str = "repro"):
        self.trace_id = trace_id or new_trace_id()
        self.service = service
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    # -- span lifecycle ---------------------------------------------------

    def start_span(
        self,
        name: str,
        party: str,
        parent: SpanContext | None = None,
        attributes: dict[str, Any] | None = None,
    ) -> Span:
        """Open a span; ``parent`` defaults to the current span."""
        if parent is None:
            ambient = _current_span.get()
            parent = ambient.context() if ambient is not None else None
        span = Span(
            trace_id=parent.trace_id if parent else self.trace_id,
            span_id=new_span_id(),
            parent_id=parent.span_id if parent else None,
            name=name,
            party=party,
            start=time.time(),
            attributes=dict(attributes or {}),
            _perf_start=time.perf_counter(),
        )
        with self._lock:
            self.spans.append(span)
        return span

    def end_span(self, span: Span, status: str | None = None) -> None:
        if span._perf_start is not None:
            span.seconds = time.perf_counter() - span._perf_start
            span._perf_start = None
        if status is not None:
            span.status = status

    @contextmanager
    def span(
        self,
        name: str,
        party: str,
        parent: SpanContext | None = None,
        attributes: dict[str, Any] | None = None,
    ) -> Iterator[Span]:
        """Open a span, make it current, close it on exit.

        An escaping exception marks the span ``status="error"`` before
        re-raising — failures stay visible in the trace.
        """
        span = self.start_span(name, party, parent=parent, attributes=attributes)
        token = _current_span.set(span)
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            _current_span.reset(token)
            self.end_span(span)

    # -- collection -------------------------------------------------------

    def adopt(self, spans: Iterable[Span]) -> None:
        """Absorb spans recorded elsewhere (remote endpoints)."""
        with self._lock:
            self.spans.extend(spans)

    def parties(self) -> set[str]:
        with self._lock:
            return {span.party for span in self.spans}

    def trace_ids(self) -> set[str]:
        with self._lock:
            return {span.trace_id for span in self.spans}

    def find(self, name: str) -> list[Span]:
        with self._lock:
            return [span for span in self.spans if span.name == name]

    def children_of(self, span_id: str) -> list[Span]:
        with self._lock:
            return [span for span in self.spans if span.parent_id == span_id]


# ---------------------------------------------------------------------------
# Process-wide installation (mirrors repro.crypto.engine.use_engine).
# ---------------------------------------------------------------------------

_installed_tracer: Tracer | None = None


def get_tracer() -> Tracer | None:
    return _installed_tracer


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _installed_tracer
    previous, _installed_tracer = _installed_tracer, tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Temporarily install ``tracer`` (tests and benchmarks)."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def current_span() -> Span | None:
    return _current_span.get()


def current_context() -> SpanContext | None:
    span = _current_span.get()
    return span.context() if span is not None else None


@contextmanager
def span(name: str, party: str, **attributes: Any) -> Iterator[Span | None]:
    """Open a span on the installed tracer; a no-op when none is set.

    When a :func:`repro.session.session_scope` is active, the span is
    automatically tagged with its ``session`` id — this is what lets a
    multi-session trace be filtered back into per-session timelines.
    """
    tracer = _installed_tracer
    if tracer is None:
        yield None
        return
    if "session" not in attributes:
        session_id = current_session_id()
        if session_id is not None:
            attributes["session"] = session_id
    with tracer.span(name, party, attributes=attributes) as opened:
        yield opened
