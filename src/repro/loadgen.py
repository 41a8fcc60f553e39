"""Concurrent load generation: N client sessions against one serve trio.

The sessionised stack claims that one set of endpoints can serve many
interleaved join queries (see ``docs/transport.md``).  This module is
the instrument that demonstrates it: :func:`run_load` drives ``N``
client workers — each with its own :class:`~repro.transport.TcpTransport`
and its own :func:`~repro.session.session_scope` — against a single
mediator/S1/S2 endpoint trio, and reports throughput, tail latency, and
per-session trace stitching.

Two topologies:

* **in-process trio** (the default): :func:`run_load` hosts the three
  endpoints itself on ephemeral loopback ports, so one command measures
  the whole stack.
* **remote trio**: pass ``endpoints`` pointing at ``repro serve``
  processes and the generator only runs the client side.

Setup (key generation, TCP handshakes, federation wiring) happens
*before* the clock starts; the measured window covers query execution
only, so sequential (``concurrency=1``) and concurrent runs of the same
config are directly comparable.

Used by the ``repro loadgen`` CLI command; the JSON form is
:meth:`LoadReport.to_dict`.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.federation import Federation
from repro.core.runner import PROTOCOLS, crypto_context, run_join_query
from repro.errors import ProtocolError, ReproError
from repro.mediation.access_control import allow_all
from repro.mediation.ca import CertificationAuthority
from repro.mediation.client import default_homomorphic_scheme, setup_client
from repro.relational.datagen import WorkloadSpec, generate
from repro.storage import storage_from_spec
from repro.telemetry.tracing import Tracer, use_tracer
from repro.transport import RetryPolicy, TcpTransport
from repro.transport.server import DEFAULT_MAX_SESSIONS

#: The parties a serve trio consists of.
TRIO = ("mediator", "S1", "S2")

#: The global query every load session runs.
QUERY = "select * from R1 natural join R2"


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of one load run (workload, concurrency, endpoint knobs)."""

    #: Number of client sessions (each gets its own transport and
    #: session id).
    sessions: int = 8
    #: Queries each session runs back to back.
    queries_per_session: int = 1
    #: Worker threads running sessions; ``None`` means fully concurrent
    #: (= ``sessions``), ``1`` is the sequential baseline.
    concurrency: int | None = None
    protocol: str = "commutative"
    #: Session capacity of locally hosted endpoints (BUSY above it).
    max_sessions: int = DEFAULT_MAX_SESSIONS
    #: Synthetic workload shape (see :mod:`repro.relational.datagen`).
    domain: int = 8
    overlap: int = 4
    rows_per_value: int = 1
    seed: int = 2007
    rsa_bits: int = 1024
    paillier_bits: int = 1024
    #: Acknowledgement budget per message.
    io_timeout: float = 60.0
    #: Storage backend spec (``"memory"`` or ``"sqlite:PATH"``); one
    #: backend is shared by all sessions, so a series of queries over
    #: the same relations amortizes its encrypted indexes across the
    #: whole load run.  ``None`` disables storage (the legacy shape).
    storage_spec: str | None = None

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ProtocolError("loadgen needs at least one session")
        if self.queries_per_session < 1:
            raise ProtocolError("loadgen needs at least one query per session")
        if self.concurrency is not None and self.concurrency < 1:
            raise ProtocolError("loadgen concurrency must be >= 1")
        if self.protocol not in PROTOCOLS:
            raise ProtocolError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {sorted(PROTOCOLS)}"
            )

    @property
    def effective_concurrency(self) -> int:
        return self.concurrency if self.concurrency is not None else self.sessions


@dataclass(frozen=True)
class QueryOutcome:
    """One query of one session: latency, result size, success."""

    session: str
    query_index: int
    seconds: float
    rows: int
    ok: bool
    error: str | None = None


@dataclass
class LoadReport:
    """The measured outcome of one :func:`run_load` invocation."""

    protocol: str
    sessions: int
    queries_per_session: int
    concurrency: int
    #: Wall-clock of the measured window (setup excluded).
    wall_seconds: float
    outcomes: list[QueryOutcome] = field(default_factory=list)
    #: session id -> {"spans": client spans, "traces": distinct trace
    #: ids, "endpoint_spans": recv spans at the trio} — the stitching
    #: evidence: every session's activity is separable from the rest.
    stitching: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Aggregated index-cache statistics when the load ran over a
    #: storage backend (None otherwise).
    storage: dict[str, Any] | None = None
    #: Crypto self-description: engine mode and workers — makes the
    #: JSON report comparable across hosts.
    crypto: dict[str, Any] | None = None

    # -- derived metrics ---------------------------------------------------

    @property
    def completed(self) -> list[QueryOutcome]:
        return [outcome for outcome in self.outcomes if outcome.ok]

    @property
    def failed(self) -> list[QueryOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def throughput(self) -> float:
        """Completed queries per second of wall clock."""
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.completed) / self.wall_seconds

    def latency(self, fraction: float) -> float:
        """The ``fraction`` latency quantile (0.5 = median) in seconds."""
        values = sorted(outcome.seconds for outcome in self.completed)
        if not values:
            return 0.0
        rank = max(1, math.ceil(fraction * len(values)))
        return values[min(rank, len(values)) - 1]

    @property
    def consistent(self) -> bool:
        """All completed queries produced the same number of rows."""
        return len({outcome.rows for outcome in self.completed}) <= 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro-loadgen/2",
            "protocol": self.protocol,
            "sessions": self.sessions,
            "queries_per_session": self.queries_per_session,
            "concurrency": self.concurrency,
            "wall_seconds": self.wall_seconds,
            "completed": len(self.completed),
            "failed": len(self.failed),
            "throughput": self.throughput,
            "latency_p50": self.latency(0.50),
            "latency_p95": self.latency(0.95),
            "latency_max": self.latency(1.0),
            "consistent_results": self.consistent,
            "stitching": self.stitching,
            "storage": self.storage,
            "crypto": self.crypto,
            "outcomes": [
                {
                    "session": outcome.session,
                    "query_index": outcome.query_index,
                    "seconds": outcome.seconds,
                    "rows": outcome.rows,
                    "ok": outcome.ok,
                    "error": outcome.error,
                }
                for outcome in self.outcomes
            ],
        }

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"loadgen: {self.sessions} sessions x "
            f"{self.queries_per_session} queries, concurrency "
            f"{self.concurrency}, protocol {self.protocol}",
            f"  wall       {self.wall_seconds:8.3f} s",
            f"  completed  {len(self.completed):5d}   failed {len(self.failed)}",
            f"  throughput {self.throughput:8.2f} queries/s",
            f"  latency    p50 {self.latency(0.50):.3f}s   "
            f"p95 {self.latency(0.95):.3f}s   max {self.latency(1.0):.3f}s",
        ]
        if self.stitching:
            spans = sum(entry["spans"] for entry in self.stitching.values())
            endpoint = sum(
                entry.get("endpoint_spans", 0)
                for entry in self.stitching.values()
            )
            lines.append(
                f"  stitching  {len(self.stitching)} sessions, "
                f"{spans} client spans, {endpoint} endpoint spans"
            )
        if self.crypto is not None:
            lines.append(
                f"  crypto     mode={self.crypto['engine_mode']} "
                f"workers={self.crypto['workers']}"
            )
        if self.storage is not None:
            lines.append(
                f"  storage    [{self.storage['backend']}] "
                f"hits={self.storage['hits']} "
                f"misses={self.storage['misses']} "
                f"puts={self.storage['puts']} "
                f"errors={self.storage['errors']}"
            )
        for outcome in self.failed:
            lines.append(
                f"  FAILED {outcome.session}[{outcome.query_index}]: "
                f"{outcome.error}"
            )
        return "\n".join(lines)


@dataclass
class _Worker:
    """One prepared client session (built before the clock starts)."""

    session_id: str
    transport: TcpTransport
    federation: Federation


def run_load(
    config: LoadgenConfig,
    endpoints: Mapping[str, tuple[str, int]] | None = None,
) -> LoadReport:
    """Drive the configured load and measure it.

    With ``endpoints=None`` the serve trio is hosted in-process (with
    ``config.max_sessions`` applied); otherwise
    the mapping must name listening ``mediator``/``S1``/``S2``
    endpoints, typically ``repro serve`` processes.
    """
    workload = generate(
        WorkloadSpec(
            domain_1=config.domain,
            domain_2=config.domain,
            overlap=config.overlap,
            rows_per_value_1=config.rows_per_value,
            rows_per_value_2=config.rows_per_value,
            payload_attributes=1,
            seed=config.seed,
        )
    )
    ca = CertificationAuthority(key_bits=config.rsa_bits)
    client = setup_client(
        ca,
        "loadgen-client",
        {("role", "analyst")},
        rsa_bits=config.rsa_bits,
        homomorphic_scheme=default_homomorphic_scheme(config.paillier_bits),
    )
    retry = RetryPolicy(io_timeout=config.io_timeout)
    hub: TcpTransport | None = None
    workers: list[_Worker] = []
    tracer = Tracer(service="loadgen")
    storage = storage_from_spec(config.storage_spec)
    try:
        if endpoints is None:
            hub = TcpTransport(
                retry=retry,
                server_options={"max_sessions": config.max_sessions},
            )
            for party in TRIO:
                hub.register(party)
            endpoints = {party: hub.endpoint_of(party) for party in TRIO}
        for index in range(config.sessions):
            transport = TcpTransport(endpoints=dict(endpoints), retry=retry)
            federation = Federation(ca=ca, network=transport, storage=storage)
            federation.add_source("S1", [(workload.relation_1, allow_all())])
            federation.add_source("S2", [(workload.relation_2, allow_all())])
            federation.attach_client(client)
            workers.append(
                _Worker(
                    session_id=f"load-{index:04d}",
                    transport=transport,
                    federation=federation,
                )
            )

        with use_tracer(tracer):
            started = time.perf_counter()
            with ThreadPoolExecutor(
                max_workers=config.effective_concurrency,
                thread_name_prefix="loadgen",
            ) as pool:
                per_worker = list(
                    pool.map(
                        lambda worker: _run_worker(worker, config), workers
                    )
                )
            wall_seconds = time.perf_counter() - started

        report = LoadReport(
            protocol=config.protocol,
            sessions=config.sessions,
            queries_per_session=config.queries_per_session,
            concurrency=config.effective_concurrency,
            wall_seconds=wall_seconds,
            outcomes=[outcome for outcomes in per_worker for outcome in outcomes],
        )
        report.stitching = _stitch(tracer, workers, hub)
        report.crypto = crypto_context()
        if storage is not None:
            totals = {"hits": 0, "misses": 0, "puts": 0, "errors": 0}
            for worker in workers:
                for source in worker.federation.sources.values():
                    cache = source.index_cache()
                    if cache is None:
                        continue
                    stats = cache.stats.as_dict()
                    for key in totals:
                        totals[key] += stats[key]
            report.storage = {"backend": storage.describe(), **totals}
        return report
    finally:
        for worker in workers:
            worker.transport.close()
        if hub is not None:
            hub.close()
        if storage is not None:
            storage.close()


def _run_worker(worker: _Worker, config: LoadgenConfig) -> list[QueryOutcome]:
    """Execute one session's query sequence, catching per-query failures."""
    outcomes = []
    for query_index in range(config.queries_per_session):
        started = time.perf_counter()
        try:
            result = run_join_query(
                worker.federation,
                QUERY,
                protocol=config.protocol,
                session_id=worker.session_id,
            )
            outcomes.append(
                QueryOutcome(
                    session=worker.session_id,
                    query_index=query_index,
                    seconds=time.perf_counter() - started,
                    rows=len(result.global_result),
                    ok=True,
                )
            )
        except ReproError as exc:
            outcomes.append(
                QueryOutcome(
                    session=worker.session_id,
                    query_index=query_index,
                    seconds=time.perf_counter() - started,
                    rows=0,
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return outcomes


def _stitch(
    tracer: Tracer,
    workers: list[_Worker],
    hub: TcpTransport | None,
) -> dict[str, dict[str, int]]:
    """Per-session trace evidence: client spans, distinct traces, and —
    for an in-process trio — the ``recv:`` spans each endpoint keyed
    under the same session id."""
    stitching: dict[str, dict[str, int]] = {}
    snapshots = []
    if hub is not None:
        for party in TRIO:
            server = hub.local_server(party)
            if server is not None:
                snapshots.append(server.telemetry_snapshot())
    for worker in workers:
        session_id = worker.session_id
        spans = [
            span
            for span in tracer.spans
            if span.attributes.get("session") == session_id
        ]
        endpoint_spans = sum(
            1
            for snapshot in snapshots
            for span in snapshot.get("spans", [])
            if span.get("attributes", {}).get("session") == session_id
        )
        stitching[session_id] = {
            "spans": len(spans),
            "traces": len({span.trace_id for span in spans}),
            "endpoint_spans": endpoint_spans,
        }
    return stitching
