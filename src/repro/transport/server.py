"""The asyncio TCP endpoint one party listens on.

A :class:`PartyServer` is the network face of one party (mediator,
datasource, or client): it accepts framed connections, reads the header
and verifies the checksum of every protocol message addressed to its
party — never decoding the body — records the party's **view** of the
traffic (sequence, sender, kind, actual wire bytes — the same
observables the leakage analysis consumes), and acknowledges receipt so
the sender can account actual bytes and detect dead peers.

Endpoints speak a tiny control protocol next to DATA frames:

* ``HELLO {party}``  -> ``OK {party}`` — handshake; the connecting
  transport verifies it reached the party it thinks it did.
* ``FETCH {}``       -> ``VIEW [record, ...]`` — the endpoint's recorded
  view, for reconciling remote observations against the sender-side
  transcript; ``FETCH {session}`` narrows it to one session's records.
* ``TELEMETRY {}``   -> ``TELEMETRY_DATA {spans, metrics, exposition}`` —
  the endpoint's collected telemetry: ``recv:`` spans (stitched into the
  sender's trace via the envelope's trace context), a metrics snapshot,
  and a rendered Prometheus text exposition; ``TELEMETRY {session}``
  narrows the span list to one session.
* ``SESSION {op, session}`` -> ``OK`` — explicit session lifecycle
  (``op`` is ``"open"`` or ``"close"``); opens are idempotent, and an
  open refused for capacity is answered with ``BUSY`` instead.
* misdelivered or malformed frames -> ``ERROR {error}``.

**Sessions.**  Every envelope may carry a ``session_id``; the
endpoint keys all per-session protocol state — the
session's view of the traffic, its request-id dedupe window, its
``recv:`` span attribution — in a :class:`~repro.session.SessionRegistry`
with LRU + TTL eviction, so one client's queries are invisible to
another's and abandoned sessions cannot leak memory.  Distinct sessions
interleave on the endpoint's event loop while a per-session lock
serializes steps *within* each session.
When ``max_sessions`` live sessions exist, the first message of any new
session is answered with a ``BUSY`` frame — the client transport backs
off under its retry policy and surfaces
:class:`~repro.errors.ServerBusy` when the budget runs out.  Legacy
session-less traffic shares one ``"legacy"`` state slot and is never
refused, preserving the pre-session wire behaviour exactly.

Every endpoint owns a private span collector and metrics registry —
independent of the process-wide installed telemetry — so a ``repro
serve`` process accumulates its party's observations and hands them to
whichever querying process asks.

Delivery is **effectively-once**: envelopes that carry a ``request_id``
are deduplicated — a re-delivered frame (sender retry after a lost
acknowledgement, or a chaos proxy duplicating traffic) is answered with
the original ACK and recorded exactly once.  This is the receiver half
of the idempotent re-delivery contract in ``docs/robustness.md``.

Fault injection for tests: ``max_messages=N`` makes the endpoint drop
the connection *without acknowledging* the (N+1)-th data message and
stop listening — the deterministic "datasource dies mid-protocol".
The richer, seeded fault model lives in :mod:`repro.faults`.
"""

from __future__ import annotations

import asyncio
import threading
from collections.abc import Callable
from dataclasses import asdict, dataclass

from repro.errors import NetworkError
from repro.session import (
    DEFAULT_SESSION_TTL,
    LEGACY_SESSION,
    Session,
    SessionRegistry,
)
from repro.telemetry.exporters import prometheus_exposition
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import SpanContext, Tracer
from repro.transport import codec

#: Counter of data messages received at an endpoint.
ENDPOINT_MESSAGES_METRIC = "repro_endpoint_messages_total"
#: Counter of wire bytes received at an endpoint.
ENDPOINT_BYTES_METRIC = "repro_endpoint_bytes_total"
#: Counter of duplicate deliveries absorbed by request-id dedupe.
ENDPOINT_DUPLICATES_METRIC = "repro_endpoint_duplicates_total"
#: Counter of session lifecycle events (opened/closed/ttl/lru).
ENDPOINT_SESSIONS_METRIC = "repro_endpoint_sessions_total"
#: Counter of new sessions refused for capacity (BUSY answers).
ENDPOINT_BUSY_METRIC = "repro_endpoint_busy_total"

#: Acknowledgements remembered for request-id deduplication, **per
#: session**.  Bounds memory on very long-lived ``serve`` processes; a
#: duplicate older than the window is re-recorded, which only ever
#: happens after the sender has long given up on the original delivery.
DEDUPE_WINDOW = 4096

#: Live sessions an endpoint admits before answering BUSY.
DEFAULT_MAX_SESSIONS = 64


@dataclass(frozen=True)
class RemoteRecord:
    """One data message as observed by the receiving endpoint."""

    sequence: int
    sender: str
    receiver: str
    kind: str
    wire_bytes: int


class PartyServer:
    """One party's listening endpoint.

    All coroutines must run on the same event loop: an
    :class:`EndpointHost`'s for endpoints hosted inside a synchronous
    program, ``asyncio.run``'s for the ``repro serve`` CLI.
    """

    def __init__(
        self,
        party: str,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_messages: int | None = None,
        on_message: Callable[[RemoteRecord], None] | None = None,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        session_ttl: float | None = DEFAULT_SESSION_TTL,
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self.party = party
        self.host = host
        self.port = port
        self.records: list[RemoteRecord] = []
        #: Endpoint-local telemetry collectors, harvested via TELEMETRY.
        self.tracer = Tracer(service=f"repro.endpoint.{party}")
        self.registry = MetricsRegistry()
        self._max_messages = max_messages
        self._on_message = on_message
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self.max_sessions = max_sessions
        #: Per-session protocol state: each session's ``state`` dict
        #: holds its view (``"records"``) and its dedupe window
        #: (``"acked"``: request_id -> acknowledgement payload,
        #: insertion-ordered, oldest evicted first).  Locks are asyncio
        #: locks — all session steps run on the server's event loop.
        self.sessions = SessionRegistry(
            capacity=max_sessions,
            ttl=session_ttl,
            lock_factory=asyncio.Lock,
            on_evict=self._session_ended,
        )

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and listen; resolves the actual port when ``port=0``."""
        if self._server is not None:
            raise NetworkError(f"endpoint for {self.party!r} already started")
        try:
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port
            )
        except OSError as exc:
            raise NetworkError(
                f"cannot bind endpoint for {self.party!r} on "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop listening and drop every open connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        self.sessions.clear()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling ----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    frame_type, payload = await codec.read_frame(reader)
                except (NetworkError, ConnectionError, asyncio.TimeoutError):
                    return  # peer went away or sent garbage; drop quietly
                try:
                    done = await self._dispatch(frame_type, payload, writer)
                except ConnectionError:
                    return
                if done:
                    return
        except asyncio.CancelledError:
            return  # loop shutdown cancelled this connection mid-read
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _dispatch(
        self, frame_type: int, payload: bytes, writer: asyncio.StreamWriter
    ) -> bool:
        """Handle one frame; returns True when the connection must close."""
        if frame_type == codec.DATA:
            return await self._data(payload, writer)
        if frame_type == codec.HELLO:
            await codec.write_frame(
                writer, codec.OK, codec.encode_value({"party": self.party})
            )
            return False
        if frame_type == codec.FETCH:
            session_id = self._requested_session(payload)
            records = (
                self.records if session_id is None
                else self.session_records(session_id)
            )
            view = [asdict(record) for record in records]
            await codec.write_frame(writer, codec.VIEW, codec.encode_value(view))
            return False
        if frame_type == codec.TELEMETRY:
            session_id = self._requested_session(payload)
            await codec.write_frame(
                writer,
                codec.TELEMETRY_DATA,
                codec.encode_value(self.telemetry_snapshot(session=session_id)),
            )
            return False
        if frame_type == codec.SESSION:
            return await self._session_control(payload, writer)
        return await self._error(
            writer, f"unexpected frame type 0x{frame_type:02x}"
        )

    async def _error(self, writer: asyncio.StreamWriter, text: str) -> bool:
        """Answer ERROR and keep serving the connection."""
        await codec.write_frame(
            writer, codec.ERROR, codec.encode_value({"error": text})
        )
        return False

    async def _data(self, payload: bytes, writer: asyncio.StreamWriter) -> bool:
        if (
            self._max_messages is not None
            and len(self.records) >= self._max_messages
        ):
            # Injected fault: die without acknowledging, refuse reconnects.
            if self._server is not None:
                self._server.close()
                self._server = None
            writer.transport.abort()
            return True
        try:
            # The header is all an endpoint acts on: the body stays an
            # opaque, checksummed tail that only its consumer decodes.
            sequence, sender, receiver, kind, trace, request_id, \
                session_id, _ = codec.decode_header(payload)
        except Exception as exc:  # malformed or garbled in flight
            return await self._error(writer, f"undecodable envelope: {exc}")
        if receiver != self.party:
            # Rejected before admission: a stray frame must not open a
            # session slot or be answered BUSY.
            return await self._error(
                writer,
                f"misdelivered message for {receiver!r} at endpoint "
                f"{self.party!r}",
            )
        session = self._admit(session_id)
        if session is None:
            await self._busy(writer)
            return False
        async with session.lock:
            acked: dict[str, dict] = session.state.setdefault("acked", {})
            if request_id is not None and request_id in acked:
                # Idempotent re-delivery: the sender retried a message
                # we already recorded (its copy of our ACK was lost, or
                # a chaos proxy duplicated the frame).  Re-acknowledge
                # with the original payload; record and observe nothing.
                self.registry.counter(
                    ENDPOINT_DUPLICATES_METRIC,
                    {"party": self.party, "sender": sender, "kind": kind},
                    help_text=(
                        "Duplicate deliveries absorbed by request-id dedupe"
                    ),
                ).inc()
                await codec.write_frame(
                    writer, codec.ACK, codec.encode_value(acked[request_id])
                )
                return False
            record = RemoteRecord(
                sequence=sequence,
                sender=sender,
                receiver=receiver,
                kind=kind,
                wire_bytes=codec.FRAME_HEADER_BYTES + len(payload),
            )
            self._observe(record, SpanContext.from_wire(trace), session_id)
            self.records.append(record)
            session.state.setdefault("records", []).append(record)
            if self._on_message is not None:
                self._on_message(record)
            acknowledgement = {
                "sequence": sequence, "wire_bytes": record.wire_bytes,
            }
            if request_id is not None:
                acked[request_id] = acknowledgement
                while len(acked) > DEDUPE_WINDOW:
                    acked.pop(next(iter(acked)))
            await codec.write_frame(
                writer, codec.ACK, codec.encode_value(acknowledgement)
            )
            return False

    # -- sessions ----------------------------------------------------------

    def _admit(self, session_id: str | None) -> Session | None:
        """The session a message belongs to, or ``None`` for BUSY.

        Legacy session-less traffic shares the ``"legacy"`` slot and is
        always admitted — the pre-session contract.  A *new* session id
        arriving while ``max_sessions`` are live is refused; known live
        sessions are never refused.
        """
        if session_id is None:
            session_id = LEGACY_SESSION
        elif (
            session_id not in self.sessions
            and len(self.sessions) >= self.max_sessions
        ):
            return None
        opened = session_id not in self.sessions
        session = self.sessions.get(session_id)
        if opened:
            self.registry.counter(
                ENDPOINT_SESSIONS_METRIC,
                {"party": self.party, "event": "opened"},
                help_text="Session lifecycle events at a party endpoint",
            ).inc()
        return session

    async def _busy(self, writer: asyncio.StreamWriter) -> None:
        """Refuse a new session: answer BUSY, keep the connection."""
        self.registry.counter(
            ENDPOINT_BUSY_METRIC,
            {"party": self.party},
            help_text="New sessions refused for capacity",
        ).inc()
        await codec.write_frame(
            writer,
            codec.BUSY,
            codec.encode_value(
                {
                    "party": self.party,
                    "sessions": len(self.sessions),
                    "max_sessions": self.max_sessions,
                }
            ),
        )

    async def _session_control(
        self, payload: bytes, writer: asyncio.StreamWriter
    ) -> bool:
        """Handle an explicit SESSION open/close frame."""
        try:
            request = codec.decode_value(payload)
            operation = request["op"]
            session_id = request["session"]
            if operation not in ("open", "close") or not isinstance(
                session_id, str
            ) or not session_id:
                raise ValueError(f"malformed session request {request!r}")
        except Exception as exc:
            return await self._error(writer, f"bad SESSION frame: {exc}")
        if operation == "open":
            session = self._admit(session_id)
            if session is None:
                await self._busy(writer)
                return False
        else:
            self.sessions.close(session_id)
        await codec.write_frame(
            writer,
            codec.OK,
            codec.encode_value(
                {"party": self.party, "op": operation, "session": session_id}
            ),
        )
        return False

    def _session_ended(self, session: Session, reason: str) -> None:
        """Registry eviction hook: count how each session ended."""
        self.registry.counter(
            ENDPOINT_SESSIONS_METRIC,
            {"party": self.party, "event": reason},
            help_text="Session lifecycle events at a party endpoint",
        ).inc()

    def session_records(self, session_id: str) -> list[RemoteRecord]:
        """One session's view of the traffic (empty if unknown)."""
        session = self.sessions.peek(session_id)
        if session is None:
            return []
        return list(session.state.get("records", []))

    @staticmethod
    def _requested_session(payload: bytes) -> str | None:
        """The ``session`` filter of a FETCH/TELEMETRY payload, if any."""
        try:
            request = codec.decode_value(payload)
        except Exception:
            return None
        if isinstance(request, dict):
            session_id = request.get("session")
            if isinstance(session_id, str) and session_id:
                return session_id
        return None

    # -- telemetry ---------------------------------------------------------

    def _observe(
        self,
        record: RemoteRecord,
        parent: SpanContext | None,
        session_id: str | None = None,
    ) -> None:
        """Record one received message into the endpoint collectors.

        When the envelope carried trace context, the ``recv:`` span is
        parented on the sender's ``send:`` span — that edge is what
        stitches per-process traces into one distributed trace.  When it
        carried a session id, the span is tagged with it, so one
        session's spans can be harvested (and stitched) independently
        of every other session's.
        """
        if parent is not None:
            attributes = {
                "kind": "message",
                "sender": record.sender,
                "sequence": record.sequence,
                "wire_bytes": record.wire_bytes,
            }
            if session_id is not None:
                attributes["session"] = session_id
            span = self.tracer.start_span(
                f"recv:{record.kind}",
                self.party,
                parent=parent,
                attributes=attributes,
            )
            self.tracer.end_span(span)
        labels = {
            "party": self.party,
            "sender": record.sender,
            "kind": record.kind,
        }
        self.registry.counter(
            ENDPOINT_MESSAGES_METRIC, labels,
            help_text="Data messages received at a party endpoint",
        ).inc()
        self.registry.counter(
            ENDPOINT_BYTES_METRIC, labels,
            help_text="Wire bytes received at a party endpoint",
        ).inc(record.wire_bytes)

    def telemetry_snapshot(self, session: str | None = None) -> dict:
        """Spans, metrics snapshot, and exposition for TELEMETRY_DATA.

        ``session`` narrows the span list to one session's ``recv:``
        spans; the metrics snapshot stays endpoint-wide (counters
        aggregate across sessions by design).
        """
        spans = [span.to_dict() for span in self.tracer.spans]
        if session is not None:
            spans = [
                span
                for span in spans
                if span.get("attributes", {}).get("session") == session
            ]
        return {
            "party": self.party,
            "spans": spans,
            "metrics": self.registry.snapshot(),
            "exposition": prometheus_exposition(self.registry),
        }


class EndpointHost:
    """Runs :class:`PartyServer` s on one asyncio loop thread.

    The endpoints a synchronous program hosts —
    :class:`~repro.transport.tcp.TcpTransport`'s locally registered
    parties, or a test's stand-in for a remote party — serve from this
    thread, named ``repro-tcp-transport``; the program's own sends never
    run on it.
    """

    def __init__(self) -> None:
        self._loop = asyncio.new_event_loop()
        self._servers: list[PartyServer] = []
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-tcp-transport", daemon=True
        )
        self._thread.start()

    def start(self, server: PartyServer) -> tuple[str, int]:
        """Start ``server`` on the loop; returns the address it listens on."""
        address = asyncio.run_coroutine_threadsafe(server.start(), self._loop).result()
        self._servers.append(server)
        return address

    def stop(self, server: PartyServer) -> None:
        """Stop one server: its port goes dark, its connections drop."""
        asyncio.run_coroutine_threadsafe(server.stop(), self._loop).result()

    def close(self, timeout: float = 5.0) -> None:
        """Stop every server, then the loop, and join the thread.

        Each of the two waits is bounded by ``timeout``: a server stop
        that overruns it is cancelled and the loop stopped regardless,
        and the loop is closed only once its thread has really exited.
        """
        if self._loop.is_closed():
            return

        async def stop_all() -> None:
            for server in self._servers:
                await server.stop()

        future = asyncio.run_coroutine_threadsafe(stop_all(), self._loop)
        try:
            future.result(timeout)
        except Exception:
            future.cancel()  # a wedged endpoint must not block teardown
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)
            if not self._thread.is_alive():
                self._loop.close()
