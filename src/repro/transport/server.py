"""The TCP endpoint one party listens on.

A :class:`PartyServer` is the network face of one party (mediator,
datasource, or client): it accepts framed connections, reads the header
and verifies the checksum of every protocol message addressed to its
party — never decoding the body — records the party's **view** of the
traffic in the message's session (sequence, sender, kind, actual wire
bytes — the same observables the leakage analysis consumes), and
acknowledges receipt so the sender can account actual bytes and detect
dead peers.

Endpoints speak a tiny control protocol next to DATA frames:

* ``HELLO {party}``  -> ``OK {party}`` — handshake; the connecting
  transport verifies it reached the party it thinks it did.
* ``FETCH {session}`` -> ``VIEW [record, ...]`` — one session's recorded
  view, for reconciling remote observations against the sender-side
  transcript; a FETCH that names no session is answered ``ERROR``.
* ``TELEMETRY {}``   -> ``TELEMETRY_DATA {spans, metrics, exposition}`` —
  the endpoint's collected telemetry: ``recv:`` spans (stitched into the
  sender's trace via the envelope's trace context), a metrics snapshot,
  and a rendered Prometheus text exposition; ``TELEMETRY {session}``
  narrows the span list to one session.
* ``SESSION {op, session}`` -> ``OK`` — explicit session lifecycle
  (``op`` is ``"open"`` or ``"close"``); opens are idempotent, and an
  open refused for capacity is answered with ``BUSY`` instead.
* misdelivered or malformed frames, and DATA frames that carry no
  session id -> ``ERROR {error}``.

**Threads.**  Blocking sockets throughout: :meth:`PartyServer.start`
binds and starts one accept thread, ``repro-endpoint-<party>``; each
accepted connection gets its own thread, ``repro-endpoint-<party>-conn``,
which reads a frame, answers it with one ``sendall`` and reads the
next.  :meth:`PartyServer.stop` shuts the listener and every connection
down and joins the threads.

**Sessions.**  Every DATA envelope carries a ``session_id``; the
endpoint keys all per-session protocol state — the
session's view of the traffic, its request-id dedupe window, its
``recv:`` span attribution — in a :class:`~repro.session.SessionRegistry`
with LRU + TTL eviction, so one client's queries are invisible to
another's and its records go when the session is closed or evicted:
a ``serve`` process holds the records of its live sessions only, and
what outlives a session is counters.  Distinct sessions
proceed on their own connection threads while a per-session lock
serializes steps *within* each session; one endpoint lock makes
admission atomic and guards the endpoint counters.
When ``max_sessions`` live sessions exist, the first message of any new
session is answered with a ``BUSY`` frame — the client transport backs
off under its retry policy and surfaces
:class:`~repro.errors.ServerBusy` when the budget runs out.

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

import socket
import threading
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass
from typing import Any

from repro.errors import NetworkError
from repro.session import DEFAULT_SESSION_TTL, Session, SessionRegistry
from repro.telemetry.exporters import prometheus_exposition
from repro.telemetry.metrics import Counter, MetricsRegistry
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
    """One party's listening endpoint."""

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
        #: Endpoint-local telemetry collectors, harvested via TELEMETRY.
        self.tracer = Tracer(service=f"repro.endpoint.{party}")
        self.registry = MetricsRegistry()
        #: (sender, kind) -> the registry's message and byte counters
        #: for it, looked up once.
        self._received: dict[tuple[str, str], tuple[Counter, Counter]] = {}
        self._max_messages = max_messages
        self._on_message = on_message
        #: Guards admission, the endpoint counters and the connection
        #: table.
        self._lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        #: Accepted connections and the thread serving each; entries
        #: whose thread has finished are dropped at the next accept.
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._stopped = threading.Event()
        self.max_sessions = max_sessions
        #: Per-session protocol state: each session's ``state`` dict
        #: holds its view (``"records"``) and its dedupe window
        #: (``"acked"``: request_id -> acknowledgement payload,
        #: insertion-ordered, oldest evicted first).
        self.sessions = SessionRegistry(
            capacity=max_sessions,
            ttl=session_ttl,
            on_evict=self._session_ended,
        )

    # -- lifecycle --------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen and start accepting; resolves the actual port
        when ``port=0``."""
        if self._listener is not None:
            raise NetworkError(f"endpoint for {self.party!r} already started")
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        try:
            listener = socket.create_server(
                (self.host, self.port), family=family
            )
        except OSError as exc:
            raise NetworkError(
                f"cannot bind endpoint for {self.party!r} on "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._stopped.clear()
        self._acceptor = threading.Thread(
            target=self._accept,
            args=(listener,),
            name=f"repro-endpoint-{self.party}",
            daemon=True,
        )
        self._acceptor.start()
        return self.host, self.port

    def stop(self, timeout: float = 5.0) -> None:
        """Stop listening, drop every open connection, join the threads.

        The joins share one ``timeout`` budget; the threads are daemons,
        so one that overruns it cannot keep the process alive.
        """
        self._close_listener()
        with self._lock:
            acceptor, self._acceptor = self._acceptor, None
            connections, self._connections = self._connections, {}
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its own thread
        deadline = time.monotonic() + timeout
        for thread in (acceptor, *connections.values()):
            if thread is not None:
                thread.join(max(0.0, deadline - time.monotonic()))
        with self._lock:
            self.sessions.clear()
        self._stopped.set()

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (at once if it already ran)."""
        self._stopped.wait()

    def _close_listener(self) -> None:
        """Close the listening socket: new connects are refused."""
        with self._lock:
            listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wakes the accept()
            except OSError:
                pass
            listener.close()

    # -- connection handling ----------------------------------------------

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:
                return  # listener closed: stopped, or the max_messages fault
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve,
                args=(connection,),
                name=f"repro-endpoint-{self.party}-conn",
                daemon=True,
            )
            with self._lock:
                if self._listener is not listener:
                    connection.close()  # stopped while accepting
                    return
                self._connections = {
                    known: serving
                    for known, serving in self._connections.items()
                    if serving.is_alive()
                }
                self._connections[connection] = thread
                thread.start()

    def _serve(self, connection: socket.socket) -> None:
        """Answer one connection's frames in order until it closes."""
        try:
            while True:
                frame_type, payload = codec.recv_frame(connection)
                answer = self._dispatch(frame_type, payload)
                if answer is None:
                    return
                connection.sendall(answer)
        except (NetworkError, OSError):
            pass  # peer went away or sent garbage; drop quietly
        finally:
            # The entry stays in ``_connections`` until its thread has
            # finished, so stop() joins a thread that is still exiting.
            connection.close()

    def _dispatch(self, frame_type: int, payload: bytes) -> bytes | None:
        """The answer frame to one frame; ``None`` drops the connection."""
        if frame_type == codec.DATA:
            return self._data(payload)
        if frame_type == codec.HELLO:
            return _frame(codec.OK, {"party": self.party})
        if frame_type == codec.FETCH:
            session_id = self._requested_session(payload)
            if session_id is None:
                return _error("FETCH names no session")
            records = self.session_records(session_id)
            return _frame(codec.VIEW, [asdict(record) for record in records])
        if frame_type == codec.TELEMETRY:
            session_id = self._requested_session(payload)
            snapshot = self.telemetry_snapshot(session=session_id)
            return _frame(codec.TELEMETRY_DATA, snapshot)
        if frame_type == codec.SESSION:
            return self._session_control(payload)
        return _error(f"unexpected frame type 0x{frame_type:02x}")

    def _data(self, payload: bytes) -> bytes | None:
        if (
            self._max_messages is not None
            and self.messages_received() >= self._max_messages
        ):
            # Injected fault: die without acknowledging, refuse reconnects.
            self._close_listener()
            return None
        try:
            # The header is all an endpoint acts on: the body stays an
            # opaque, checksummed tail that only its consumer decodes.
            sequence, sender, receiver, kind, trace, request_id, \
                session_id, _ = codec.decode_header(payload)
        except Exception as exc:  # malformed or garbled in flight
            return _error(f"undecodable envelope: {exc}")
        if receiver != self.party:
            # Rejected before admission: a stray frame must not open a
            # session slot or be answered BUSY.
            return _error(
                f"misdelivered message for {receiver!r} at endpoint "
                f"{self.party!r}"
            )
        if session_id is None:
            # Rejected before admission too: every run has a session.
            return _error(f"message #{sequence} carries no session id")
        session = self._admit(session_id)
        if session is None:
            return self._busy()
        with session.lock:
            acked: dict[str, dict] = session.state.setdefault("acked", {})
            if request_id is not None and request_id in acked:
                # Idempotent re-delivery: the sender retried a message
                # we already recorded (its copy of our ACK was lost, or
                # a chaos proxy duplicated the frame).  Re-acknowledge
                # with the original payload; record and observe nothing.
                with self._lock:
                    self.registry.counter(
                        ENDPOINT_DUPLICATES_METRIC,
                        {"party": self.party, "sender": sender, "kind": kind},
                        help_text=(
                            "Duplicate deliveries absorbed by request-id "
                            "dedupe"
                        ),
                    ).inc()
                return _frame(codec.ACK, acked[request_id])
            record = RemoteRecord(
                sequence=sequence,
                sender=sender,
                receiver=receiver,
                kind=kind,
                wire_bytes=codec.FRAME_HEADER_BYTES + len(payload),
            )
            with self._lock:
                self._observe(record, SpanContext.from_wire(trace), session_id)
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
        return _frame(codec.ACK, acknowledgement)

    # -- sessions ----------------------------------------------------------

    def _admit(self, session_id: str) -> Session | None:
        """The session a message belongs to, or ``None`` for BUSY.

        A *new* session id arriving while ``max_sessions`` are live is
        refused (and counted); known live sessions are never refused.
        Check and open are one step under the endpoint lock, so
        concurrent connections cannot overfill the registry.
        """
        with self._lock:
            if (
                session_id not in self.sessions
                and len(self.sessions) >= self.max_sessions
            ):
                self.registry.counter(
                    ENDPOINT_BUSY_METRIC,
                    {"party": self.party},
                    help_text="New sessions refused for capacity",
                ).inc()
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

    def _busy(self) -> bytes:
        """Refuse a new session: answer BUSY, keep the connection."""
        return _frame(
            codec.BUSY,
            {
                "party": self.party,
                "sessions": len(self.sessions),
                "max_sessions": self.max_sessions,
            },
        )

    def _session_control(self, payload: bytes) -> bytes:
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
            return _error(f"bad SESSION frame: {exc}")
        if operation == "open":
            if self._admit(session_id) is None:
                return self._busy()
        else:
            with self._lock:
                self.sessions.close(session_id)
        return _frame(
            codec.OK,
            {"party": self.party, "op": operation, "session": session_id},
        )

    def _session_ended(self, session: Session, reason: str) -> None:
        """Registry eviction hook: count how each session ended."""
        self.registry.counter(
            ENDPOINT_SESSIONS_METRIC,
            {"party": self.party, "event": reason},
            help_text="Session lifecycle events at a party endpoint",
        ).inc()

    def messages_received(self) -> int:
        """Data messages recorded since start, across every session."""
        return int(self.registry.total(ENDPOINT_MESSAGES_METRIC))

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
        session_id: str,
    ) -> None:
        """Record one received message into the endpoint collectors.

        When the envelope carried trace context, the ``recv:`` span is
        parented on the sender's ``send:`` span — that edge is what
        stitches per-process traces into one distributed trace.  The span
        is tagged with the message's session id, so one session's spans
        can be harvested (and stitched) independently of every other
        session's.
        """
        if parent is not None:
            attributes = {
                "kind": "message",
                "sender": record.sender,
                "sequence": record.sequence,
                "wire_bytes": record.wire_bytes,
                "session": session_id,
            }
            span = self.tracer.start_span(
                f"recv:{record.kind}",
                self.party,
                parent=parent,
                attributes=attributes,
            )
            self.tracer.end_span(span)
        counters = self._received.get((record.sender, record.kind))
        if counters is None:
            labels = {
                "party": self.party,
                "sender": record.sender,
                "kind": record.kind,
            }
            counters = self._received[record.sender, record.kind] = (
                self.registry.counter(
                    ENDPOINT_MESSAGES_METRIC, labels,
                    help_text="Data messages received at a party endpoint",
                ),
                self.registry.counter(
                    ENDPOINT_BYTES_METRIC, labels,
                    help_text="Wire bytes received at a party endpoint",
                ),
            )
        messages, wire_bytes = counters
        messages.inc()
        wire_bytes.inc(record.wire_bytes)

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


def _frame(frame_type: int, value: Any) -> bytes:
    """One complete frame carrying ``value``."""
    return codec.build_frame(frame_type, codec.encode_value(value))


def _error(text: str) -> bytes:
    """An ERROR answer; the connection keeps serving."""
    return _frame(codec.ERROR, {"error": text})
