"""The TCP transport: protocol messages over real sockets.

:class:`TcpTransport` implements the :class:`~repro.transport.base.Transport`
contract on top of TCP sockets.  Every ``send`` serializes the message
with the binary codec, frames it, ships it to the *receiver's* endpoint
(a :class:`~repro.transport.server.PartyServer`), and waits for the
acknowledgement — so byte counts in the transcript are **actual wire
bytes** and a dead or silent peer surfaces as a
:class:`~repro.errors.NetworkError` instead of a hang.

The protocols in :mod:`repro.core` are synchronous, and so is the
client side here: a send writes and reads a blocking socket on the
caller's own thread.  Only locally hosted endpoints start threads:
each :class:`~repro.transport.server.PartyServer` runs its own accept
thread and one thread per connection.

Topology: parties whose endpoints are listed in ``endpoints`` are
**remote** (typically started with ``repro serve`` in another process);
any party registered without a listed endpoint gets a **locally hosted**
endpoint on an ephemeral loopback port.  Either way every message
crosses a real socket — loopback runs exercise the full codec,
framing, and acknowledgement path.

Failure semantics (hardened — see ``docs/robustness.md``):

* Every envelope carries a globally unique ``request_id`` and endpoints
  deduplicate on it, so *all* delivery failures — refused connects,
  lost acknowledgements, mid-delivery disconnects — are retried with
  jittered exponential backoff up to ``RetryPolicy.attempts``.  The
  receiver records each protocol message exactly once regardless of how
  many times the frame crossed the wire: **effectively-once** delivery.
* A deadline installed by the runner (:mod:`repro.deadline`) caps every
  wait; an expired deadline raises
  :class:`~repro.errors.DeadlineExceeded` instead of starting another
  attempt.
* Every :class:`~repro.errors.NetworkError` raised here names the
  remote host, port, and the timeout budget that governed the wait.

Concurrency (see ``docs/transport.md``):

* Connections are **pooled** per peer: a send checks a persistent
  connection out, returns it healthy, and at most
  ``RetryPolicy.pool_size`` idle sockets are kept — sequential traffic
  reuses one socket; concurrent sessions (one caller thread each) fan
  out without a connect-per-send tax.
* The caller's :func:`~repro.session.session_scope` — or, outside
  any scope, the transport's own :attr:`~Transport.session_id` — rides
  every envelope as its ``session_id``; endpoints key per-session state
  by it.  An endpoint at capacity answers BUSY, which backs off under the
  retry policy and surfaces as :class:`~repro.errors.ServerBusy` once
  the budget is exhausted.  Sessions are closed at the endpoints on
  :meth:`TcpTransport.close`.

The body the **transcript** records is the object the sender encoded,
exactly as on the in-process bus; ``size_bytes`` is the length of the
frame.  A body the codec cannot carry (an unregistered type, a tree
deeper than :data:`~repro.transport.codec.MAX_VALUE_DEPTH`) fails in
the encoder, before any frame is sent.  No process decodes a DATA body:
the endpoint acts on the envelope header and CRC, and the drivers in
:mod:`repro.core` run every party in one process with their own
objects.  A receiving handler that consumes the decoded body arrives
with party-resident execution (ROADMAP item 2).
"""

from __future__ import annotations

import random
import secrets
import socket
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.deadline import Deadline, current_deadline
from repro.errors import DeadlineExceeded, NetworkError, ServerBusy
from repro.session import current_session_id
from repro.telemetry import tracing
from repro.telemetry.metrics import MetricsRegistry, get_registry
from repro.telemetry.tracing import Span, Tracer
from repro.transport import codec
from repro.transport.base import Message, Transport
from repro.transport.server import PartyServer, RemoteRecord

#: Counter of delivery/control retries, labelled by party and operation.
TRANSPORT_RETRIES_METRIC = "repro_transport_retries_total"
#: Counter of TCP connections actually dialled, labelled by party.
#: Connection pooling shows up here: N sends over one persistent
#: connection increment it once.
TRANSPORT_CONNECTS_METRIC = "repro_transport_connections_total"


@dataclass(frozen=True)
class RetryPolicy:
    """Connection retry, backoff, and I/O deadline parameters."""

    #: Delivery attempts per message (>= 1).
    attempts: int = 4
    #: Backoff before retry i is ``base_delay * 2**i``, capped below.
    base_delay: float = 0.05
    max_delay: float = 1.0
    #: Seconds to wait for a TCP connect to complete.
    connect_timeout: float = 2.0
    #: Seconds to wait for an acknowledgement or control response.
    io_timeout: float = 10.0
    #: Random extra backoff as a fraction of the base delay (0.25 =
    #: up to 25% longer), decorrelating retry storms across parties.
    jitter: float = 0.25
    #: Seconds granted to each hosted endpoint during
    #: :meth:`TcpTransport.close` to join its threads.
    shutdown_timeout: float = 5.0
    #: Idle persistent connections kept per peer.  Sends check a
    #: connection out of the pool and return it healthy, so sequential
    #: traffic reuses one socket and concurrent sessions fan out to at
    #: most this many.
    pool_size: int = 2

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        base = min(self.max_delay, self.base_delay * (2 ** attempt))
        if rng is not None and self.jitter > 0:
            base *= 1.0 + rng.random() * self.jitter
        return base


class TcpTransport(Transport):
    """Transport over blocking TCP sockets (one endpoint per party)."""

    def __init__(
        self,
        endpoints: Mapping[str, tuple[str, int]] | None = None,
        *,
        retry: RetryPolicy | None = None,
        host: str = "127.0.0.1",
        server_options: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__()
        self.retry = retry or RetryPolicy()
        self._endpoints: dict[str, tuple[str, int]] = dict(endpoints or {})
        self._host = host
        #: Keyword arguments applied to every locally hosted
        #: :class:`PartyServer` (``max_sessions``, ``session_ttl``, ...).
        self._server_options = dict(server_options or {})
        self._servers: dict[str, PartyServer] = {}
        #: Idle persistent connections per peer, most recently used
        #: last.  A checked-out connection is absent from the pool until
        #: checked back in, so each caller thread owns its socket.
        self._pools: dict[str, list[socket.socket]] = {}
        self._lock = threading.Lock()
        #: Session ids this transport has put on the wire; told to every
        #: endpoint (SESSION close) at shutdown so server-side state is
        #: released eagerly instead of waiting for the TTL sweep.
        self._sessions_used: set[str] = set()
        self._closed = False
        #: Distinguishes this transport's envelopes in request ids, so
        #: endpoint dedupe never conflates two transports' sequences.
        self._origin = secrets.token_hex(4)
        #: Backoff jitter source.  Deliberately private and seeded so
        #: retries never perturb the protocols' shuffle randomness and
        #: fault-plan replays stay deterministic.
        self._jitter_rng = random.Random(0x5EED)

    # -- registration ------------------------------------------------------

    def endpoint_of(self, party: str) -> tuple[str, int]:
        if party not in self._endpoints:
            raise NetworkError(f"no endpoint known for party {party!r}")
        return self._endpoints[party]

    def register(self, party: str) -> None:
        """Register a party and verify its endpoint answers a handshake.

        Parties without a configured endpoint get one hosted locally on
        an ephemeral loopback port.
        """
        self._require_open()
        super().register(party)
        if party not in self._endpoints:
            server = PartyServer(
                party, host=self._host, port=0, **self._server_options
            )
            self._endpoints[party] = server.start()
            self._servers[party] = server
        response = self._control(party, codec.HELLO, {"party": party}, codec.OK)
        answered = response.get("party") if isinstance(response, dict) else None
        if answered != party:
            raise NetworkError(
                f"endpoint identifies as {answered!r}, expected {party!r} "
                f"{self._where(party)}"
            )

    def local_server(self, party: str) -> PartyServer | None:
        """The locally hosted endpoint for ``party``, if any."""
        return self._servers.get(party)

    # -- transmission -------------------------------------------------------

    def send(self, sender: str, receiver: str, kind: str, body: Any) -> Message:
        """Serialize, frame, transmit, and await the acknowledgement.

        Delivery is effectively-once: the envelope's unique request id
        lets the receiving endpoint absorb re-deliveries, so every
        failure mode — not just refused connects — is retried under
        :class:`RetryPolicy`.  The socket I/O runs on the caller's
        thread, under the caller's installed deadline (if any).
        """
        self._require_parties(sender, receiver)
        session_id = current_session_id() or self.session_id
        self._sessions_used.add(session_id)
        with tracing.span(
            f"send:{kind}", sender, kind="message", receiver=receiver
        ) as span:
            sequence = self._take_sequence()
            trace = span.context().to_wire() if span is not None else None
            payload = codec.encode_envelope(
                sequence, sender, receiver, kind, body,
                trace=trace, request_id=f"{self._origin}:{sequence}",
                session_id=session_id,
            )
            frame = codec.build_frame(codec.DATA, payload)
            self._exchange(receiver, frame, codec.ACK, sequence)
            # The transcript records the body that was encoded, as the bus
            # does; the message is serialized once and never decoded here.
            message = self._record(
                sequence, sender, receiver, kind, body, len(frame)
            )
            if span is not None:
                span.attributes["size_bytes"] = message.size_bytes
                span.attributes["sequence"] = message.sequence
            return message

    def remote_view(
        self, party: str, session: str | None = None
    ) -> list[RemoteRecord]:
        """Fetch one session's view recorded at a party's endpoint
        (FETCH/VIEW); ``session`` defaults to this transport's own.

        A session is the isolation boundary: a FETCH never reveals
        another session's traffic.
        """
        if party not in self._parties:
            raise NetworkError(f"unknown party {party!r}")
        body = {"session": session or self.session_id}
        response = self._control(party, codec.FETCH, body, codec.VIEW)
        return [RemoteRecord(**record) for record in response]

    def open_session(self, session_id: str, parties=None) -> None:
        """Explicitly open a session at endpoints (SESSION/OK round).

        Optional — the first DATA frame of a session opens it
        implicitly — but an explicit open surfaces
        :class:`~repro.errors.ServerBusy` *before* any protocol work is
        done.  Defaults to every registered party.
        """
        self._sessions_used.add(session_id)
        for party in (parties if parties is not None else list(self._parties)):
            self._control(
                party, codec.SESSION, {"op": "open", "session": session_id},
                codec.OK,
            )

    def close_session(self, session_id: str, parties=None) -> None:
        """Explicitly close a session at endpoints, releasing its state."""
        for party in (parties if parties is not None else list(self._parties)):
            self._control(
                party, codec.SESSION, {"op": "close", "session": session_id},
                codec.OK,
            )
        self._sessions_used.discard(session_id)

    def remote_telemetry(self, party: str, session: str | None = None) -> dict:
        """Fetch the telemetry collected at a party's endpoint.

        Returns the ``TELEMETRY_DATA`` payload: ``{"party", "spans",
        "metrics", "exposition"}`` (see
        :meth:`repro.transport.server.PartyServer.telemetry_snapshot`).
        ``session`` narrows the span list to one session's spans.
        """
        if party not in self._parties:
            raise NetworkError(f"unknown party {party!r}")
        return self._telemetry(party, {} if session is None else {"session": session})

    def _telemetry(self, party: str, body: dict) -> dict:
        response = self._control(party, codec.TELEMETRY, body, codec.TELEMETRY_DATA)
        if not isinstance(response, dict):
            raise NetworkError(
                f"endpoint {party!r} returned a malformed telemetry "
                f"snapshot: {type(response).__name__}"
            )
        return response

    def harvest_telemetry(
        self,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
    ) -> dict[str, dict]:
        """Pull every endpoint's telemetry into the caller's collectors.

        Endpoint ``recv:`` spans are adopted into ``tracer`` (default:
        the installed tracer) and endpoint metric families merged into
        ``registry`` (default: the installed registry) — after this, the
        caller holds one stitched distributed trace and one combined
        registry.  Returns the raw per-party snapshots.
        """
        tracer = tracer if tracer is not None else tracing.get_tracer()
        registry = registry if registry is not None else get_registry()
        snapshots: dict[str, dict] = {}
        for party in self._parties:
            snapshot = self.remote_telemetry(party)
            snapshots[party] = snapshot
            if tracer is not None:
                tracer.adopt(
                    Span.from_dict(record)
                    for record in snapshot.get("spans", [])
                )
            if registry is not None and snapshot.get("metrics"):
                registry.merge(snapshot["metrics"])
        return snapshots

    # -- fault hooks ---------------------------------------------------------

    def crash_party(self, party: str) -> None:
        """Kill a locally hosted endpoint and sever its pooled sockets.

        The fault injector's ``crash`` action calls this so that a
        "dead datasource" is a real socket death: the port stops
        answering and subsequent deliveries exhaust their retries
        against a connection-refused endpoint.  Remote (non-hosted)
        endpoints cannot be crashed from here; only the pooled sockets
        are dropped.
        """
        self._require_open()
        if party not in self._parties:
            raise NetworkError(f"unknown party {party!r}")
        self._drop_pool(party)
        server = self._servers.get(party)
        if server is not None:
            server.stop(self.retry.shutdown_timeout)

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Farewell the sessions, close pooled sockets, stop hosted endpoints.

        Bounded even when endpoints are wedged by an injected fault: the
        farewell makes one short attempt per endpoint, and each hosted
        endpoint gets ``RetryPolicy.shutdown_timeout`` to join its
        threads.
        """
        if self._closed:
            return
        self._farewell_sessions()
        self._closed = True  # refuse new work before tearing down
        for party in list(self._pools):
            self._drop_pool(party)
        for server in self._servers.values():
            server.stop(self.retry.shutdown_timeout)

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _farewell_sessions(self) -> None:
        """Best-effort SESSION close for every session this transport
        used, at every endpoint — one attempt, short timeout, failures
        ignored (the endpoint's TTL sweep is the backstop)."""
        once = replace(
            self.retry, attempts=1, io_timeout=min(1.0, self.retry.io_timeout)
        )
        for party in self._parties:
            for session_id in self._sessions_used:
                try:
                    self._control(
                        party, codec.SESSION,
                        {"op": "close", "session": session_id}, codec.OK,
                        retry=once,
                    )
                except Exception:
                    break  # endpoint unreachable: skip its remaining closes

    def _require_open(self) -> None:
        if self._closed:
            raise NetworkError("transport is closed")

    # -- the exchange ----------------------------------------------------------

    def _control(
        self, party: str, frame_type: int, body: Any, expect: int,
        retry: RetryPolicy | None = None,
    ) -> Any:
        """One idempotent control round-trip (HELLO, FETCH, SESSION, ...)."""
        frame = codec.build_frame(frame_type, codec.encode_value(body))
        return self._exchange(party, frame, expect, retry=retry)

    def _exchange(
        self,
        party: str,
        frame: bytes,
        expect: int,
        sequence: int | None = None,
        retry: RetryPolicy | None = None,
    ) -> Any:
        """Send one frame and return the decoded answer, with retries.

        A DATA frame (``sequence`` given) is answered by the ACK of
        ``sequence``; stale ACKs of earlier sequences, left in the stream
        by duplicated frames, are skipped.  Because the endpoint
        deduplicates on the envelope's request id, re-sending a DATA
        frame after *any* failure is safe.  A control frame is retried
        after connection failures and BUSY only: a timeout or an ERROR
        answer is final.
        """
        self._require_open()
        retry = retry or self.retry
        deadline = current_deadline()
        last_error: Exception | None = None
        for attempt in range(retry.attempts):
            if attempt:
                self._backoff(
                    attempt, party, "control" if sequence is None else "deliver",
                    deadline,
                )
            try:
                sock = self._checkout(party)
            except (OSError, NetworkError) as exc:
                last_error = exc
                continue
            answered = False
            try:
                sock.settimeout(self._io_timeout(party, deadline, retry))
                sock.sendall(frame)
                while True:
                    sock.settimeout(self._io_timeout(party, deadline, retry))
                    frame_type, payload = codec.recv_frame(sock)
                    answered = True
                    value = self._control_payload(party, frame_type, payload, expect)
                    acked = value.get("sequence") if isinstance(value, dict) else None
                    if sequence is None or acked == sequence:
                        break
                    if isinstance(acked, int) and acked < sequence:
                        continue  # duplicate ACK of an already-delivered message
                    raise NetworkError(
                        f"wrong acknowledgement: expected #{sequence}, got "
                        f"{value!r} {self._where(party)}"
                    )
            except ServerBusy as exc:
                # The endpoint answered, just refused the new session:
                # the connection is healthy — keep it, back off, retry.
                self._checkin(party, sock)
                last_error = exc
            except DeadlineExceeded:
                sock.close()
                raise
            except TimeoutError as exc:
                sock.close()
                waiting = "a control response" if sequence is None \
                    else "an acknowledgement"
                # Re-read: a wait the deadline cut short is DeadlineExceeded.
                last_error = NetworkError(
                    f"timed out after {self._io_timeout(party, deadline, retry)}s "
                    f"waiting for {waiting} {self._where(party)}"
                )
                if sequence is None:
                    raise last_error from exc
            except (OSError, NetworkError) as exc:
                if answered and sequence is None:
                    # An ERROR answer arrives on a healthy connection.
                    self._checkin(party, sock)
                    raise
                # The frame may have reached the peer, but request-id
                # dedupe makes the resend idempotent: retry.
                sock.close()
                last_error = exc
            except BaseException:
                sock.close()
                raise
            else:
                self._checkin(party, sock)
                return value
        error_type = ServerBusy if isinstance(last_error, ServerBusy) \
            else NetworkError
        what = "complete control request" if sequence is None \
            else f"deliver message #{sequence}"
        raise error_type(
            f"cannot {what} after {retry.attempts} attempts "
            f"{self._where(party)}: {last_error}"
        )

    def _where(self, party: str) -> str:
        """The host/port/budget suffix every NetworkError must carry."""
        host, port = self.endpoint_of(party)
        return (
            f"(endpoint {party!r} at {host}:{port}, connect timeout "
            f"{self.retry.connect_timeout}s, io timeout "
            f"{self.retry.io_timeout}s)"
        )

    def _io_timeout(
        self, party: str, deadline: Deadline | None, retry: RetryPolicy
    ) -> float:
        """The I/O wait budget, capped by the caller's deadline."""
        if deadline is None:
            return retry.io_timeout
        remaining = deadline.remaining()
        if remaining <= 0:
            raise DeadlineExceeded(
                f"deadline of {deadline.budget}s exhausted before I/O "
                f"{self._where(party)}"
            )
        return min(retry.io_timeout, remaining)

    def _backoff(
        self, attempt: int, party: str, operation: str,
        deadline: Deadline | None,
    ) -> None:
        """Count retry ``attempt`` and sleep its jittered backoff."""
        registry = get_registry()
        if registry is not None:
            registry.counter(
                TRANSPORT_RETRIES_METRIC,
                {"party": party, "operation": operation},
                help_text="Delivery/control retries on the TCP transport",
            ).inc()
        if deadline is not None and deadline.expired():
            raise DeadlineExceeded(
                f"deadline of {deadline.budget}s exhausted after "
                f"{attempt} attempts {self._where(party)}"
            )
        time.sleep(self.retry.delay(attempt - 1, self._jitter_rng))

    # -- connection pool -------------------------------------------------------

    def _checkout(self, party: str) -> socket.socket:
        """Check a pooled connection out, or dial a fresh one.

        The connection is absent from the pool while checked out —
        concurrent senders to the same peer each get their own socket
        (up to ``RetryPolicy.pool_size`` are kept idle between sends).
        """
        while True:
            with self._lock:
                pool = self._pools.get(party)
                sock = pool.pop() if pool else None
            if sock is None:
                break
            if not _readable(sock):
                return sock
            sock.close()  # EOF or stray bytes arrived while idle: stale
        host, port = self.endpoint_of(party)
        try:
            sock = socket.create_connection(
                (host, port), timeout=self.retry.connect_timeout
            )
        except TimeoutError as exc:
            raise NetworkError(
                f"connect timed out after {self.retry.connect_timeout}s "
                f"{self._where(party)}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        registry = get_registry()
        if registry is not None:
            registry.counter(
                TRANSPORT_CONNECTS_METRIC,
                {"party": party},
                help_text="TCP connections dialled by the transport",
            ).inc()
        return sock

    def _checkin(self, party: str, sock: socket.socket) -> None:
        """Return a healthy connection to the peer's pool (or close it)."""
        with self._lock:
            pool = self._pools.setdefault(party, [])
            if not self._closed and len(pool) < self.retry.pool_size:
                pool.append(sock)
                return
        sock.close()

    def _drop_pool(self, party: str) -> None:
        """Close every idle connection to a peer."""
        with self._lock:
            pool = self._pools.pop(party, [])
        for sock in pool:
            sock.close()

    def _control_payload(
        self, party: str, frame_type: int, payload: bytes, expect: int
    ) -> Any:
        value = codec.decode_value(payload)
        if frame_type == codec.BUSY:
            sessions = value.get("sessions") if isinstance(value, dict) else "?"
            limit = value.get("max_sessions") if isinstance(value, dict) else "?"
            raise ServerBusy(
                f"endpoint refused a new session: {sessions}/{limit} "
                f"sessions live {self._where(party)}"
            )
        if frame_type == codec.ERROR:
            detail = value.get("error") if isinstance(value, dict) else value
            raise NetworkError(
                f"endpoint reported: {detail} {self._where(party)}"
            )
        if frame_type != expect:
            raise NetworkError(
                f"unexpected frame type 0x{frame_type:02x} in response "
                f"{self._where(party)}"
            )
        return value


def _readable(sock: socket.socket) -> bool:
    """Whether an idle socket has anything to read: EOF or stray bytes."""
    sock.setblocking(False)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return False
    except OSError:
        pass  # reset while idle: as stale as EOF
    return True


def fetch_telemetry(host: str, port: int, timeout: float = 10.0) -> dict:
    """One-shot TELEMETRY request against a running endpoint.

    Used by ``repro telemetry`` to inspect a ``serve`` process without
    registering parties: one attempt, ``timeout`` bounding the connect
    and the answer.
    """
    address = f"{host}:{port}"
    once = RetryPolicy(attempts=1, connect_timeout=timeout, io_timeout=timeout)
    with TcpTransport({address: (host, port)}, retry=once) as transport:
        return transport._telemetry(address, {})
