"""The TCP transport: protocol messages over real sockets.

:class:`TcpTransport` implements the :class:`~repro.transport.base.Transport`
contract on top of asyncio TCP streams.  Every ``send`` serializes the
message with the binary codec, frames it, ships it to the *receiver's*
endpoint (a :class:`~repro.transport.server.PartyServer`), and waits for
the acknowledgement — so byte counts in the transcript are **actual wire
bytes** and a dead or silent peer surfaces as a
:class:`~repro.errors.NetworkError` instead of a hang.

The protocols in :mod:`repro.core` are synchronous, so the transport
owns a private event loop on a background thread and submits coroutines
to it; callers never touch asyncio.

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
  reuses one socket; concurrent sessions fan out without a
  connect-per-send tax.
* The caller's :func:`~repro.session.session_scope` rides every
  envelope as its ``session_id``; endpoints key per-session state by
  it.  An endpoint at capacity answers BUSY, which backs off under the
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
with party-resident execution (ROADMAP item 1).
"""

from __future__ import annotations

import asyncio
import random
import secrets
import threading
from dataclasses import dataclass
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
    #: Seconds granted to the shutdown coroutine and the loop thread
    #: join during :meth:`TcpTransport.close`.
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
    """Transport over asyncio TCP sockets (one endpoint per party)."""

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
        #: last.  All pool operations run on the transport loop, so no
        #: lock is needed; a checked-out connection is simply absent
        #: from the pool until released.
        self._pools: dict[
            str, list[tuple[asyncio.StreamReader, asyncio.StreamWriter]]
        ] = {}
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
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-tcp-transport", daemon=True
        )
        self._thread.start()

    # -- loop plumbing ----------------------------------------------------

    def _run(self, coroutine) -> Any:
        """Run one coroutine on the transport loop, from the caller thread."""
        if self._closed:
            coroutine.close()
            raise NetworkError("transport is closed")
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

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
        super().register(party)
        if party not in self._endpoints:
            server = PartyServer(
                party, host=self._host, port=0, **self._server_options
            )
            self._endpoints[party] = self._run(server.start())
            self._servers[party] = server
        self._run(self._handshake(party))

    def local_server(self, party: str) -> PartyServer | None:
        """The locally hosted endpoint for ``party``, if any."""
        return self._servers.get(party)

    # -- transmission -------------------------------------------------------

    def send(self, sender: str, receiver: str, kind: str, body: Any) -> Message:
        """Serialize, frame, transmit, and await the acknowledgement.

        Delivery is effectively-once: the envelope's unique request id
        lets the receiving endpoint absorb re-deliveries, so every
        failure mode — not just refused connects — is retried under
        :class:`RetryPolicy`.  The caller's installed deadline (if any)
        is captured here, on the caller thread, and propagated into the
        transport loop explicitly.
        """
        self._require_parties(sender, receiver)
        session_id = current_session_id()
        if session_id is not None:
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
            self._run(
                self._deliver(receiver, frame, sequence, current_deadline())
            )
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
        """Fetch the view recorded at a party's endpoint (FETCH/VIEW).

        ``session`` narrows the view to one session's records — the
        isolation boundary: a session filter never reveals another
        session's traffic.
        """
        if party not in self._parties:
            raise NetworkError(f"unknown party {party!r}")
        body = {} if session is None else {"session": session}
        response = self._run(
            self._request(
                party, codec.FETCH, body, expect=codec.VIEW,
                deadline=current_deadline(),
            )
        )
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
            self._run(
                self._request(
                    party, codec.SESSION,
                    {"op": "open", "session": session_id},
                    expect=codec.OK, deadline=current_deadline(),
                )
            )

    def close_session(self, session_id: str, parties=None) -> None:
        """Explicitly close a session at endpoints, releasing its state."""
        for party in (parties if parties is not None else list(self._parties)):
            self._run(
                self._request(
                    party, codec.SESSION,
                    {"op": "close", "session": session_id},
                    expect=codec.OK, deadline=current_deadline(),
                )
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
        body = {} if session is None else {"session": session}
        response = self._run(
            self._request(
                party, codec.TELEMETRY, body, expect=codec.TELEMETRY_DATA,
                deadline=current_deadline(),
            )
        )
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
        """Kill a locally hosted endpoint and sever its cached stream.

        The fault injector's ``crash`` action calls this so that a
        "dead datasource" is a real socket death: the port stops
        answering and subsequent deliveries exhaust their retries
        against a connection-refused endpoint.  Remote (non-hosted)
        endpoints cannot be crashed from here; only the cached stream
        is dropped.
        """
        if party not in self._parties:
            raise NetworkError(f"unknown party {party!r}")
        server = self._servers.get(party)

        async def _crash() -> None:
            self._drop_pool(party)
            if server is not None:
                await server.stop()

        self._run(_crash())

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Close connections, stop hosted endpoints, stop the loop.

        Shutdown is governed by ``RetryPolicy.shutdown_timeout`` and
        must not leak the loop thread even when endpoints are wedged by
        an injected fault: a shutdown coroutine that overruns its
        budget is cancelled, the loop is stopped regardless, and the
        loop is only closed once its thread has really exited.
        """
        if self._closed:
            return
        self._closed = True  # refuse new work before tearing down
        budget = self.retry.shutdown_timeout
        future = asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop)
        try:
            future.result(timeout=budget)
        except (asyncio.TimeoutError, TimeoutError):
            future.cancel()
        except Exception:
            pass  # a wedged endpoint must not block teardown
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=budget)
            if not self._thread.is_alive():
                self._loop.close()

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    async def _shutdown(self) -> None:
        await self._farewell_sessions()
        for party in list(self._pools):
            self._drop_pool(party)
        for server in self._servers.values():
            await server.stop()

    async def _farewell_sessions(self) -> None:
        """Best-effort SESSION close for every session this transport
        used, at every endpoint — one attempt, short timeout, failures
        ignored (the endpoint's TTL sweep is the backstop)."""
        if not self._sessions_used:
            return
        timeout = min(1.0, self.retry.io_timeout)
        for party in self._parties:
            for session_id in self._sessions_used:
                try:
                    reader, writer = await self._acquire(party)
                except Exception:
                    break  # endpoint unreachable: skip its remaining closes
                try:
                    await codec.write_frame(
                        writer,
                        codec.SESSION,
                        codec.encode_value(
                            {"op": "close", "session": session_id}
                        ),
                    )
                    await codec.read_frame(reader, timeout)
                    self._release(party, (reader, writer))
                except Exception:
                    writer.close()

    # -- connection management (runs on the transport loop) ----------------

    def _where(self, party: str) -> str:
        """The host/port/budget suffix every NetworkError must carry."""
        host, port = self.endpoint_of(party)
        return (
            f"(endpoint {party!r} at {host}:{port}, connect timeout "
            f"{self.retry.connect_timeout}s, io timeout "
            f"{self.retry.io_timeout}s)"
        )

    def _io_timeout(self, party: str, deadline: Deadline | None) -> float:
        """The I/O wait budget, capped by the propagated deadline."""
        if deadline is None:
            return self.retry.io_timeout
        remaining = deadline.remaining()
        if remaining <= 0:
            raise DeadlineExceeded(
                f"deadline of {deadline.budget}s exhausted before I/O "
                f"{self._where(party)}"
            )
        return min(self.retry.io_timeout, remaining)

    def _count_retry(self, party: str, operation: str) -> None:
        registry = get_registry()
        if registry is not None:
            registry.counter(
                TRANSPORT_RETRIES_METRIC,
                {"party": party, "operation": operation},
                help_text="Delivery/control retries on the TCP transport",
            ).inc()

    async def _backoff(
        self, attempt: int, party: str, operation: str,
        deadline: Deadline | None,
    ) -> None:
        """Sleep the jittered backoff before retry ``attempt``."""
        if attempt == 0:
            return
        self._count_retry(party, operation)
        if deadline is not None and deadline.expired():
            raise DeadlineExceeded(
                f"deadline of {deadline.budget}s exhausted after "
                f"{attempt} attempts {self._where(party)}"
            )
        await asyncio.sleep(self.retry.delay(attempt - 1, self._jitter_rng))

    async def _acquire(
        self, party: str
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """Check a pooled connection out, or dial a fresh one.

        The connection is absent from the pool while checked out —
        concurrent senders to the same peer each get their own socket
        (up to ``RetryPolicy.pool_size`` are kept idle between sends).
        """
        pool = self._pools.get(party, [])
        while pool:
            reader, writer = pool.pop()
            if writer.is_closing() or reader.at_eof():
                writer.close()  # went stale while idle
                continue
            return reader, writer
        host, port = self.endpoint_of(party)
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), self.retry.connect_timeout
            )
        except asyncio.TimeoutError as exc:
            raise NetworkError(
                f"connect timed out after {self.retry.connect_timeout}s "
                f"{self._where(party)}"
            ) from exc
        registry = get_registry()
        if registry is not None:
            registry.counter(
                TRANSPORT_CONNECTS_METRIC,
                {"party": party},
                help_text="TCP connections dialled by the transport",
            ).inc()
        return reader, writer

    def _release(
        self,
        party: str,
        connection: tuple[asyncio.StreamReader, asyncio.StreamWriter],
    ) -> None:
        """Return a healthy connection to the peer's pool (or close it)."""
        reader, writer = connection
        pool = self._pools.setdefault(party, [])
        if (
            self._closed
            or writer.is_closing()
            or reader.at_eof()
            or len(pool) >= self.retry.pool_size
        ):
            writer.close()
            return
        pool.append(connection)

    def _drop_pool(self, party: str) -> None:
        """Close every idle connection to a peer."""
        for _, writer in self._pools.pop(party, []):
            writer.close()

    async def _await_ack(
        self,
        reader: asyncio.StreamReader,
        party: str,
        sequence: int,
        deadline: Deadline | None,
    ) -> dict:
        """Read acknowledgements until ours arrives.

        Stale ACKs — re-acknowledgements of *earlier* sequences left in
        the stream by duplicated frames — are skipped; anything else
        unexpected is an error.
        """
        while True:
            frame_type, payload = await codec.read_frame(
                reader, self._io_timeout(party, deadline)
            )
            ack = self._control_payload(party, frame_type, payload, codec.ACK)
            acked = ack.get("sequence") if isinstance(ack, dict) else None
            if acked == sequence:
                return ack
            if isinstance(acked, int) and acked < sequence:
                continue  # duplicate ACK of an already-delivered message
            raise NetworkError(
                f"wrong acknowledgement: expected #{sequence}, got {ack!r} "
                f"{self._where(party)}"
            )

    async def _deliver(
        self,
        party: str,
        frame: bytes,
        sequence: int,
        deadline: Deadline | None,
    ) -> dict:
        """Send one DATA frame; returns the matching acknowledgement.

        Because the receiving endpoint deduplicates on the envelope's
        request id, re-sending after *any* failure is safe — the frame
        is recorded at most once no matter how many copies arrive.
        """
        last_error: Exception | None = None
        for attempt in range(self.retry.attempts):
            await self._backoff(attempt, party, "deliver", deadline)
            try:
                reader, writer = await self._acquire(party)
            except (ConnectionError, OSError, NetworkError) as exc:
                last_error = exc
                continue
            try:
                writer.write(frame)
                await writer.drain()
                ack = await self._await_ack(reader, party, sequence, deadline)
                self._release(party, (reader, writer))
                return ack
            except ServerBusy as exc:
                # The endpoint answered, just refused the new session:
                # the connection is healthy — keep it, back off, retry.
                self._release(party, (reader, writer))
                last_error = exc
            except asyncio.TimeoutError:
                writer.close()
                last_error = NetworkError(
                    f"timed out after {self._io_timeout(party, deadline)}s "
                    f"waiting for an acknowledgement {self._where(party)}"
                )
            except DeadlineExceeded:
                writer.close()
                raise
            except (ConnectionError, OSError, NetworkError) as exc:
                # The frame may have reached the peer, but request-id
                # dedupe makes the resend idempotent: retry.
                writer.close()
                last_error = exc
        error_type = ServerBusy if isinstance(last_error, ServerBusy) \
            else NetworkError
        raise error_type(
            f"cannot deliver message #{sequence} after "
            f"{self.retry.attempts} attempts {self._where(party)}: "
            f"{last_error}"
        )

    async def _request(
        self,
        party: str,
        frame_type: int,
        body: Any,
        expect: int,
        deadline: Deadline | None = None,
    ) -> Any:
        """One idempotent control round-trip (HELLO, FETCH), with retries."""
        last_error: Exception | None = None
        for attempt in range(self.retry.attempts):
            await self._backoff(attempt, party, "control", deadline)
            try:
                reader, writer = await self._acquire(party)
            except (ConnectionError, OSError, NetworkError) as exc:
                last_error = exc
                continue
            try:
                await codec.write_frame(
                    writer, frame_type, codec.encode_value(body)
                )
                response_type, payload = await codec.read_frame(
                    reader, self._io_timeout(party, deadline)
                )
            except asyncio.TimeoutError as exc:
                writer.close()
                raise NetworkError(
                    f"timed out after {self._io_timeout(party, deadline)}s "
                    f"waiting for a control response {self._where(party)}"
                ) from exc
            except DeadlineExceeded:
                writer.close()
                raise
            except (ConnectionError, OSError, NetworkError) as exc:
                writer.close()
                last_error = exc
                continue
            try:
                value = self._control_payload(
                    party, response_type, payload, expect
                )
            except ServerBusy as exc:
                # Capacity refusal, healthy connection: keep it, retry.
                self._release(party, (reader, writer))
                last_error = exc
                continue
            except NetworkError:
                # An ERROR answer arrives on a healthy connection.
                self._release(party, (reader, writer))
                raise
            self._release(party, (reader, writer))
            return value
        error_type = ServerBusy if isinstance(last_error, ServerBusy) \
            else NetworkError
        raise error_type(
            f"cannot complete control request after "
            f"{self.retry.attempts} attempts {self._where(party)}: "
            f"{last_error}"
        )

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

    async def _handshake(self, party: str) -> None:
        response = await self._request(
            party, codec.HELLO, {"party": party},
            expect=codec.OK, deadline=None,
        )
        answered = response.get("party") if isinstance(response, dict) else None
        if answered != party:
            raise NetworkError(
                f"endpoint identifies as {answered!r}, expected {party!r} "
                f"{self._where(party)}"
            )


def fetch_telemetry(host: str, port: int, timeout: float = 10.0) -> dict:
    """One-shot TELEMETRY request against a running endpoint.

    Used by ``repro telemetry`` to inspect a ``serve`` process without
    constructing a full transport.
    """

    async def _fetch() -> dict:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout
            )
        except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
            raise NetworkError(
                f"cannot reach endpoint at {host}:{port}: {exc}"
            ) from exc
        try:
            await codec.write_frame(
                writer, codec.TELEMETRY, codec.encode_value({})
            )
            frame_type, payload = await codec.read_frame(reader, timeout)
        except asyncio.TimeoutError as exc:
            raise NetworkError(
                f"timed out after {timeout}s waiting for telemetry from "
                f"{host}:{port}"
            ) from exc
        finally:
            writer.close()
        value = codec.decode_value(payload)
        if frame_type == codec.ERROR:
            detail = value.get("error") if isinstance(value, dict) else value
            raise NetworkError(f"endpoint at {host}:{port} reported: {detail}")
        if frame_type != codec.TELEMETRY_DATA or not isinstance(value, dict):
            raise NetworkError(
                f"endpoint at {host}:{port} answered with unexpected frame "
                f"type 0x{frame_type:02x}"
            )
        return value

    return asyncio.run(_fetch())
