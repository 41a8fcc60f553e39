"""An in-process TCP chaos proxy that garbles traffic at the frame level.

A :class:`ChaosProxy` sits between a transport and one party's real
endpoint: it listens on an ephemeral loopback port, forwards framed
traffic to the upstream endpoint, and consults the shared
:class:`~repro.faults.injector.FaultInjector` for every DATA frame it
relays.  Where :class:`~repro.faults.transport.FaultyTransport` injects
faults *above* the carrier, the proxy injects them *below* it — actual
bytes are truncated, flipped, duplicated, or cut off mid-stream, so the
hardened TCP path (request-id dedupe, stale-ACK tolerance, bounded
retry) is exercised against real socket misbehaviour:

* ``delay``     — hold the frame before forwarding,
* ``drop``      — swallow the frame (the sender's ack wait times out),
* ``corrupt``   — flip a payload byte in flight (wherever it lands, the
  envelope fails its CRC and the endpoint answers ``ERROR: undecodable
  envelope``),
* ``duplicate`` — forward the frame twice (the endpoint dedupes; the
  extra ACK is skipped as stale by the sender),
* ``truncate``  — forward a partial frame, then reset both sides,
* ``reset``     — tear the connection down without forwarding,
* ``crash``     — kill the proxy itself: the port goes dark and every
  later connect is refused.

Control frames (HELLO, FETCH, TELEMETRY) and all upstream responses
pass through untouched — the chaos model targets protocol deliveries.

The proxy is deliberately plain ``socket`` + ``threading`` code: it
must not share the transport's event loop, or a fault that wedges the
proxy could deadlock the very code path under test.
"""

from __future__ import annotations

import socket
import threading

from repro.errors import NetworkError
from repro.faults.injector import FaultInjector
from repro.transport import codec

#: Deterministic corruption mask applied to one in-flight payload byte.
_CORRUPTION_MASK = 0x5A


class ChaosProxy:
    """Fault-injecting relay in front of one party's endpoint."""

    def __init__(
        self,
        upstream: tuple[str, int],
        injector: FaultInjector,
        *,
        host: str = "127.0.0.1",
    ) -> None:
        self.upstream = upstream
        self.injector = injector
        self.host = host
        self.port: int | None = None
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._sockets: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._alive = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Listen on an ephemeral port; returns the address to dial."""
        if self._listener is not None:
            raise NetworkError("chaos proxy already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen()
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._alive = True
        thread = threading.Thread(
            target=self._accept_loop, name="repro-chaos-proxy", daemon=True
        )
        thread.start()
        self._threads.append(thread)
        return self.host, self.port

    def stop(self) -> None:
        """Close the listener and every relayed connection."""
        self._alive = False
        listener, self._listener = self._listener, None
        if listener is not None:
            # A blocked accept() is not reliably woken by close();
            # nudge it with a throwaway connection first.
            try:
                socket.create_connection(
                    (self.host, self.port), timeout=0.5
                ).close()
            except OSError:  # pragma: no cover - already unreachable
                pass
            listener.close()
        with self._lock:
            doomed = list(self._sockets)
        for sock in doomed:
            self._discard(sock)
        for thread in self._threads:
            if thread is threading.current_thread():
                continue  # a crash rule stops the proxy from inside
            thread.join(timeout=2.0)
        self._threads.clear()

    def __enter__(self) -> "ChaosProxy":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- relay ---------------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while self._alive and listener is not None:
            try:
                client, _ = listener.accept()
            except OSError:
                return  # listener closed: proxy stopped or crashed
            if not self._alive:
                client.close()
                return
            thread = threading.Thread(
                target=self._handle,
                args=(client,),
                name="repro-chaos-proxy-conn",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _handle(self, client: socket.socket) -> None:
        try:
            server = socket.create_connection(self.upstream, timeout=5.0)
        except OSError:
            client.close()
            return
        server.settimeout(None)
        with self._lock:
            self._sockets.add(client)
            self._sockets.add(server)
        pump = threading.Thread(
            target=self._pump_responses,
            args=(server, client),
            name="repro-chaos-proxy-pump",
            daemon=True,
        )
        pump.start()
        self._threads.append(pump)
        try:
            while self._alive:
                frame = self._read_frame(client)
                if frame is None:
                    return
                if not self._relay(frame, server):
                    return
        finally:
            self._discard(client)
            self._discard(server)

    def _relay(self, frame: bytes, server: socket.socket) -> bool:
        """Forward one frame, injecting faults; False tears the link down."""
        header = frame[: codec.FRAME_HEADER_BYTES]
        frame_type, _ = codec.parse_frame_header(header)
        if frame_type != codec.DATA:
            return self._forward(server, frame)
        envelope = self._peek(frame[codec.FRAME_HEADER_BYTES:])
        if envelope is None:
            return self._forward(server, frame)
        sender, receiver, kind, session = envelope
        fired = self.injector.observe(
            "proxy", sender, receiver, kind, session=session
        )
        actions = {rule.action: rule for rule in fired}
        if "delay" in actions:
            self._interruptible_sleep(actions["delay"].delay_seconds)
        if "crash" in actions:
            self.stop()
            return False
        if "reset" in actions:
            return False
        if "truncate" in actions:
            # Half a frame, then a hard cut: the endpoint reads a
            # short body and drops the connection; the sender retries.
            self._forward(server, frame[: max(len(frame) // 2, 1)])
            return False
        if "drop" in actions:
            return True  # swallowed: the sender's ack wait times out
        if "corrupt" in actions:
            frame = self._corrupted(frame)
        copies = 2 if "duplicate" in actions else 1
        for _ in range(copies):
            if not self._forward(server, frame):
                return False
        return True

    @staticmethod
    def _peek(payload: bytes) -> tuple[str, str, str, str | None] | None:
        """(sender, receiver, kind, session) of a DATA payload's header,
        if it parses; the body is relayed unread."""
        try:
            header = codec.decode_header(payload)
        except Exception:
            return None
        return header.sender, header.receiver, header.kind, header.session_id

    @staticmethod
    def _corrupted(frame: bytes) -> bytes:
        """Flip the middle payload byte; the frame header (and so the
        framing) stays valid."""
        garbled = bytearray(frame)
        if len(garbled) > codec.FRAME_HEADER_BYTES:
            garbled[(codec.FRAME_HEADER_BYTES + len(garbled)) // 2] ^= (
                _CORRUPTION_MASK
            )
        return bytes(garbled)

    def _interruptible_sleep(self, seconds: float) -> None:
        waited = 0.0
        while self._alive and waited < seconds:
            step = min(0.05, seconds - waited)
            threading.Event().wait(step)
            waited += step

    # -- socket plumbing -------------------------------------------------------

    def _read_frame(self, sock: socket.socket) -> bytes | None:
        header = self._recv_exact(sock, codec.FRAME_HEADER_BYTES)
        if header is None:
            return None
        try:
            _, length = codec.parse_frame_header(header)
        except NetworkError:
            return None  # unframed garbage: drop the connection
        payload = self._recv_exact(sock, length) if length else b""
        if payload is None:
            return None
        return header + payload

    @staticmethod
    def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
        chunks = bytearray()
        while len(chunks) < count:
            try:
                chunk = sock.recv(count - len(chunks))
            except OSError:
                return None
            if not chunk:
                return None
            chunks.extend(chunk)
        return bytes(chunks)

    @staticmethod
    def _forward(sock: socket.socket, data: bytes) -> bool:
        try:
            sock.sendall(data)
        except OSError:
            return False
        return True

    def _pump_responses(
        self, server: socket.socket, client: socket.socket
    ) -> None:
        """Relay upstream responses to the client verbatim."""
        while True:
            try:
                data = server.recv(65536)
            except OSError:
                data = b""
            if not data:
                self._discard(client)
                return
            if not self._forward(client, data):
                return

    def _discard(self, sock: socket.socket) -> None:
        with self._lock:
            self._sockets.discard(sock)
        try:
            # close() alone does not wake a pump thread blocked in
            # recv() on this socket; shutdown() does.
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected, or already gone
        try:
            sock.close()
        except OSError:  # pragma: no cover - already gone
            pass
