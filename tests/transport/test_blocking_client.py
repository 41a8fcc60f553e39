"""The TCP client sends on the caller's thread.

Pins the design: a transport with only remote endpoints starts no
thread; one that hosts endpoints starts only its endpoints'
``repro-endpoint-*`` threads and leaves none behind; caller threads
share the socket pool; a
dialled socket has Nagle's algorithm off.  Also covers ``fetch_telemetry``, the one-shot request behind
``repro telemetry``.
"""

import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import NetworkError
from repro.session import session_scope
from repro.telemetry import Tracer, use_tracer
from repro.transport import TcpTransport, codec
from repro.transport.server import ENDPOINT_MESSAGES_METRIC
from repro.transport.tcp import fetch_telemetry

from tests.faults.conftest import FAST, MuteServer, ThreadedEndpoint


def exchange(carrier: TcpTransport) -> None:
    """Register a and b, send in a session (so close() farewells it)."""
    carrier.register("a")
    carrier.register("b")
    with session_scope("pin"):
        carrier.send("a", "b", "kind", {"n": 1})


def client_threads() -> set[threading.Thread]:
    """Live threads, without the endpoints' own (which a connect to an
    in-process stand-in endpoint starts on the endpoint's side)."""
    return {
        thread for thread in threading.enumerate()
        if not thread.name.startswith("repro-endpoint-")
    }


class TestClientThreads:
    def test_remote_only_transport_adds_no_thread(self):
        remote = {party: ThreadedEndpoint(party) for party in ("a", "b")}
        try:
            before = client_threads()
            carrier = TcpTransport(
                {party: endpoint.address for party, endpoint in remote.items()},
                retry=FAST,
            )
            exchange(carrier)
            assert client_threads() == before
            carrier.close()
            assert client_threads() == before
            assert remote["b"].server.sessions.peek("pin") is None
        finally:
            for endpoint in remote.values():
                endpoint.close()

    def test_hosting_transport_adds_only_endpoint_threads(self):
        before = set(threading.enumerate())
        carrier = TcpTransport(retry=FAST)
        try:
            assert set(threading.enumerate()) == before
            exchange(carrier)
            added = {
                thread.name for thread in set(threading.enumerate()) - before
            }
            acceptors = {"repro-endpoint-a", "repro-endpoint-b"}
            connections = {f"{name}-conn" for name in acceptors}
            assert acceptors <= added <= acceptors | connections
        finally:
            carrier.close()
        assert set(threading.enumerate()) == before

    def test_concurrent_senders_share_the_pool(self):
        """More sender threads than cores, switching often: every send is
        acknowledged and recorded once, and the pool stays bounded."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with TcpTransport(retry=FAST) as carrier:
                carrier.register("a")
                carrier.register("b")

                def burst(index: int) -> list[int]:
                    return [
                        carrier.send("a", "b", f"k{index}", n).sequence
                        for n in range(20)
                    ]

                with ThreadPoolExecutor(max_workers=6) as pool:
                    futures = [pool.submit(burst, index) for index in range(6)]
                    sent = [seq for f in futures for seq in f.result(timeout=60)]
                recorded = [
                    r.sequence
                    for r in carrier.local_server("b").session_records(
                        carrier.session_id
                    )
                ]
                assert sorted(sent) == sorted(recorded) == list(range(1, 121))
                assert len(carrier._pools["b"]) <= FAST.pool_size
        finally:
            sys.setswitchinterval(previous)

    def test_dialled_socket_has_nodelay(self):
        """And so has the end the endpoint accepted."""
        with TcpTransport(retry=FAST) as carrier:
            exchange(carrier)
            [sock] = carrier._pools["b"]
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            [accepted] = carrier.local_server("b")._connections
            assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def unused_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestFetchTelemetry:
    def test_hosted_endpoint_after_one_send(self):
        with TcpTransport(retry=FAST) as carrier:
            with use_tracer(Tracer()):
                exchange(carrier)
            host, port = carrier.endpoint_of("b")
            snapshot = fetch_telemetry(host, port, timeout=2.0)
        assert snapshot["party"] == "b"
        assert [span["name"] for span in snapshot["spans"]] == ["recv:kind"]
        assert ENDPOINT_MESSAGES_METRIC in snapshot["metrics"]
        assert ENDPOINT_MESSAGES_METRIC in snapshot["exposition"]

    def test_unused_port_names_the_endpoint(self):
        port = unused_port()
        with pytest.raises(NetworkError, match=f"127.0.0.1:{port}"):
            fetch_telemetry("127.0.0.1", port, timeout=0.5)

    def test_mute_endpoint_times_out(self):
        mute = MuteServer()
        try:
            started = time.perf_counter()
            with pytest.raises(NetworkError, match="^timed out"):
                fetch_telemetry("127.0.0.1", mute.port, timeout=0.3)
            elapsed = time.perf_counter() - started
        finally:
            mute.close()
        assert 0.3 <= elapsed < 0.3 + 1.0

    def test_error_answer_is_reported(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def answer_error() -> None:
                connection, _ = listener.accept()
                with connection:
                    codec.recv_frame(connection)
                    connection.sendall(codec.build_frame(
                        codec.ERROR, codec.encode_value({"error": "no telemetry"})
                    ))

            responder = threading.Thread(target=answer_error)
            responder.start()
            try:
                with pytest.raises(NetworkError, match="reported: no telemetry"):
                    fetch_telemetry(*listener.getsockname(), timeout=2.0)
            finally:
                responder.join(timeout=5)
            assert not responder.is_alive()
