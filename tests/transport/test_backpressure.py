"""Backpressure tests: session admission, BUSY frames, ServerBusy.

An endpoint at ``max_sessions`` refuses a *new* session's traffic with
a BUSY frame; the client side backs off under its retry policy and
surfaces :class:`~repro.errors.ServerBusy` once the budget is spent.
These tests pin the refusal rules: live sessions are never refused,
BUSY leaves the connection healthy, and closing a session frees its
slot.
"""

import socket
import threading
import time

import pytest

from repro.errors import NetworkError, ServerBusy
from repro.session import session_scope
from repro.transport import RetryPolicy, TcpTransport, codec
from repro.transport.server import ENDPOINT_BUSY_METRIC

from tests.faults.conftest import ThreadedEndpoint

FAST = RetryPolicy(
    attempts=2, base_delay=0.01, max_delay=0.02, connect_timeout=1.0,
    io_timeout=1.0,
)


@pytest.fixture
def crowded_transport():
    """A transport whose locally hosted endpoints allow ONE session."""
    transport = TcpTransport(retry=FAST, server_options={"max_sessions": 1})
    transport.register("client")
    transport.register("S1")
    yield transport
    transport.close()


class TestAdmission:
    def test_second_session_is_refused_with_server_busy(self, crowded_transport):
        with session_scope("first"):
            crowded_transport.send("client", "S1", "step", {"n": 1})
        with session_scope("second"):
            with pytest.raises(ServerBusy) as excinfo:
                crowded_transport.send("client", "S1", "step", {"n": 2})
        message = str(excinfo.value)
        assert "1/1 sessions" in message
        assert "127.0.0.1" in message  # the _where() endpoint contract

    def test_server_busy_is_a_network_error(self):
        assert issubclass(ServerBusy, NetworkError)

    def test_live_session_is_never_refused(self, crowded_transport):
        with session_scope("first"):
            for n in range(3):
                crowded_transport.send("client", "S1", "step", {"n": n})
        server = crowded_transport.local_server("S1")
        assert len(server.session_records("first")) == 3

    def test_busy_leaves_the_connection_healthy(self, crowded_transport):
        with session_scope("first"):
            crowded_transport.send("client", "S1", "step", {"n": 1})
        with session_scope("second"):
            with pytest.raises(ServerBusy):
                crowded_transport.send("client", "S1", "step", {"n": 2})
        # The refused connection went back to the pool, not the floor:
        # the next (admitted) send still flows.
        with session_scope("first"):
            message = crowded_transport.send("client", "S1", "step", {"n": 3})
        assert message.kind == "step"

    def test_closing_a_session_frees_its_slot(self, crowded_transport):
        crowded_transport.open_session("first", parties=["S1"])
        with pytest.raises(ServerBusy):
            crowded_transport.open_session("second", parties=["S1"])
        crowded_transport.close_session("first", parties=["S1"])
        crowded_transport.open_session("second", parties=["S1"])
        with session_scope("second"):
            crowded_transport.send("client", "S1", "step", {"n": 1})
        server = crowded_transport.local_server("S1")
        assert len(server.session_records("second")) == 1

    def test_refusals_are_counted_at_the_endpoint(self, crowded_transport):
        with session_scope("first"):
            crowded_transport.send("client", "S1", "step", {"n": 1})
        with session_scope("second"):
            with pytest.raises(ServerBusy):
                crowded_transport.send("client", "S1", "step", {"n": 2})
        server = crowded_transport.local_server("S1")
        busy = server.registry.counter(
            ENDPOINT_BUSY_METRIC, {"party": "S1"}
        ).value
        # One refusal per delivery attempt under the retry policy.
        assert busy == FAST.attempts


class TestConcurrentAdmission:
    def test_admission_is_atomic_under_threads(self, monkeypatch):
        """Eight connections race to open eight sessions at an endpoint
        that admits two: the capacity check and the open are one step,
        so exactly two win and the other six are refused and counted."""
        endpoint = ThreadedEndpoint("S1", max_sessions=2)
        server = endpoint.server
        opened = server.sessions.get

        def slow_open(*args, **kwargs):
            time.sleep(0.01)  # widen the window between check and open
            return opened(*args, **kwargs)

        monkeypatch.setattr(server.sessions, "get", slow_open)
        barrier = threading.Barrier(8)
        answers: list[int] = []

        def open_session(index: int) -> None:
            frame = codec.build_frame(
                codec.SESSION,
                codec.encode_value({"op": "open", "session": f"s{index}"}),
            )
            with socket.create_connection(endpoint.address, timeout=5) as raw:
                barrier.wait()
                raw.sendall(frame)
                answers.append(codec.recv_frame(raw)[0])

        threads = [
            threading.Thread(target=open_session, args=(index,))
            for index in range(8)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert sorted(answers) == [codec.OK] * 2 + [codec.BUSY] * 6
            assert len(server.sessions) == 2
            assert server.registry.total(ENDPOINT_BUSY_METRIC) == 6
        finally:
            endpoint.close()


class TestExplicitSessionFrames:
    def test_open_is_idempotent(self, crowded_transport):
        crowded_transport.open_session("first")
        crowded_transport.open_session("first")
        assert "first" in crowded_transport.local_server("S1").sessions

    def test_close_is_idempotent_and_tolerates_unknown(self, crowded_transport):
        crowded_transport.open_session("first")
        crowded_transport.close_session("first")
        crowded_transport.close_session("first")
        crowded_transport.close_session("never-opened")

    def test_transport_close_farewells_used_sessions(self):
        transport = TcpTransport(retry=FAST, server_options={"max_sessions": 4})
        transport.register("client")
        transport.register("S1")
        server = transport.local_server("S1")
        with session_scope("ephemeral"):
            transport.send("client", "S1", "step", {"n": 1})
        assert "ephemeral" in server.sessions
        transport.close()
        assert "ephemeral" not in server.sessions
