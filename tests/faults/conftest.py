"""Shared chaos-test helpers: fast retries, threaded real endpoints and
a mute listener."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.transport import PartyServer, RetryPolicy

#: Fast-failing policy so injected faults cost milliseconds, not the
#: production timeouts, while still exercising retries and backoff.
FAST = RetryPolicy(
    attempts=3, base_delay=0.01, max_delay=0.05, connect_timeout=0.5,
    io_timeout=0.5,
)


class ThreadedEndpoint:
    """A real PartyServer serving from its own threads — a 'remote'
    party a chaos proxy can sit in front of, or a fault
    (``max_messages``) can be injected into."""

    def __init__(self, party: str, **kwargs) -> None:
        self.server = PartyServer(party, **kwargs)
        self.address = self.server.start()

    def close(self) -> None:
        self.server.stop()


class MuteServer:
    """A listener that accepts connections and never answers anything."""

    def __init__(self) -> None:
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen()
        self._listener.settimeout(0.1)
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self) -> None:
        held = []
        while not self._stop.is_set():
            try:
                held.append(self._listener.accept()[0])
            except OSError:
                continue
        for connection in held:
            connection.close()

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        self._listener.close()


@pytest.fixture
def fast_retry() -> RetryPolicy:
    return FAST


@pytest.fixture
def threaded_endpoint():
    """Factory for ThreadedEndpoints, closed on test exit."""
    created: list[ThreadedEndpoint] = []

    def factory(party: str, **kwargs) -> ThreadedEndpoint:
        endpoint = ThreadedEndpoint(party, **kwargs)
        created.append(endpoint)
        return endpoint

    yield factory
    for endpoint in created:
        endpoint.close()
