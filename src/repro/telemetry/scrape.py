"""A minimal HTTP endpoint serving Prometheus text exposition.

``repro serve --metrics-port N`` attaches one of these next to the
party's TCP endpoint so a long-running process can be scraped live
(``GET /metrics``) instead of relying on ``--metrics-out`` file
snapshots.  The exposition body is produced on every request by the
``render`` callable — typically
``lambda: prometheus_exposition(server.registry)`` — so the scrape
always reflects the registry's current state.

Deliberately tiny: a :class:`http.server.ThreadingHTTPServer` on one
serving thread, GET-only, one response per connection, no TLS, no
keep-alive.  That is all a Prometheus scraper needs and all a
reproduction repo should carry.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

#: Content type of the Prometheus text exposition format.
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Paths answered with the exposition (anything else is 404).
_METRIC_PATHS = ("/metrics", "/")


class MetricsScrapeServer:
    """Serve ``render()`` as a Prometheus scrape target."""

    def __init__(
        self,
        render: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._render = render
        self._host = host
        self._port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> tuple[str, int]:
        """Bind and return ``(host, port)`` (port resolved when 0)."""
        self._server = ThreadingHTTPServer(
            (self._host, self._port), _ScrapeHandler
        )
        self._server.render = self._render
        self._host, self._port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            # stop() waits up to one poll interval for the loop to exit.
            kwargs={"poll_interval": 0.1},
            name="repro-metrics-scrape",
            daemon=True,
        )
        self._thread.start()
        return self._host, self._port

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    @property
    def port(self) -> int:
        return self._port


class _ScrapeHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:
        path = self.path.split("?", 1)[0]
        if path not in _METRIC_PATHS:
            self._reply(404, "text/plain", "not found\n")
            return
        try:
            body = self.server.render()
        except Exception as exc:  # a broken renderer must not kill the server
            self._reply(500, "text/plain", f"render error: {exc}\n")
            return
        self._reply(200, EXPOSITION_CONTENT_TYPE, body)

    def __getattr__(self, name: str):
        # Any method but GET (``do_POST``, ``do_HEAD``, ...) is 405.
        if name.startswith("do_"):
            return lambda: self._reply(
                405, "text/plain", "method not allowed\n"
            )
        raise AttributeError(name)

    def _reply(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:
        pass  # a scrape every few seconds is not worth a log line
