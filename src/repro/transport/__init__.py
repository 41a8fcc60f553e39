"""Real wire transport for the mediation protocols.

The reproduction's protocols were born on an in-process message bus
(:class:`repro.mediation.network.Network`); this package makes them run
over real sockets without changing a line of protocol code:

* :mod:`repro.transport.base` — the :class:`Transport` contract both
  carriers implement, plus the shared transcript,
* :mod:`repro.transport.codec` — the length-prefixed binary wire format
  for every message the three delivery protocols produce,
* :mod:`repro.transport.server` — the threaded endpoint a party listens
  on (``repro serve``),
* :mod:`repro.transport.tcp` — the synchronous-facing TCP transport
  with timeouts, bounded retry, and backoff.

See ``docs/transport.md`` for the wire format and failure semantics.
"""

from repro.transport.base import Message, PartyView, Transport
from repro.transport.server import PartyServer, RemoteRecord
from repro.transport.tcp import RetryPolicy, TcpTransport

__all__ = [
    "Message",
    "PartyView",
    "PartyServer",
    "RemoteRecord",
    "RetryPolicy",
    "TcpTransport",
    "Transport",
]
