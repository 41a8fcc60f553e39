"""The in-process message bus.

The MMM prototype is a distributed system; for fast in-process runs the
transport is an instrumented bus that preserves what the protocols
depend on — *who* sends *what* to *whom*, in *which order* — and
records the ordered transcript with a structural size estimate per
message.  A run's views and per-party-pair interaction counts are read
from its own messages (:class:`~repro.core.result.MediationResult`).

The transcript and the bus's session id live in the shared
:class:`~repro.transport.base.Transport` base class, which this bus and
the real TCP transport (:class:`repro.transport.tcp.TcpTransport`) both
implement; protocols and analyses run unchanged over either.  The bus
remains the default carrier: it needs no sockets, and its structural
size estimates (:mod:`repro.mediation.sizing`) are close to — and
reconciled by test against — the TCP codec's actual wire bytes.

Parties must be registered before they can send or receive; unknown
endpoints raise :class:`~repro.errors.NetworkError` — a datasource that
"goes away" mid-protocol surfaces as a clean failure.
"""

from __future__ import annotations

from typing import Any

from repro.mediation.sizing import estimate_size
from repro.telemetry import tracing
from repro.transport.base import Message, Transport

#: Fixed per-message envelope overhead (headers, routing) in bytes.
#:
#: Reconciled against the real wire format (see ``docs/transport.md``
#: and ``tests/transport/test_sizing_reconciliation.py``): the TCP
#: codec's envelope costs ``FRAME_HEADER_BYTES`` (8) for the frame
#: header plus the encoded ``(sequence, sender, receiver, kind)``
#: prefix — roughly 40-70 bytes for the party and kind names the
#: protocols use.  64 stays a faithful structural constant.
ENVELOPE_BYTES = 64

__all__ = ["ENVELOPE_BYTES", "Network"]


class Network(Transport):
    """The in-process bus: immediate delivery, estimated byte counts."""

    def send(self, sender: str, receiver: str, kind: str, body: Any) -> Message:
        """Deliver one message and record it in the transcript."""
        self._require_parties(sender, receiver)
        with tracing.span(
            f"send:{kind}", sender, kind="message", receiver=receiver
        ) as span:
            message = self._record(
                self._take_sequence(),
                sender,
                receiver,
                kind,
                body,
                ENVELOPE_BYTES + estimate_size(body),
            )
            if span is not None:
                span.attributes["size_bytes"] = message.size_bytes
                span.attributes["sequence"] = message.sequence
            return message
