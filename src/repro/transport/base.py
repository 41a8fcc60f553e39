"""The transport abstraction: what every message carrier must provide.

The protocols in :mod:`repro.core` are written against a small contract —
*who* can send *what* to *whom*, in *which order* — plus the
observability guarantees the analyses rely on:

* the full ordered transcript (Listing 1-4 conformance checks),
* per-party **views** — everything a semi-honest party observes
  (the leakage analysis reads the mediator's view to reproduce Table 1),
* per-message byte accounting (E6 bytes-on-the-wire comparison),
* per-party-pair message counts (E5 interaction comparison).

:class:`Transport` extracts that contract so the protocol code is
indifferent to *how* a message travels.  Two implementations exist:

* :class:`repro.mediation.network.Network` — the in-process bus
  (byte counts are structural estimates); the default for tests and
  analyses.
* :class:`repro.transport.tcp.TcpTransport` — real TCP sockets with the
  binary codec of :mod:`repro.transport.codec` (byte counts are actual
  wire bytes).  The client sends over blocking sockets on the caller's
  thread; only endpoints the transport hosts run on an asyncio loop.

All transcript bookkeeping is implemented here once; a concrete
transport implements :meth:`Transport.send` (delivering the message and
choosing its byte count) and calls :meth:`Transport._record`.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import NetworkError
from repro.telemetry import metrics as _metrics

#: Counter of transcript messages, labelled by transport/sender/receiver/kind.
TRANSPORT_MESSAGES_METRIC = "repro_transport_messages_total"
#: Counter of transcript bytes, labelled by transport/sender/receiver/kind.
TRANSPORT_BYTES_METRIC = "repro_transport_bytes_total"


@dataclass(frozen=True)
class Message:
    """One transmitted message."""

    sequence: int
    sender: str
    receiver: str
    kind: str
    body: Any = field(repr=False)
    size_bytes: int

    def summary(self) -> str:
        return (
            f"#{self.sequence:03d} {self.sender} -> {self.receiver}: "
            f"{self.kind} ({self.size_bytes} B)"
        )


@dataclass
class PartyView:
    """What one semi-honest party observes during a protocol run.

    The *view* is the formal object of semi-honest security analyses:
    a party may try to infer anything computable from its view, but acts
    exactly as the protocol prescribes.
    """

    party: str
    sent: list[Message] = field(default_factory=list)
    received: list[Message] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)

    def observed_messages(self) -> list[Message]:
        return sorted(self.sent + self.received, key=lambda m: m.sequence)

    def received_kinds(self) -> list[str]:
        return [message.kind for message in self.received]


class Transport(ABC):
    """Registry of parties plus the shared transcript.

    Subclasses deliver messages (:meth:`send`); everything observable —
    views, transcript, byte and interaction accounting — lives here.
    """

    def __init__(self) -> None:
        self._parties: dict[str, PartyView] = {}
        self._messages: list[Message] = []
        self._sequence = itertools.count(1)

    # -- registration -----------------------------------------------------

    def register(self, party: str) -> None:
        if party in self._parties:
            raise NetworkError(f"party {party!r} already registered")
        self._parties[party] = PartyView(party)

    def parties(self) -> tuple[str, ...]:
        return tuple(self._parties)

    def view(self, party: str) -> PartyView:
        if party not in self._parties:
            raise NetworkError(f"unknown party {party!r}")
        return self._parties[party]

    # -- transmission -------------------------------------------------------

    @abstractmethod
    def send(self, sender: str, receiver: str, kind: str, body: Any) -> Message:
        """Deliver one message and record it in views and transcript."""

    def close(self) -> None:
        """Release transport resources (sockets, loops); bus is a no-op."""

    def _require_parties(self, sender: str, receiver: str) -> None:
        if sender not in self._parties:
            raise NetworkError(f"unknown sender {sender!r}")
        if receiver not in self._parties:
            raise NetworkError(f"unknown receiver {receiver!r}")

    def _take_sequence(self) -> int:
        """Allocate the next transcript sequence number."""
        return next(self._sequence)

    def _record(
        self,
        sequence: int,
        sender: str,
        receiver: str,
        kind: str,
        body: Any,
        size_bytes: int,
    ) -> Message:
        """Append one delivered message to the transcript and both views."""
        message = Message(
            sequence=sequence,
            sender=sender,
            receiver=receiver,
            kind=kind,
            body=body,
            size_bytes=size_bytes,
        )
        self._messages.append(message)
        self._parties[sender].sent.append(message)
        self._parties[receiver].received.append(message)
        registry = _metrics.get_registry()
        if registry is not None:
            labels = {
                "transport": type(self).__name__,
                "sender": sender,
                "receiver": receiver,
                "kind": kind,
            }
            registry.counter(
                TRANSPORT_MESSAGES_METRIC, labels,
                help_text="Messages recorded in the transport transcript",
            ).inc()
            registry.counter(
                TRANSPORT_BYTES_METRIC, labels,
                help_text="Bytes recorded in the transport transcript",
            ).inc(size_bytes)
        return message

    # -- transcript queries ---------------------------------------------------

    @property
    def transcript(self) -> tuple[Message, ...]:
        return tuple(self._messages)

    def messages_from(self, sender: str, receiver: str | None = None) -> list[Message]:
        return [
            m
            for m in self._messages
            if m.sender == sender and (receiver is None or m.receiver == receiver)
        ]

    def messages_of_kind(self, kind: str) -> list[Message]:
        return [m for m in self._messages if m.kind == kind]

    def total_bytes(self) -> int:
        return sum(m.size_bytes for m in self._messages)

    def bytes_between(self, a: str, b: str) -> int:
        """Total traffic on the (undirected) link between two parties."""
        return sum(
            m.size_bytes
            for m in self._messages
            if {m.sender, m.receiver} == {a, b}
        )

    def interaction_count(self, a: str, b: str) -> int:
        return interaction_count(self._messages, a, b)

    def flow_summary(self) -> list[str]:
        """Human-readable transcript (used by the architecture bench)."""
        return [message.summary() for message in self._messages]

    def edges(self) -> set[tuple[str, str]]:
        """Undirected communication edges (the Figure 1/2 topology)."""
        return {
            tuple(sorted((m.sender, m.receiver))) for m in self._messages
        }


def interaction_count(messages: Iterable[Message], a: str, b: str) -> int:
    """Number of *interactions* of ``a`` with ``b`` among ``messages``.

    Following Section 6's usage ("the client has to interact twice
    with the mediator"), an interaction is a maximal run of
    consecutive messages (in transcript order, restricted to the
    a<->b link) initiated by ``a``: the client sending the query is
    one interaction; receiving the reply and sending the next request
    starts the second.
    """
    interactions = 0
    previous_sender = None
    for message in messages:
        if {message.sender, message.receiver} != {a, b}:
            continue
        if message.sender == a and previous_sender != a:
            interactions += 1
        previous_sender = message.sender
    return interactions


def link_traffic_table(
    transport: Transport, pairs: Iterable[tuple[str, str]]
) -> dict:
    """Bytes per link, for reporting."""
    return {f"{a}<->{b}": transport.bytes_between(a, b) for a, b in pairs}
