"""Protocol run results: the global result plus everything observable.

A :class:`MediationResult` bundles what a protocol run produced (the
decrypted global result at the client) with what it *exposed* (its
messages, primitive counters and timings) — the raw material for the
leakage, conformance and performance analyses.  A federation that
answers a series of queries keeps one growing transcript; a run records
the range of positions it added, and every analysis reads that slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.crypto.instrumentation import PrimitiveCounter
from repro.transport.base import Message, PartyView, Transport, interaction_count
from repro.relational.relation import Relation


@dataclass
class StepTiming:
    """Wall-clock duration of one protocol step at one party.

    ``ok`` is False when the step raised: the duration up to the
    failure is still recorded, and analyses can tell an aborted run
    from a completed one.
    """

    party: str
    step: str
    seconds: float
    ok: bool = True


@dataclass
class MediationResult:
    """Outcome of one complete mediated join-query run."""

    protocol: str
    query: str
    global_result: Relation
    network: Transport
    primitive_counter: PrimitiveCounter
    timings: list[StepTiming] = field(default_factory=list)
    #: Protocol-specific intermediate artifacts (index tables, matched
    #: pair counts, polynomial degrees, ...) keyed by a stable name.
    artifacts: dict[str, Any] = field(default_factory=dict)
    #: Half-open range of ``network.transcript`` positions this run
    #: added; None covers the whole transcript.
    message_range: tuple[int, int] | None = None

    # -- convenience accessors ------------------------------------------------

    @property
    def messages(self) -> tuple[Message, ...]:
        """This run's messages, in transcript order."""
        return _run_messages(self.network, self.message_range)

    def view(self, party: str) -> PartyView:
        """What ``party`` sent and received during this run."""
        view = PartyView(party)
        for message in self.messages:
            if message.sender == party:
                view.sent.append(message)
            if message.receiver == party:
                view.received.append(message)
        return view

    def total_bytes(self) -> int:
        return sum(message.size_bytes for message in self.messages)

    def total_seconds(self) -> float:
        return sum(timing.seconds for timing in self.timings)

    def interaction_count(self, a: str, b: str) -> int:
        return interaction_count(self.messages, a, b)

    def add_timing(
        self, party: str, step: str, seconds: float, ok: bool = True
    ) -> None:
        self.timings.append(StepTiming(party, step, seconds, ok))

    def failed_steps(self) -> list[StepTiming]:
        """Timings of steps that raised instead of completing."""
        return [t for t in self.timings if not t.ok]

    def summary(self) -> str:
        lines = [
            f"protocol: {self.protocol}",
            f"query:    {self.query}",
            f"result:   {len(self.global_result)} rows",
            f"traffic:  {self.total_bytes()} bytes over "
            f"{len(self.messages)} messages",
            f"time:     {self.total_seconds():.4f}s across "
            f"{len(self.timings)} steps",
        ]
        failed = self.failed_steps()
        if failed:
            names = ", ".join(f"{t.party}/{t.step}" for t in failed)
            lines.append(f"failed:   {names}")
        return "\n".join(lines)

    @property
    def ok(self) -> bool:
        """True — pairs with :attr:`RunFailure.ok` for uniform handling."""
        return True


@dataclass
class RunFailure:
    """A protocol run that did not finish — structured, not a traceback.

    Returned by :func:`repro.core.runner.run_join_query` under
    ``on_failure="return"`` when the run is interrupted (a crashed
    party, exhausted retries, an expired deadline).  It preserves the
    *partial* observables — the transcript recorded before the failure
    and any injected-fault events — so a chaos run can still be
    analysed, compared, and exported like a successful one.
    """

    protocol: str
    query: str
    #: Where the run died: ``"request"``, ``"delivery"``, or
    #: ``"postprocessing"``.
    phase: str
    #: The raised error's class name and message (the error object
    #: itself is deliberately not kept: a RunFailure is plain data).
    error_type: str
    error_message: str
    network: Transport | None = None
    #: Deterministic fault-event summaries, when the transport carried
    #: a :class:`~repro.faults.transport.FaultyTransport`.
    fault_events: list[str] = field(default_factory=list)
    artifacts: dict[str, Any] = field(default_factory=dict)
    #: Half-open range of ``network.transcript`` positions this run
    #: added before it failed; None covers the whole transcript.
    message_range: tuple[int, int] | None = None

    @property
    def ok(self) -> bool:
        return False

    @property
    def messages(self) -> tuple[Message, ...]:
        """The messages this run delivered before it failed."""
        return _run_messages(self.network, self.message_range)

    def messages_delivered(self) -> int:
        return len(self.messages)

    def summary(self) -> str:
        lines = [
            f"protocol: {self.protocol}",
            f"query:    {self.query}",
            f"FAILED:   {self.error_type} during the {self.phase} phase",
            f"error:    {self.error_message}",
            f"partial:  {self.messages_delivered()} messages delivered "
            "before the failure",
        ]
        if self.fault_events:
            lines.append("injected faults:")
            lines.extend(f"  {event}" for event in self.fault_events)
        return "\n".join(lines)


def _run_messages(
    network: Transport | None, message_range: tuple[int, int] | None
) -> tuple[Message, ...]:
    if network is None:
        return ()
    if message_range is None:
        return network.transcript
    return network.messages_between(*message_range)
