"""Adversary's-eye observable traces distilled from run telemetry.

The transcript, views, metrics, and timings the telemetry stack records
are *our* instrumentation; what matters for leakage is the slice of it
each **adversary** can see.  Following the semi-honest model of the
paper (and the observable-distribution attacks of "Oblivious Query
Processing", arXiv 1312.4012), three adversary classes are modelled:

* ``network`` — a passive wire observer: sees every message's link
  (sender -> receiver), kind framing, and size, but no plaintext.
* ``mediator`` — honest-but-curious mediator: its own
  :class:`~repro.transport.base.PartyView` plus whatever structure the
  received ciphertext carries (row counts, DAS partition indexes).
* ``datasource:<name>`` — a curious datasource: its own view only.

:func:`adversary_traces` distills a
:class:`~repro.core.result.MediationResult` into one
:class:`ObservableTrace` per adversary.  The capture path is the shared
:class:`~repro.transport.base.Transport` transcript, so traces are
built identically for the in-process bus and the TCP transport; a
stitched multi-process run additionally yields the network observer's
trace from endpoint records via :func:`network_trace_from_records`.

Exact byte counts jitter run-to-run (big-integer ciphertexts have
minimal encodings, and the crypto layer draws from ``secrets``), so all
size observations are quantized to power-of-two buckets
(:func:`size_bucket`) — coarse enough to be deterministic for a seeded
workload, fine enough that a size-channel regression moves a message
across buckets.  Wall-clock latencies are inherently nondeterministic;
they are captured (bucketed per protocol step) but kept out of the
deterministic artifact unless explicitly requested.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import ProtocolError
from repro.telemetry.metrics import DEFAULT_SECONDS_BUCKETS

#: Floor of the power-of-two size quantizer: everything at or below this
#: many bytes is one bucket (envelope-only messages are indistinguishable).
MIN_SIZE_BUCKET = 64


def size_bucket(size_bytes: int) -> int:
    """Quantize a byte count to the smallest power of two that covers it.

    The bucket *is* its upper bound (64, 128, 256, ...), so bucket labels
    order naturally and survive JSON round-trips.
    """
    if size_bytes <= MIN_SIZE_BUCKET:
        return MIN_SIZE_BUCKET
    return 1 << (size_bytes - 1).bit_length()


def latency_bucket(seconds: float) -> str:
    """Quantize a step latency to the registry's histogram bucket label."""
    for bound in DEFAULT_SECONDS_BUCKETS:
        if seconds <= bound:
            return f"le_{bound:g}"
    return "le_inf"


def observable_items(body: Any) -> int | None:
    """The body cardinality an adversary can count without decrypting.

    Tuple-wise encryption keeps collection *structure* observable even
    though values are ciphertext: a relation of n encrypted rows is
    visibly n items.  Opaque blobs (bytes, strings) and scalars return
    None — their internals are not countable.  Envelope dicts (``{"relation":
    ...}``) report the largest collection they carry, falling back to
    their own key count.
    """
    if body is None or isinstance(body, (bytes, bytearray, str)):
        return None
    if isinstance(body, (list, tuple, set, frozenset)):
        return len(body)
    if not hasattr(type(body), "__len__"):
        return None
    # dict first: a plain dict then skips the Mapping ABC's Python-level hook
    if isinstance(body, (dict, Mapping)):
        inner = [observable_items(value) for value in body.values()]
        inner = [count for count in inner if count is not None]
        return max(inner, default=len(body))
    try:
        return len(body)
    except TypeError:
        return None


@dataclass(frozen=True)
class ObservedMessage:
    """One message as one adversary perceives it.

    ``direction`` is ``"sent"``/``"received"`` for a party adversary and
    ``"wire"`` for the network observer; ``items`` is None when the body
    cardinality is not observable to this adversary.
    """

    position: int
    link: str
    kind: str
    direction: str
    size_bucket: int
    items: int | None = None

    def event(self) -> str:
        """The (link, kind, size bucket) triple as one sequence token."""
        return f"{self.link}|{self.kind}|{self.size_bucket}"


@dataclass
class ObservableTrace:
    """Everything one adversary observes during a protocol run."""

    adversary: str
    protocol: str
    transport: str
    messages: list[ObservedMessage] = field(default_factory=list)
    #: step name -> latency bucket label -> count (the adversary's own
    #: steps; empty for the network observer).
    latency_buckets: dict[str, dict[str, int]] = field(default_factory=dict)
    #: DAS partition index -> row count, as received (mediator only).
    bucket_frequencies: dict[str, int] = field(default_factory=dict)
    #: message kind -> observed body cardinalities, in arrival order.
    result_sizes: dict[str, list[int]] = field(default_factory=dict)

    # -- distributions -----------------------------------------------------

    def kind_counts(self) -> dict[str, int]:
        """Messages per ``link|kind`` (the interaction-pattern histogram)."""
        counts: dict[str, int] = {}
        for message in self.messages:
            key = f"{message.link}|{message.kind}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def size_histogram(self) -> dict[str, int]:
        """Messages per ``link|kind|size_bucket`` (the size-channel view)."""
        counts: dict[str, int] = {}
        for message in self.messages:
            event = message.event()
            counts[event] = counts.get(event, 0) + 1
        return counts

    def event_sequence(self) -> list[str]:
        """Ordered ``link|kind|size_bucket`` tokens (the traffic shape)."""
        return [message.event() for message in self.messages]

    def cardinality_totals(self) -> dict[str, int]:
        """Message kind -> total observable body items."""
        return {
            kind: sum(sizes) for kind, sizes in sorted(self.result_sizes.items())
        }

    def bucket_frequency_shape(self) -> list[int]:
        """The DAS partition histogram's shape: counts, largest first.

        Partition index values are salted per run, so the labels are
        incomparable across runs; the multiset of counts — what the
        paper's partition-inference attacks exploit — is deterministic
        for a seeded workload and is what the audit compares.
        """
        return sorted(self.bucket_frequencies.values(), reverse=True)

    def summary(self) -> dict[str, Any]:
        """Compact JSON-able digest (stored in artifacts and audit docs).

        DAS partition labels are keyed hashes and differ across client
        keys, so the digest reports the frequency histogram's *shape*
        (sorted counts) — the part an adversary learns and the part that
        is deterministic for a seeded workload.
        """
        return {
            "messages": len(self.messages),
            "kinds": dict(sorted(self.kind_counts().items())),
            "size_histogram": dict(sorted(self.size_histogram().items())),
            "cardinalities": self.cardinality_totals(),
            "bucket_frequency_shape": self.bucket_frequency_shape(),
        }

    def to_dict(self, include_timing: bool = False) -> dict[str, Any]:
        """Full JSON-able form; timing only on request (nondeterministic)."""
        document: dict[str, Any] = {
            "adversary": self.adversary,
            "protocol": self.protocol,
            "transport": self.transport,
            "messages": [
                {
                    "position": m.position,
                    "link": m.link,
                    "kind": m.kind,
                    "direction": m.direction,
                    "size_bucket": m.size_bucket,
                    "items": m.items,
                }
                for m in self.messages
            ],
            "bucket_frequencies": dict(sorted(self.bucket_frequencies.items())),
            "result_sizes": {
                kind: list(sizes)
                for kind, sizes in sorted(self.result_sizes.items())
            },
        }
        if include_timing:
            document["latency_buckets"] = {
                step: dict(sorted(buckets.items()))
                for step, buckets in sorted(self.latency_buckets.items())
            }
        return document


# ---------------------------------------------------------------------------
# Role detection.
# ---------------------------------------------------------------------------

def detect_roles(messages: Iterable[Any]) -> dict[str, Any]:
    """Classify a run's parties from its messages alone.

    Returns ``{"client": name, "mediator": name, "sources": [names]}``:
    the client sends the global query and the mediator receives it; the
    sources receive the partial queries, in dispatch order.
    """
    client = mediator = None
    sources: list[str] = []
    for message in messages:
        if message.kind == "global_query" and client is None:
            client, mediator = message.sender, message.receiver
        elif message.kind == "partial_query" and message.receiver not in sources:
            sources.append(message.receiver)
    if client is None:
        raise ProtocolError("no global_query among the run's messages")
    return {"client": client, "mediator": mediator, "sources": sources}


# ---------------------------------------------------------------------------
# Trace builders.
# ---------------------------------------------------------------------------

class _Facts:
    """What an adversary can read off one message, computed once per
    artifact however many adversaries see the message."""

    __slots__ = ("size_bucket", "items", "partition_counts")

    def __init__(self, message: Any) -> None:
        self.size_bucket = size_bucket(message.size_bytes)
        self.items = observable_items(message.body)
        #: DAS partition index (stringified) -> rows, in first-seen order.
        self.partition_counts: dict[str, int] = {}
        if message.kind != "das_encrypted_partial_result":
            return
        body = message.body
        relation = body.get("relation") if isinstance(body, (dict, Mapping)) else None
        rows = getattr(relation, "rows", None)
        if rows is None:
            return
        for index, count in Counter(rows.index_values).items():
            key = str(index)
            self.partition_counts[key] = self.partition_counts.get(key, 0) + count


def _facts_of(messages: Iterable[Any]) -> dict[int, _Facts]:
    """``id(message)`` -> its facts, for messages alive while in use."""
    return {id(message): _Facts(message) for message in messages}


def _observed(message: Any, facts: _Facts, position: int, direction: str,
              with_items: bool, aliases: Mapping[str, str]) -> ObservedMessage:
    sender = aliases.get(message.sender, message.sender)
    receiver = aliases.get(message.receiver, message.receiver)
    return ObservedMessage(
        position=position,
        link=f"{sender}->{receiver}",
        kind=message.kind,
        direction=direction,
        size_bucket=facts.size_bucket,
        items=facts.items if with_items else None,
    )


def _record_body(trace: ObservableTrace, message: Any, facts: _Facts) -> None:
    """Fold one received message's observable structure into the trace."""
    if facts.items is not None:
        trace.result_sizes.setdefault(message.kind, []).append(facts.items)
    frequencies = trace.bucket_frequencies
    for key, count in facts.partition_counts.items():
        frequencies[key] = frequencies.get(key, 0) + count


def _party_latencies(timings: Iterable[Any], party: str) -> dict[str, dict[str, int]]:
    buckets: dict[str, dict[str, int]] = {}
    for timing in timings:
        if timing.party != party:
            continue
        label = latency_bucket(timing.seconds)
        step = buckets.setdefault(timing.step, {})
        step[label] = step.get(label, 0) + 1
    return buckets


def network_observer_trace(
    messages: Iterable[Any], protocol: str, transport: str,
    aliases: Mapping[str, str] | None = None,
    facts: dict[int, _Facts] | None = None,
) -> ObservableTrace:
    """The passive wire observer: every message's framing, no bodies."""
    messages = list(messages)
    facts = facts if facts is not None else _facts_of(messages)
    aliases = aliases or {}
    trace = ObservableTrace(
        adversary="network", protocol=protocol, transport=transport
    )
    trace.messages = [
        _observed(message, facts[id(message)], position, "wire", False, aliases)
        for position, message in enumerate(messages)
    ]
    return trace


def party_trace(
    messages: Iterable[Any], party: str, adversary: str, protocol: str,
    transport: str,
    timings: Iterable[Any] = (),
    aliases: Mapping[str, str] | None = None,
    facts: dict[int, _Facts] | None = None,
) -> ObservableTrace:
    """A semi-honest party's trace: its own view plus ciphertext structure.

    The view is what ``party`` sent or received among ``messages``.
    """
    view = sorted(
        (m for m in messages if party in (m.sender, m.receiver)),
        key=lambda m: m.sequence,
    )
    facts = facts if facts is not None else _facts_of(view)
    aliases = aliases or {}
    trace = ObservableTrace(
        adversary=adversary, protocol=protocol, transport=transport
    )
    for position, message in enumerate(view):
        known = facts[id(message)]
        direction = "sent" if message.sender == party else "received"
        trace.messages.append(
            _observed(message, known, position, direction, True, aliases)
        )
        # Both directions carry knowledge: a party knows what it sends
        # (the mediator computed |R_C| itself — a Table 1 cell) as well
        # as the structure of the ciphertext it receives.
        _record_body(trace, message, known)
    trace.latency_buckets = _party_latencies(timings, party)
    return trace


def adversary_traces(result: Any, *, roles: Mapping[str, Any] | None = None,
                     ) -> dict[str, ObservableTrace]:
    """One :class:`ObservableTrace` per adversary, from a finished run.

    ``result`` is a :class:`~repro.core.result.MediationResult`; the
    adversary set is the network observer, the mediator, and every
    datasource.  Identical for bus and TCP runs — both record the full
    transcript in the driving process.  The traces cover the run's own
    messages (``result.messages``), not a federation's earlier queries.
    """
    protocol = result.protocol
    transport = type(result.network).__name__
    messages = result.messages
    timings = getattr(result, "timings", ())
    resolved = dict(roles) if roles is not None else detect_roles(messages)
    # Deployment-chosen party names are presentation, not observable
    # structure: canonicalize the client and mediator so traces (and the
    # committed leakage baseline) compare across differently-named
    # clients.  Datasource names are kept — which source a message came
    # from *is* part of the traffic shape.
    aliases = {resolved["client"]: "client", resolved["mediator"]: "mediator"}
    facts = _facts_of(messages)
    traces = {
        "network": network_observer_trace(
            messages, protocol, transport, aliases, facts
        ),
        "mediator": party_trace(
            messages, resolved["mediator"], "mediator", protocol, transport,
            timings, aliases, facts,
        ),
    }
    for source in resolved["sources"]:
        traces[f"datasource:{source}"] = party_trace(
            messages, source, f"datasource:{source}", protocol, transport,
            timings, aliases, facts,
        )
    return traces


def network_trace_from_records(
    records: Iterable[Any], protocol: str, transport: str = "TcpTransport",
) -> ObservableTrace:
    """The wire observer's trace rebuilt from endpoint ``RemoteRecord``s.

    A stitched multi-process run has no single transcript object; the
    endpoints' receive records (``sequence``/``sender``/``receiver``/
    ``kind``/``wire_bytes``) carry the same framing the network observer
    sees, so the trace shape matches :func:`network_observer_trace` —
    kinds, links, and counts are identical, sizes land in the same
    power-of-two buckets as actual wire bytes.
    """
    trace = ObservableTrace(
        adversary="network", protocol=protocol, transport=transport
    )
    ordered = sorted(records, key=lambda record: record.sequence)
    for position, record in enumerate(ordered):
        trace.messages.append(
            ObservedMessage(
                position=position,
                link=f"{record.sender}->{record.receiver}",
                kind=record.kind,
                direction="wire",
                size_bucket=size_bucket(record.wire_bytes),
                items=None,
            )
        )
    return trace


def observables_artifact(result: Any) -> dict[str, Any]:
    """Per-adversary summaries for ``result.artifacts["observables"]``."""
    try:
        traces = adversary_traces(result)
    except ProtocolError:
        # A transcript without a recognizable mediator (partial run,
        # exotic topology) simply yields no observable summary.
        return {}
    return {name: trace.summary() for name, trace in sorted(traces.items())}
