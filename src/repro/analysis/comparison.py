"""Reproducing the Section 6 comparison: interactions, traffic, cost.

Section 6 makes three families of qualitative claims; each maps to a
measured quantity here:

* **Interaction pattern (E5)** — "In the DAS approach, the client has to
  interact twice with the mediator ... For the datasources, the DAS
  approach is the most convenient one, as they only have to send data
  once.  In the commutative approach ... [the datasources] have to
  interact twice with the mediator.  In the PM approach, the datasources
  have to interact twice with the mediator."
  -> :attr:`ComparisonRow.client_interactions` /
  :attr:`source_interactions`.
* **Client-received data (E7)** — "[in DAS the client] receives more data
  records than necessary ... in the commutative approach, the client
  receives the exact tuple sets ... in the PM approach, the client
  retrieves all the tuples of the encrypted partial results."
  -> :attr:`client_received_units` vs :attr:`exact_join_size`.
* **Overall cost (E6)** — "the commutative approach seems to be the most
  efficient one" (with PM's polynomial evaluation called "quite
  expensive") -> wall-clock seconds and bytes on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.analysis.leakage import analyze
from repro.core.federation import Federation
from repro.core.result import MediationResult
from repro.core.runner import run_join_query
from repro.telemetry.observables import detect_roles


@dataclass
class ComparisonRow:
    """Measured Section 6 quantities for one protocol run."""

    protocol: str
    exact_join_size: int
    client_interactions: int
    source_interactions: dict[str, int]
    client_received_units: int
    client_received_bytes: int
    total_bytes: int
    total_messages: int
    wall_seconds: dict[str, float]  # party -> protocol-step seconds
    crypto_operations: int

    @property
    def max_source_interactions(self) -> int:
        return max(self.source_interactions.values())

    @property
    def total_seconds(self) -> float:
        return sum(self.wall_seconds.values())


#: The Table-1 client cell that counts the result-bearing units the
#: client received.
RESULT_UNITS = {
    "das": "superset_rows_received",
    "commutative": "matched_tuple_set_pairs",
    "private-matching": "encrypted_values_received",
}


def measure(result: MediationResult) -> ComparisonRow:
    """Extract the Section 6 quantities from a finished run."""
    roles = detect_roles(result.messages)
    client, mediator = roles["client"], roles["mediator"]
    wall: dict[str, float] = {}
    for timing in result.timings:
        wall[timing.party] = wall.get(timing.party, 0.0) + timing.seconds
    return ComparisonRow(
        protocol=result.protocol,
        exact_join_size=len(result.global_result),
        client_interactions=result.interaction_count(client, mediator),
        source_interactions={
            source: result.interaction_count(source, mediator)
            for source in roles["sources"]
        },
        client_received_units=analyze(result).client_learns[
            RESULT_UNITS[result.protocol]
        ],
        client_received_bytes=sum(
            message.size_bytes for message in result.view(client).received
        ),
        total_bytes=result.total_bytes(),
        total_messages=len(result.messages),
        wall_seconds=wall,
        crypto_operations=sum(result.primitive_counter.counts.values()),
    )


def compare(
    federation_factory: Callable[[], Federation],
    query: str,
    protocols: Iterable[tuple[str, Any]],
) -> list[ComparisonRow]:
    """Run each protocol on a fresh federation and measure it.

    A fresh federation per protocol keeps transcripts independent; the
    factory must produce identically-populated federations (same seed).
    """
    rows = []
    for protocol, config in protocols:
        federation = federation_factory()
        result = run_join_query(federation, query, protocol=protocol, config=config)
        rows.append(measure(result))
    return rows


def render(rows: list[ComparisonRow]) -> str:
    """ASCII table of the comparison (benchmark output)."""
    header = (
        f"{'protocol':30s} {'join':>5s} {'cli-int':>8s} {'src-int':>8s} "
        f"{'cli-units':>9s} {'bytes':>10s} {'msgs':>5s} {'crypto-ops':>10s} "
        f"{'seconds':>8s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.protocol:30s} {row.exact_join_size:>5d} "
            f"{row.client_interactions:>8d} {row.max_source_interactions:>8d} "
            f"{row.client_received_units:>9d} {row.total_bytes:>10d} "
            f"{row.total_messages:>5d} {row.crypto_operations:>10d} "
            f"{row.total_seconds:>8.3f}"
        )
    return "\n".join(lines)
