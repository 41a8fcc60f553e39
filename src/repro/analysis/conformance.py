"""Listing and figure conformance: checking transcripts against the paper.

* :func:`expected_flow` gives, per protocol, the message-kind sequence
  the paper's listings prescribe (Listing 1 request phase + Listing 2/3/4
  delivery phase).
* :func:`check_flow` compares an actual transcript against it.
* :func:`architecture_edges` extracts the communication topology, which
  must match Figures 1/2: client <-> mediator <-> sources, and *no*
  client <-> source or source <-> source edge (everything passes through
  the mediator).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.result import MediationResult
from repro.errors import ProtocolError
from repro.telemetry.observables import detect_roles

#: (kind, sender role, receiver role) per protocol step; roles are
#: "client", "mediator", "source" (any source), "source1"/"source2"
#: (dispatch order).  A kind may repeat (one message per source).
REQUEST_FLOW = [
    ("global_query", "client", "mediator"),
    ("partial_query", "mediator", "source"),
    ("partial_query", "mediator", "source"),
]

DELIVERY_FLOWS: dict[str, list[tuple[str, str, str]]] = {
    "das": [
        ("das_encrypted_partial_result", "source", "mediator"),
        ("das_encrypted_partial_result", "source", "mediator"),
        ("das_encrypted_index_tables", "mediator", "client"),
        ("das_server_query", "client", "mediator"),
        ("das_server_result", "mediator", "client"),
    ],
    "commutative": [
        ("commutative_setup", "mediator", "source"),
        ("commutative_setup", "mediator", "source"),
        ("commutative_m_set", "source", "mediator"),
        ("commutative_m_set", "source", "mediator"),
        ("commutative_exchange", "mediator", "source"),
        ("commutative_exchange", "mediator", "source"),
        ("commutative_double", "source", "mediator"),
        ("commutative_double", "source", "mediator"),
        ("commutative_result", "mediator", "client"),
    ],
    "private-matching": [
        ("pm_homomorphic_key", "client", "mediator"),
        ("pm_homomorphic_key", "mediator", "source"),
        ("pm_homomorphic_key", "mediator", "source"),
        ("pm_encrypted_coefficients", "source", "mediator"),
        ("pm_encrypted_coefficients", "source", "mediator"),
        ("pm_encrypted_coefficients", "mediator", "source"),
        ("pm_encrypted_coefficients", "mediator", "source"),
        ("pm_evaluations", "source", "mediator"),
        ("pm_evaluations", "source", "mediator"),
        ("pm_evaluations", "mediator", "client"),
    ],
}

#: Kinds outside the listings' flows, which may interleave with them:
#: footnote 2's side tables and hardened mode's dummy tuple sets.
OPTIONAL_KINDS = {"pm_side_table", "pm_side_tables", "commutative_dummies"}


@dataclass
class FlowCheck:
    """Outcome of a conformance check."""

    protocol: str
    conforms: bool
    mismatches: list[str]
    actual_flow: list[str]


def expected_flow(protocol: str) -> list[tuple[str, str, str]]:
    if protocol not in DELIVERY_FLOWS:
        raise ProtocolError(f"no expected flow for protocol {protocol!r}")
    return REQUEST_FLOW + DELIVERY_FLOWS[protocol]


def _role(party: str, roles: dict) -> str:
    if party == roles["client"]:
        return "client"
    if party == roles["mediator"]:
        return "mediator"
    return "source" if party in roles["sources"] else "unknown"


def check_flow(result: MediationResult) -> FlowCheck:
    """Compare a run's messages against the paper's prescribed flow."""
    roles = detect_roles(result.messages)
    expected = expected_flow(result.protocol)
    actual = [
        (message.kind, _role(message.sender, roles), _role(message.receiver, roles))
        for message in result.messages
        if message.kind not in OPTIONAL_KINDS
    ]
    mismatches = []
    for index, (have, want) in enumerate(zip(actual, expected)):
        if have != want:
            mismatches.append(f"step {index}: expected {want}, saw {have}")
    if len(actual) != len(expected):
        mismatches.append(
            f"flow length: expected {len(expected)} steps, saw {len(actual)}"
        )
    return FlowCheck(
        protocol=result.protocol,
        conforms=not mismatches,
        mismatches=mismatches,
        actual_flow=[" -> ".join(step) for step in actual],
    )


def architecture_edges(result: MediationResult) -> dict[str, bool]:
    """Check the Figure 1/2 star topology around the mediator.

    Returns named boolean facts; all must hold for conformance:
    the client and every source talk to the mediator, and no message
    bypasses it.
    """
    roles = detect_roles(result.messages)
    client, mediator, sources = roles["client"], roles["mediator"], roles["sources"]
    edges = {tuple(sorted((m.sender, m.receiver))) for m in result.messages}
    facts = {
        "client<->mediator": tuple(sorted((client, mediator))) in edges,
        "no client<->source": not any(
            tuple(sorted((client, source))) in edges for source in sources
        ),
        "no source<->source": not any(
            tuple(sorted((a, b))) in edges
            for a in sources
            for b in sources
            if a < b
        ),
    }
    for source in sources:
        facts[f"{source}<->mediator"] = tuple(sorted((source, mediator))) in edges
    return facts
