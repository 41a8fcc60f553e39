"""Reproducing Table 1: extra information disclosed to client and mediator.

The paper's Table 1:

    =================  =========================  ==========================
    protocol           Client                     Mediator
    =================  =========================  ==========================
    Database-as-a-     superset of global         |R_i| and |R_C|
    Service            result, index tables
    Commutative        (only exact global         |domactive(R_i.A_join)|
    Encryption         result)                    and size of intersection
    Private Matching   (all encrypted values,     |domactive(R_i.A_join)|
                       exact result decipherable)
    =================  =========================  ==========================

Rather than restating the table, :func:`analyze` reads each cell off
the run's own observable traces (:mod:`repro.telemetry.observables`):
the mediator column from the mediator adversary's trace, the client
column from the client's — the body cardinalities each party can count
without decrypting, by direction, kind and link (:data:`READS`).
:func:`verify_no_plaintext_leak` additionally scans the mediator's view
for plaintext tuple material — the confidentiality claim all three
protocols share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.analysis.views import view_material
from repro.core.result import MediationResult
from repro.errors import ProtocolError
from repro.relational.encoding import encode_row, encode_value
from repro.relational.relation import Relation
from repro.telemetry.observables import adversary_traces, detect_roles, party_trace


@dataclass
class LeakageReport:
    """What one protocol run disclosed, derived from the transcript."""

    protocol: str
    #: Quantities the mediator can read off its received messages.
    mediator_learns: dict[str, int] = field(default_factory=dict)
    #: Quantities/material the client receives beyond the exact result.
    client_learns: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def table_row(self) -> tuple[str, str, str]:
        """(protocol, client cell, mediator cell) for Table-1 rendering."""
        client = ", ".join(f"{k}={v}" for k, v in sorted(self.client_learns.items()))
        mediator = ", ".join(
            f"{k}={v}" for k, v in sorted(self.mediator_learns.items())
        )
        return (self.protocol, client or "(exact result only)", mediator)


#: Table 1 as reads of the traces: protocol -> (party, direction, kind,
#: cell) rows.  A cell sums the observed items of the party's matching
#: messages; ``{source}`` is the sending source and ``{relation}`` the
#: relation it published.
READS = {
    "das": [
        ("mediator", "received", "das_encrypted_partial_result", "|{relation}|"),
        ("mediator", "sent", "das_server_result", "|R_C|"),
        ("client", "received", "das_server_result", "superset_rows_received"),
        ("client", "received", "das_encrypted_index_tables",
         "index_tables_received"),
    ],
    "commutative": [
        ("mediator", "received", "commutative_m_set", "|domactive@{source}|"),
        ("mediator", "sent", "commutative_result", "intersection_size"),
        ("client", "received", "commutative_result", "matched_tuple_set_pairs"),
    ],
    "private-matching": [
        ("mediator", "received", "pm_encrypted_coefficients",
         "|domactive@{source}|"),
    ],
}

NOTES = {
    "das": [
        "|R_C| is an upper bound of the global result size; the client "
        "post-processes the superset with q_C",
    ],
    "commutative": [
        "the client receives the exact global result only (matched tuple "
        "sets); the intersection size is a lower bound of |result|",
    ],
    "private-matching": [
        "the client receives n + m encrypted values (all partial-result "
        "tuple sets) but can only decipher those in the exact join",
    ],
}


def analyze(result: MediationResult) -> LeakageReport:
    """Derive the Table-1 cells for one protocol run from its traces."""
    protocol = result.protocol
    if protocol not in READS:
        raise ProtocolError(f"no leakage analyzer for protocol {result.protocol!r}")
    roles = detect_roles(result.messages)
    traces = {
        "mediator": adversary_traces(result, roles=roles)["mediator"],
        "client": party_trace(
            result.messages, roles["client"], "client", protocol,
            type(result.network).__name__,
        ),
    }
    relations = {
        message.sender: message.body["relation"].relation_name
        for message in result.messages
        if message.kind == "das_encrypted_partial_result"
    }
    report = LeakageReport(protocol=result.protocol, notes=list(NOTES[protocol]))
    for party, direction, kind, cell in READS[protocol]:
        learns = report.mediator_learns if party == "mediator" else report.client_learns
        for message in traces[party].messages:
            if (message.direction, message.kind) == (direction, kind):
                source = message.link.split("->", 1)[0]
                name = cell.format(source=source, relation=relations.get(source))
                learns[name] = learns.get(name, 0) + message.items
    if protocol == "das":
        report.client_learns["exact_result_rows"] = len(result.global_result)
        # Unhardened, the mediator enumerates R_C's pairs in one message;
        # hardened it forwards the two padded relations once, so |R_C| is
        # implied by the |R_i| it already holds.
        if "hardening" in result.artifacts:
            report.mediator_learns["|R_C|"] = math.prod(
                report.mediator_learns[f"|{name}|"] for name in relations.values()
            )
            report.notes.append(
                "|R_C| = |R1^S| * |R2^S| is implied, not enumerated: the "
                "mediator forwards each padded relation once and the client "
                "joins them"
            )
        else:
            report.notes.append("|R_C| is enumerated: the mediator ships its pairs")
    if protocol == "private-matching":
        report.client_learns["encrypted_values_received"] = sum(
            result.artifacts["evaluations_sent"].values()
        )
        report.client_learns["decipherable_rows"] = len(result.global_result)
    return report


def verify_no_plaintext_leak(
    result: MediationResult,
    relations: list[Relation],
    min_needle_bytes: int = 4,
) -> list[str]:
    """Scan the mediator's received material for plaintext tuples.

    Returns a list of human-readable violations (empty = confidential).
    Needles are full row encodings plus individual string attribute
    values (long enough to make random collisions in ciphertext bytes
    negligible).
    """
    mediator = detect_roles(result.messages)["mediator"]
    material = view_material(result.view(mediator))
    violations = []
    for relation in relations:
        for row in relation:
            needle = encode_row(row)
            if len(needle) >= min_needle_bytes and needle in material:
                violations.append(
                    f"row {row!r} of {relation.name} visible to the mediator"
                )
            for value in row:
                if isinstance(value, str) and len(value) >= min_needle_bytes:
                    # Strings may leak either raw (plaintext objects on
                    # the bus) or in their tagged canonical encoding.
                    raw = value.encode("utf-8")
                    if raw in material or encode_value(value) in material:
                        violations.append(
                            f"value {value!r} of {relation.name} visible "
                            "to the mediator"
                        )
    return sorted(set(violations))


def table1(reports: list[LeakageReport]) -> str:
    """Render the reproduced Table 1."""
    lines = [
        "Table 1 — extra information disclosed (derived from transcripts)",
        f"{'protocol':34s} | {'client':44s} | mediator",
        "-" * 120,
    ]
    for report in reports:
        protocol, client, mediator = report.table_row()
        lines.append(f"{protocol:34s} | {client:44s} | {mediator}")
    return "\n".join(lines)
