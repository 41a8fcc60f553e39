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

Rather than restating the table, :func:`analyze` derives each cell from
the *actual run transcript*: mediator quantities are computed from the
mediator's received messages only (what a semi-honest mediator can
count), client quantities from the client's.  :func:`verify_no_plaintext
_leak` additionally scans the mediator's view for plaintext tuple
material — the confidentiality claim all three protocols share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.analysis.views import view_material
from repro.core.das import ServerResult
from repro.core.result import MediationResult
from repro.errors import ProtocolError
from repro.mediation.network import PartyView
from repro.relational.encoding import encode_row, encode_value
from repro.relational.relation import Relation


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


def _mediator_view(result: MediationResult) -> PartyView:
    # The mediator is the one party that both receives from sources and
    # sends to the client; its registered name is recorded on messages.
    for party in result.network.parties():
        view = result.network.view(party)
        kinds = {m.kind for m in view.received}
        if kinds & {
            "das_encrypted_partial_result",
            "commutative_m_set",
            "pm_encrypted_coefficients",
        } and any(m.kind == "global_query" for m in view.received):
            return view
    raise ProtocolError("could not locate the mediator's view")


def _client_view(result: MediationResult) -> PartyView:
    for party in result.network.parties():
        view = result.network.view(party)
        if any(m.kind == "global_query" for m in view.sent):
            return view
    raise ProtocolError("could not locate the client's view")


def analyze(result: MediationResult) -> LeakageReport:
    """Derive the Table-1 cells for one protocol run from its transcript."""
    protocol = result.protocol.split("[", 1)[0]
    if protocol == "das":
        return _analyze_das(result)
    if protocol == "commutative":
        return _analyze_commutative(result)
    if protocol == "private-matching":
        return _analyze_private_matching(result)
    raise ProtocolError(f"no leakage analyzer for protocol {result.protocol!r}")


def _analyze_das(result: MediationResult) -> LeakageReport:
    report = LeakageReport(protocol=result.protocol)
    mediator = _mediator_view(result)
    # |R_i|: the encrypted relations are tuple-wise, so the mediator
    # counts rows directly.
    sizes = []
    for message in mediator.received:
        if message.kind == "das_encrypted_partial_result":
            relation = message.body["relation"]
            report.mediator_learns[f"|{relation.relation_name}|"] = len(relation)
            sizes.append(len(relation))
    # |R_C|: the mediator computed the server result itself.  Unhardened
    # it enumerates R_C's pairs in one message; hardened it forwards the
    # two padded relations (a list of rows per frame) whose cross product
    # R_C is, so the size is implied by what it already holds.
    shipped = [m.body for m in mediator.sent if m.kind == "das_server_result"]
    enumerated = all(isinstance(body, ServerResult) for body in shipped)
    report.mediator_learns["|R_C|"] = (
        sum(map(len, shipped)) if enumerated else math.prod(sizes)
    )
    client = _client_view(result)
    report.client_learns["superset_rows_received"] = sum(
        len(m.body) for m in client.received if m.kind == "das_server_result"
    )
    for message in client.received:
        if message.kind == "das_encrypted_index_tables":
            report.client_learns["index_tables_received"] = len(message.body)
    report.client_learns["exact_result_rows"] = len(result.global_result)
    report.notes.append(
        "|R_C| is an upper bound of the global result size; the client "
        "post-processes the superset with q_C"
    )
    report.notes.append(
        "|R_C| is enumerated: the mediator ships its pairs"
        if enumerated
        else "|R_C| = |R1^S| * |R2^S| is implied, not enumerated: the "
        "mediator forwards each padded relation once and the client joins them"
    )
    return report


def _analyze_commutative(result: MediationResult) -> LeakageReport:
    report = LeakageReport(protocol=result.protocol)
    mediator = _mediator_view(result)
    # |domactive(R_i.A_join)|: one first-round message per active value.
    for message in mediator.received:
        if message.kind == "commutative_m_set":
            report.mediator_learns[
                f"|domactive@{message.sender}|"
            ] = len(message.body)
    # Intersection size: the mediator itself matches equal tags.
    for message in mediator.sent:
        if message.kind == "commutative_result":
            report.mediator_learns["intersection_size"] = len(message.body)
    client = _client_view(result)
    received_pairs = sum(
        len(m.body) for m in client.received if m.kind == "commutative_result"
    )
    report.client_learns["matched_tuple_set_pairs"] = received_pairs
    report.notes.append(
        "the client receives the exact global result only (matched tuple "
        "sets); the intersection size is a lower bound of |result|"
    )
    return report


def _analyze_private_matching(result: MediationResult) -> LeakageReport:
    report = LeakageReport(protocol=result.protocol)
    mediator = _mediator_view(result)
    # Degree of each polynomial = number of (low) coefficients shipped.
    for message in mediator.received:
        if message.kind == "pm_encrypted_coefficients" and message.sender != (
            _client_view(result).party
        ):
            report.mediator_learns[
                f"|domactive@{message.sender}|"
            ] = len(message.body)
    client = _client_view(result)
    for message in client.received:
        if message.kind == "pm_evaluations":
            report.client_learns["encrypted_values_received"] = sum(
                len(values) for values in message.body.values()
            )
    report.client_learns["decipherable_rows"] = len(result.global_result)
    report.notes.append(
        "the client receives n + m encrypted values (all partial-result "
        "tuple sets) but can only decipher those in the exact join"
    )
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
    mediator = _mediator_view(result)
    material = view_material(mediator)
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
