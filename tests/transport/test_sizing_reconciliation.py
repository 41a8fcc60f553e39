"""Reconcile structural size estimates against actual wire encodings.

The in-process bus accounts bytes with :func:`~repro.mediation.sizing
.estimate_size` plus a flat ``ENVELOPE_BYTES`` constant; the TCP
transport counts actual frame bytes.  These tests pin the drift between
the two accountings for every message kind the three protocols produce:

* the structural estimate is a **lower bound** on the codec encoding
  (the codec only adds tags and length prefixes, it never compresses);
* the encoding exceeds the estimate by at most **40% plus 256 bytes**
  (the additive term absorbs small control messages whose fixed framing
  dominates the payload);
* the real per-message envelope overhead (frame header + sequence +
  routing strings) stays within **16 bytes** of ``ENVELOPE_BYTES``.

If a codec or sizing change moves outside these bounds, either fix the
regression or re-derive the documented tolerance — consciously.
"""

from collections import Counter

import pytest

from repro import Federation, run_join_query
from repro.core.das import DASConfig
from repro.mediation.access_control import allow_all
from repro.mediation.network import ENVELOPE_BYTES
from repro.mediation.sizing import estimate_size
from repro.relational.datagen import WorkloadSpec, generate
from repro.transport import codec

QUERY = "select * from R1 natural join R2"
PROTOCOLS = ["das", "commutative", "private-matching"]

#: Documented drift bound: estimate <= actual <= RATIO*estimate + SLACK.
RATIO = 1.4
SLACK = 256
#: ENVELOPE_BYTES must sit within this distance of real frame overhead.
ENVELOPE_TOLERANCE = 16


@pytest.fixture(scope="module")
def transcripts(ca, client, workload):
    """One bus transcript per protocol (messages carry live bodies)."""
    runs = {}
    for protocol in PROTOCOLS:
        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        run_join_query(federation, QUERY, protocol=protocol)
        runs[protocol] = list(federation.network.transcript)
    return runs


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_estimate_is_lower_bound_within_tolerance(transcripts, protocol):
    for message in transcripts[protocol]:
        estimate = estimate_size(message.body)
        actual = codec.encoded_size(message.body)
        assert estimate <= actual, (
            f"{message.kind}: structural estimate {estimate} exceeds the "
            f"actual encoding {actual} — estimate_size over-counts"
        )
        bound = RATIO * estimate + SLACK
        assert actual <= bound, (
            f"{message.kind}: actual encoding {actual} exceeds documented "
            f"tolerance {bound:.0f} over estimate {estimate}"
        )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_envelope_constant_matches_frame_overhead(transcripts, protocol):
    for message in transcripts[protocol]:
        payload = codec.encode_envelope(
            message.sequence,
            message.sender,
            message.receiver,
            message.kind,
            message.body,
        )
        frame_bytes = codec.FRAME_HEADER_BYTES + len(payload)
        overhead = frame_bytes - codec.encoded_size(message.body)
        assert abs(overhead - ENVELOPE_BYTES) <= ENVELOPE_TOLERANCE, (
            f"{message.kind}: real envelope overhead {overhead} drifted "
            f"from ENVELOPE_BYTES={ENVELOPE_BYTES}"
        )


def test_every_protocol_kind_is_covered(transcripts):
    """The drift bounds above are only meaningful if they actually saw
    every message kind the protocols emit."""
    kinds = {m.kind for run in transcripts.values() for m in run}
    assert {
        "global_query",
        "partial_query",
        "das_encrypted_index_tables",
        "das_server_query",
        "das_server_result",
        "das_encrypted_partial_result",
        "commutative_setup",
        "commutative_exchange",
        "commutative_double",
        "commutative_m_set",
        "commutative_result",
        "pm_homomorphic_key",
        "pm_encrypted_coefficients",
        "pm_evaluations",
        "pm_side_table",
        "pm_side_tables",
    } <= kinds


def test_high_multiplicity_server_result_is_counted_as_it_travels(ca, client):
    """Every selected row sits in >= 10 pairs of R_C: the estimate and
    the wire both count a row once and a pair as 8 bytes, so the drift
    bounds hold where a per-pair accounting would be ~10x off."""
    workload = generate(
        WorkloadSpec(
            domain_1=4, domain_2=4, overlap=4,
            rows_per_value_1=5, rows_per_value_2=5,
            payload_attributes=1, seed=17,
        )
    )
    federation = Federation(ca=ca)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    run_join_query(
        federation, QUERY, protocol="das", config=DASConfig(buckets=2)
    )
    (message,) = federation.network.messages_of_kind("das_server_result")
    occurrences = Counter(
        id(row) for pair in message.body.pairs for row in pair
    )
    assert min(occurrences.values()) >= 10
    estimate = estimate_size(message.body)
    actual = codec.encoded_size(message.body)
    assert estimate <= actual <= RATIO * estimate + SLACK
    distinct = {id(row): row for pair in message.body.pairs for row in pair}
    # Rows once (each source's encapsulation once), 8 bytes per pair.
    assert estimate == (
        estimate_size(list(distinct.values())) + 8 * len(message.body.pairs)
    )
