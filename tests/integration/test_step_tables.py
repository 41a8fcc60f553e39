"""The listings' message order and step timings, pinned per cell.

Every cell of the transcript-faithfulness grid — the three protocols ×
{plain, hardened} × {no store, sqlite}, plus DAS's singleton partitioning
plain and hardened — runs on the small workload over the bus and over
TCP, and must produce exactly the sequences written out below:
``(sender, receiver, kind)`` for every message, ``(party, step)`` for
every timing, the artifact keys and the artifact counts.  Each run also
conforms to the paper's flow (``analysis.conformance.check_flow``), up
to the second result frame of hardened DAS, and every message body is
one the plaintext-leak scan can walk (``analysis.views``).

The mediator forwards the exchanged commutative sets and the PM
polynomials to S1 first, then to S2: S1 computes first, so its input
goes out first.
"""

from __future__ import annotations

import pytest

from repro import DASConfig, Federation, run_join_query
from repro.analysis.conformance import check_flow
from repro.analysis.views import iter_byte_material
from repro.mediation.access_control import allow_all
from repro.mediation.network import Network
from repro.storage import SQLiteBackend
from repro.transport import RetryPolicy, TcpTransport

QUERY = "select * from R1 natural join R2"
POLICY = RetryPolicy(attempts=3, base_delay=0.05, connect_timeout=5.0,
                     io_timeout=30.0)
C, M = "test-client", "mediator"

REQUEST = [
    (C, M, "global_query"),
    (M, "S1", "partial_query"),
    (M, "S2", "partial_query"),
]
RUNNER_KEYS = ["config", "crypto", "join_rows_before_postprocessing"]
COUNT_KEYS = ("active_domain_sizes", "intersection_size",
              "server_query_pairs", "server_result_size", "false_positives",
              "dummy_rows_discarded", "dummy_pairs_discarded",
              "polynomial_degrees", "matched_keys", "evaluations_sent",
              "recovered_payloads", "id_table_entries")


def commutative(hardened: bool):
    dummies_1 = [("S1", M, "commutative_dummies")] if hardened else []
    dummies_2 = [("S2", M, "commutative_dummies")] if hardened else []
    messages = REQUEST + [
        (M, "S1", "commutative_setup"),
        (M, "S2", "commutative_setup"),
        ("S1", M, "commutative_m_set"), *dummies_1,
        ("S2", M, "commutative_m_set"), *dummies_2,
        (M, "S1", "commutative_exchange"),
        (M, "S2", "commutative_exchange"),
        ("S1", M, "commutative_double"),
        ("S2", M, "commutative_double"),
        (M, C, "commutative_result"),
    ]
    timings = [
        ("S1", "hash_encrypt_round1"), ("S2", "hash_encrypt_round1"),
        ("S1", "double_encrypt"), ("S2", "double_encrypt"),
        (M, "match"), (C, "decrypt_and_combine"),
    ]
    keys = ["active_domain_sizes", "id_table_entries", "intersection_size"]
    counts = {"active_domain_sizes": {"S1": 6, "S2": 6},
              "id_table_entries": 12, "intersection_size": 3}
    if hardened:
        keys += ["dummy_pairs_discarded", "hardening"]
        counts["dummy_pairs_discarded"] = 3
    return messages, timings, keys, counts


def private_matching(hardened: bool):
    messages = REQUEST + [
        (C, M, "pm_homomorphic_key"),
        (M, "S1", "pm_homomorphic_key"),
        (M, "S2", "pm_homomorphic_key"),
        ("S1", M, "pm_encrypted_coefficients"),
        ("S2", M, "pm_encrypted_coefficients"),
        (M, "S1", "pm_encrypted_coefficients"),
        (M, "S2", "pm_encrypted_coefficients"),
        ("S1", M, "pm_evaluations"),
        ("S1", M, "pm_side_table"),
        ("S2", M, "pm_evaluations"),
        ("S2", M, "pm_side_table"),
        (M, C, "pm_evaluations"),
        (M, C, "pm_side_tables"),
    ]
    timings = [
        ("S1", "build_polynomial"), ("S2", "build_polynomial"),
        ("S1", "evaluate_polynomial"), ("S2", "evaluate_polynomial"),
        (C, "decrypt_and_match"),
    ]
    keys = ["evaluations_sent", "matched_keys", "polynomial_degrees",
            "recovered_payloads"] + (["hardening"] if hardened else [])
    counts = {"evaluations_sent": {"S1": 6, "S2": 6}, "matched_keys": 3,
              "polynomial_degrees": {"S1": 6, "S2": 6},
              "recovered_payloads": {"S1": 3, "S2": 3}}
    return messages, timings, keys, counts


def das(hardened: bool, strategy: str):
    partials = [
        ("S1", M, "das_encrypted_partial_result"),
        ("S2", M, "das_encrypted_partial_result"),
    ]
    translation = [(M, C, "das_encrypted_index_tables"),
                   (C, M, "das_server_query")]
    frames = [(M, C, "das_server_result")] * (2 if hardened else 1)
    timings = [
        ("S1", "partition_and_encrypt"), ("S2", "partition_and_encrypt"),
        (C, "translate_query"),
        *([] if hardened else [(M, "evaluate_server_query")]),
        (C, "decrypt_and_postprocess"),
    ]
    keys = ["cond_s", "false_positives", "index_tables",
            "server_query_pairs", "server_result_size"]
    counts = {
        "equi_depth": {"false_positives": 18, "server_query_pairs": 3,
                       "server_result_size": 24},
        "singleton": {"false_positives": 0, "server_query_pairs": 3,
                      "server_result_size": 6},
    }[strategy]
    if hardened:  # padded buckets: the server query names every bucket pair
        keys += ["dummy_rows_discarded", "hardening"]
        counts = {"dummy_rows_discarded": 0, "false_positives": 9,
                  "server_query_pairs": {"equi_depth": 9, "singleton": 36}[strategy],
                  "server_result_size": 18}
    return REQUEST + partials + translation + frames, timings, keys, counts


def expected(protocol: str, hardened: bool, strategy: str):
    if protocol == "das":
        return das(hardened, strategy)
    if protocol == "commutative":
        return commutative(hardened)
    return private_matching(hardened)


CELLS = [
    pytest.param(protocol, hardened, store, "equi_depth",
                 id=f"{protocol}-{'hardened' if hardened else 'plain'}-{store}")
    for protocol in ("das", "commutative", "private-matching")
    for hardened in (False, True)
    for store in ("none", "sqlite")
] + [
    pytest.param("das", hardened, "none", "singleton",
                 id=f"das-singleton-{'hardened' if hardened else 'plain'}-none")
    for hardened in (False, True)
]


@pytest.mark.parametrize("carrier", ["bus", "tcp"])
@pytest.mark.parametrize("protocol, hardened, store, strategy", CELLS)
def test_listing_order_and_steps_are_pinned(
    ca, client, workload, tmp_path, protocol, hardened, store, strategy,
    carrier,
):
    backend = SQLiteBackend(str(tmp_path / "s.db")) if store == "sqlite" else None
    network = Network() if carrier == "bus" else TcpTransport(retry=POLICY)
    try:
        federation = Federation(ca=ca, network=network, storage=backend)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        result = run_join_query(
            federation, QUERY, protocol=protocol,
            config=DASConfig(strategy=strategy) if protocol == "das" else None,
            hardening=hardened or None,
        )
    finally:
        network.close()
        if backend is not None:
            backend.close()

    messages, timings, keys, counts = expected(protocol, hardened, strategy)
    assert [
        (m.sender, m.receiver, m.kind) for m in result.network.transcript
    ] == messages
    # The leak scan can walk every body (it raises on one it cannot).
    for message in result.network.transcript:
        list(iter_byte_material(message.body))
    assert [(t.party, t.step) for t in result.timings] == timings
    storage = ["storage_cache"] if backend is not None else []
    assert sorted(result.artifacts) == sorted(RUNNER_KEYS + keys + storage)
    assert {
        key: result.artifacts[key] for key in COUNT_KEYS
        if key in result.artifacts
    } == counts
    # Hardened DAS forwards each relation as its own result frame, one
    # more das_server_result than the listing's flow has.
    extra_frame = protocol == "das" and hardened
    assert check_flow(result).mismatches == (
        ["flow length: expected 8 steps, saw 9"] if extra_frame else []
    )
