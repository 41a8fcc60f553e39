"""E5 — Section 6 interaction counts.

The paper: "In the DAS approach, the client has to interact twice with
the mediator ... For the datasources, the DAS approach is the most
convenient one, as they only have to send data once"; in both other
approaches the datasources "have to interact twice with the mediator".
Measured from real transcripts via the interaction counter.
"""

from conftest import write_report

from repro import run_join_query
from repro.analysis.comparison import measure

QUERY = "select * from R1 natural join R2"


def _rows(make_federation, default_workload):
    return [
        measure(
            run_join_query(
                make_federation(default_workload), QUERY, protocol=protocol
            )
        )
        for protocol in ("das", "commutative", "private-matching")
    ]


def test_interaction_pattern(benchmark, make_federation, default_workload):
    rows = benchmark.pedantic(
        _rows, args=(make_federation, default_workload), rounds=2, iterations=1
    )
    das, commutative, pm = rows

    # "the client has to interact twice with the mediator" (DAS only).
    assert das.client_interactions == 2
    assert commutative.client_interactions == 1
    assert pm.client_interactions == 1

    # "[DAS datasources] only have to send data once".
    assert das.max_source_interactions == 1
    # "they have to interact twice with the mediator" (commutative + PM).
    assert commutative.max_source_interactions == 2
    assert pm.max_source_interactions == 2

    lines = [
        "Section 6 interaction counts (paper claim -> measured)",
        f"{'protocol':30s} {'client<->mediator':>18s} {'source<->mediator':>18s}",
    ]
    for row in rows:
        lines.append(
            f"{row.protocol:30s} {row.client_interactions:>18d} "
            f"{row.max_source_interactions:>18d}"
        )
    write_report("section6_interactions.txt", "\n".join(lines))


def test_das_source_messages_single_burst(make_federation, default_workload):
    """DAS sources send everything in one shot (relation + table)."""
    result = run_join_query(
        make_federation(default_workload), QUERY, protocol="das"
    )
    for source in ("S1", "S2"):
        sent_kinds = [
            m.kind for m in result.view(source).sent if m.receiver == "mediator"
        ]
        assert sent_kinds == ["das_encrypted_partial_result"]


def test_commutative_source_two_bursts(make_federation, default_workload):
    result = run_join_query(
        make_federation(default_workload), QUERY, protocol="commutative"
    )
    for source in ("S1", "S2"):
        sent_kinds = [
            m.kind for m in result.view(source).sent if m.receiver == "mediator"
        ]
        assert sent_kinds == ["commutative_m_set", "commutative_double"]
