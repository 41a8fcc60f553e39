"""E4 — Listing 1-4 conformance: transcripts match the paper's steps.

Each delivery protocol's transcript is checked step by step against the
message sequence the corresponding listing prescribes (who sends what to
whom, in order); the benchmark measures a full conformance sweep.
"""

from conftest import write_report

from repro import run_join_query
from repro.analysis.conformance import check_flow

QUERY = "select * from R1 natural join R2"

PROTOCOLS = [
    ("das", None, "Listing 2"),
    ("commutative", None, "Listing 3"),
    ("private-matching", None, "Listing 4"),
]


def test_listing_conformance_sweep(benchmark, make_federation, default_workload):
    results = [
        (
            run_join_query(
                make_federation(default_workload),
                QUERY,
                protocol=protocol,
                config=config,
            ),
            label,
        )
        for protocol, config, label in PROTOCOLS
    ]

    def check_all():
        return [(check_flow(result), label) for result, label in results]

    checks = benchmark(check_all)
    lines = ["Listing conformance (request phase = Listing 1 steps 1-4)"]
    for flow, label in checks:
        assert flow.conforms, (label, flow.mismatches)
        lines.append(f"\n== {flow.protocol} — {label}: CONFORMS ==")
        lines.extend(f"  {step}" for step in flow.actual_flow)
    write_report("listing_conformance.txt", "\n".join(lines))


def test_commutative_listing3_step_order(make_federation, default_workload):
    """Spot-check the Listing 3 step numbering on the live transcript."""
    result = run_join_query(
        make_federation(default_workload), QUERY, protocol="commutative"
    )
    kinds = [m.kind for m in result.network.transcript]
    # Steps 3 (both M_i inbound), 4 (exchange), 5/6 (double), 7 (result).
    assert kinds.index("commutative_m_set") < kinds.index("commutative_exchange")
    assert kinds.index("commutative_exchange") < kinds.index("commutative_double")
    assert kinds[-1] == "commutative_result"


def test_das_listing2_step_order(make_federation, default_workload):
    result = run_join_query(
        make_federation(default_workload), QUERY, protocol="das"
    )
    kinds = [m.kind for m in result.network.transcript]
    assert kinds.index("das_encrypted_partial_result") < kinds.index(
        "das_encrypted_index_tables"
    )
    assert kinds.index("das_encrypted_index_tables") < kinds.index(
        "das_server_query"
    )
    assert kinds[-1] == "das_server_result"


def test_pm_listing4_step_order(make_federation, default_workload):
    result = run_join_query(
        make_federation(default_workload), QUERY, protocol="private-matching"
    )
    kinds = [m.kind for m in result.network.transcript]
    assert kinds.index("pm_homomorphic_key") < kinds.index(
        "pm_encrypted_coefficients"
    )
    assert kinds.index("pm_encrypted_coefficients") < kinds.index(
        "pm_evaluations"
    )
