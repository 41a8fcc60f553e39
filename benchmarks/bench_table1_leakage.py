"""E1 — Reproduce Table 1, plus the differential leakage-audit artifact.

For each protocol the leakage analyzer derives the Table-1 cells from
the actual run transcript; the assertions check every cell against the
paper's row, and the benchmark measures the analysis cost itself.

The final test turns the table into a *measured envelope*: it runs the
differential audit (adjacent workloads, per-adversary observable
distances — :mod:`repro.analysis.audit`) and writes the deterministic
``repro-leakage/1`` artifact gated in CI by
``scripts/check_regression.py`` against the committed
``benchmarks/baselines/BENCH_leakage_audit.json``.
"""

import pathlib
import sys

from conftest import OUT_DIR, smoke_mode, write_report

from repro import Federation, run_join_query
from repro.analysis.audit import (
    AuditConfig,
    differential_audit,
    leakage_json,
    write_leakage_artifact,
)
from repro.analysis.leakage import analyze, table1, verify_no_plaintext_leak
from repro.mediation.access_control import allow_all
from repro.relational.datagen import WorkloadSpec

QUERY = "select * from R1 natural join R2"

#: The canonical audit parameters — must match what a bare
#: ``repro audit --differential`` runs, so the committed baseline and
#: the CI candidate artifact describe the same workload.
CANONICAL_AUDIT_SPEC = WorkloadSpec(
    domain_1=10,
    domain_2=10,
    overlap=5,
    rows_per_value_1=2,
    rows_per_value_2=2,
    seed=7,
)


def _run(make_federation, default_workload, protocol):
    return run_join_query(
        make_federation(default_workload), QUERY, protocol=protocol
    )


def test_table1_das_row(benchmark, make_federation, default_workload):
    result = _run(make_federation, default_workload, "das")
    report = benchmark(analyze, result)
    workload = default_workload
    # Mediator cell: |R_i| and |R_C|.
    assert report.mediator_learns["|R1|"] == len(workload.relation_1)
    assert report.mediator_learns["|R2|"] == len(workload.relation_2)
    assert report.mediator_learns["|R_C|"] >= len(result.global_result)
    # Client cell: superset of the global result plus the index tables.
    assert (
        report.client_learns["superset_rows_received"]
        >= report.client_learns["exact_result_rows"]
    )
    assert report.client_learns["index_tables_received"] == 2


def test_table1_commutative_row(benchmark, make_federation, default_workload):
    result = _run(make_federation, default_workload, "commutative")
    report = benchmark(analyze, result)
    workload = default_workload
    dom_1 = set(workload.relation_1.active_domain("k"))
    dom_2 = set(workload.relation_2.active_domain("k"))
    # Mediator cell: |domactive(R_i.A_join)| and the intersection size.
    assert report.mediator_learns["|domactive@S1|"] == len(dom_1)
    assert report.mediator_learns["|domactive@S2|"] == len(dom_2)
    assert report.mediator_learns["intersection_size"] == len(dom_1 & dom_2)
    # Client cell: only the exact global result (matched tuple sets).
    assert report.client_learns["matched_tuple_set_pairs"] == len(dom_1 & dom_2)


def test_table1_private_matching_row(benchmark, make_federation, default_workload):
    result = _run(make_federation, default_workload, "private-matching")
    report = benchmark(analyze, result)
    workload = default_workload
    n = len(workload.relation_1.active_domain("k"))
    m = len(workload.relation_2.active_domain("k"))
    # Mediator cell: |domactive| from the polynomial degrees.
    assert report.mediator_learns["|domactive@S1|"] == n
    assert report.mediator_learns["|domactive@S2|"] == m
    # Client cell: n + m encrypted values, decipherable = exact result.
    assert report.client_learns["encrypted_values_received"] == n + m
    assert report.client_learns["decipherable_rows"] == len(result.global_result)


def test_table1_confidentiality_scan(benchmark, make_federation, default_workload):
    """The property underlying the whole table: the mediator sees no
    plaintext in any protocol."""
    results = [
        _run(make_federation, default_workload, protocol)
        for protocol in ("das", "commutative", "private-matching")
    ]
    relations = [default_workload.relation_1, default_workload.relation_2]

    def scan_all():
        return [verify_no_plaintext_leak(r, relations) for r in results]

    leaks = benchmark(scan_all)
    assert all(not found for found in leaks)
    write_report(
        "table1.txt", table1([analyze(result) for result in results])
    )


def _audit_factory(ca, client):
    """Audit federation factory reusing the session's key material."""

    def factory(workload, network):
        federation = Federation(ca=ca, network=network)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        return federation

    return factory


def test_differential_leakage_audit(benchmark, ca, client):
    """E1b — the measured leakage envelope (``repro-leakage/1``).

    Produces ``benchmarks/out/BENCH_leakage_audit.json``, asserts the
    document is deterministic (byte-identical across two full audits,
    fresh ciphertexts and all), and proves the gate is not vacuous: the
    deliberately size-leaking canary transport must breach it.
    """
    factory = _audit_factory(ca, client)
    config = AuditConfig(spec=CANONICAL_AUDIT_SPEC)
    document = benchmark.pedantic(
        differential_audit,
        args=(config,),
        kwargs={"federation_factory": factory},
        rounds=1,
        iterations=1,
    )
    OUT_DIR.mkdir(exist_ok=True)
    artifact = OUT_DIR / "BENCH_leakage_audit.json"
    write_leakage_artifact(str(artifact), document)
    print(f"[leakage artifact written to {artifact}]")

    # The paper's Table-1 ordering shows up as measured distances: the
    # DAS mediator observes the largest cardinality movement (|R_C|),
    # private matching moves nothing the mediator can count.
    distances = {
        protocol: entry["adversaries"]["mediator"]["distances"]
        for protocol, entry in document["protocols"].items()
    }
    assert distances["das"]["max_cardinality_delta"] > 0
    assert distances["private-matching"]["max_count_delta"] == 0

    if smoke_mode():
        return  # the CI leakage job runs determinism + canary separately

    again = differential_audit(config, federation_factory=factory)
    assert leakage_json(document) == leakage_json(again), (
        "repro-leakage/1 artifact is not deterministic across runs"
    )

    # Canary: the same audit through the size-leaking transport must
    # breach the gate the honest document declares (the comparison of
    # scripts/check_regression.py).
    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts")
    )
    from check_regression import compare as leakage_compare

    canary_doc = differential_audit(
        AuditConfig(spec=CANONICAL_AUDIT_SPEC, canary=True),
        federation_factory=factory,
    )
    passed, lines = leakage_compare(document, canary_doc)
    assert not passed, "the size-leak canary went undetected:\n" + "\n".join(lines)
