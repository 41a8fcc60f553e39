"""Leakage audit: reproducing Tables 1 and 2 from live transcripts.

Runs all three protocols, derives every Table-1 cell from the actual
mediator/client views, audits the primitive counters for Table 2, checks
Listing 1-4 flow conformance and the Figure 1/2 star topology, and scans
the mediator's received bytes for plaintext tuples.

It finishes with the differential audit: the same query over a seeded
workload and its adjacent twin (one join value moved), printing the
per-adversary observable-distance summary — Table 1 as a measurement
rather than an inventory (docs/security.md, "Measured leakage").

Run:  python examples/leakage_audit.py [--storage memory|sqlite:PATH]

``--storage`` runs the same audit over a storage-backed data plane:
the leakage guarantees must hold unchanged, because the cache stores
only the ciphertext artifacts the mediator would see anyway
(docs/storage.md discusses what the store itself learns at rest).
"""

import argparse

from repro import (
    CertificationAuthority,
    Federation,
    run_join_query,
    setup_client,
)
from repro.analysis import (
    analyze,
    architecture_edges,
    check_flow,
    primitive_profile,
    table1,
    table2,
    verify_no_plaintext_leak,
)
from repro.analysis.audit import (
    AuditConfig,
    differential_audit,
    render_audit_summary,
)
from repro.relational.datagen import WorkloadSpec
from repro.mediation.access_control import allow_all
from repro.mediation.client import default_homomorphic_scheme
from repro.relational.datagen import medical_workload
from repro.storage import StorageBackend, storage_from_spec


def build_federation(
    workload, storage: StorageBackend | None = None
) -> Federation:
    ca = CertificationAuthority(key_bits=1024)
    federation = Federation(ca=ca, storage=storage)
    federation.add_source("clinic", [(workload.relation_1, allow_all())])
    federation.add_source("lab", [(workload.relation_2, allow_all())])
    federation.attach_client(
        setup_client(
            ca,
            "auditor",
            {("role", "auditor")},
            rsa_bits=1024,
            homomorphic_scheme=default_homomorphic_scheme(1024),
        )
    )
    return federation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--storage",
        default=None,
        metavar="SPEC",
        help="storage backend: 'memory' or 'sqlite:PATH'",
    )
    args = parser.parse_args()
    storage = storage_from_spec(args.storage)

    workload = medical_workload()
    query = "select * from clinic natural join lab"
    relations = [workload.relation_1, workload.relation_2]

    reports, profiles = [], []
    for protocol in ("das", "commutative", "private-matching"):
        result = run_join_query(
            build_federation(workload, storage), query, protocol=protocol
        )
        reports.append(analyze(result))
        profiles.append(primitive_profile(result))
        flow = check_flow(result)
        topology = architecture_edges(result)
        leaks = verify_no_plaintext_leak(result, relations)
        print(
            f"{result.protocol:32s} flow-conforms={flow.conforms} "
            f"topology-ok={all(topology.values())} plaintext-leaks={len(leaks)}"
        )

    print()
    print(table1(reports))
    print()
    print(table2(profiles))

    # Table 1 as a measurement: how far does each adversary's observable
    # view move when the input moves by one tuple?
    print("\n--- differential audit: adjacent workloads, every adversary ---")
    document = differential_audit(
        AuditConfig(
            spec=WorkloadSpec(
                domain_1=6,
                domain_2=6,
                overlap=3,
                rows_per_value_1=1,
                rows_per_value_2=1,
                seed=11,
            )
        )
    )
    perturbation = document["workload"]["perturbation"]
    print(
        f"perturbation: {perturbation['rows_rewritten']} row(s) of "
        f"{perturbation['relation']} moved "
        f"{perturbation['replaced_value']} -> {perturbation['replacement']}\n"
    )
    print(render_audit_summary(document))
    print(
        "\n=> the DAS mediator sees the largest cardinality movement "
        "(|R_C|), private matching moves nothing the mediator can count "
        "-- the measured form of Table 1's ordering"
    )
    if storage is not None:
        storage.close()


if __name__ == "__main__":
    main()
