"""Section-6-style protocol comparison on a synthetic workload.

Generates a parameterized workload, runs all three delivery protocols
(DAS at two partitioning granularities) on fresh federations, and
prints the measured comparison table: interaction counts,
client-received units, traffic, crypto operations and wall-clock
seconds — the quantities behind the paper's qualitative ranking ("the commutative approach seems
to be the most efficient one").

Run:  python examples/protocol_comparison.py [domain_size]

Pass ``--storage memory`` or ``--storage sqlite:PATH`` to run the same
comparison over a storage-backed data plane (docs/storage.md); with a
persistent SQLite store, a second invocation measures the *warm-cache*
costs — crypto-op counts drop where the encrypted-index cache serves
the artifacts the first invocation computed.
"""

import argparse

from repro import (
    CertificationAuthority,
    CommutativeConfig,
    DASConfig,
    Federation,
    PMConfig,
    setup_client,
)
from repro.analysis import compare, render
from repro.mediation.access_control import allow_all
from repro.mediation.client import default_homomorphic_scheme
from repro.relational.datagen import WorkloadSpec, generate
from repro.storage import storage_from_spec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("domain", nargs="?", type=int, default=12)
    parser.add_argument(
        "--storage",
        default=None,
        metavar="SPEC",
        help="storage backend: 'memory' or 'sqlite:PATH'",
    )
    args = parser.parse_args()
    domain = args.domain
    storage = storage_from_spec(args.storage)
    workload = generate(
        WorkloadSpec(
            domain_1=domain,
            domain_2=domain,
            overlap=domain // 2,
            rows_per_value_1=2,
            rows_per_value_2=2,
            payload_attributes=2,
            seed=42,
        )
    )

    def federation_factory() -> Federation:
        ca = CertificationAuthority(key_bits=1024)
        federation = Federation(ca=ca, storage=storage)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(
            setup_client(
                ca,
                "analyst",
                {("role", "analyst")},
                rsa_bits=1024,
                homomorphic_scheme=default_homomorphic_scheme(1024),
            )
        )
        return federation

    protocols = [
        ("das", DASConfig(buckets=4)),
        ("das", DASConfig(strategy="singleton")),
        ("commutative", CommutativeConfig()),
        ("private-matching", PMConfig()),
    ]
    print(
        f"workload: |dom1|=|dom2|={domain}, overlap={domain // 2}, "
        f"|R1|={len(workload.relation_1)}, |R2|={len(workload.relation_2)}, "
        f"expected join={workload.expected_join_size}\n"
    )
    try:
        rows = compare(
            federation_factory, "select * from R1 natural join R2", protocols
        )
    finally:
        if storage is not None:
            storage.close()
    print(render(rows))
    if storage is not None:
        print(f"storage backend: {storage.describe()}")
    print(
        "\nSection 6 shape checks:\n"
        f"  client interacts twice in DAS:       "
        f"{rows[0].client_interactions == 2}\n"
        f"  sources interact once in DAS:        "
        f"{rows[0].max_source_interactions == 1}\n"
        f"  sources interact twice elsewhere:    "
        f"{all(r.max_source_interactions == 2 for r in rows[2:])}\n"
        f"  commutative client gets exact sets:  "
        f"{rows[2].client_received_units <= rows[0].client_received_units}\n"
    )


if __name__ == "__main__":
    main()
