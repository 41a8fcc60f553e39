"""Shared fixtures and helpers for the benchmark harness.

Each ``bench_*.py`` file regenerates one artifact of the paper's
evaluation (see DESIGN.md's experiment index).  Benchmarks both
*measure* (via pytest-benchmark) and *verify* (via assertions on the
reproduced shape); rendered tables are written to ``benchmarks/out/`` so
the reproduction is inspectable after a run.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro import CertificationAuthority, Federation, setup_client
from repro.mediation.access_control import allow_all
from repro.mediation.client import Client, default_homomorphic_scheme
from repro.relational.datagen import Workload, WorkloadSpec, generate

RSA_BITS = 1024
PAILLIER_BITS = 1024

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def ca() -> CertificationAuthority:
    return CertificationAuthority(key_bits=RSA_BITS)


@pytest.fixture(scope="session")
def client(ca) -> Client:
    return setup_client(
        ca,
        identity="bench-client",
        properties={("role", "analyst")},
        rsa_bits=RSA_BITS,
        homomorphic_scheme=default_homomorphic_scheme(PAILLIER_BITS),
    )


@pytest.fixture(scope="session")
def make_federation(ca, client):
    def factory(workload: Workload) -> Federation:
        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        return federation

    return factory


@pytest.fixture(scope="session")
def default_workload() -> Workload:
    return generate(
        WorkloadSpec(
            domain_1=12,
            domain_2=12,
            overlap=6,
            rows_per_value_1=2,
            rows_per_value_2=2,
            payload_attributes=2,
            seed=2007,
        )
    )


def write_report(name: str, content: str) -> None:
    """Persist a rendered table under benchmarks/out/ and echo it."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(content + "\n")
    print(f"\n{content}\n[written to {path}]")


def smoke_mode() -> bool:
    """CI smoke mode: trimmed runs, relaxed local assertions.

    The CI perf gate sets ``REPRO_BENCH_SMOKE=1`` and relies on the
    committed-baseline comparison (``scripts/check_regression.py``)
    rather than this process's hard thresholds.
    """
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def write_bench_json(
    bench: str,
    metrics: dict[str, float],
    gate: dict[str, dict[str, float | str]],
    context: dict | None = None,
) -> pathlib.Path:
    """Emit a machine-readable perf artifact (``BENCH_<bench>.json``).

    The document is self-describing for the CI perf-regression gate:
    ``metrics`` are the measurements, ``gate`` declares which of them
    are regression-gated and how (``direction`` ``"min"``/``"max"``
    plus a relative ``tolerance``).  Only host-independent metrics
    (ratios, counts) should be gated; absolute timings are context.
    """
    document = {
        "schema": "repro-bench/1",
        "bench": bench,
        "smoke": smoke_mode(),
        "metrics": metrics,
        "gate": gate,
        "context": context or {},
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{bench}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"[bench json written to {path}]")
    return path
