"""T6 — a series of joins on one attribute: cold vs warm index cache.

The storage engine's amortization claim (docs/storage.md, following
"Equi-Joins over Encrypted Data for Series of Queries"): the dominant
per-query cost — encrypting join attributes and result tuples from
scratch — is paid once, persisted in the encrypted-index cache, and the
rest of the series reuses it.  This bench drives one SQLite-backed
federation through a query series on the same join attribute and
measures the **warm speedup** (cold wall-clock / best warm wall-clock).

The workload is skewed the way real federations are: wide relations
(many join values to encrypt cold) with a small overlap (few matched
tuples to decrypt warm), so the cacheable crypto dominates the cold run
and the irreducible result decryption dominates the warm runs.  The
commutative protocol — the paper's flagship — must clear 3x warm; DAS
is measured alongside as context (it caches only the session and the
index table, so warm saves it the partitioning, the RSA wrap and the
client's unwrap; etuples are re-encrypted every query by design).

Every run is checked against the plaintext reference join, and the warm
runs must be byte-identical to the cold one — the cache is an
optimization, never an answer-changer.  A reopened store (fresh backend
on the same file, simulating a process restart) must serve hits on its
very first query: persistence is what makes the amortization hold
across sessions, not just across loop iterations.

The measured speedup and the deterministic per-query hit count are
committed as a perf-trajectory artifact (``BENCH_storage_series.json``);
the CI perf gate re-measures both in smoke mode and fails on
regression against the committed baseline.
"""

import time

from conftest import smoke_mode, write_bench_json, write_report

from repro import Federation, run_join_query
from repro.core.runner import reference_join
from repro.mediation.access_control import allow_all
from repro.relational.datagen import WorkloadSpec, generate
from repro.relational.encoding import encode_relation
from repro.storage import SQLiteBackend

QUERY = "select * from R1 natural join R2"

#: Wide relations, small overlap: 60 rows a side but only ~6 joining,
#: so cold pays ~10x more cacheable encryption than warm pays
#: irreducible decryption.
SPEC = WorkloadSpec(
    domain_1=30,
    domain_2=30,
    overlap=3,
    rows_per_value_1=2,
    rows_per_value_2=2,
    payload_attributes=2,
    seed=2007,
)

WARM_RUNS = 3


def build(ca, client, workload, storage):
    federation = Federation(ca=ca, storage=storage)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


def timed_query(federation, protocol):
    start = time.perf_counter()
    result = run_join_query(federation, QUERY, protocol=protocol)
    return time.perf_counter() - start, result


def run_series(ca, client, workload, storage, protocol):
    """One cold query then WARM_RUNS repeats; returns the measurements."""
    federation = build(ca, client, workload, storage)
    reference = encode_relation(reference_join(federation, QUERY))

    cold_seconds, cold = timed_query(federation, protocol)
    assert encode_relation(cold.global_result) == reference
    cold_stats = cold.artifacts["storage_cache"]

    warm_seconds = []
    previous = cold_stats
    for _ in range(WARM_RUNS):
        seconds, warm = timed_query(federation, protocol)
        assert encode_relation(warm.global_result) == reference
        warm_seconds.append(seconds)
        previous_stats, previous = previous, warm.artifacts["storage_cache"]
        # Stats are cumulative on the federation: the per-query delta
        # must be pure hits — a warm series recomputes nothing.
        assert previous["errors"] == previous_stats["errors"]
    warm_hits_per_query = (
        previous["hits"] - cold_stats["hits"]
    ) // WARM_RUNS

    return {
        "cold_seconds": cold_seconds,
        "warm_seconds": min(warm_seconds),
        "speedup": cold_seconds / min(warm_seconds),
        "warm_hits_per_query": warm_hits_per_query,
        "errors": previous["errors"],
    }


def test_storage_series_warm_speedup(ca, client, tmp_path):
    workload = generate(SPEC)
    series = {}
    for protocol in ("commutative", "das"):
        storage = SQLiteBackend(str(tmp_path / f"{protocol}.db"))
        try:
            series[protocol] = run_series(
                ca, client, workload, storage, protocol
            )
        finally:
            storage.close()

    commutative = series["commutative"]
    assert commutative["errors"] == 0
    assert commutative["warm_hits_per_query"] > 0

    # Smoke mode (CI) relaxes the local threshold — the committed
    # baseline comparison is the arbiter there; a full run on a quiet
    # host must clear the acceptance bar outright.
    floor = 1.5 if smoke_mode() else 3.0
    assert commutative["speedup"] >= floor, (
        f"warm index cache only {commutative['speedup']:.2f}x faster than "
        f"cold (floor {floor}x): cold {commutative['cold_seconds']:.3f}s "
        f"vs warm {commutative['warm_seconds']:.3f}s"
    )

    # Persistence across a restart: a *fresh* backend over the same
    # file must be warm on its very first query.
    reopened = SQLiteBackend(str(tmp_path / "commutative.db"))
    try:
        federation = build(ca, client, workload, reopened)
        seconds, result = timed_query(federation, "commutative")
        stats = result.artifacts["storage_cache"]
        assert stats["hits"] > 0, "reopened store served no cache hits"
        assert stats["errors"] == 0
        reopened_speedup = commutative["cold_seconds"] / seconds
    finally:
        reopened.close()

    write_report(
        "storage_series.txt",
        "\n".join(
            [
                f"Storage series: 1 cold + {WARM_RUNS} warm joins, "
                f"sqlite backend, domain {SPEC.domain_1}x{SPEC.domain_2} "
                f"overlap {SPEC.overlap}",
            ]
            + [
                f"  {protocol:<12} cold {data['cold_seconds']:.4f}s  "
                f"warm {data['warm_seconds']:.4f}s  "
                f"speedup {data['speedup']:.2f}x  "
                f"hits/query {data['warm_hits_per_query']}"
                for protocol, data in series.items()
            ]
            + [f"  reopened store first query: {reopened_speedup:.2f}x"]
        ),
    )
    write_bench_json(
        "storage_series",
        metrics={
            "warm_speedup": round(commutative["speedup"], 3),
            "warm_hits_per_query": commutative["warm_hits_per_query"],
            "warm_errors": commutative["errors"],
            "das_speedup": round(series["das"]["speedup"], 3),
            "reopened_speedup": round(reopened_speedup, 3),
            "cold_seconds": round(commutative["cold_seconds"], 4),
            "warm_seconds": round(commutative["warm_seconds"], 4),
        },
        # The ratio and the deterministic hit/error counts are
        # host-independent and gated; absolute timings are context.
        gate={
            "warm_speedup": {"direction": "min", "tolerance": 0.30},
            "warm_hits_per_query": {"direction": "min", "tolerance": 0.0},
            "warm_errors": {"direction": "max", "tolerance": 0.0},
        },
        context={
            "protocols": "commutative (gated), das (context)",
            "warm_runs": WARM_RUNS,
            "domain": SPEC.domain_1,
            "overlap": SPEC.overlap,
            "rows_per_value": SPEC.rows_per_value_1,
            "payload_attributes": SPEC.payload_attributes,
        },
    )
