#!/usr/bin/env python3
"""Layered 2048-bit benchmark: five workloads, end-to-end and per-layer metrics.

Two ways in:

* ``python3 benchmarks/layers/run.py --workload W --seed N --seconds S --trace 0|1``
  measures one workload once and prints one JSON object as its last
  line (the contract of ``BENCHMARK.json``): end-to-end metrics with
  ``--trace 0``, per-layer metrics with ``--trace 1``.
* without ``--trace`` it runs both passes over every workload (or the
  one named), prints every metric by name with its unit and sample
  count, and optionally writes the whole result to ``--out``.
  ``--sets N`` repeats that N times and prints the run-to-run spread of
  every metric next to its declared bound.

Every query of every pass is compared with the plaintext reference
join.  Exit status is non-zero on any wrong or failed query, any span
name the layer classifier does not know, or a traced pass that
attributes less than 95 % of the query wall time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT}/src/repro not found: run from a checkout of the repository")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.crypto import rsa  # noqa: E402
from repro.crypto.backend import use_backend  # noqa: E402
from repro.crypto.engine import use_engine  # noqa: E402
from repro.telemetry import MetricsRegistry, Tracer, use_metrics, use_tracer  # noqa: E402
from repro.transport.server import ENDPOINT_BUSY_METRIC, ENDPOINT_MESSAGES_METRIC  # noqa: E402
from repro.transport.tcp import TRANSPORT_RETRIES_METRIC  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {entry["name"]: entry for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in SPEC["per_layer"]}
WHY = {entry["name"]: entry["why"] for entry in SPEC["workloads"]}
WORKLOAD_NAMES = list(WHY)
DEFAULT_SEED = 2007
MIN_COVERAGE = 0.95
#: Set-up is repeated (median reported) until this many samples exist or
#: the repetitions have used this share of the run's measuring time; a
#: set-up includes one cold query, so two to three usually fit.
SETUP_REPEATS = 5
SETUP_SHARE = 0.25
#: Scratch space for this process's SQLite stores; inside the checkout,
#: git-ignored, removed on exit.
WORKDIR = ROOT / ".bench_layers_work" / str(os.getpid())


class BenchmarkFailure(Exception):
    """A gate of the benchmark itself failed (not a measurement)."""


def _quantile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def _require_correct(name: str, loop: workloads.LoopResult) -> None:
    if loop.failed:
        raise BenchmarkFailure(
            f"{name}: {loop.failed} of {len(loop.samples)} queries failed, "
            f"first: {loop.first_error()}"
        )


# ---------------------------------------------------------------------------
# The two passes
# ---------------------------------------------------------------------------


def measure_end_to_end(
    context: workloads.Context,
    definition: workloads.WorkloadDef,
    seed: int,
    seconds: float | None,
    max_queries: int | None,
) -> dict:
    """The untraced pass: what a user of the system would see.

    One client, and every time scaled to the nominal host speed (see
    :mod:`hostspeed`): a calibration burst runs between set-ups and
    after every query.
    """
    host = HostSpeed()
    setups: list[float] = []
    instance = None
    try:
        while True:
            if instance is not None:
                instance.close()
            instance, setup_seconds = workloads.set_up(
                definition, context, seed, WORKDIR
            )
            setups.append(setup_seconds * host.factor(setup_seconds))
            if len(setups) >= SETUP_REPEATS or max_queries is not None:
                break
            if seconds is not None and sum(setups) >= seconds * SETUP_SHARE:
                break
        loop = workloads.run_clients(instance, 1, seconds, max_queries, host=host)
    finally:
        if instance is not None:
            instance.close()
    latencies = [sample.seconds * sample.speed for sample in loop.samples if sample.ok]
    if not latencies:
        _require_correct(definition.name, loop)
    attempted = len(loop.samples)
    return {
        "values": {
            "setup_s": statistics.median(setups),
            "query_s_p50": statistics.median(latencies),
            "queries_per_s": loop.completed / loop.wall_seconds,
            "cpu_s_per_query": loop.cpu_seconds / attempted,
            "wire_bytes_per_query": loop.wire_bytes / attempted,
            "messages_per_query": loop.messages / attempted,
            "rss_mb": loop.rss_mb,
        },
        "attempted": attempted,
        "failed": loop.failed,
        "samples": {"setup_s": len(setups), "query": len(latencies)},
        "host_speed": statistics.median(host.factors),
    }


def _endpoint_total(instance: workloads.Instance, metric: str) -> float:
    if instance.hub is None:
        return 0.0
    return sum(
        instance.hub.local_server(party).registry.total(metric)
        for party in workloads.TRIO
    )


def measure_layers(
    context: workloads.Context,
    definition: workloads.WorkloadDef,
    seed: int,
    seconds: float | None,
    max_queries: int | None,
) -> dict:
    """The traced pass: where a query's wall time goes, layer by layer.

    One client throughout, so span self times add up along the single
    blocking chain.  An untraced stretch first gives the one-client
    baseline (``session.c1_*``) and the tracing overhead; a workload
    with several clients also gets an untraced stretch at its full
    client count, for ``session.concurrency_speedup``.
    """
    shares = (0.3, 0.3, 0.4) if definition.clients > 1 else (0.4, 0.0, 0.6)
    budgets = [None if seconds is None else seconds * share for share in shares]
    keygen_started = time.perf_counter()
    rsa.generate_keypair(context.bits)
    keygen_seconds = time.perf_counter() - keygen_started

    instance, _ = workloads.set_up(definition, context, seed, WORKDIR)
    try:
        single = workloads.run_clients(instance, 1, budgets[0], max_queries)
        _require_correct(definition.name, single)
        full, speedup = single, 1.0
        attempted = len(single.samples)
        if definition.clients > 1:
            full = workloads.run_clients(
                instance, definition.clients, budgets[1], max_queries
            )
            _require_correct(definition.name, full)
            attempted += len(full.samples)
            speedup = (full.completed / full.wall_seconds) / (
                single.completed / single.wall_seconds
            )

        tracer, registry = Tracer(service="bench-layers"), MetricsRegistry()
        cache_before = instance.cache_stats()
        frames_before = _endpoint_total(instance, ENDPOINT_MESSAGES_METRIC)
        busy_before = _endpoint_total(instance, ENDPOINT_BUSY_METRIC)
        with layertrace.layer_wrappers() as primitive_counts, \
                use_tracer(tracer), use_metrics(registry):
            traced = workloads.run_clients(
                instance, 1, budgets[2], max_queries, keep_results=True
            )
        _require_correct(definition.name, traced)
        attempted += len(traced.samples)
        queries = len(traced.samples)
        cache_after = instance.cache_stats()
        frames = _endpoint_total(instance, ENDPOINT_MESSAGES_METRIC) - frames_before
        busy = _endpoint_total(instance, ENDPOINT_BUSY_METRIC) - busy_before
    finally:
        instance.close()

    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(
        layertrace.attribute(
            tracer.spans, queries, sum(sample.seconds for sample in traced.samples)
        )
    )
    single_p50 = statistics.median(sample.seconds for sample in single.samples)
    traced_p50 = statistics.median(sample.seconds for sample in traced.samples)
    cache = {key: cache_after[key] - cache_before[key] for key in cache_after}
    lookups = cache["hits"] + cache["misses"] + cache["errors"]
    artifacts = [sample.result.artifacts for sample in traced.samples]
    final_rows = sum(len(sample.result.global_result) for sample in traced.samples)
    server_rows = sum(
        a.get("server_result_size", a["join_rows_before_postprocessing"])
        for a in artifacts
    )
    hardening = [a["hardening"] for a in artifacts if "hardening" in a]
    values.update(
        {
            "crypto.modexp_ops": primitive_counts["modexp"] / queries,
            "crypto.keygen_s": keygen_seconds,
            "transport.frames": frames / queries,
            "transport.busy": busy / queries,
            "transport.retries": registry.total(TRANSPORT_RETRIES_METRIC) / queries,
            **{f"storage.{key}": count / queries for key, count in cache.items()},
            "storage.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "relational.server_rows": server_rows / queries,
            "relational.useful_ratio": final_rows / server_rows if server_rows else 1.0,
            "session.c1_query_s_p50": single_p50,
            "session.c1_queries_per_s": single.completed / single.wall_seconds,
            "session.concurrency_speedup": speedup,
            "session.query_s_p90": _quantile(
                [sample.seconds for sample in full.samples], 0.9
            ),
            "telemetry.overhead_ratio": traced_p50 / single_p50,
        }
    )
    for metric, key in (
        ("hardening.pad_bytes", "pad_bytes_total"),
        ("hardening.dummy_items", "dummy_items_total"),
        ("hardening.frames", "frames_total"),
        ("hardening.overhead_factor", "overhead_factor"),
    ):
        if hardening:
            values[metric] = statistics.fmean(h[key] for h in hardening)
    unknown = sorted(set(values) - set(PER_LAYER))
    if unknown:
        raise BenchmarkFailure(
            f"{definition.name}: metrics not declared in BENCHMARK.json: {unknown}"
        )
    if values["trace.coverage"] < MIN_COVERAGE:
        raise BenchmarkFailure(
            f"{definition.name}: trace.coverage {values['trace.coverage']:.3f} "
            f"< {MIN_COVERAGE}: {values[layertrace.UNATTRIBUTED]:.4f} s per query "
            "lies in no classified span"
        )
    samples = {"untraced": len(single.samples), "traced": queries}
    if full is not single:
        samples["untraced_all_clients"] = len(full.samples)
    return {"values": values, "attempted": attempted, "failed": 0, "samples": samples}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _contract_line(report: dict, catalogue: dict) -> str:
    metrics = {
        name: {"value": report["values"][name], "unit": catalogue[name]["unit"]}
        for name in catalogue
    }
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def _print_report(workload: str, report: dict, catalogue: dict) -> None:
    samples = ", ".join(f"{key} n={count}" for key, count in report["samples"].items())
    print(f"[{workload}] attempted={report['attempted']} failed={report['failed']} ({samples})")
    if "host_speed" in report:
        print(f"  times scaled to nominal host speed; median factor {report['host_speed']:.4f}")
    for name, entry in catalogue.items():
        print(f"  {name:<34} {report['values'][name]:>14.6g} {entry['unit']}")


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_pass(context: workloads.Context, args: argparse.Namespace) -> int:
    """One workload, one pass, in this process (the ``--trace`` form)."""
    seconds, max_queries = (None, 2) if args.quick else (args.seconds, None)
    measure, catalogue = (
        (measure_end_to_end, END_TO_END) if args.trace == 0
        else (measure_layers, PER_LAYER)
    )
    with use_backend("python"), use_engine(context.engine):
        report = measure(
            context, workloads.WORKLOADS[args.workload], args.seed,
            seconds, max_queries,
        )
    report["context"] = {
        "key_bits": context.bits,
        "bigint_backend": context.engine.backend_name,
        "engine_mode": context.engine.mode,
    }
    _print_report(args.workload, report, catalogue)
    if args.out is not None:
        args.out.write_text(json.dumps(report) + "\n")
    print(_contract_line(report, catalogue))
    return 0 if report["failed"] == 0 else 1


def run_set(args: argparse.Namespace) -> dict:
    """Both passes over the chosen workloads; returns the result document.

    Every (workload, pass) runs in a process of its own, exactly as the
    ``--trace`` form does: resident memory and lazily initialised state
    must not depend on which workloads ran before.
    """
    WORKDIR.mkdir(parents=True, exist_ok=True)
    document: dict = {"schema": "repro-bench-layers/1", "workloads": {}}
    for name in [args.workload] if args.workload else WORKLOAD_NAMES:
        reports = []
        for trace in (0, 1):
            report_path = WORKDIR / f"report-{name}-{trace}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(report_path),
            ] + (["--quick"] if args.quick else [])
            child = subprocess.run(command, capture_output=True, text=True)
            sys.stdout.write(child.stdout.rsplit("\n", 2)[0] + "\n")
            if child.returncode != 0:
                raise BenchmarkFailure(
                    f"{name} --trace {trace} exited {child.returncode}: "
                    f"{child.stderr.strip()}"
                )
            reports.append(json.loads(report_path.read_text()))
        end_to_end, layers = reports
        document["workloads"][name] = {
            "why": WHY[name],
            "attempted": end_to_end["attempted"] + layers["attempted"],
            "failed": end_to_end["failed"] + layers["failed"],
            "samples": {**end_to_end["samples"], **layers["samples"]},
            "end_to_end": end_to_end["values"],
            "per_layer": layers["values"],
        }
    child_context = end_to_end["context"]
    document["comparable"] = child_context["key_bits"] == workloads.FULL_BITS
    document["context"] = {
        **child_context,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds_per_pass": None if args.quick else args.seconds,
        "queries_per_pass": 2 if args.quick else None,
        "git_commit": _git_commit(),
    }
    return document


def print_spread(documents: list[dict]) -> bool:
    """Median, quartiles and relative spread per (metric, workload).

    Returns False when an end-to-end spread exceeds its declared bound.
    """
    within = True
    print(f"run-to-run spread over {len(documents)} sets (IQR / median):")
    header = f"  {'workload':<18}{'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}"
    print(header)
    for name in documents[0]["workloads"]:
        for section, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            for metric, entry in catalogue.items():
                series = [d["workloads"][name][section][metric] for d in documents]
                q1, median, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / abs(median) if median else 0.0
                bound = entry.get("bound")
                flag = ""
                if bound is not None and metric != "setup_s" and spread > bound:
                    flag, within = "  > bound", False
                shown = "" if bound is None else f"{bound:.3f}"
                print(
                    f"  {name:<18}{metric:<34}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                    f"{spread:>9.4f}{shown:>8}{flag}"
                )
    return within


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all five")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="feeds WorkloadSpec.seed only")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]), help="measuring time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one pass, JSON contract line last")
    parser.add_argument("--quick", action="store_true", help="small keys, 2 queries per pass; not comparable")
    parser.add_argument("--sets", type=int, default=1, help="repeat the whole run and print the spread")
    parser.add_argument("--out", type=pathlib.Path, help="write the result (document or report) here as JSON")
    args = parser.parse_args(argv)
    if args.sets > 1 and args.sets < 3:
        parser.error("--sets needs at least 3 sets to form quartiles")
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")

    try:
        if args.trace is not None:
            return run_pass(workloads.make_context(quick=args.quick), args)
        documents = [run_set(args) for _ in range(args.sets)]
        if args.out is not None:
            args.out.write_text(
                json.dumps(documents[-1], indent=1, sort_keys=True) + "\n"
            )
        if args.sets > 1 and not print_spread(documents):
            return 1
        return 0
    except (BenchmarkFailure, layertrace.UnknownSpan) as failure:
        print(f"BENCHMARK FAILED: {type(failure).__name__}: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        try:
            WORKDIR.parent.rmdir()  # unless another run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
