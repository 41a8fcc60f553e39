"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``     — run a built-in workload under one protocol and print
  the decrypted global result plus the transcript summary.
* ``compare``  — the Section-6 comparison table over a parameterized
  synthetic workload.
* ``leakage``  — reproduce Tables 1 and 2 from live transcripts.
* ``audit``    — run one protocol and emit the JSON audit record.
* ``query``    — secure-join two relations loaded from CSV files,
  in-process or over TCP against running ``serve`` endpoints.
* ``serve``    — run one party's TCP endpoint (mediator, source, or
  client) for the distributed demo.
* ``telemetry`` — fetch a running endpoint's spans and metrics.
* ``workload`` — generate a synthetic workload as two CSV files.

Every protocol-running command accepts ``--trace-out`` (Chrome
trace-event JSON, loadable in Perfetto), ``--metrics-out`` (Prometheus
text exposition, or a JSON snapshot for ``.json`` paths), and
``--log-level``; see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro import (
    CertificationAuthority,
    Federation,
    run_join_query,
    setup_client,
)
from repro.analysis import analyze, compare, primitive_profile, render, table1, table2
from repro.analysis.export import export_run_json
from repro.core.runner import PROTOCOLS
from repro.faults import FaultInjector, FaultPlan, FaultyTransport
from repro.mediation.access_control import allow_all
from repro.mediation.network import Network
from repro.mediation.client import default_homomorphic_scheme
from repro.errors import StorageError
from repro.relational import csvio
from repro.relational.datagen import WorkloadSpec, Workload, generate
from repro.relational.relation import Relation
from repro.storage import FaultyStorage, StorageBackend, storage_from_spec
from repro.telemetry import (
    MetricsRegistry,
    MetricsScrapeServer,
    Tracer,
    configure_logging,
    get_tracer,
    party_logger,
    prometheus_exposition,
    use_metrics,
    use_tracer,
    write_chrome_trace,
    write_metrics,
)
from repro.transport import PartyServer, TcpTransport
from repro.transport.base import Transport
from repro.transport.tcp import fetch_telemetry

DEFAULT_RSA_BITS = 1024
DEFAULT_PAILLIER_BITS = 1024

#: Default loopback ports of the distributed-demo endpoints.
DEFAULT_PORTS = {"mediator": 7401, "S1": 7402, "S2": 7403}
DEFAULT_PARTY_OF_ROLE = {"mediator": "mediator", "source": "S1"}


def _build_federation(
    relation_1: Relation,
    relation_2: Relation,
    rsa_bits: int,
    paillier_bits: int,
    network: Transport | None = None,
    storage: StorageBackend | None = None,
) -> Federation:
    ca = CertificationAuthority(key_bits=rsa_bits)
    if network is not None:
        federation = Federation(ca=ca, network=network, storage=storage)
    else:
        federation = Federation(ca=ca, storage=storage)
    federation.add_source("S1", [(relation_1, allow_all())])
    federation.add_source("S2", [(relation_2, allow_all())])
    federation.attach_client(
        setup_client(
            ca,
            "cli-client",
            {("role", "analyst")},
            rsa_bits=rsa_bits,
            homomorphic_scheme=default_homomorphic_scheme(paillier_bits),
        )
    )
    return federation


def _workload_from_args(args) -> Workload:
    return generate(
        WorkloadSpec(
            domain_1=args.domain,
            domain_2=args.domain,
            overlap=args.overlap,
            rows_per_value_1=args.rows_per_value,
            rows_per_value_2=args.rows_per_value,
            seed=args.seed,
        )
    )


def _add_crypto_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rsa-bits", type=int, default=DEFAULT_RSA_BITS,
        help="RSA modulus size for client keys and the CA",
    )
    parser.add_argument(
        "--paillier-bits", type=int, default=DEFAULT_PAILLIER_BITS,
        help="Paillier modulus size for private matching",
    )


def _add_storage_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--storage", default=None, metavar="SPEC",
        help="persistent storage backend: 'memory' (per-process index "
             "cache) or 'sqlite:PATH' (relations and encrypted index "
             "caches survive across invocations); default: none",
    )


def _open_storage(args, injector=None) -> StorageBackend | None:
    """``--storage`` spec -> opened backend (fail fast on a bad spec).

    With an active fault plan the backend is wrapped in
    :class:`~repro.storage.FaultyStorage` so plans with ``site:
    "storage"`` rules reach it.
    """
    spec = getattr(args, "storage", None)
    try:
        backend = storage_from_spec(spec)
    except StorageError as exc:
        raise SystemExit(f"invalid --storage {spec!r}: {exc}")
    if backend is not None and injector is not None:
        backend = FaultyStorage(backend, injector)
    return backend


def _print_storage_stats(result) -> None:
    """One greppable line of cache statistics (CI's chaos step reads it)."""
    stats = result.artifacts.get("storage_cache")
    if not stats:
        return
    print(
        f"storage cache [{stats['backend']}]: hits={stats['hits']} "
        f"misses={stats['misses']} puts={stats['puts']} "
        f"errors={stats['errors']}"
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON of the run (open in Perfetto)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write run metrics: Prometheus text exposition, or a JSON "
             "snapshot when PATH ends in .json",
    )
    parser.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error"),
        help="enable structured logging at this level",
    )


@contextmanager
def _telemetry_session(args) -> Iterator[tuple[Tracer | None, MetricsRegistry | None]]:
    """Install tracer/registry per the CLI flags; export files on exit.

    Tracing and metrics activate together whenever either output path is
    requested — a trace without its metrics (or vice versa) is rarely
    what anyone wants, and the combined overhead is negligible.
    """
    if getattr(args, "log_level", None):
        configure_logging(args.log_level)
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace_out and not metrics_out:
        yield None, None
        return
    tracer = Tracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        try:
            yield tracer, registry
        finally:
            if trace_out:
                write_chrome_trace(trace_out, tracer.spans)
                print(f"trace written to {trace_out}", file=sys.stderr)
            if metrics_out:
                write_metrics(metrics_out, registry)
                print(f"metrics written to {metrics_out}", file=sys.stderr)


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--domain", type=int, default=10)
    parser.add_argument("--overlap", type=int, default=5)
    parser.add_argument("--rows-per-value", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)


def _command_demo(args) -> int:
    workload = _workload_from_args(args)
    storage = _open_storage(args)
    try:
        federation = _build_federation(
            workload.relation_1, workload.relation_2, args.rsa_bits,
            args.paillier_bits, storage=storage,
        )
        result = run_join_query(
            federation, "select * from R1 natural join R2",
            protocol=args.protocol,
        )
        print(result.global_result.pretty())
        print()
        print(result.summary())
        _print_storage_stats(result)
    finally:
        if storage is not None:
            storage.close()
    return 0


def _command_compare(args) -> int:
    from repro import CommutativeConfig, DASConfig, PMConfig

    workload = _workload_from_args(args)

    def factory() -> Federation:
        return _build_federation(
            workload.relation_1, workload.relation_2, args.rsa_bits,
            args.paillier_bits,
        )

    rows = compare(
        factory,
        "select * from R1 natural join R2",
        [
            ("das", DASConfig()),
            ("commutative", CommutativeConfig()),
            ("private-matching", PMConfig()),
        ],
    )
    print(render(rows))
    return 0


def _command_leakage(args) -> int:
    workload = _workload_from_args(args)
    reports, profiles = [], []
    for protocol in sorted(PROTOCOLS):
        federation = _build_federation(
            workload.relation_1, workload.relation_2, args.rsa_bits,
            args.paillier_bits,
        )
        result = run_join_query(
            federation, "select * from R1 natural join R2", protocol=protocol
        )
        reports.append(analyze(result))
        profiles.append(primitive_profile(result))
    print(table1(reports))
    print()
    print(table2(profiles))
    return 0


def _command_audit(args) -> int:
    if args.differential:
        return _command_audit_differential(args)
    workload = _workload_from_args(args)
    federation = _build_federation(
        workload.relation_1, workload.relation_2, args.rsa_bits,
        args.paillier_bits,
    )
    result = run_join_query(
        federation, "select * from R1 natural join R2", protocol=args.protocol
    )
    print(export_run_json(result))
    return 0


def _command_audit_differential(args) -> int:
    """``repro audit --differential``: the repro-leakage/1 artifact.

    Runs every protocol over a seeded workload and its adjacent twin
    (one tuple's join value moved), on the chosen carrier, and emits the
    per-adversary observable-distance document the CI leakage gate
    consumes (see docs/observability.md).
    """
    from repro.analysis.audit import (
        AuditConfig,
        differential_audit,
        leakage_json,
        render_audit_summary,
        write_leakage_artifact,
    )

    spec = WorkloadSpec(
        domain_1=args.domain,
        domain_2=args.domain,
        overlap=args.overlap,
        rows_per_value_1=args.rows_per_value,
        rows_per_value_2=args.rows_per_value,
        seed=args.seed,
    )
    config = AuditConfig(
        transport=args.transport,
        spec=spec,
        rsa_bits=args.rsa_bits,
        paillier_bits=args.paillier_bits,
        canary=args.canary,
        include_timing=args.include_timing,
        hardened=args.hardened,
    )
    document = differential_audit(config)
    if getattr(args, "any_transport", False):
        # Hardened distances are transport-independent by construction;
        # a baseline labelled "any" gates both bus and tcp candidates.
        document["transport"] = "any"
    if args.out:
        write_leakage_artifact(args.out, document)
        print(render_audit_summary(document))
        print(f"leakage artifact written to {args.out}", file=sys.stderr)
    else:
        print(leakage_json(document), end="")
    return 0


def _parse_endpoints(pairs: list[str]) -> dict[str, tuple[str, int]]:
    """``PARTY=HOST:PORT`` arguments -> endpoint map, with defaults."""
    endpoints = {
        party: ("127.0.0.1", port) for party, port in DEFAULT_PORTS.items()
    }
    for pair in pairs:
        try:
            party, address = pair.split("=", 1)
            host, port = address.rsplit(":", 1)
            endpoints[party] = (host, int(port))
        except ValueError:
            raise SystemExit(
                f"invalid --endpoint {pair!r}; expected PARTY=HOST:PORT"
            )
    return endpoints


def _command_query(args) -> int:
    relation_1 = csvio.load(args.name1, args.csv1)
    relation_2 = csvio.load(args.name2, args.csv2)
    if args.fault_log and not args.fault_plan:
        raise SystemExit("--fault-log requires --fault-plan")
    injector = None
    if args.fault_plan:
        injector = FaultInjector(FaultPlan.load(args.fault_plan))
    transport = None
    if args.transport == "tcp":
        # Mediator and sources must already be listening (``repro
        # serve``); the client's own endpoint is hosted in this process.
        transport = TcpTransport(endpoints=_parse_endpoints(args.endpoint))
    network: Transport | None = transport
    if injector is not None:
        # A fault plan needs a carrier to wrap — over the bus that means
        # constructing the (otherwise implicit) Network explicitly.
        network = FaultyTransport(transport or Network(), injector)
    storage = _open_storage(args, injector)
    try:
        federation = _build_federation(
            relation_1, relation_2, args.rsa_bits, args.paillier_bits,
            network=network, storage=storage,
        )
        sql = args.sql or (
            f"select * from {args.name1} natural join {args.name2}"
        )
        degrade = injector is not None or args.deadline is not None
        result = run_join_query(
            federation, sql, protocol=args.protocol,
            on_failure="return" if degrade else "raise",
            deadline_seconds=args.deadline,
            hardening=args.hardened,
        )
        if not result.ok:
            # Graceful degradation: the structured failure, never a
            # traceback.  Partial telemetry still exports on exit.
            print(result.summary())
            if transport is not None and get_tracer() is not None:
                try:
                    transport.harvest_telemetry()
                except Exception:
                    pass  # surviving endpoints only; some may be dead
            return 2
        if args.output:
            csvio.dump(result.global_result, args.output)
            print(f"{len(result.global_result)} rows written to {args.output}")
        else:
            print(result.global_result.pretty())
        _print_storage_stats(result)
        if args.hardened and "hardening" in result.artifacts:
            stats = result.artifacts["hardening"]
            print(
                f"hardened: overhead x{stats['overhead_factor']}, "
                f"{stats['dummy_items_total']} dummy items, "
                f"{stats['frames_total']} result frames"
            )
        if transport is not None:
            print(
                f"\n{len(result.messages)} messages, "
                f"{result.total_bytes()} actual bytes on the wire"
            )
            remote = transport.remote_view(federation.mediator.name)
            print(
                f"mediator endpoint recorded {len(remote)} messages "
                f"({sum(r.wire_bytes for r in remote)} B received)"
            )
            if get_tracer() is not None:
                # Pull every endpoint's recv spans and metrics into the
                # installed collectors: the exported trace then covers
                # client, mediator, and both sources as one trace.
                transport.harvest_telemetry()
    finally:
        if injector is not None and args.fault_log:
            with open(args.fault_log, "w", encoding="utf-8") as handle:
                text = injector.event_log_text()
                handle.write(text + "\n" if text else "")
            print(f"fault log written to {args.fault_log}", file=sys.stderr)
        if storage is not None:
            storage.close()
        if network is not None:
            network.close()
    return 0


def _command_serve(args) -> int:
    party = args.party or DEFAULT_PARTY_OF_ROLE.get(args.role, "client")
    port = args.port if args.port is not None else DEFAULT_PORTS.get(party, 0)
    configure_logging(args.log_level or "info")
    log = party_logger(party)
    # Open (and thereby validate) the backend before the endpoint binds:
    # a bad spec or unwritable path fails fast instead of surfacing as
    # query-time errors.  The SQLite file is created here, so restarted
    # endpoints find their store provisioned.
    storage = _open_storage(args)
    if storage is not None:
        log.info("storage backend ready: %s", storage.describe())
    server = PartyServer(
        party,
        host=args.host,
        port=port,
        on_message=lambda record: log.info(
            "#%03d %s -> %s: %s (%d B)",
            record.sequence, record.sender, record.receiver,
            record.kind, record.wire_bytes,
        ),
    )

    async def _serve() -> None:
        # SIGTERM is a clean stop: it cancels this task, the same way
        # asyncio.run delivers Ctrl-C.  Installed before the endpoint
        # announces itself, so a supervisor may signal on that line.
        serving = asyncio.current_task()
        assert serving is not None
        try:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, serving.cancel
            )
        except (NotImplementedError, RuntimeError):
            pass  # platform without signal handler support
        host, bound_port = await server.start()
        log.info(
            "%s endpoint for party %r listening on %s:%d",
            args.role, party, host, bound_port,
        )
        scrape = None
        if args.metrics_port is not None:
            # Live Prometheus scrape target next to the party endpoint:
            # renders the endpoint's own registry on every GET /metrics.
            scrape = MetricsScrapeServer(
                lambda: prometheus_exposition(server.registry),
                host=args.host,
                port=args.metrics_port,
            )
            scrape_host, scrape_port = await scrape.start()
            log.info(
                "metrics exposition at http://%s:%d/metrics",
                scrape_host, scrape_port,
            )
        try:
            await server.serve_forever()
        finally:
            await server.stop()
            if scrape is not None:
                await scrape.stop()

    try:
        asyncio.run(_serve())
    except (KeyboardInterrupt, asyncio.CancelledError):
        log.info("%d messages received, bye", len(server.records))
    finally:
        if storage is not None:
            storage.close()
    return 0


def _command_telemetry(args) -> int:
    """Print a running endpoint's telemetry (TELEMETRY/TELEMETRY_DATA)."""
    snapshot = fetch_telemetry(args.host, args.port, timeout=args.timeout)
    if args.format == "json":
        import json

        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        exposition = snapshot.get("exposition", "")
        print(exposition, end="" if exposition.endswith("\n") else "\n")
    return 0


def _command_report(args) -> int:
    from repro.analysis.report import full_report

    workload = _workload_from_args(args)

    def factory() -> Federation:
        return _build_federation(
            workload.relation_1, workload.relation_2, args.rsa_bits,
            args.paillier_bits,
        )

    document = full_report(
        factory,
        "select * from R1 natural join R2",
        [workload.relation_1, workload.relation_2],
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"report written to {args.output}")
    else:
        print(document)
    return 0


def _command_workload(args) -> int:
    workload = _workload_from_args(args)
    csvio.dump(workload.relation_1, args.out1)
    csvio.dump(workload.relation_2, args.out2)
    print(
        f"wrote {args.out1} ({len(workload.relation_1)} rows) and "
        f"{args.out2} ({len(workload.relation_2)} rows); expected join "
        f"size {workload.expected_join_size}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Secure mediation of join queries by processing ciphertexts",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="run one protocol on a demo workload")
    demo.add_argument(
        "--protocol", choices=sorted(PROTOCOLS), default="commutative"
    )
    _add_workload_arguments(demo)
    _add_crypto_arguments(demo)
    _add_storage_arguments(demo)
    _add_telemetry_arguments(demo)
    demo.set_defaults(handler=_command_demo)

    comparison = commands.add_parser(
        "compare", help="Section-6 comparison of all protocols"
    )
    _add_workload_arguments(comparison)
    _add_crypto_arguments(comparison)
    _add_telemetry_arguments(comparison)
    comparison.set_defaults(handler=_command_compare)

    leakage = commands.add_parser(
        "leakage", help="reproduce Tables 1 and 2 from live transcripts"
    )
    _add_workload_arguments(leakage)
    _add_crypto_arguments(leakage)
    _add_telemetry_arguments(leakage)
    leakage.set_defaults(handler=_command_leakage)

    audit = commands.add_parser(
        "audit", help="emit a JSON audit record of one protocol run, or "
        "the differential leakage audit over all protocols",
    )
    audit.add_argument(
        "--protocol", choices=sorted(PROTOCOLS), default="commutative"
    )
    audit.add_argument(
        "--differential", action="store_true",
        help="run the adjacent-workload leakage audit over every protocol "
             "and emit the repro-leakage/1 artifact (docs/observability.md)",
    )
    audit.add_argument(
        "--transport", choices=("bus", "tcp"), default="bus",
        help="with --differential: carrier to observe (tcp hosts a local "
             "endpoint trio in-process)",
    )
    audit.add_argument(
        "--out", default=None, metavar="PATH",
        help="with --differential: write the artifact here and print the "
             "distance table (default: artifact JSON to stdout)",
    )
    audit.add_argument(
        "--canary", action="store_true",
        help="with --differential: wrap the carrier in the deliberately "
             "size-leaking LeakyTransport (the leakage gate must flag this)",
    )
    audit.add_argument(
        "--include-timing", action="store_true",
        help="with --differential: add (nondeterministic, ungated) "
             "step-latency distances",
    )
    audit.add_argument(
        "--hardened", action="store_true",
        help="with --differential: audit the leakage-hardened oblivious "
             "mode and gate at ~zero distances (docs/security.md); with "
             "--canary, runs execute unhardened so the hardened gate "
             "must flag the regression",
    )
    audit.add_argument(
        "--any-transport", action="store_true",
        help="with --differential: label the artifact transport 'any' so "
             "a committed baseline gates both bus and tcp candidates",
    )
    _add_workload_arguments(audit)
    _add_crypto_arguments(audit)
    _add_telemetry_arguments(audit)
    audit.set_defaults(handler=_command_audit)

    query = commands.add_parser("query", help="secure-join two CSV relations")
    query.add_argument("csv1", help="CSV file of the first relation")
    query.add_argument("csv2", help="CSV file of the second relation")
    query.add_argument("--name1", default="R1", help="first relation name")
    query.add_argument("--name2", default="R2", help="second relation name")
    query.add_argument("--sql", default=None, help="global query to run")
    query.add_argument(
        "--protocol", choices=sorted(PROTOCOLS), default="commutative"
    )
    query.add_argument("--output", default=None, help="write result CSV here")
    query.add_argument(
        "--transport", choices=("bus", "tcp"), default="bus",
        help="message carrier: in-process bus or TCP endpoints",
    )
    query.add_argument(
        "--endpoint", action="append", default=[], metavar="PARTY=HOST:PORT",
        help="TCP endpoint of a remote party (repeatable; defaults: "
             "mediator=127.0.0.1:7401, S1=...:7402, S2=...:7403)",
    )
    query.add_argument(
        "--fault-plan", default=None, metavar="PLAN.json",
        help="inject the faults described in this JSON plan (see "
             "docs/robustness.md); failures become structured RunFailure "
             "output with exit code 2",
    )
    query.add_argument(
        "--fault-log", default=None, metavar="PATH",
        help="write the deterministic fault-event log here (requires "
             "--fault-plan; byte-identical across same-seed runs)",
    )
    query.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="overall run deadline, propagated into every transport wait",
    )
    query.add_argument(
        "--hardened", action="store_true",
        help="run in the leakage-hardened oblivious mode: padded buckets, "
             "uniform ciphertext sizes, fixed-size result frames "
             "(docs/security.md 'Hardened mode')",
    )
    _add_crypto_arguments(query)
    _add_storage_arguments(query)
    _add_telemetry_arguments(query)
    query.set_defaults(handler=_command_query)

    serve = commands.add_parser(
        "serve", help="run one party's TCP endpoint for the distributed demo"
    )
    serve.add_argument(
        "role", choices=("mediator", "source", "client"),
        help="which party role this endpoint plays",
    )
    serve.add_argument(
        "--party", default=None,
        help="party name (defaults: mediator, S1, or client)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=None,
        help="listening port (default: the party's well-known demo port)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also serve the endpoint's metrics as a live Prometheus "
             "scrape target (GET /metrics) on this port (0 = ephemeral)",
    )
    serve.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error"),
        help="endpoint log verbosity (default: info)",
    )
    _add_storage_arguments(serve)
    serve.set_defaults(handler=_command_serve)

    telemetry = commands.add_parser(
        "telemetry", help="fetch a running endpoint's spans and metrics"
    )
    telemetry.add_argument("--host", default="127.0.0.1")
    telemetry.add_argument(
        "--port", type=int, required=True, help="endpoint port to query"
    )
    telemetry.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="Prometheus exposition (default) or the full JSON snapshot",
    )
    telemetry.add_argument(
        "--timeout", type=float, default=10.0, help="request timeout seconds"
    )
    telemetry.set_defaults(handler=_command_telemetry)

    report = commands.add_parser(
        "report", help="full markdown evaluation report (all protocols)"
    )
    report.add_argument("--output", default=None, help="write markdown here")
    _add_workload_arguments(report)
    _add_crypto_arguments(report)
    _add_telemetry_arguments(report)
    report.set_defaults(handler=_command_report)

    workload = commands.add_parser(
        "workload", help="generate a synthetic workload as CSV files"
    )
    workload.add_argument("out1", help="output CSV for the first relation")
    workload.add_argument("out2", help="output CSV for the second relation")
    _add_workload_arguments(workload)
    workload.set_defaults(handler=_command_workload)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with _telemetry_session(args):
        return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
