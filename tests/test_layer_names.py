"""The layered benchmark's span table still describes the library.

A traced pass of ``benchmarks/layers/run.py`` exits 1 when a span name is
unknown to ``layertrace.classify`` or when ``layertrace.layer_wrappers``
cannot find a name it patches.  Both depend only on names in
``src/repro``, so they are checked here, at test keys, on every
protocol × {plain, hardened} × {bus, TCP} cell, instead of surfacing
only when the full benchmark runs.  ``layertrace`` is imported from its
file as it stands.
"""

import importlib.util
import pathlib

import pytest

from repro import Federation, run_join_query
from repro.mediation.access_control import allow_all
from repro.mediation.network import Network
from repro.storage import SQLiteBackend
from repro.telemetry import Tracer, use_tracer
from repro.transport import RetryPolicy, TcpTransport

LAYERTRACE = (
    pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks" / "layers" / "layertrace.py"
)
QUERY = "select * from R1 natural join R2"
POLICY = RetryPolicy(connect_timeout=5.0, io_timeout=30.0)


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists(layertrace):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute in layertrace.wrapped_targets()
        if attribute not in owner.__dict__
    ]
    assert missing == []


@pytest.mark.parametrize("carrier", ["bus", "tcp"])
@pytest.mark.parametrize("hardened", [False, True], ids=["plain", "hardened"])
@pytest.mark.parametrize("protocol", ["commutative", "private-matching", "das"])
def test_traced_query_emits_only_classified_spans(
    layertrace, ca, client, workload, tmp_path, protocol, hardened, carrier
):
    # The TCP cells carry a store, as the TCP workloads do.
    backend = SQLiteBackend(str(tmp_path / "s.db")) if carrier == "tcp" else None
    network = Network() if carrier == "bus" else TcpTransport(retry=POLICY)
    tracer = Tracer(service="layer-names")
    try:
        federation = Federation(ca=ca, network=network, storage=backend)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        with layertrace.layer_wrappers() as counts, use_tracer(tracer):
            result = run_join_query(
                federation, QUERY, protocol=protocol,
                hardening=hardened or None,
            )
    finally:
        network.close()
        if backend is not None:
            backend.close()
    assert len(result.global_result) > 0
    assert counts["modexp"] > 0
    names = {span.name for span in tracer.spans}
    assert "run_join_query" in names
    unknown = set()
    for name in names:
        try:
            layertrace.classify(name)
        except layertrace.UnknownSpan:
            unknown.add(name)
    assert unknown == set()
