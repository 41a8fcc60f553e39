"""A federation's later queries read like its first.

A federation that answers a series of queries keeps one growing
transcript.  Each result records the range of positions its run added,
and every analysis reads that slice: Table 1, the §6 measures, the
flow and topology checks and the export of a run do not depend on what
the federation ran before or after it.
"""

import dataclasses

import pytest

from repro import Federation, RunFailure, run_join_query
from repro.analysis import analyze, architecture_edges, check_flow, export_run, measure
from repro.faults import FaultInjector, FaultPlan, FaultRule, FaultyTransport
from repro.mediation.access_control import allow_all
from repro.mediation.network import Network

QUERY = "select * from R1 natural join R2"
#: Byte counts jitter from run to run (big-integer ciphertexts have
#: minimal encodings), so a run is compared with a fresh run without them.
BYTE_FIELDS = ("client_received_bytes", "total_bytes")


def build(ca, client, workload, network=None) -> Federation:
    federation = Federation(ca=ca, network=network or Network())
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


def outputs(result) -> dict:
    row = dataclasses.asdict(measure(result))
    del row["wall_seconds"]
    exported = export_run(result)
    return {
        "analyze": analyze(result),
        "measure": row,
        "conforms": check_flow(result).conforms,
        "edges": architecture_edges(result),
        "transcript": len(exported["transcript"]),
        "messages": exported["totals"]["messages"],
    }


def without_bytes(reading: dict) -> dict:
    measured = {
        key: value for key, value in reading["measure"].items()
        if key not in BYTE_FIELDS
    }
    return {**reading, "measure": measured}


@pytest.mark.parametrize("protocol", ["das", "commutative", "private-matching"])
def test_each_query_of_a_series_reads_like_a_fresh_one(
    ca, client, workload, protocol
):
    fresh = outputs(run_join_query(build(ca, client, workload), QUERY, protocol=protocol))
    federation = build(ca, client, workload)
    first = run_join_query(federation, QUERY, protocol=protocol)
    before = outputs(first)
    second = run_join_query(federation, QUERY, protocol=protocol)

    assert outputs(first) == before
    assert fresh["conforms"]
    for reading in (before, outputs(second)):
        assert without_bytes(reading) == without_bytes(fresh)
    assert len(federation.network.transcript) == 2 * fresh["messages"]


def test_run_failure_counts_only_its_own_messages(ca, client, workload):
    # S2 crashes on its second round-one message: the second query's.
    plan = FaultPlan(rules=(FaultRule(
        action="crash", sender="S2", kind="commutative_m_set", occurrence=2,
    ),))
    network = FaultyTransport(Network(), FaultInjector(plan))
    federation = build(ca, client, workload, network)
    run_join_query(federation, QUERY, protocol="commutative")
    history = len(network.transcript)
    failure = run_join_query(
        federation, QUERY, protocol="commutative", on_failure="return"
    )

    assert isinstance(failure, RunFailure)
    delivered = network.transcript[history:]
    assert 0 < len(delivered) < history
    assert failure.messages_delivered() == len(delivered)
    assert failure.messages == delivered
