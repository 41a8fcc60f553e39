"""E3 — Reproduce Figures 1 and 2: the mediated-system architecture.

Figure 1 shows the basic star: client <-> mediator <-> sources, with
partial queries/results on the source links and the global query/result
on the client link.  Figure 2 adds credentials (CA-issued, forwarded in
subsets) and the encrypted global result.  These benches check the
actual communication topology and message content of every protocol run
against that schematic and render the observed flow.
"""

from conftest import write_report

from repro import run_join_query
from repro.analysis.conformance import architecture_edges
from repro.telemetry.observables import detect_roles

QUERY = "select * from R1 natural join R2"


def test_fig1_star_topology(benchmark, make_federation, default_workload):
    results = [
        run_join_query(
            make_federation(default_workload), QUERY, protocol=protocol
        )
        for protocol in ("das", "commutative", "private-matching")
    ]

    def check_all():
        return [architecture_edges(result) for result in results]

    facts_per_run = benchmark(check_all)
    for facts in facts_per_run:
        assert facts["client<->mediator"]
        assert facts["S1<->mediator"] and facts["S2<->mediator"]
        # No link bypasses the mediator.
        assert facts["no client<->source"]
        assert facts["no source<->source"]


def test_fig2_credential_flow(make_federation, default_workload, client):
    """Figure 2's credential path: client -> mediator -> sources."""
    result = run_join_query(
        make_federation(default_workload), QUERY, protocol="commutative"
    )
    network = result.network
    query_message = network.messages_of_kind("global_query")[0]
    assert query_message.body["credentials"] == client.credentials
    for message in network.messages_of_kind("partial_query"):
        forwarded = message.body["credentials"]
        assert set(c.fingerprint() for c in forwarded) <= {
            c.fingerprint() for c in client.credentials
        }


def test_fig2_partial_results_encrypted(make_federation, default_workload):
    """Figure 2 labels the source->mediator links 'partial result R_i
    (scheme)': the payloads must be ciphertext carriers, never
    relations."""
    from repro.relational.relation import Relation

    result = run_join_query(
        make_federation(default_workload), QUERY, protocol="das"
    )
    for message in result.network.messages_of_kind(
        "das_encrypted_partial_result"
    ):
        assert not isinstance(message.body["relation"], Relation)


def test_architecture_flow_rendering(make_federation, default_workload):
    lines = []
    for protocol in ("das", "commutative", "private-matching"):
        result = run_join_query(
            make_federation(default_workload), QUERY, protocol=protocol
        )
        roles = detect_roles(result.messages)
        lines.append(f"== {result.protocol} ==")
        lines.append(
            f"roles: client={roles['client']}, "
            f"mediator={roles['mediator']}, "
            f"sources={', '.join(roles['sources'])}"
        )
        lines.extend(result.network.flow_summary())
        lines.append("")
    write_report("fig1_fig2_flows.txt", "\n".join(lines))
