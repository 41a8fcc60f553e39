"""Every Table-1 number is the quantity it names.

:func:`repro.analysis.leakage.analyze` reads Table 1 off the run's
observable traces.  Here each cell is checked against the same quantity
computed another way — from the workload and ``result.artifacts``,
never from the transcript — over generated workloads (empty and skewed
sides included), all three protocols, plain and hardened.  Each draw
runs as the second query on its federation, so a reading that strays
into an earlier run's messages fails too.
"""

from hypothesis import given, settings, strategies as st

from repro import Federation, run_join_query
from repro.analysis.leakage import analyze
from repro.hardening import PaddingPolicy
from repro.mediation.access_control import allow_all
from repro.relational.datagen import WorkloadSpec, generate

QUERY = "select * from R1 natural join R2"


@st.composite
def workload_specs(draw) -> WorkloadSpec:
    domain_1 = draw(st.integers(min_value=0, max_value=6))
    domain_2 = draw(st.integers(min_value=0, max_value=6))
    return WorkloadSpec(
        domain_1=domain_1,
        domain_2=domain_2,
        overlap=draw(st.integers(min_value=0, max_value=min(domain_1, domain_2))),
        rows_per_value_1=draw(st.integers(min_value=1, max_value=3)),
        rows_per_value_2=draw(st.integers(min_value=1, max_value=3)),
        skew=draw(st.sampled_from([0.0, 1.5])),
        payload_attributes=1,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


def padded_rows(relation, config, index_table) -> int:
    """|R_i^S| of a hardened DAS source: every bucket topped up to the
    adjacency-invariant bound."""
    groups = relation.group_by("k")
    bound = PaddingPolicy().bucket_bound(
        max(map(len, groups.values()), default=0), len(groups),
        config.buckets, config.strategy,
    )
    return bound * len(index_table.entries)


@given(
    spec=workload_specs(),
    protocol=st.sampled_from(["das", "commutative", "private-matching"]),
    hardened=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_table1_cells_are_the_quantities_they_name(
    ca, client, spec, protocol, hardened
):
    workload = generate(spec)
    relations = {"S1": workload.relation_1, "S2": workload.relation_2}
    federation = Federation(ca=ca)
    for source, relation in relations.items():
        federation.add_source(source, [(relation, allow_all())])
    federation.attach_client(client)
    run_join_query(federation, QUERY, protocol=protocol)
    result = run_join_query(
        federation, QUERY, protocol=protocol, hardening=hardened or None
    )
    report = analyze(result)
    mediator, client_cells = report.mediator_learns, report.client_learns
    domains = {
        source: set(relation.active_domain("k"))
        for source, relation in relations.items()
    }
    artifacts = result.artifacts

    if protocol == "das":
        for source, relation in relations.items():
            rows = len(relation)
            if hardened:
                rows = padded_rows(
                    relation, artifacts["config"], artifacts["index_tables"][source]
                )
            assert mediator[f"|{relation.name}|"] == rows
        if not hardened:
            assert mediator["|R_C|"] == artifacts["server_result_size"]
        assert client_cells["exact_result_rows"] == len(result.global_result)
    else:
        for source in relations:
            assert mediator[f"|domactive@{source}|"] == len(domains[source])
    if protocol == "commutative" and not hardened:
        assert mediator["intersection_size"] == len(domains["S1"] & domains["S2"])
    if protocol == "private-matching":
        assert client_cells["decipherable_rows"] == len(result.global_result)
