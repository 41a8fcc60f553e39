"""Hardened ``das_server_result`` frames weigh the same on adjacent inputs.

The mediator forwards each padded encrypted relation once, a frame of at
most ``batch_size`` etuples at a time.  The number of frames, the rows
in each and each frame's encoded size must be functions of the adjacency
invariants alone.  The only bytes allowed to differ are the
minimal-width encodings of the salted 64-bit index identifiers, which
are random per run and independent of the data.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Federation, run_join_query
from repro.analysis.audit import adjacent_workload
from repro.hardening import PaddingPolicy
from repro.mediation.access_control import allow_all
from repro.relational.datagen import WorkloadSpec, generate
from repro.transport import codec

QUERY = "select * from R1 natural join R2"

specs = st.builds(
    WorkloadSpec,
    domain_1=st.integers(min_value=4, max_value=7),
    domain_2=st.integers(min_value=4, max_value=7),
    overlap=st.integers(min_value=1, max_value=4),
    rows_per_value_1=st.integers(min_value=1, max_value=3),
    rows_per_value_2=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)


def chunk_profile(ca, client, workload) -> list[tuple[int, int]]:
    """Per result frame: its rows, and its encoded size net of the index
    identifiers' own widths."""
    federation = Federation(ca=ca)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    # Small frames, so most specs need several per relation.
    run_join_query(
        federation, QUERY, protocol="das", hardening=PaddingPolicy(batch_size=8)
    )
    return [
        (
            len(message.body),
            codec.encoded_size(message.body)
            - sum(codec.encoded_size(row.index_value) for row in message.body),
        )
        for message in federation.network.messages_of_kind("das_server_result")
    ]


@given(spec=specs)
@settings(max_examples=8, deadline=None)
def test_chunk_sizes_identical_across_adjacent_workloads(ca, client, spec):
    base = generate(spec)
    adjacent, _ = adjacent_workload(base)
    profile = chunk_profile(ca, client, base)
    assert profile == chunk_profile(ca, client, adjacent)
    # Every row of both relations travels, in full frames but the last.
    assert sum(rows for rows, _ in profile) >= len(base.relation_1) + len(
        base.relation_2
    )
    assert all(1 <= rows <= 8 for rows, _ in profile)
