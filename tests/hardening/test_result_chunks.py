"""Hardened ``das_server_result`` frames weigh the same on adjacent inputs.

Since the server result travels as two tables of distinct rows plus a
position table, a frame's size depends on how many *distinct* rows its
chunk of the padded cross product touches.  That count — like the pair
count — must be a function of the adjacency invariants alone, or the
row-table encoding would have opened a size channel the pair list did
not have.  The only bytes allowed to differ are the minimal-width
encodings of the salted 64-bit index identifiers, which are random per
run and independent of the data.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Federation, run_join_query
from repro.analysis.audit import adjacent_workload
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


def chunk_profile(ca, client, workload) -> list[tuple[int, int, int, int]]:
    """Per result frame: distinct rows per side, position-table bytes,
    and the encoded size net of the index identifiers' own widths."""
    federation = Federation(ca=ca)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    run_join_query(federation, QUERY, protocol="das", hardening=True)
    profile = []
    for message in federation.network.messages_of_kind("das_server_result"):
        rows_1, rows_2, positions = message.body.row_tables()
        identifier_bytes = sum(
            codec.encoded_size(row.index_value) for row in rows_1 + rows_2
        )
        profile.append(
            (
                len(rows_1),
                len(rows_2),
                len(positions),
                codec.encoded_size(message.body) - identifier_bytes,
            )
        )
    return profile


@given(spec=specs)
@settings(max_examples=8, deadline=None)
def test_chunk_sizes_identical_across_adjacent_workloads(ca, client, spec):
    base = generate(spec)
    adjacent, _ = adjacent_workload(base)
    profile = chunk_profile(ca, client, base)
    assert profile == chunk_profile(ca, client, adjacent)
    assert sum(pairs for _, _, pairs, _ in profile) > 0
