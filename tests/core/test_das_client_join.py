"""The plain DAS client's q_C against a nested loop over R_C's pairs.

The client evaluates q_C as a hash join of R_C's two decrypted row
tables and counts ``false_positives`` as |R_C| minus the pairs joined.
The oracle here walks R_C pair by pair (read off the position table),
decrypts both etuples of every pair, keeps the pairs whose
join values are equal and counts the rest.  On generated relations both
must give the same global result and the same ``false_positives``, for
both partition strategies and for one bucket or more buckets than values.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DASConfig, Federation, run_join_query
from repro.core.das import ServerResult
from repro.errors import CodecError
from repro.mediation.access_control import allow_all
from repro.relational.algebra import natural_join
from repro.relational.encoding import decode_row
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.transport import codec

S1 = schema("R1", k="int", a="string")
S2 = schema("R2", k="int", b="string")
QUERY = "select * from R1 natural join R2"

rows_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9), st.text("xyz", max_size=2)),
    max_size=10,
)


def oracle(client, server_result: ServerResult) -> tuple:
    """(global result, false positives) by a nested loop over the pairs."""
    rows, false_positives = [], 0
    flat = struct.unpack(
        f">{len(server_result.positions) // 4}I", server_result.positions
    )
    for i, j in zip(flat[0::2], flat[1::2]):
        (etuple_1, _), (etuple_2, _) = server_result.rows_1[i], server_result.rows_2[j]
        row_1 = decode_row(client.decrypt_hybrid(etuple_1), S1)
        row_2 = decode_row(client.decrypt_hybrid(etuple_2), S2)
        if row_1[0] == row_2[0]:
            rows.append(row_1 + row_2[1:])
        else:
            false_positives += 1
    return Relation(S1.join_schema(S2, "oracle"), rows), false_positives


@pytest.mark.parametrize(
    "strategy, buckets",
    [
        pytest.param("equi_depth", 3, id="equi_depth"),
        pytest.param("singleton", 3, id="singleton"),
        pytest.param("equi_depth", 1, id="equi_depth-one-bucket"),
        pytest.param("equi_depth", 16, id="equi_depth-more-buckets-than-values"),
    ],
)
@given(rows_1=rows_strategy, rows_2=rows_strategy)
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_hash_join_matches_the_pair_loop(
    ca, client, strategy, buckets, rows_1, rows_2
):
    relation_1, relation_2 = Relation(S1, rows_1), Relation(S2, rows_2)
    federation = Federation(ca=ca)
    federation.add_source("S1", [(relation_1, allow_all())])
    federation.add_source("S2", [(relation_2, allow_all())])
    federation.attach_client(client)
    config = DASConfig(strategy=strategy, buckets=buckets)
    result = run_join_query(federation, QUERY, protocol="das", config=config)
    (message,) = [m for m in result.messages if m.kind == "das_server_result"]
    expected, false_positives = oracle(client, message.body)
    assert result.global_result == expected == natural_join(relation_1, relation_2)
    assert result.artifacts["false_positives"] == false_positives
    assert result.artifacts["server_result_size"] == len(message.body)


class TestPositionTableAtDecode:
    """A das-server-result body whose position table is damaged fails
    as a codec error at decode, never as a wrong pair."""

    @pytest.fixture(scope="class")
    def live(self, ca, client, skewed_workload):
        federation = Federation(ca=ca)
        federation.add_source("S1", [(skewed_workload.relation_1, allow_all())])
        federation.add_source("S2", [(skewed_workload.relation_2, allow_all())])
        federation.attach_client(client)
        result = run_join_query(federation, QUERY, protocol="das")
        (message,) = [m for m in result.messages if m.kind == "das_server_result"]
        return message.body

    @staticmethod
    def with_positions(live: ServerResult, positions: bytes) -> bytes:
        """The encoded body with its position table (the last value in
        the stream, a length-prefixed byte string) replaced."""
        encoded = codec.encode_value(live)
        head = encoded[: -(len(live.positions) + 4)]
        return head + len(positions).to_bytes(4, "big") + positions

    def test_unchanged_positions_decode(self, live):
        assert codec.decode_value(self.with_positions(live, live.positions)) == live

    @pytest.mark.parametrize("cut", [1, 4, 7])
    def test_a_table_of_partial_pairs_fails_typed(self, live, cut):
        damaged = self.with_positions(live, live.positions[:-cut])
        with pytest.raises(CodecError, match="not whole"):
            codec.decode_value(damaged)

    @pytest.mark.parametrize("side", [0, 1])
    def test_a_position_past_its_row_table_fails_typed(self, live, side):
        table = (live.rows_1, live.rows_2)[side]
        past = bytearray(live.positions)
        struct.pack_into(">I", past, 4 * side, len(table))
        with pytest.raises(CodecError, match="past a row table"):
            codec.decode_value(self.with_positions(live, bytes(past)))
