"""White-box tests for DAS delivery internals."""

import struct

import pytest

from repro import Federation, run_join_query
from repro.core.das import (
    DASConfig,
    EncryptedRelation,
    EncryptedTuple,
    ServerQuery,
    ServerResult,
    _client_postprocess,
    _evaluate_server_query,
    _mixed_split,
    _partition_domain,
)
from repro.crypto import hybrid
from repro.errors import CodecError, ProtocolError
from repro.mediation.access_control import allow_all
from repro.relational.encoding import encode_row
from repro.relational.schema import schema
from repro.transport import codec

S = schema("R", k="int", a="string", b="string")


class TestMixedSplit:
    def test_default_everything_sensitive(self):
        sensitive, plain = _mixed_split(S, DASConfig())
        assert sensitive == [0, 1, 2]
        assert plain == []

    def test_split_positions(self):
        config = DASConfig(mixed_plaintext_attributes=("a",))
        sensitive, plain = _mixed_split(S, config)
        assert sensitive == [0, 2]
        assert plain == [1]

    def test_foreign_names_ignored_per_schema(self):
        # Names belonging to the *other* relation are simply absent here.
        config = DASConfig(mixed_plaintext_attributes=("other_attr", "b"))
        sensitive, plain = _mixed_split(S, config)
        assert plain == [2]

    def test_all_plaintext_rejected(self):
        config = DASConfig(mixed_plaintext_attributes=("k", "a", "b"))
        with pytest.raises(ProtocolError):
            _mixed_split(S, config)


class TestPartitionDomain:
    DOMAIN = (1, 3, 5, 7, 9, 11)

    def test_singleton(self):
        partitions = _partition_domain(
            DASConfig(strategy="singleton"), self.DOMAIN, "k"
        )
        assert len(partitions) == 6

    def test_equi_depth_respects_buckets(self):
        partitions = _partition_domain(
            DASConfig(strategy="equi_depth", buckets=3), self.DOMAIN, "k"
        )
        assert len(partitions) == 3

    def test_equi_width_bounds(self):
        partitions = _partition_domain(
            DASConfig(strategy="equi_width", buckets=2), self.DOMAIN, "k"
        )
        assert all(p.bounds is not None for p in partitions)


class TestServerQueryEvaluation:
    @pytest.fixture(scope="class")
    def encrypted(self, rsa_key):
        keys = [rsa_key.public_key()]

        def row(index_value, k):
            return EncryptedTuple(
                hybrid.encrypt(keys, encode_row((k, "x", "y"))), index_value
            )

        left = EncryptedRelation(
            "S1", "R1", (row(10, 1), row(10, 2), row(20, 3))
        )
        right = EncryptedRelation(
            "S2", "R2", (row(100, 1), row(200, 3), row(200, 4))
        )
        return left, right

    def test_pair_selection(self, encrypted):
        left, right = encrypted
        result = _evaluate_server_query(
            ServerQuery(pairs=((10, 100),)), left, right
        )
        # Two left rows in bucket 10 x one right row in bucket 100.
        assert len(result) == 2

    def test_multiple_pairs_accumulate(self, encrypted):
        left, right = encrypted
        result = _evaluate_server_query(
            ServerQuery(pairs=((10, 100), (20, 200))), left, right
        )
        assert len(result) == 2 + 2

    def test_duplicate_index_targets(self, encrypted):
        left, right = encrypted
        result = _evaluate_server_query(
            ServerQuery(pairs=((10, 100), (10, 200))), left, right
        )
        assert len(result) == 2 + 4

    def test_repeated_pair_comes_back_once(self, encrypted):
        left, right = encrypted
        once = _evaluate_server_query(
            ServerQuery(pairs=((10, 200), (20, 200))), left, right
        )
        repeated = _evaluate_server_query(
            ServerQuery(pairs=((10, 200), (20, 200), (10, 200))), left, right
        )
        assert len(once) == 2 * 2 + 1 * 2
        assert repeated == once
        assert repeated.pairs == once.pairs
        distinct = {(id(row_1), id(row_2)) for row_1, row_2 in repeated.pairs}
        assert len(distinct) == len(repeated)

    @pytest.mark.parametrize(
        "pairs",
        [(), ((10, 100),), ((20, 200), (10, 100)), ((10, 200), (20, 200), (10, 200)),
         ((10, 300), (10, 200), (10, 100), (20, 100))],
    )
    def test_row_tables_follow_the_pair_order(self, encrypted, pairs):
        query = ServerQuery(pairs=pairs)
        result = _evaluate_server_query(query, *encrypted)
        rows_1, rows_2, positions = reference_row_tables(query, *encrypted)
        assert [id(row) for row in result.rows_1] == [id(row) for row in rows_1]
        assert [id(row) for row in result.rows_2] == [id(row) for row in rows_2]
        assert result.positions == positions

    def test_no_pairs_no_output(self, encrypted):
        left, right = encrypted
        assert len(
            _evaluate_server_query(ServerQuery(pairs=()), left, right)
        ) == 0


def reference_row_tables(query, relation_1, relation_2):
    """The R_C layout the pair list used to produce: the pairs by a
    nested loop over R1^S's rows, then each side's distinct rows (by
    identity, in order of first appearance) and the packed positions."""
    pairs = []
    wanted = {}
    for index_1, index_2 in query.pairs:
        wanted.setdefault(index_1, {})[index_2] = None
    for row_1 in relation_1.rows:
        for index_2 in wanted.get(row_1.index_value, ()):
            for row_2 in relation_2.rows:
                if row_2.index_value == index_2:
                    pairs.append((row_1, row_2))
    tables = []
    for side in (0, 1):
        distinct = {}
        for pair in pairs:
            distinct.setdefault(id(pair[side]), (len(distinct), pair[side]))
        tables.append(distinct)
    flat = [
        tables[side][id(pair[side])][0] for pair in pairs for side in (0, 1)
    ]
    return (
        [row for _, row in tables[0].values()],
        [row for _, row in tables[1].values()],
        struct.pack(f">{len(flat)}I", *flat),
    )


class TestServerResultRowTables:
    """R_C is held and travels as two tables of distinct rows plus
    (i, j) positions; the pair list is only a derived view."""

    @pytest.fixture(scope="class")
    def delivered(self, ca, client, skewed_workload):
        federation = Federation(ca=ca)
        for name, relation in (
            ("S1", skewed_workload.relation_1),
            ("S2", skewed_workload.relation_2),
        ):
            federation.add_source(name, [(relation, allow_all())])
        federation.attach_client(client)
        result = run_join_query(
            federation, "select * from R1 natural join R2", protocol="das"
        )
        (message,) = federation.network.messages_of_kind("das_server_result")
        (query,) = federation.network.messages_of_kind("das_server_query")
        partials = [
            m.body["relation"]
            for m in federation.network.messages_of_kind(
                "das_encrypted_partial_result"
            )
        ]
        return result, message.body, query.body, partials

    @staticmethod
    def distinct_ids(server_result, side):
        return {id(pair[side]) for pair in server_result.pairs}

    def test_tables_hold_each_row_once_and_positions_rebuild_the_pairs(
        self, delivered
    ):
        _, live, query, partials = delivered
        rows_1, rows_2, positions = live.rows_1, live.rows_2, live.positions
        assert len(positions) == 8 * len(live)
        assert len({id(row) for row in rows_1}) == len(rows_1)
        assert {id(row) for row in rows_1} == self.distinct_ids(live, 0)
        assert {id(row) for row in rows_2} == self.distinct_ids(live, 1)
        # Every row repeats on this workload — the case the pair list
        # used to pay for once per occurrence.
        assert len(live) > 3 * max(len(rows_1), len(rows_2))
        # The mediator builds the tables in the order the pair list
        # implied, so the das-server-result frame is unchanged.
        reference = reference_row_tables(query, *partials)
        assert [id(row) for row in rows_1] == [id(row) for row in reference[0]]
        assert [id(row) for row in rows_2] == [id(row) for row in reference[1]]
        assert positions == reference[2]

    def test_decoded_result_shares_rows_exactly_like_the_live_one(
        self, delivered
    ):
        _, live, _, _ = delivered
        encoded = codec.encode_value(live)
        decoded = codec.decode_value(encoded)
        assert decoded == live
        for side in (0, 1):
            assert len(self.distinct_ids(decoded, side)) == len(
                self.distinct_ids(live, side)
            )
        rows = len(self.distinct_ids(live, 0)) + len(self.distinct_ids(live, 1))
        one_row = len(codec.encode_value(live.rows_1[0]))
        assert len(encoded) < rows * one_row + 8 * len(live) + 64

    def test_postprocessing_a_decoded_result_decrypts_no_more_than_the_live_one(
        self, delivered, client, skewed_workload, monkeypatch
    ):
        result, live, _, _ = delivered
        decrypted: list[int] = []
        batch, single = client.decrypt_hybrid_many, client.decrypt_hybrid
        monkeypatch.setattr(
            client, "decrypt_hybrid_many",
            lambda ciphertexts, **kwargs: (
                decrypted.append(len(ciphertexts)),
                batch(ciphertexts, **kwargs),
            )[1],
        )
        monkeypatch.setattr(
            client, "decrypt_hybrid",
            lambda ciphertext: (decrypted.append(1), single(ciphertext))[1],
        )
        outcomes = []
        for server_result in (live, codec.decode_value(codec.encode_value(live))):
            decrypted.clear()
            relation, false_positives = _client_postprocess(
                client,
                server_result,
                skewed_workload.relation_1.schema,
                skewed_workload.relation_2.schema,
                ("k",),
                result.artifacts["config"],
            )
            outcomes.append((relation, false_positives, sum(decrypted)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == result.global_result
        assert outcomes[0][2] == len(self.distinct_ids(live, 0)) + len(
            self.distinct_ids(live, 1)
        )

    def test_malformed_tables_fail_typed(self, delivered):
        _, live, _, _ = delivered
        rows_1, rows_2, positions = live.rows_1, live.rows_2, live.positions
        with pytest.raises(ProtocolError, match="position table"):
            ServerResult(rows_1, rows_2, positions[:-1])
        with pytest.raises(ProtocolError, match="past a row table"):
            ServerResult(rows_1[:-1], rows_2, positions)
        # A position past the end of its table, through the codec.
        encoded = codec.encode_value(live)
        out_of_range = encoded[:-4] + (len(rows_2)).to_bytes(4, "big")
        with pytest.raises(CodecError, match="das-server-result"):
            codec.decode_value(out_of_range)
