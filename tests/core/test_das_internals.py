"""White-box tests for DAS delivery internals."""

import struct

import pytest

from repro import Federation, reference_join, run_join_query
from repro.analysis.views import iter_byte_material
from repro.core import das
from repro.core.das import (
    DASConfig,
    EncryptedRelation,
    EncryptedRows,
    ServerQuery,
    ServerResult,
    _client_postprocess,
    _evaluate_server_query,
    _partition_domain,
)
from repro.crypto import hybrid
from repro.errors import CodecError, DecryptionError, ProtocolError
from repro.mediation.access_control import allow_all
from repro.mediation.network import Network
from repro.mediation.sizing import estimate_size
from repro.relational import encoding
from repro.relational.encoding import (
    encode_relation,
    encode_row,
    encode_rows,
    frame_rows,
)
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.storage import (
    IndexCache,
    MemoryBackend,
    SQLiteBackend,
    relation_fingerprint,
)
from repro.transport import TcpTransport, codec

from tests.transport import reference_codec as reference


class TestPartitionDomain:
    DOMAIN = (1, 3, 5, 7, 9, 11)

    def test_singleton(self):
        partitions = _partition_domain(
            DASConfig(strategy="singleton"), self.DOMAIN
        )
        assert len(partitions) == 6

    def test_equi_depth_respects_buckets(self):
        partitions = _partition_domain(
            DASConfig(strategy="equi_depth", buckets=3), self.DOMAIN
        )
        assert len(partitions) == 3


class TestServerQueryEvaluation:
    @pytest.fixture(scope="class")
    def encrypted(self, rsa_key):
        keys = [rsa_key.public_key()]

        def relation(source, name, rows):
            """``(index value, k)`` rows under one session of their own."""
            session = hybrid.new_session(keys)
            return EncryptedRelation(source, name, EncryptedRows(
                session.encapsulation,
                tuple(
                    session.encrypt(encode_row((k, "x", "y"))).body
                    for _, k in rows
                ),
                tuple(index_value for index_value, _ in rows),
                tuple,
            ))

        left = relation("S1", "R1", ((10, 1), (10, 2), (20, 3)))
        right = relation("S2", "R2", ((100, 1), (200, 3), (200, 4)))
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
        assert pair_bodies(repeated) == pair_bodies(once)
        assert len(set(pair_bodies(repeated))) == len(repeated)

    @pytest.mark.parametrize(
        "pairs",
        [(), ((10, 100),), ((20, 200), (10, 100)), ((10, 200), (20, 200), (10, 200)),
         ((10, 300), (10, 200), (10, 100), (20, 100))],
    )
    def test_row_tables_follow_the_pair_order(self, encrypted, pairs):
        query = ServerQuery(pairs=pairs)
        result = _evaluate_server_query(query, *encrypted)
        rows_1, rows_2, positions = reference_row_tables(query, *encrypted)
        assert bodies(result.rows_1) == bodies(rows_1)
        assert bodies(result.rows_2) == bodies(rows_2)
        assert result.positions == positions

    def test_no_pairs_no_output(self, encrypted):
        left, right = encrypted
        assert len(
            _evaluate_server_query(ServerQuery(pairs=()), left, right)
        ) == 0


def bodies(rows) -> list[bytes]:
    """A table's ``(etuple, index_value)`` rows by their DEM bodies: each
    body has a nonce of its own, so it names its row."""
    return [etuple.body for etuple, _ in rows]


def pair_bodies(server_result) -> list[tuple[bytes, bytes]]:
    """R_C's pairs, each by its two rows' DEM bodies, read off the
    position table."""
    flat = struct.unpack(
        f">{len(server_result.positions) // 4}I", server_result.positions
    )
    return [
        (server_result.rows_1.bodies[i], server_result.rows_2.bodies[j])
        for i, j in zip(flat[0::2], flat[1::2])
    ]


def reference_row_tables(query, relation_1, relation_2):
    """The R_C layout the pair list used to produce: the pairs by a
    nested loop over R1^S's rows, then each side's distinct rows (by
    body, in order of first appearance) and the packed positions."""
    pairs = []
    wanted = {}
    for index_1, index_2 in query.pairs:
        wanted.setdefault(index_1, {})[index_2] = None
    for row_1 in relation_1.rows:
        for index_2 in wanted.get(row_1[1], ()):
            for row_2 in relation_2.rows:
                if row_2[1] == index_2:
                    pairs.append((row_1, row_2))
    tables = []
    for side in (0, 1):
        distinct = {}
        for pair in pairs:
            distinct.setdefault(pair[side][0].body, (len(distinct), pair[side]))
        tables.append(distinct)
    flat = [
        tables[side][pair[side][0].body][0]
        for pair in pairs for side in (0, 1)
    ]
    return (
        [row for _, row in tables[0].values()],
        [row for _, row in tables[1].values()],
        struct.pack(f">{len(flat)}I", *flat),
    )


class TestServerResultRowTables:
    """R_C is held and travels as two tables of distinct rows plus
    (i, j) positions."""

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
        (message,) = [m for m in result.messages if m.kind == "das_server_result"]
        (query,) = [m for m in result.messages if m.kind == "das_server_query"]
        partials = [
            m.body["relation"]
            for m in result.messages
            if m.kind == "das_encrypted_partial_result"
        ]
        return result, message.body, query.body, partials

    @staticmethod
    def distinct_ids(server_result, side):
        """The distinct rows one side of R_C's pairs names, by body."""
        return {pair[side] for pair in pair_bodies(server_result)}

    def test_tables_hold_each_row_once_and_positions_rebuild_the_pairs(
        self, delivered
    ):
        _, live, query, partials = delivered
        rows_1, rows_2, positions = live.rows_1, live.rows_2, live.positions
        assert len(positions) == 8 * len(live)
        assert len(set(bodies(rows_1))) == len(rows_1)
        assert set(bodies(rows_1)) == self.distinct_ids(live, 0)
        assert set(bodies(rows_2)) == self.distinct_ids(live, 1)
        # Every row repeats on this workload — the case the pair list
        # used to pay for once per occurrence.
        assert len(live) > 3 * max(len(rows_1), len(rows_2))
        # The mediator builds the tables in the order the pair list
        # implied, so the das-server-result frame is unchanged.
        reference = reference_row_tables(query, *partials)
        assert bodies(rows_1) == bodies(reference[0])
        assert bodies(rows_2) == bodies(reference[1])
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
        one_row = len(codec.encode_value(live.rows_1[:1]))
        assert len(encoded) < rows * one_row + 8 * len(live) + 64

    def test_postprocessing_a_decoded_result_decrypts_no_more_than_the_live_one(
        self, delivered, client, skewed_workload, monkeypatch
    ):
        result, live, _, _ = delivered
        decrypted: list[int] = []
        batch, single = client.decrypt_hybrid_many, client.decrypt_hybrid
        table = client.decrypt_hybrid_bodies
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
        monkeypatch.setattr(
            client, "decrypt_hybrid_bodies",
            lambda encapsulation, bodies, *args: (
                decrypted.append(len(bodies)),
                table(encapsulation, bodies, *args),
            )[1],
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


class TestRowsEncodedOnce:
    """The ``itable:`` slot's fingerprint comes from the etuple step's
    row encodings, and has the bytes the relation's own encoding gives."""

    RELATION = Relation(
        schema("R", b="bool", i="int", s="string"),
        [(True, -7, "é中😀"), (False, 2**63 + 5, ""), (True, 0, "plain")],
    )

    @pytest.mark.parametrize("relation, pinned", [
        (RELATION, "25534add173f6bc8f550430767ea0f90"),
        (Relation(schema("E", i="int"), []), "3d84cbb8129d0abcb0f4ec28ec0a6bde"),
    ])
    def test_the_fingerprint_of_the_encodings_is_pinned(self, relation, pinned):
        encoded = [encode_row(row) for row in relation.rows]
        assert relation_fingerprint(relation, encoded).hex() == pinned
        assert relation_fingerprint(relation).hex() == pinned
        assert frame_rows(encoded) == encode_rows(relation.rows)

    def test_a_cached_source_encodes_each_row_once(
        self, rsa_key, monkeypatch
    ):
        calls = []

        def counted(row):
            calls.append(row)
            return encode_row(row)

        monkeypatch.setattr(das, "encode_row", counted)
        monkeypatch.setattr(encoding, "encode_row", counted)
        cache = IndexCache(MemoryBackend(), "S1")
        for _ in range(2):
            calls.clear()
            das._encrypt_source(
                "S1", self.RELATION, "i", DASConfig(buckets=2),
                [rsa_key.public_key()], cache=cache,
            )
            assert sorted(calls) == sorted(self.RELATION.rows)
        assert cache.stats.as_dict() == {
            "hits": 2, "misses": 2, "puts": 2, "errors": 0,
        }


class TestNoCiphertextPerRow:
    """A DAS query carries R_i^S and R_C as columns from the source that
    builds them to the socket and on to the client's DEM: the one
    ``HybridCiphertext`` per source is its encrypted index table."""

    @pytest.mark.parametrize("carrier", ["bus", "tcp+sqlite"])
    @pytest.mark.parametrize("hardened", [False, True], ids=["plain", "hardened"])
    def test_a_query_builds_no_ciphertext_per_row(
        self, ca, client, workload, monkeypatch, tmp_path, carrier, hardened
    ):
        if carrier == "bus":
            network, storage = Network(), None
        else:
            network = TcpTransport()
            storage = SQLiteBackend(str(tmp_path / "das.db"))
        built: list[type] = []

        def counting(cls):
            original = cls.__init__

            def counted(self, *args, **kwargs):
                built.append(cls)
                original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)

        try:
            federation = Federation(ca=ca, network=network, storage=storage)
            federation.add_source("S1", [(workload.relation_1, allow_all())])
            federation.add_source("S2", [(workload.relation_2, allow_all())])
            federation.attach_client(client)
            query = "select * from R1 natural join R2"
            expected = encode_relation(reference_join(federation, query))
            counting(hybrid.HybridCiphertext)
            result = run_join_query(
                federation, query, protocol="das", hardening=hardened or None
            )
            monkeypatch.undo()
            assert encode_relation(result.global_result) == expected
            assert built == [hybrid.HybridCiphertext] * 2  # the index tables
            bodies = [
                m.body for m in result.messages
                if m.kind in ("das_encrypted_partial_result", "das_server_result")
            ]
            rows = [
                table
                for body in bodies
                for table in (
                    (body["relation"].rows,) if type(body) is dict
                    else (body.rows_1, body.rows_2)
                    if type(body) is ServerResult else (body,)
                )
            ]
            assert len(rows) >= 4  # two R_i^S, then R_C's tables or frames
            assert all(type(table) is EncryptedRows for table in rows)
            assert sum(map(len, rows)) > 0
            built.clear()
            counting(hybrid.HybridCiphertext)
            assert len(list(rows[0])) == len(built) > 0  # the count counts
        finally:
            network.close()


def one_session_rows(rsa_key, count: int, first_index: int = 0) -> EncryptedRows:
    """``count`` rows of one source: etuples under one session."""
    session = hybrid.new_session([rsa_key.public_key()])
    return EncryptedRows(
        session.encapsulation,
        tuple(session.encrypt(b"row-%d" % i).body for i in range(count)),
        tuple(range(first_index, first_index + count)),
    )


class TestRowsAsColumns:
    """R_i^S, R_C's tables and the hardened frames are columns under one
    encapsulation; a handler refuses any other body, never reading it
    as rows."""

    def test_rows_read_as_their_pairs(self, rsa_key):
        rows = one_session_rows(rsa_key, 5, first_index=10)
        pairs = [
            (hybrid.HybridCiphertext(rows.encapsulation, body), index)
            for body, index in zip(rows.bodies, rows.index_values)
        ]
        assert list(rows) == pairs and rows == tuple(pairs)
        assert rows[1] == pairs[1] and rows[-1] == pairs[-1]
        assert rows[1:3] == pairs[1:3] and type(rows[1:3]) is EncryptedRows
        assert rows.select([4, 1]) == [pairs[4], pairs[1]]
        result = ServerResult(rows, rows[:2], struct.pack(">2I", 4, 1))
        assert pair_bodies(result) == [(rows.bodies[4], rows.bodies[1])]

    def test_more_than_two_sessions_are_refused(self, rsa_key):
        frames = [one_session_rows(rsa_key, 2) for _ in range(3)]
        with pytest.raises(ProtocolError, match="more than two sessions"):
            das._client_hash_join(None, frames, (), "k", None, None)

    def test_rows_under_no_encapsulation_are_refused(self, client):
        with pytest.raises(ProtocolError, match="no encapsulation"):
            EncryptedRows(None, (b"body",), (7,))
        with pytest.raises(DecryptionError, match="no encapsulation"):
            client.decrypt_hybrid_bodies(None, [b"body"])
        assert client.decrypt_hybrid_bodies(None, []) == []

    @pytest.mark.parametrize(
        "body", [{"rows": ()}, b"rows", 7, None, [(b"etuple", 7)]],
        ids=["dict", "bytes", "int", "none", "pairs"],
    )
    def test_a_body_that_is_no_table_is_refused(self, body):
        with pytest.raises(ProtocolError, match="encrypted rows are a"):
            das._rows(body)
        with pytest.raises(ProtocolError, match="encrypted rows are a"):
            das._client_hash_join(None, [body], (), "k", None, None)
        codec._bootstrap()
        # R_i^S whose rows are no table, as the wire would carry it.
        forged = codec._BY_CLS[EncryptedRelation].header + codec.encode_value(
            ("S1", "R1", body)
        )
        with pytest.raises(CodecError, match="das-relation"):
            codec.decode_value(forged)

    @pytest.mark.parametrize("empty", [[], ()])
    def test_an_empty_sequence_is_the_empty_table(self, empty):
        """The empty table has no wire type: it is written as ``[]`` or
        ``()``, decodes as that, and a handler — and the decoder, inside
        R_i^S and R_C — takes it as the empty table."""
        for container in (list, tuple):
            rows = das._rows(empty, container)
            assert type(rows) is EncryptedRows and rows.container is container
            assert rows.encapsulation is None and len(rows) == 0
            table = EncryptedRows(None, (), (), container)
            assert codec.encode_value(table) == codec.encode_value(container())
        relation = EncryptedRelation("S1", "R1", EncryptedRows(None, (), (), tuple))
        decoded = codec.decode_value(codec.encode_value(relation))
        assert decoded == relation
        assert type(decoded.rows) is EncryptedRows and decoded.rows.container is tuple
        result = ServerResult(
            EncryptedRows(None, (), ()), EncryptedRows(None, (), ()), b""
        )
        decoded = codec.decode_value(codec.encode_value(result))
        assert decoded == result
        assert type(decoded.rows_1) is type(decoded.rows_2) is EncryptedRows

    def test_through_the_codec_mixed_rows_never_decode(self, rsa_key):
        """Rows under two sessions, written as the wire writes a
        das-relation: the decoder refuses the payload."""
        mixed = list(one_session_rows(rsa_key, 2)) + list(one_session_rows(rsa_key, 1))
        codec._bootstrap()
        forged = (
            codec._BY_CLS[EncryptedRelation].header
            + codec._HEAD(codec._T_TUPLE, 3)
            + codec.encode_value("S1") + codec.encode_value("R1")
            + reference.encode_records(reference.ROW_RECORD, mixed, tuple)
        )
        with pytest.raises(CodecError, match="more than one encapsulation"):
            codec.decode_value(forged)

    def test_the_bus_estimate_is_the_estimate_of_the_pairs(self, rsa_key):
        rows = das._rows(one_session_rows(rsa_key, 6), tuple)
        relation = EncryptedRelation("S1", "R1", rows)
        table = hybrid.HybridCiphertext(rows.encapsulation, b"index table")
        assert estimate_size({"relation": relation, "index_table": table}) == (
            estimate_size({"relation": ("S1", "R1", tuple(rows)),
                           "index_table": table})
        )
        result = ServerResult(
            das._rows(rows), das._rows(rows[2:]), struct.pack(">2I", 5, 0)
        )
        assert estimate_size(result) == estimate_size(
            (list(rows), list(rows[2:]), result.positions)
        )
        for frame in (rows[:4], rows[4:], rows[:0]):
            assert estimate_size(frame) == estimate_size(list(frame))
        assert list(iter_byte_material(relation)) == list(
            iter_byte_material(("S1", "R1", tuple(rows)))
        )
