"""Tests for the DAS delivery phase (Listing 2)."""

import pytest

from repro import DASConfig, reference_join, run_join_query
from repro.core.das import ServerQuery
from repro.errors import ProtocolError
from repro.relational.datagen import WorkloadSpec, generate

QUERY = "select * from R1 natural join R2"


@pytest.fixture(scope="module")
def expected(workload):
    from repro.relational.algebra import natural_join

    return natural_join(workload.relation_1, workload.relation_2)


class TestCorrectness:
    @pytest.mark.parametrize("strategy", ["equi_depth", "equi_width", "singleton"])
    def test_matches_reference_all_strategies(
        self, make_federation, workload, expected, strategy
    ):
        result = run_join_query(
            make_federation(workload),
            QUERY,
            protocol="das",
            config=DASConfig(strategy=strategy, buckets=3),
        )
        assert result.global_result == expected

    @pytest.mark.parametrize("buckets", [1, 2, 5, 100])
    def test_matches_reference_all_bucket_counts(
        self, make_federation, workload, expected, buckets
    ):
        result = run_join_query(
            make_federation(workload),
            QUERY,
            protocol="das",
            config=DASConfig(buckets=buckets),
        )
        assert result.global_result == expected

    def test_string_join_attribute(self, make_federation, string_workload):
        federation = make_federation(string_workload)
        query = "select * from clinic natural join lab"
        result = run_join_query(federation, query, protocol="das")
        assert result.global_result == reference_join(
            make_federation(string_workload), query
        )

    def test_empty_intersection(self, make_federation):
        workload = generate(WorkloadSpec(domain_1=4, domain_2=4, overlap=0, seed=3))
        result = run_join_query(
            make_federation(workload), QUERY, protocol="das"
        )
        assert len(result.global_result) == 0

    def test_mediator_setting_same_result(
        self, make_federation, workload, expected
    ):
        result = run_join_query(
            make_federation(workload),
            QUERY,
            protocol="das",
            config=DASConfig(setting="mediator"),
        )
        assert result.global_result == expected

    def test_source_setting_same_result(
        self, make_federation, workload, expected
    ):
        result = run_join_query(
            make_federation(workload),
            QUERY,
            protocol="das",
            config=DASConfig(setting="source"),
        )
        assert result.global_result == expected
        assert result.artifacts["translator_source"] == "S1"

    def test_source_setting_client_interacts_once(
        self, make_federation, workload, client
    ):
        """The source setting removes the client's translation round
        trip: one interaction, like the non-DAS protocols."""
        result = run_join_query(
            make_federation(workload),
            QUERY,
            protocol="das",
            config=DASConfig(setting="source"),
        )
        assert result.network.interaction_count(client.name, "mediator") == 1

    def test_source_setting_flow_conforms(self, make_federation, workload):
        from repro.analysis.conformance import check_flow

        result = run_join_query(
            make_federation(workload),
            QUERY,
            protocol="das",
            config=DASConfig(setting="source"),
        )
        flow = check_flow(result)
        assert flow.conforms, flow.mismatches

    def test_source_setting_table_unreadable_by_mediator(
        self, make_federation, string_workload
    ):
        """The opposite index table travels encrypted for the translator
        source, so the mediator still sees no partition contents."""
        from repro.analysis.leakage import verify_no_plaintext_leak

        result = run_join_query(
            make_federation(string_workload),
            "select * from clinic natural join lab",
            protocol="das",
            config=DASConfig(setting="source"),
        )
        leaks = verify_no_plaintext_leak(
            result, [string_workload.relation_1, string_workload.relation_2]
        )
        assert leaks == []

    def test_mixed_model_same_result(self, make_federation, workload, expected):
        result = run_join_query(
            make_federation(workload),
            QUERY,
            protocol="das",
            config=DASConfig(mixed_plaintext_attributes=("r1_p0", "r2_p0")),
        )
        assert result.global_result == expected


@pytest.mark.parametrize("carrier", ["bus", "tcp"])
def test_source_setting_answers_a_series_of_queries(ca, client, workload, carrier):
    """One federation answers three source-setting queries with a key
    rotation between them; the translator must be handed *this* query's
    index table, not the first one the transcript holds."""
    from repro import Federation
    from repro.mediation.access_control import allow_all
    from repro.mediation.network import Network
    from repro.storage import MemoryBackend
    from repro.transport import RetryPolicy, TcpTransport

    network = (
        TcpTransport(retry=RetryPolicy(io_timeout=30.0))
        if carrier == "tcp" else Network()
    )
    federation = Federation(ca=ca, network=network, storage=MemoryBackend())
    try:
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        config = DASConfig(setting="source", buckets=4)
        for query in range(3):
            if query:
                for source in ("S1", "S2"):
                    federation.source(source).rotate_keys()
            result = run_join_query(federation, QUERY, protocol="das", config=config)
            assert len(result.global_result) > 0
            assert result.global_result == reference_join(federation, QUERY)
    finally:
        federation.network.close()


class TestSupersetSemantics:
    def test_server_result_is_superset(self, make_federation, workload, expected):
        result = run_join_query(
            make_federation(workload),
            QUERY,
            protocol="das",
            config=DASConfig(buckets=2),
        )
        assert result.artifacts["server_result_size"] >= len(expected)
        assert (
            result.artifacts["server_result_size"]
            == len(expected) + result.artifacts["false_positives"]
        )

    def test_singleton_partitioning_no_false_positives(
        self, make_federation, workload
    ):
        result = run_join_query(
            make_federation(workload),
            QUERY,
            protocol="das",
            config=DASConfig(strategy="singleton"),
        )
        assert result.artifacts["false_positives"] == 0

    def test_coarser_buckets_more_false_positives(self, make_federation, workload):
        fine = run_join_query(
            make_federation(workload), QUERY, protocol="das",
            config=DASConfig(buckets=50),
        )
        coarse = run_join_query(
            make_federation(workload), QUERY, protocol="das",
            config=DASConfig(buckets=1),
        )
        assert (
            coarse.artifacts["false_positives"]
            >= fine.artifacts["false_positives"]
        )


class TestProtocolShape:
    def test_flow_kinds(self, make_federation, workload):
        result = run_join_query(make_federation(workload), QUERY, protocol="das")
        kinds = [m.kind for m in result.network.transcript]
        assert kinds == [
            "global_query",
            "partial_query",
            "partial_query",
            "das_encrypted_partial_result",
            "das_encrypted_partial_result",
            "das_encrypted_index_tables",
            "das_server_query",
            "das_server_result",
        ]

    def test_client_interacts_twice(self, make_federation, workload, client):
        result = run_join_query(make_federation(workload), QUERY, protocol="das")
        assert result.network.interaction_count(client.name, "mediator") == 2

    def test_sources_send_once(self, make_federation, workload):
        result = run_join_query(make_federation(workload), QUERY, protocol="das")
        for source in ("S1", "S2"):
            assert result.network.interaction_count(source, "mediator") == 1

    def test_cond_s_artifact_rendered(self, make_federation, workload):
        result = run_join_query(make_federation(workload), QUERY, protocol="das")
        cond_s = result.artifacts["cond_s"]
        assert "R1S" in cond_s or "FALSE" == cond_s

    def test_multi_attribute_rejected(self, make_federation, ca, client):
        from repro import Federation
        from repro.mediation.access_control import allow_all
        from repro.relational.relation import Relation
        from repro.relational.schema import schema

        federation = Federation(ca=ca)
        r1 = Relation(schema("A", k="int", t="int", a="string"), [(1, 2, "x")])
        r2 = Relation(schema("B", k="int", t="int", b="string"), [(1, 2, "y")])
        federation.add_source("SA", [(r1, allow_all())])
        federation.add_source("SB", [(r2, allow_all())])
        federation.attach_client(client)
        with pytest.raises(ProtocolError):
            run_join_query(
                federation, "select * from A natural join B", protocol="das"
            )

    def test_bad_config_rejected(self):
        with pytest.raises(ProtocolError):
            DASConfig(strategy="nope")
        with pytest.raises(ProtocolError):
            DASConfig(setting="nope")

    def test_unknown_mixed_attribute_rejected(self, make_federation, workload):
        with pytest.raises(ProtocolError):
            run_join_query(
                make_federation(workload),
                QUERY,
                protocol="das",
                config=DASConfig(mixed_plaintext_attributes=("ghost",)),
            )

    def test_join_attribute_must_stay_sensitive(self, make_federation, workload):
        with pytest.raises(ProtocolError):
            run_join_query(
                make_federation(workload),
                QUERY,
                protocol="das",
                config=DASConfig(mixed_plaintext_attributes=("k",)),
            )


class TestServerQueryCondition:
    def test_condition_formula(self):
        query = ServerQuery(pairs=((10, 20), (11, 21)))
        condition = str(query.condition("R1S", "R2S", "k"))
        assert "R1S.k = 10" in condition and "R2S.k = 21" in condition
        assert "OR" in condition and "AND" in condition

    def test_empty_pairs_is_false(self):
        query = ServerQuery(pairs=())
        assert str(query.condition("R1S", "R2S", "k")) == "FALSE"
