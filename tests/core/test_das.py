"""Tests for the DAS delivery phase (Listing 2)."""

import dataclasses

import pytest

from repro import DASConfig, reference_join, run_join_query
from repro.core.das import ServerQuery
from repro.errors import ProtocolError
from repro.relational.conditions import Comparison, conjunction, disjunction
from repro.relational.datagen import WorkloadSpec, generate

QUERY = "select * from R1 natural join R2"


@pytest.fixture(scope="module")
def expected(workload):
    from repro.relational.algebra import natural_join

    return natural_join(workload.relation_1, workload.relation_2)


class TestCorrectness:
    @pytest.mark.parametrize("strategy", ["equi_depth", "singleton"])
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
        assert result.interaction_count(client.name, "mediator") == 2

    def test_sources_send_once(self, make_federation, workload):
        result = run_join_query(make_federation(workload), QUERY, protocol="das")
        for source in ("S1", "S2"):
            assert result.interaction_count(source, "mediator") == 1

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
            DASConfig(strategy="equi_width")

    def test_config_is_strategy_and_buckets(self):
        assert [f.name for f in dataclasses.fields(DASConfig)] == [
            "strategy", "buckets",
        ]
        assert DASConfig() == DASConfig(strategy="equi_depth", buckets=4)

    @pytest.mark.parametrize(
        "field, value",
        [("setting", "mediator"), ("mixed_plaintext_attributes", ("b",))],
    )
    def test_one_translator_placement_no_plaintext_attributes(self, field, value):
        with pytest.raises(TypeError):
            DASConfig(**{field: value})


class TestServerQueryCondition:
    def test_condition_formula(self):
        query = ServerQuery(pairs=((10, 20), (11, 21)))
        condition = query.condition("R1S", "R2S", "k")
        assert "R1S.k = 10" in condition and "R2S.k = 21" in condition
        assert "OR" in condition and "AND" in condition

    def test_empty_pairs_is_false(self):
        query = ServerQuery(pairs=())
        assert query.condition("R1S", "R2S", "k") == "FALSE"

    @pytest.mark.parametrize("pairs", [(), ((3, 4),), ((10, 20), (11, 21), (-1, 7))])
    def test_text_is_the_condition_ast_rendered(self, pairs):
        """The text is what the relational condition AST of Cond_S prints."""
        formula = disjunction(
            conjunction([
                Comparison("R1S.k", "=", index_1), Comparison("R2S.k", "=", index_2),
            ])
            for index_1, index_2 in pairs
        )
        assert ServerQuery(pairs=pairs).condition("R1S", "R2S", "k") == str(formula)