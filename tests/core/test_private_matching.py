"""Tests for the private-matching delivery phase (Listing 4)."""

import pytest

from repro import PMConfig, run_join_query, setup_client
from repro.errors import ProtocolError
from repro.relational.algebra import natural_join
from repro.relational.datagen import WorkloadSpec, generate

QUERY = "select * from R1 natural join R2"


@pytest.fixture(scope="module")
def expected(workload):
    return natural_join(workload.relation_1, workload.relation_2)


class TestCorrectness:
    def test_session_key_mode(self, make_federation, workload, expected):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="private-matching"
        )
        assert result.global_result == expected

    def test_inline_mode(self, make_federation, workload, expected):
        result = run_join_query(
            make_federation(workload),
            QUERY,
            protocol="private-matching",
            config=PMConfig(payload_mode="inline"),
        )
        assert result.global_result == expected

    def test_string_join(self, make_federation, string_workload):
        result = run_join_query(
            make_federation(string_workload),
            "select * from clinic natural join lab",
            protocol="private-matching",
        )
        assert result.global_result == natural_join(
            string_workload.relation_1, string_workload.relation_2
        )

    def test_empty_intersection(self, make_federation):
        workload = generate(WorkloadSpec(domain_1=4, domain_2=4, overlap=0, seed=3))
        result = run_join_query(
            make_federation(workload), QUERY, protocol="private-matching"
        )
        assert len(result.global_result) == 0
        assert result.artifacts["matched_keys"] == 0

    def test_full_overlap(self, make_federation, expected):
        workload = generate(WorkloadSpec(domain_1=5, domain_2=5, overlap=5, seed=6))
        result = run_join_query(
            make_federation(workload), QUERY, protocol="private-matching"
        )
        assert result.global_result == natural_join(
            workload.relation_1, workload.relation_2
        )

    def test_multi_attribute_join(self, ca, client):
        from repro import Federation
        from repro.mediation.access_control import allow_all
        from repro.relational.relation import Relation
        from repro.relational.schema import schema

        r1 = Relation(
            schema("A", k="int", t="string", a="string"),
            [(1, "x", "a1"), (2, "y", "a2")],
        )
        r2 = Relation(
            schema("B", k="int", t="string", b="string"),
            [(1, "x", "b1"), (2, "z", "b2")],
        )
        federation = Federation(ca=ca)
        federation.add_source("SA", [(r1, allow_all())])
        federation.add_source("SB", [(r2, allow_all())])
        federation.attach_client(client)
        result = run_join_query(
            federation, "select * from A natural join B",
            protocol="private-matching",
        )
        assert result.global_result == natural_join(r1, r2)


class TestDegenerateDomains:
    """An empty active domain is the degree-0 polynomial (no coefficient
    is shipped, every evaluation is masked garbage); one value is degree
    1, whose Horner is the leading plaintext addition alone."""

    @pytest.mark.parametrize("carrier", ["bus", "tcp"])
    @pytest.mark.parametrize("hardened", [False, True])
    @pytest.mark.parametrize(
        "rows_1, rows_2",
        [
            ([], [(1, "b1")]),
            ([(1, "a1")], []),
            ([], []),
            ([(1, "a1")], [(1, "b1"), (1, "b2"), (2, "b3")]),
            ([(1, "a1"), (3, "a3")], [(3, "b3")]),
        ],
    )
    def test_matches_plaintext_join(
        self, ca, client, rows_1, rows_2, hardened, carrier
    ):
        from repro import Federation
        from repro.mediation.access_control import allow_all
        from repro.relational.relation import Relation
        from repro.relational.schema import schema
        from repro.transport import TcpTransport

        r1 = Relation(schema("R1", k="int", a="string"), rows_1)
        r2 = Relation(schema("R2", k="int", b="string"), rows_2)
        network = TcpTransport() if carrier == "tcp" else None
        try:
            federation = (
                Federation(ca=ca) if network is None
                else Federation(ca=ca, network=network)
            )
            federation.add_source("S1", [(r1, allow_all())])
            federation.add_source("S2", [(r2, allow_all())])
            federation.attach_client(client)
            result = run_join_query(
                federation, QUERY, protocol="private-matching",
                hardening=True if hardened else None,
            )
        finally:
            if network is not None:
                network.close()
        assert result.global_result == natural_join(r1, r2)
        assert result.artifacts["polynomial_degrees"] == {
            "S1": len({row[0] for row in rows_1}),
            "S2": len({row[0] for row in rows_2}),
        }
        shipped = [
            len(m.body) for m in result.network.transcript
            if m.kind == "pm_encrypted_coefficients" and m.receiver == "mediator"
        ]
        assert shipped == list(result.artifacts["polynomial_degrees"].values())


class TestRequirements:
    def test_client_without_homomorphic_key_rejected(
        self, ca, make_federation, workload
    ):
        federation = make_federation(workload, attach_client=False)
        bare_client = setup_client(ca, "bare", {("role", "x")}, rsa_bits=1024)
        federation.attach_client(bare_client)
        with pytest.raises(ProtocolError):
            run_join_query(federation, QUERY, protocol="private-matching")

    def test_bad_payload_mode_rejected(self):
        with pytest.raises(ProtocolError):
            PMConfig(payload_mode="nope")


class TestArtifacts:
    def test_polynomial_degrees_equal_domain_sizes(self, make_federation, workload):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="private-matching"
        )
        degrees = result.artifacts["polynomial_degrees"]
        assert degrees["S1"] == len(workload.relation_1.active_domain("k"))
        assert degrees["S2"] == len(workload.relation_2.active_domain("k"))

    def test_evaluation_counts(self, make_federation, workload):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="private-matching"
        )
        sent = result.artifacts["evaluations_sent"]
        assert sent["S1"] == len(workload.relation_1.active_domain("k"))
        assert sent["S2"] == len(workload.relation_2.active_domain("k"))

    def test_recovered_exactly_intersection(self, make_federation, workload):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="private-matching"
        )
        dom_1 = set(workload.relation_1.active_domain("k"))
        dom_2 = set(workload.relation_2.active_domain("k"))
        recovered = result.artifacts["recovered_payloads"]
        assert recovered["S1"] == len(dom_1 & dom_2)
        assert recovered["S2"] == len(dom_1 & dom_2)
        assert result.artifacts["matched_keys"] == len(dom_1 & dom_2)


class TestProtocolShape:
    def test_flow_kinds_session_mode(self, make_federation, workload):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="private-matching"
        )
        kinds = [m.kind for m in result.network.transcript]
        assert kinds.count("pm_encrypted_coefficients") == 4  # 2 in, 2 out
        assert kinds.count("pm_side_table") == 2
        assert kinds[-1] == "pm_side_tables"

    def test_flow_kinds_inline_mode(self, make_federation, workload):
        result = run_join_query(
            make_federation(workload),
            QUERY,
            protocol="private-matching",
            config=PMConfig(payload_mode="inline"),
        )
        kinds = [m.kind for m in result.network.transcript]
        assert "pm_side_table" not in kinds
        assert "pm_side_tables" not in kinds

    def test_client_interacts_once(self, make_federation, workload, client):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="private-matching"
        )
        assert result.network.interaction_count(client.name, "mediator") == 1

    def test_sources_interact_twice(self, make_federation, workload):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="private-matching"
        )
        for source in ("S1", "S2"):
            assert result.network.interaction_count(source, "mediator") == 2

    def test_client_receives_n_plus_m_values(self, make_federation, workload,
                                             client):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="private-matching"
        )
        n = len(workload.relation_1.active_domain("k"))
        m = len(workload.relation_2.active_domain("k"))
        evaluations = [
            message
            for message in result.network.view(client.name).received
            if message.kind == "pm_evaluations"
        ]
        total = sum(len(values) for values in evaluations[0].body.values())
        assert total == n + m
