"""Tests for the Section-6 comparison measurements (E5-E7)."""

import pytest

from repro import CommutativeConfig, DASConfig, PMConfig
from repro.analysis.comparison import compare, measure, render

QUERY = "select * from R1 natural join R2"


@pytest.fixture(scope="module")
def rows(ca, client, workload):
    from repro import Federation
    from repro.mediation.access_control import allow_all

    def factory():
        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        return federation

    return compare(
        factory,
        QUERY,
        [
            ("das", DASConfig()),
            ("commutative", CommutativeConfig()),
            ("private-matching", PMConfig()),
        ],
    )


class TestInteractionClaims:
    """Section 6's interaction-count statements (E5)."""

    def test_das_client_interacts_twice(self, rows):
        assert rows[0].client_interactions == 2

    def test_others_client_interacts_once(self, rows):
        assert rows[1].client_interactions == 1
        assert rows[2].client_interactions == 1

    def test_das_sources_send_once(self, rows):
        assert rows[0].max_source_interactions == 1

    def test_other_sources_interact_twice(self, rows):
        assert rows[1].max_source_interactions == 2
        assert rows[2].max_source_interactions == 2


class TestClientDataClaims:
    """Section 6's client-received-data statements (E7)."""

    def test_das_client_receives_superset(self, rows, workload):
        das = rows[0]
        assert das.client_received_units >= das.exact_join_size

    def test_commutative_client_receives_exact_sets(self, rows, workload):
        commutative = rows[1]
        dom_1 = set(workload.relation_1.active_domain("k"))
        dom_2 = set(workload.relation_2.active_domain("k"))
        assert commutative.client_received_units == len(dom_1 & dom_2)

    def test_pm_client_receives_everything(self, rows, workload):
        pm = rows[2]
        n = len(workload.relation_1.active_domain("k"))
        m = len(workload.relation_2.active_domain("k"))
        assert pm.client_received_units == n + m

    def test_commutative_minimal_among_protocols(self, rows):
        commutative = rows[1]
        assert commutative.client_received_units <= rows[0].client_received_units
        assert commutative.client_received_units <= rows[2].client_received_units


class TestCostClaims:
    """Section 6's overall-efficiency ranking (E6)."""

    def test_pm_is_most_expensive_in_crypto_ops(self, rows):
        pm = rows[2]
        assert pm.crypto_operations > rows[0].crypto_operations
        assert pm.crypto_operations > rows[1].crypto_operations

    def test_pm_slowest_wall_clock(self, rows):
        # "this is quite expensive" - polynomial evaluation dominates.
        assert rows[2].total_seconds > rows[1].total_seconds

    def test_measurements_consistent(self, rows):
        for row in rows:
            assert row.total_bytes > 0
            assert row.total_messages >= 8
            assert row.exact_join_size == rows[0].exact_join_size


class TestRendering:
    def test_render_table(self, rows):
        text = render(rows)
        assert "protocol" in text
        assert "\ndas " in text
        assert len(text.splitlines()) == 2 + len(rows)

    def test_measure_idempotent(self, rows, ca, client, workload):
        from repro import Federation, run_join_query
        from repro.mediation.access_control import allow_all

        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        result = run_join_query(federation, QUERY, protocol="commutative")
        assert measure(result).protocol == measure(result).protocol
