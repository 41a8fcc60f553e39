"""Hardened runs compute exactly the unhardened join — on every stack.

The whole point of the oblivious mode is that padding, dummy etuples,
and cover frames are *observable-only*: for all three delivery
protocols, over the in-process bus and real TCP sockets, with the
memory and SQLite storage backends, a hardened run's global result is
byte-identical to the plain reference join.  The dummy accounting in
the run artifacts proves the property is not vacuous — dummies were
injected, and none of them reached the client's relation.
"""

import pytest

from repro import Federation, reference_join, run_join_query
from repro.mediation.access_control import allow_all
from repro.relational.encoding import encode_relation
from repro.storage import MemoryBackend, SQLiteBackend
from repro.transport import RetryPolicy, TcpTransport

QUERY = "select * from R1 natural join R2"
PROTOCOLS = ["das", "commutative", "private-matching"]

POLICY = RetryPolicy(attempts=3, base_delay=0.05, connect_timeout=5.0,
                     io_timeout=30.0)


def build(ca, client, workload, storage=None, network=None):
    if network is None:
        federation = Federation(ca=ca, storage=storage)
    else:
        federation = Federation(ca=ca, network=network, storage=storage)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


def make_backend(kind, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    return SQLiteBackend(str(tmp_path / "hardened.db"))


@pytest.fixture
def expected(ca, client, workload):
    """Reference join bytes (computed once per test via plain eval)."""
    federation = build(ca, client, workload)
    return encode_relation(reference_join(federation, QUERY))


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("kind", ["memory", "sqlite"])
class TestHardenedBusEquivalence:
    def test_result_matches_reference_and_dummies_discarded(
        self, ca, client, workload, tmp_path, expected, kind, protocol
    ):
        backend = make_backend(kind, tmp_path)
        try:
            federation = build(ca, client, workload, storage=backend)
            result = run_join_query(
                federation, QUERY, protocol=protocol, hardening=True
            )
            assert encode_relation(result.global_result) == expected
            hardening = result.artifacts["hardening"]
            assert hardening["enabled"] is True
            # Padding really happened, and it never leaked into rows.
            assert hardening["padded_bytes_total"] > hardening["real_bytes_total"]
            assert hardening["overhead_factor"] > 1.0
            if protocol != "private-matching":
                # PM pads the side tables but has no framed result
                # channel; DAS and commutative deliver through cover.
                assert hardening["frames_total"] >= 1
        finally:
            backend.close()


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("kind", ["memory", "sqlite"])
class TestHardenedTcpEquivalence:
    def test_tcp_result_matches_reference(
        self, ca, client, workload, tmp_path, expected, kind, protocol
    ):
        backend = make_backend(kind, tmp_path)
        try:
            with TcpTransport(retry=POLICY) as transport:
                federation = build(
                    ca, client, workload, storage=backend, network=transport
                )
                result = run_join_query(
                    federation, QUERY, protocol=protocol, hardening=True
                )
                assert encode_relation(result.global_result) == expected
                assert result.artifacts["hardening"]["enabled"] is True
        finally:
            backend.close()


class TestDummiesNeverReachTheClient:
    @pytest.mark.parametrize("protocol", ["das", "commutative"])
    def test_dummies_injected_and_all_discarded(
        self, ca, client, skewed_workload, protocol
    ):
        """DAS and commutative inject dummy items on a skewed workload
        (uniform multiplicities sit exactly at the bucket bound and need
        none); the client must decrypt-and-discard every one of them."""
        plain = build(ca, client, skewed_workload)
        expected = encode_relation(reference_join(plain, QUERY))
        federation = build(ca, client, skewed_workload)
        result = run_join_query(
            federation, QUERY, protocol=protocol, hardening=True
        )
        assert result.artifacts["hardening"]["dummy_items_total"] > 0
        if protocol == "das":  # every injected dummy etuple, once
            assert (
                result.artifacts["dummy_rows_discarded"]
                == result.artifacts["hardening"]["dummy_items_total"]
            )
        else:  # |M_i| minted per source, the shortfall to min |M_i| used
            sizes = result.artifacts["active_domain_sizes"].values()
            assert result.artifacts["hardening"]["dummy_items_total"] == sum(sizes)
            assert result.artifacts["dummy_pairs_discarded"] == (
                min(sizes) - result.artifacts["intersection_size"]
            ) > 0
        assert encode_relation(result.global_result) == expected

    def test_unhardened_run_has_no_hardening_artifact(
        self, ca, client, workload
    ):
        federation = build(ca, client, workload)
        result = run_join_query(federation, QUERY, protocol="commutative")
        assert "hardening" not in result.artifacts
        assert "dummy_pairs_discarded" not in result.artifacts


class TestFederationLevelPolicy:
    def test_federation_level_policy_is_picked_up(
        self, ca, client, workload, expected
    ):
        """A federation-wide PaddingPolicy hardens runs by default."""
        from repro.hardening import PaddingPolicy

        federation = build(ca, client, workload)
        federation.hardening = PaddingPolicy(batch_size=8, quantum=16)
        result = run_join_query(federation, QUERY, protocol="commutative")
        assert result.artifacts["hardening"]["policy"]["quantum"] == 16
        assert encode_relation(result.global_result) == expected
