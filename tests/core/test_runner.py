"""Tests for the end-to-end runner and federation wiring."""

import dataclasses

import pytest

from repro import (
    CommutativeConfig,
    DASConfig,
    Federation,
    RunFailure,
    reference_join,
    run_join_query,
    setup_client,
)
from repro.core.runner import PROTOCOLS
from repro.crypto import backend
from repro.errors import AccessDenied, MediationError, ProtocolError, QueryError
from repro.mediation import datasource
from repro.mediation.access_control import allow_all, require
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.session import session_scope
from repro.transport import RetryPolicy, TcpTransport

QUERY = "select * from R1 natural join R2"


def _strings_in(obj):
    """Every string reachable in ``obj``: containers, dataclass fields,
    exception arguments and a relation's rows."""
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, Relation):
        yield from _strings_in(list(obj.rows))
    elif isinstance(obj, BaseException):
        yield from _strings_in(obj.args)
    elif isinstance(obj, dict):
        yield from _strings_in(list(obj.items()))
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            yield from _strings_in(item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            yield from _strings_in(getattr(obj, field.name))


class TestRunner:
    def test_unknown_protocol(self, federation):
        with pytest.raises(ProtocolError):
            run_join_query(federation, QUERY, protocol="quantum")

    def test_config_type_checked(self, federation):
        with pytest.raises(ProtocolError):
            run_join_query(
                federation, QUERY, protocol="das", config=CommutativeConfig()
            )

    def test_registry_complete(self):
        assert set(PROTOCOLS) == {"das", "commutative", "private-matching"}

    def test_result_metadata(self, make_federation, workload):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        assert result.query == QUERY
        assert result.protocol == "commutative"
        assert result.total_seconds() > 0
        assert result.total_bytes() > 0
        assert "protocol: commutative" in result.summary()

    def test_crypto_artifact_names_the_arithmetic(
        self, make_federation, workload
    ):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        host = "python" if backend.gmp is None else "gmp"
        assert result.artifacts["crypto"] == {"bigint": host}

    def test_timings_per_party(self, make_federation, workload, client):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="das",
            config=DASConfig(),
        )
        parties = {timing.party for timing in result.timings}
        assert {client.name, "S1"} <= parties
        assert all(timing.seconds > 0 for timing in result.timings)

    def test_reference_join_matches_projection_query(
        self, make_federation, workload
    ):
        query = "select k from R1 natural join R2 where k >= 0"
        reference = reference_join(make_federation(workload), query)
        assert reference.schema.names() == ("k",)

    @pytest.mark.parametrize("carrier", ["bus", "tcp"])
    def test_reference_join_sends_nothing(self, ca, client, workload, carrier):
        network = (
            TcpTransport(retry=TestChainQueries.TCP_POLICY)
            if carrier == "tcp" else None
        )
        federation = (
            Federation(ca=ca) if network is None
            else Federation(ca=ca, network=network)
        )
        try:
            federation.add_source("S1", [(workload.relation_1, allow_all())])
            federation.add_source("S2", [(workload.relation_2, allow_all())])
            federation.attach_client(client)
            result = run_join_query(federation, QUERY)
            before = federation.network.message_count()
            reference = reference_join(federation, QUERY)
            assert federation.network.message_count() == before
            assert reference == result.global_result
        finally:
            federation.network.close()


class TestFederation:
    def test_duplicate_source_rejected(self, federation, workload):
        with pytest.raises(MediationError):
            federation.add_source("S1", [(workload.relation_1, allow_all())])

    def test_second_client_rejected(self, federation, client):
        with pytest.raises(MediationError):
            federation.attach_client(client)

    def test_unknown_source_lookup(self, federation):
        with pytest.raises(MediationError):
            federation.source("S99")

    def test_require_client_without_client(self, make_federation, workload):
        federation = make_federation(workload, attach_client=False)
        with pytest.raises(MediationError):
            federation.require_client()

    def test_parties_registered_on_bus(self, federation, client):
        assert set(federation.network.parties()) == {
            "mediator",
            "S1",
            "S2",
            client.name,
        }


class TestTransportSession:
    """A run without a ``session_id`` runs in the enclosing scope, or
    else in the transport's own session."""

    @pytest.fixture
    def verified(self, monkeypatch):
        calls = []
        original = datasource.verify_credential

        def counted(credential, ca_key):
            calls.append(credential.signature)
            return original(credential, ca_key)

        monkeypatch.setattr(datasource, "verify_credential", counted)
        return calls

    def test_bus_runs_verify_each_credential_once(
        self, make_federation, workload, verified
    ):
        federation = make_federation(workload)
        run_join_query(federation, QUERY, protocol="commutative")
        first = len(verified)
        run_join_query(federation, QUERY, protocol="commutative")
        assert first > 0 and len(verified) == first
        assert len(set(verified)) * len(federation.sources) == first

    def test_a_session_id_or_scope_takes_precedence(
        self, make_federation, workload, verified
    ):
        federation = make_federation(workload)
        run_join_query(federation, QUERY, protocol="commutative")
        first = len(verified)
        run_join_query(
            federation, QUERY, protocol="commutative", session_id="other"
        )
        with session_scope("third"):
            run_join_query(federation, QUERY, protocol="commutative")
        assert len(verified) == 3 * first


class TestChainQueries:
    """A chain of joins is refused before any source is asked, so a
    source's policy cannot be bypassed through one.  S3 requires a role
    the test client (an analyst) lacks."""

    CHAIN = "select * from R1 natural join R2 natural join R3"
    DIRECT = "select * from R2 natural join R3"
    R3_ROWS = [(1, "c1"), (2, "c2")]
    #: Other shapes of a three-relation query: the guarded relation in
    #: the middle, operators above the chain, and the two shapes the
    #: parser builds without a Join node.
    CHAIN_SHAPES = {
        "guarded-middle": "select * from R2 natural join R3 natural join R1",
        "above-the-chain": (
            "select c from R1 natural join R2 natural join R3 where k = 1"
        ),
        "join-on": (
            "select * from R1 join R2 on R1.k = R2.k join R3 on R2.k = R3.k"
        ),
        "product": "select * from R1, R2, R3",
    }
    #: Loopback TCP deadlines generous enough for a loaded machine.
    TCP_POLICY = RetryPolicy(
        attempts=3, base_delay=0.05, connect_timeout=5.0, io_timeout=30.0
    )

    def build(self, ca, client, network=None):
        r1 = Relation(
            schema("R1", k="int", a="string"), [(1, "a1"), (2, "a2"), (3, "a3")]
        )
        r2 = Relation(
            schema("R2", k="int", b="string"), [(1, "b1"), (2, "b2"), (4, "b4")]
        )
        r3 = Relation(schema("R3", k="int", c="string"), self.R3_ROWS)
        if network is None:
            federation = Federation(ca=ca)
        else:
            federation = Federation(ca=ca, network=network)
        federation.add_source("S1", [(r1, allow_all())])
        federation.add_source("S2", [(r2, allow_all())])
        federation.add_source("S3", [(r3, require(("role", "auditor")))])
        federation.attach_client(client)
        return federation

    @pytest.fixture
    def guarded(self, ca, client):
        return self.build(ca, client)

    @pytest.fixture(scope="class")
    def auditor(self, ca, paillier_scheme):
        return setup_client(
            ca,
            identity="test-auditor",
            properties={("role", "auditor")},
            rsa_bits=1024,
            homomorphic_scheme=paillier_scheme,
        )

    def carries_r3_row(self, *objects) -> bool:
        values = {value for _, value in self.R3_ROWS}
        return not values.isdisjoint(_strings_in(objects))

    def assert_refused(self, federation, client, query, protocol, **options):
        """The chain raises ``QueryError`` after the client's one
        ``global_query`` message, and no R3 row is in the error or on
        the wire."""
        start = federation.network.message_count()
        with pytest.raises(QueryError, match="exactly one JOIN") as refused:
            run_join_query(federation, query, protocol=protocol, **options)
        added = federation.network.transcript[start:]
        assert [(m.sender, m.receiver, m.kind) for m in added] == [
            (client.name, federation.mediator.name, "global_query")
        ]
        assert not self.carries_r3_row(refused.value, added)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_direct_query_is_denied(self, guarded, protocol):
        start = guarded.network.message_count()
        with pytest.raises(AccessDenied) as denied:
            run_join_query(guarded, self.DIRECT, protocol=protocol)
        added = guarded.network.transcript[start:]
        assert not self.carries_r3_row(denied.value, added)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_chain_is_refused_before_any_source_is_asked(
        self, guarded, client, protocol
    ):
        self.assert_refused(guarded, client, self.CHAIN, protocol)

    @pytest.mark.parametrize("shape", sorted(CHAIN_SHAPES))
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_every_chain_shape_is_refused(
        self, guarded, client, protocol, shape
    ):
        self.assert_refused(guarded, client, self.CHAIN_SHAPES[shape], protocol)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_hardened_mode_refuses_the_chain(self, guarded, client, protocol):
        self.assert_refused(
            guarded, client, self.CHAIN, protocol, hardening=True
        )

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_hardened_mode_denies_the_direct_query(self, guarded, protocol):
        start = guarded.network.message_count()
        with pytest.raises(AccessDenied) as denied:
            run_join_query(
                guarded, self.DIRECT, protocol=protocol, hardening=True
            )
        added = guarded.network.transcript[start:]
        assert not self.carries_r3_row(denied.value, added)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_returned_failure_carries_no_r3_row(
        self, guarded, client, protocol
    ):
        failure = run_join_query(
            guarded, self.CHAIN, protocol=protocol, on_failure="return"
        )
        assert isinstance(failure, RunFailure)
        assert (failure.phase, failure.error_type) == ("request", "QueryError")
        assert [(m.sender, m.kind) for m in failure.messages] == [
            (client.name, "global_query")
        ]
        assert not self.carries_r3_row(
            failure.error_message, failure.messages, failure.artifacts
        )

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_tcp_refuses_the_chain(self, ca, client, protocol):
        with TcpTransport(retry=self.TCP_POLICY) as transport:
            federation = self.build(ca, client, network=transport)
            self.assert_refused(federation, client, self.CHAIN, protocol)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_auditor_reads_r3_through_the_direct_query(
        self, ca, auditor, protocol
    ):
        """The policy, not the protocol, is what keeps R3 from the
        analyst: a client holding the role gets both rows."""
        federation = self.build(ca, auditor)
        result = run_join_query(federation, self.DIRECT, protocol=protocol)
        assert sorted(result.global_result.rows) == [
            (1, "b1", "c1"), (2, "b2", "c2")
        ]

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_federation_answers_after_a_refused_chain(
        self, guarded, client, protocol
    ):
        self.assert_refused(guarded, client, self.CHAIN, protocol)
        result = run_join_query(guarded, QUERY, protocol=protocol)
        assert sorted(result.global_result.rows) == [
            (1, "a1", "b1"), (2, "a2", "b2")
        ]
