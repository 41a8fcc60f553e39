"""Failure injection: the protocols must fail closed, not fabricate data."""

import socket
import time

import pytest

from repro import Federation, run_join_query, setup_client
from repro.core.commutative import _prepare_source
from repro.core.das import EncryptedRows, ServerQuery, _evaluate_server_query
from repro.crypto import groups, hybrid
from repro.crypto.hashes import IdealHash
from repro.crypto.homomorphic import PaillierScheme
from repro.errors import (
    AccessDenied,
    CredentialError,
    EncodingError,
    IntegrityError,
    NetworkError,
)
from repro.mediation.access_control import allow_all, require
from repro.mediation.credentials import Credential
from repro.relational.datagen import WorkloadSpec, generate
from repro.transport import RetryPolicy, TcpTransport

from tests.faults.conftest import MuteServer, ThreadedEndpoint

QUERY = "select * from R1 natural join R2"


def build_federation(ca, client, workload, policy_1=None):
    federation = Federation(ca=ca)
    federation.add_source(
        "S1", [(workload.relation_1, policy_1 or allow_all())]
    )
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


class TestAccessFailures:
    @pytest.mark.parametrize(
        "protocol", ["das", "commutative", "private-matching"]
    )
    def test_denied_before_any_ciphertext_flows(
        self, ca, client, workload, protocol
    ):
        federation = build_federation(
            ca, client, workload, policy_1=require(("role", "superuser"))
        )
        with pytest.raises(AccessDenied):
            run_join_query(federation, QUERY, protocol=protocol)
        # Nothing beyond the request phase ever hit the wire.
        kinds = {m.kind for m in federation.network.transcript}
        assert kinds == {"global_query", "partial_query"}

    def test_forged_credential_rejected_by_source(self, ca, client, workload):
        federation = build_federation(ca, client, workload)
        genuine = client.credentials[0]
        forged = Credential(
            properties=frozenset({("role", "superuser")}),
            public_key=genuine.public_key,
            issuer=genuine.issuer,
            signature=genuine.signature,  # signature of *other* properties
        )
        client.credentials.append(forged)
        try:
            with pytest.raises(CredentialError):
                run_join_query(federation, QUERY, protocol="commutative")
        finally:
            client.credentials.remove(forged)


class TestCiphertextTampering:
    def test_tampered_etuple_detected_at_client(self, ca, client, workload):
        # Simulate a malicious mediator flipping a byte inside an etuple:
        # the hybrid layer's MAC must catch it at decryption time.
        keys = client.credential_public_keys()
        ciphertext = hybrid.encrypt(keys, b"row-bytes")
        body = bytearray(ciphertext.body)
        body[-1] ^= 0x01
        tampered = hybrid.HybridCiphertext(ciphertext.wrapped_keys, bytes(body))
        with pytest.raises(IntegrityError):
            client.decrypt_hybrid(tampered)

    def test_tampered_side_table_entry_detected(self, client):
        session_key = bytes(range(32))
        blob = bytearray(hybrid.session_encrypt(session_key, b"tuple set"))
        blob[20] ^= 0xFF
        with pytest.raises(IntegrityError):
            hybrid.session_decrypt(session_key, bytes(blob))


class TestProtocolMisconfiguration:
    def test_mismatched_ideal_hashes_match_nothing(self, client, workload):
        """If the sources disagree on the random oracle, equal join
        values hash differently and the mediator finds no matches —
        a silent empty result, never a wrong one."""
        group = groups.commutative_group(128)
        keys = client.credential_public_keys()
        _, messages_1 = _prepare_source(
            workload.relation_1, ("k",), group,
            IdealHash(group.p, tag=b"oracle-A"), keys,
        )
        state_2, _ = _prepare_source(
            workload.relation_2, ("k",), group,
            IdealHash(group.p, tag=b"oracle-B"), keys,
        )
        from repro.crypto import commutative as comm

        tags_1 = {comm.apply(state_2.key, tag) for tag in messages_1.tags}
        # Double-encrypt relation_2's own values under both keys.
        # With mismatched oracles, no tag can coincide.
        _, messages_2 = _prepare_source(
            workload.relation_2, ("k",), group,
            IdealHash(group.p, tag=b"oracle-B"), keys,
        )
        tags_2 = {comm.apply(state_2.key, tag) for tag in messages_2.tags}
        assert not (tags_1 & tags_2)

    def test_pm_key_too_small_for_payload(self, ca, workload):
        """A homomorphic message space too small for the session payload
        must fail loudly with guidance, not truncate silently."""
        tiny_client = setup_client(
            ca,
            "tiny",
            {("role", "analyst")},
            rsa_bits=1024,
            homomorphic_scheme=PaillierScheme(256),
        )
        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(tiny_client)
        with pytest.raises(EncodingError):
            run_join_query(federation, QUERY, protocol="private-matching")


#: Fast-failing policy so the fault tests finish in well under a second
#: per injected failure while still exercising two backoff sleeps.
FAST = RetryPolicy(
    attempts=3, base_delay=0.01, max_delay=0.05, connect_timeout=0.5,
    io_timeout=0.5,
)


class TestTransportFaults:
    """Socket-level faults surface as NetworkError — with the retry and
    backoff machinery exercised — and never hang the protocol run."""

    def test_never_answering_datasource_times_out(self, ca, workload):
        mute = MuteServer()
        transport = TcpTransport(
            endpoints={"S1": ("127.0.0.1", mute.port)}, retry=FAST
        )
        try:
            federation = Federation(ca=ca, network=transport)
            started = time.perf_counter()
            with pytest.raises(NetworkError, match="timed out"):
                federation.add_source(
                    "S1", [(workload.relation_1, allow_all())]
                )
            elapsed = time.perf_counter() - started
            assert elapsed >= FAST.io_timeout  # really waited the deadline
            assert elapsed < 10  # ... and did not hang
        finally:
            transport.close()
            mute.close()

    def test_connection_refused_exhausts_retries_with_backoff(
        self, ca, workload
    ):
        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        transport = TcpTransport(
            endpoints={"S2": ("127.0.0.1", dead_port)}, retry=FAST
        )
        try:
            federation = Federation(ca=ca, network=transport)
            federation.add_source("S1", [(workload.relation_1, allow_all())])
            started = time.perf_counter()
            with pytest.raises(NetworkError, match="after 3 attempts"):
                federation.add_source(
                    "S2", [(workload.relation_2, allow_all())]
                )
            # Two backoff sleeps happened: 0.01 + 0.02 seconds.
            assert time.perf_counter() - started >= 0.03
        finally:
            transport.close()

    def test_mediator_dying_mid_protocol(self, ca, client, workload):
        """The mediator's endpoint aborts (without acknowledging) after
        two protocol messages: the sender must raise, not resend or
        hang, and the transcript stops at the point of death."""
        dying = ThreadedEndpoint("mediator", max_messages=2)
        transport = TcpTransport(
            endpoints={"mediator": dying.address}, retry=FAST
        )
        try:
            federation = Federation(ca=ca, network=transport)
            federation.add_source("S1", [(workload.relation_1, allow_all())])
            federation.add_source("S2", [(workload.relation_2, allow_all())])
            federation.attach_client(client)
            with pytest.raises(NetworkError):
                run_join_query(federation, QUERY, protocol="commutative")
            delivered = [
                m for m in federation.network.transcript
                if m.receiver == "mediator"
            ]
            assert len(delivered) == 2  # nothing past the injected fault
        finally:
            transport.close()
            dying.close()


class TestDASServerQueryRobustness:
    def test_unknown_index_pairs_select_nothing(self, client, workload):
        keys = client.credential_public_keys()
        from repro.core.das import EncryptedRelation
        from repro.relational.encoding import encode_row

        session = hybrid.new_session(keys)  # a source's rows share one
        rows = EncryptedRows(
            session.encapsulation,
            tuple(session.encrypt(encode_row(row)).body for row in workload.relation_1),
            (7,) * len(workload.relation_1),
            tuple,
        )
        relation = EncryptedRelation("S1", "R1", rows)
        empty = _evaluate_server_query(
            ServerQuery(pairs=((1, 2),)), relation, relation
        )
        assert len(empty) == 0

    def test_empty_server_query(self, client, workload):
        from repro.core.das import EncryptedRelation

        relation = EncryptedRelation("S1", "R1", EncryptedRows(None, (), (), tuple))
        assert len(
            _evaluate_server_query(ServerQuery(pairs=()), relation, relation)
        ) == 0
