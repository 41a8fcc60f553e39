"""Endpoint records live in their session and nowhere else.

A ``PartyServer`` keeps a :class:`~repro.transport.server.RemoteRecord`
per received message only in the state of the message's session, so
closing (or evicting) the session releases them: a long-lived ``repro
serve`` process is bounded by its live sessions, not by how long it has
run.  What outlives a session is the endpoint's counters.  Every DATA
envelope carries a session id — the caller's scope, or else the
transport's own — and a frame without one is refused.
"""

import functools
import gc
import socket

import pytest

from repro import Federation, run_join_query
from repro.mediation.access_control import allow_all
from repro.transport import RetryPolicy, TcpTransport, codec
from repro.transport.server import (
    ENDPOINT_BYTES_METRIC,
    ENDPOINT_MESSAGES_METRIC,
    PartyServer,
    RemoteRecord,
)

QUERY = "select * from R1 natural join R2"
TRIO = ("mediator", "S1", "S2")
POLICY = RetryPolicy(connect_timeout=5.0, io_timeout=60.0)


def live_records() -> int:
    gc.collect()
    return sum(isinstance(obj, RemoteRecord) for obj in gc.get_objects())


@pytest.fixture
def hub():
    """A hosted mediator/S1/S2 trio, as ``repro serve`` would run it."""
    transport = TcpTransport(retry=POLICY)
    for party in TRIO:
        transport.register(party)
    yield transport
    transport.close()


def client_federation(ca, client, workload, hub) -> Federation:
    transport = TcpTransport(
        endpoints={party: hub.endpoint_of(party) for party in TRIO},
        retry=POLICY,
    )
    federation = Federation(ca=ca, network=transport)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


class TestRecordsLiveInSessions:
    def test_closed_sessions_leave_no_records(self, ca, client, workload, hub):
        """20 sessions of 2 queries each, each closed after its queries:
        the trio then holds no record, only its counters."""
        before = live_records()
        federation = client_federation(ca, client, workload, hub)
        transport = federation.network
        try:
            for index in range(20):
                session_id = f"series-{index:02d}"
                for _ in range(2):
                    run_join_query(
                        federation, QUERY, protocol="commutative",
                        session_id=session_id,
                    )
                transport.close_session(session_id)
        finally:
            transport.close()
        for party in TRIO:
            server = hub.local_server(party)
            assert len(server.sessions) == 0, party
            received = sum(m.receiver == party for m in transport.transcript)
            assert server.messages_received() == received > 0, party
        assert live_records() == before

    def test_closing_a_transport_releases_its_own_session(
        self, ca, client, workload, hub
    ):
        federation = client_federation(ca, client, workload, hub)
        transport = federation.network
        try:
            result = run_join_query(federation, QUERY, protocol="commutative")
            mediator = hub.local_server("mediator")
            assert mediator.sessions.ids() == [transport.session_id]
            assert [r.sequence for r in transport.remote_view("mediator")] == [
                m.sequence for m in result.messages if m.receiver == "mediator"
            ]
        finally:
            transport.close()
        for party in TRIO:
            assert len(hub.local_server(party).sessions) == 0, party


class TestEverySessionIsNamed:
    def test_data_frame_without_a_session_is_refused(self, hub):
        server = hub.local_server("mediator")
        payload = codec.encode_envelope(1, "S1", "mediator", "kind", {"n": 1})
        with socket.create_connection(hub.endpoint_of("mediator")) as raw:
            raw.sendall(codec.build_frame(codec.DATA, payload))
            frame_type, answer = codec.recv_frame(raw)
        assert frame_type == codec.ERROR
        assert "no session id" in codec.decode_value(answer)["error"]
        assert len(server.sessions) == 0
        assert server.messages_received() == 0

    def test_fetch_names_one_session(self, hub):
        hub.send("S1", "mediator", "kind", {"n": 1})
        with socket.create_connection(hub.endpoint_of("mediator")) as raw:
            raw.sendall(codec.build_frame(codec.FETCH, codec.encode_value({})))
            frame_type, answer = codec.recv_frame(raw)
        assert frame_type == codec.ERROR
        assert "names no session" in codec.decode_value(answer)["error"]
        [record] = hub.remote_view("mediator")
        assert (record.sender, record.kind) == ("S1", "kind")
        assert hub.remote_view("mediator", session="another") == []

    def test_sends_outside_a_scope_carry_the_transports_session(self, hub):
        message = hub.send("S1", "mediator", "kind", {"n": 1})
        server = hub.local_server("mediator")
        assert server.sessions.ids() == [hub.session_id]
        [record] = server.session_records(hub.session_id)
        assert record.sequence == message.sequence


def _observe_by_labels(server, record, parent, session_id):
    """The endpoint's counters as a label-dict lookup on every frame."""
    labels = {"party": server.party, "sender": record.sender, "kind": record.kind}
    server.registry.counter(
        ENDPOINT_MESSAGES_METRIC, labels,
        help_text="Data messages received at a party endpoint",
    ).inc()
    server.registry.counter(
        ENDPOINT_BYTES_METRIC, labels,
        help_text="Wire bytes received at a party endpoint",
    ).inc(record.wire_bytes)


class TestEndpointCounters:
    def test_counters_read_as_a_lookup_per_frame(self):
        """An endpoint looks its counters up once per (sender, kind);
        over a scripted series of frames — senders and kinds
        interleaved, a re-delivery, two sessions — its TELEMETRY
        metrics and exposition are those of a lookup per frame."""
        served = PartyServer("mediator")
        reference = PartyServer("mediator")
        reference._observe = functools.partial(_observe_by_labels, reference)
        series = [
            ("S1", "commutative_m_set", b"x" * 300, "a", "r1"),
            ("S2", "commutative_m_set", b"y" * 200, "a", "r2"),
            ("S1", "commutative_m_set", b"x" * 300, "a", "r1"),  # re-delivery
            ("S1", "commutative_double", b"z" * 16, "a", "r3"),
            ("client", "global_query", "select", "b", "r4"),
            ("S2", "commutative_double", b"w" * 17, "b", "r5"),
            ("S1", "commutative_m_set", b"v" * 3, "b", "r6"),
        ]
        for sequence, (sender, kind, body, session, request) in enumerate(series):
            payload = codec.encode_envelope(
                sequence, sender, "mediator", kind, body,
                request_id=request, session_id=session,
            )
            for server in (served, reference):
                assert codec.decode_value(server._data(payload)[8:])
        ours, theirs = served.telemetry_snapshot(), reference.telemetry_snapshot()
        assert ours["metrics"] == theirs["metrics"]
        assert ours["exposition"] == theirs["exposition"]
        assert served.messages_received() == len(series) - 1
