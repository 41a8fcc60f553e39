"""Session isolation end to end: interleaved queries over one serve trio.

The acceptance contract of the sessionised stack (docs/transport.md):

* concurrent and sequential execution produce **identical join
  results** on all three protocols, over the in-process bus and over
  TCP against one shared mediator/S1/S2 endpoint trio;
* per-session endpoint views are disjoint — one session's filter never
  reveals another session's traffic;
* a fault injected into one session (here: a chaos-proxy crash) never
  alters another session's result.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Federation, setup_client, reference_join, run_join_query
from repro.errors import NetworkError, ReproError
from repro.faults import ChaosProxy, FaultInjector, FaultPlan, FaultRule
from repro.mediation.access_control import allow_all
from repro.session import session_scope
from repro.transport import RetryPolicy, TcpTransport

QUERY = "select * from R1 natural join R2"
PROTOCOLS = ("das", "commutative", "private-matching")
TRIO = ("mediator", "S1", "S2")

POLICY = RetryPolicy(connect_timeout=5.0, io_timeout=60.0)
#: Fast-failing policy for the chaos case: the crashed session must
#: give up in milliseconds while its neighbour keeps computing.
FAST = RetryPolicy(
    attempts=2, base_delay=0.01, max_delay=0.05, connect_timeout=0.5,
    io_timeout=2.0,
)


@pytest.fixture(scope="module")
def second_client(ca, paillier_scheme):
    """A second client with its own key material — interleaved sessions
    must not depend on sharing one credential set."""
    return setup_client(
        ca,
        identity="second-test-client",
        properties={("role", "analyst")},
        rsa_bits=1024,
        homomorphic_scheme=paillier_scheme,
    )


def build_federation(ca, client, workload, network=None) -> Federation:
    if network is None:
        federation = Federation(ca=ca)  # its own in-process bus
    else:
        federation = Federation(ca=ca, network=network)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


@pytest.fixture
def trio_hub():
    """One shared serve trio hosted in-process; yields (hub, endpoints)."""
    hub = TcpTransport(retry=POLICY)
    for party in TRIO:
        hub.register(party)
    endpoints = {party: hub.endpoint_of(party) for party in TRIO}
    yield hub, endpoints
    hub.close()


class TestConcurrentEqualsSequential:
    def test_three_protocols_interleaved_over_one_tcp_trio(
        self, ca, client, second_client, workload, make_federation, trio_hub
    ):
        hub, endpoints = trio_hub
        expected = reference_join(make_federation(workload), QUERY)
        clients = {
            "das": client, "commutative": second_client,
            "private-matching": client,
        }

        transports: dict[str, TcpTransport] = {}
        try:
            for protocol in PROTOCOLS:
                transports[protocol] = TcpTransport(
                    endpoints=dict(endpoints), retry=POLICY
                )

            def run_one(protocol: str):
                federation = build_federation(
                    ca, clients[protocol], workload, transports[protocol]
                )
                return run_join_query(
                    federation, QUERY, protocol=protocol,
                    session_id=f"sess-{protocol}",
                )

            with ThreadPoolExecutor(max_workers=len(PROTOCOLS)) as pool:
                concurrent = dict(
                    zip(PROTOCOLS, pool.map(run_one, PROTOCOLS))
                )
            # Every interleaved protocol produced the reference join.
            for protocol, result in concurrent.items():
                assert result.global_result == expected, protocol

            # Per-session endpoint views are disjoint and complete
            # (checked while the sessions are live — closing a
            # transport farewells its sessions and drops their views):
            # each session saw only its own traffic, and together the
            # sessions account for every record at the endpoint.
            for party in TRIO:
                server = hub.local_server(party)
                session_ids = [f"sess-{p}" for p in PROTOCOLS]
                per_session = [
                    server.session_records(sid) for sid in session_ids
                ]
                assert sum(len(view) for view in per_session) == len(
                    server.records
                )
                for view, sid in zip(per_session, session_ids):
                    if view:
                        # A view contains only traffic a protocol aimed
                        # at this party — nothing leaked across sessions.
                        assert all(
                            record.receiver == party for record in view
                        ), sid

            # The same runs executed sequentially agree with the
            # concurrent ones (fresh transports and sessions, same
            # shared trio — a transport registers its parties once).
            for protocol in PROTOCOLS:
                with TcpTransport(
                    endpoints=dict(endpoints), retry=POLICY
                ) as sequential_transport:
                    federation = build_federation(
                        ca, clients[protocol], workload, sequential_transport
                    )
                    sequential = run_join_query(
                        federation, QUERY, protocol=protocol,
                        session_id=f"seq-{protocol}",
                    )
                assert (
                    sequential.global_result
                    == concurrent[protocol].global_result
                ), protocol
        finally:
            for transport in transports.values():
                transport.close()

    def test_interleaved_bus_sessions_match_reference(
        self, ca, client, second_client, workload, make_federation
    ):
        expected = reference_join(make_federation(workload), QUERY)
        clients = {
            "das": client, "commutative": second_client,
            "private-matching": client,
        }

        def run_one(protocol: str):
            # Each bus federation carries its own Network; the session
            # scope still isolates tracing/mediator/datasource state.
            federation = build_federation(ca, clients[protocol], workload)
            return run_join_query(
                federation, QUERY, protocol=protocol,
                session_id=f"bus-{protocol}",
            )

        with ThreadPoolExecutor(max_workers=len(PROTOCOLS)) as pool:
            results = list(pool.map(run_one, PROTOCOLS))
        for protocol, result in zip(PROTOCOLS, results):
            assert result.global_result == expected, protocol


class TestFaultIsolationAcrossSessions:
    def test_crash_in_one_session_never_alters_the_other(
        self, ca, client, second_client, workload, make_federation, trio_hub
    ):
        hub, endpoints = trio_hub
        expected = reference_join(make_federation(workload), QUERY)

        # Session "doomed" reaches S1 through a chaos proxy that
        # crashes on the first S1-bound delivery of exactly that
        # session; session "healthy" dials S1 directly.
        injector = FaultInjector(
            FaultPlan(
                seed=11,
                rules=(
                    FaultRule(
                        action="crash", party="S1", session="sess-doomed"
                    ),
                ),
            )
        )
        with ChaosProxy(endpoints["S1"], injector) as proxy:
            doomed_endpoints = dict(endpoints)
            doomed_endpoints["S1"] = (proxy.host, proxy.port)
            doomed_transport = TcpTransport(
                endpoints=doomed_endpoints, retry=FAST
            )
            healthy_transport = TcpTransport(
                endpoints=dict(endpoints), retry=POLICY
            )
            try:
                def run_doomed():
                    federation = build_federation(
                        ca, client, workload, doomed_transport
                    )
                    return run_join_query(
                        federation, QUERY, protocol="commutative",
                        session_id="sess-doomed", on_failure="return",
                    )

                def run_healthy():
                    federation = build_federation(
                        ca, second_client, workload, healthy_transport
                    )
                    return run_join_query(
                        federation, QUERY, protocol="commutative",
                        session_id="sess-healthy",
                    )

                with ThreadPoolExecutor(max_workers=2) as pool:
                    doomed_future = pool.submit(run_doomed)
                    healthy_future = pool.submit(run_healthy)
                    doomed = doomed_future.result()
                    healthy = healthy_future.result()
            finally:
                doomed_transport.close()
                healthy_transport.close()

        # The doomed session failed structurally...
        assert not doomed.ok
        assert doomed.error_type in ("NetworkError", "DeadlineExceeded")
        # ...while its neighbour's join is untouched by the crash.
        assert healthy.global_result == expected
        # The injected fault is attributed to the *rule's* session
        # matcher — the deterministic-log contract.
        fired = [event for event in injector.events if event.action == "crash"]
        assert len(fired) == 1
        assert fired[0].session == "sess-doomed"
        assert "session=sess-doomed" in fired[0].summary()

    def test_session_scoped_rule_ignores_other_sessions(
        self, ca, client, workload, trio_hub
    ):
        hub, endpoints = trio_hub
        # The rule targets a session that never runs through the proxy;
        # the session that does must pass unharmed.
        injector = FaultInjector(
            FaultPlan(
                seed=7,
                rules=(
                    FaultRule(
                        action="drop", party="S1", session="sess-absent",
                        max_triggers=0,
                    ),
                ),
            )
        )
        with ChaosProxy(endpoints["S1"], injector) as proxy:
            proxied = dict(endpoints)
            proxied["S1"] = (proxy.host, proxy.port)
            transport = TcpTransport(endpoints=proxied, retry=FAST)
            try:
                transport.register("client")
                for party in TRIO:
                    transport.register(party)
                with session_scope("sess-present"):
                    transport.send("client", "S1", "step", {"n": 1})
            finally:
                transport.close()
        assert injector.events == []
