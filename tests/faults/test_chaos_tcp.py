"""Chaos over real sockets: proxy faults, kill-S2 acceptance, shutdown.

The heart of the chaos suite: every fault the proxy can inject at the
frame level must be survived by the hardened TCP path (request-id
dedupe, stale-ACK tolerance, bounded retry), and the documented
"kill datasource 2 mid-delivery" plan must degrade every protocol to a
structured RunFailure — with the injected fault visible in the trace —
instead of a traceback.
"""

import json
import pathlib
import threading

import pytest

from repro import Federation, RunFailure, reference_join, run_join_query
from repro.errors import FaultInjectedError, NetworkError
from repro.faults import (
    ChaosProxy,
    FaultInjector,
    FaultPlan,
    FaultRule,
    FaultyTransport,
)
from repro.mediation.access_control import allow_all
from repro.telemetry import Tracer, use_tracer, write_chrome_trace
from repro.transport import TcpTransport, codec

from tests.faults.conftest import FAST

QUERY = "select * from R1 natural join R2"
KILL_S2_PLAN = pathlib.Path(__file__).resolve().parents[2] / (
    "examples/faultplans/kill-s2-mid-delivery.json"
)

PROTOCOLS = ["das", "commutative", "private-matching"]


def transport_threads() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("repro-endpoint-")
    ]


def build_federation(ca, client, workload, network) -> Federation:
    federation = Federation(ca=ca, network=network)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


class TestProxyFaults:
    """Each frame-level fault, survived by one direct send."""

    @pytest.mark.parametrize(
        "action", ["duplicate", "corrupt", "reset", "drop", "truncate",
                   "delay"]
    )
    def test_fault_survived_and_recorded_once(
        self, threaded_endpoint, action
    ):
        endpoint = threaded_endpoint("S1")
        rule = (
            FaultRule(action=action, occurrence=1, delay_seconds=0.02)
            if action == "delay"
            else FaultRule(action=action, occurrence=1)
        )
        injector = FaultInjector(FaultPlan(seed=5, rules=(rule,)))
        with ChaosProxy(endpoint.address, injector) as proxy:
            transport = TcpTransport(
                endpoints={"S1": (proxy.host, proxy.port)}, retry=FAST
            )
            try:
                transport.register("client")
                transport.register("S1")
                transport.send("client", "S1", "payload", {"n": 42})
                transport.send("client", "S1", "payload", {"n": 43})
                records = endpoint.server.session_records(transport.session_id)
            finally:
                transport.close()
        kinds = [(r.kind, r.sequence) for r in records]
        assert kinds == [("payload", 1), ("payload", 2)]
        assert [e.action for e in injector.event_log()] == [action]

    def test_corrupt_is_caught_wherever_the_flip_lands(
        self, threaded_endpoint, monkeypatch
    ):
        """Message k has byte k of its envelope flipped in flight, for
        every k up to the envelope's length — flags, sequence, routing
        strings, CRC, body.  Each is answered ERROR, retried once, and
        recorded exactly once."""
        endpoint = threaded_endpoint("S1")
        pending: list[int] = []

        def flip_pending_offset(frame: bytes) -> bytes:
            if not pending:
                return frame  # the retry goes through clean
            garbled = bytearray(frame)
            garbled[codec.FRAME_HEADER_BYTES + pending.pop()] ^= 0x5A
            return bytes(garbled)

        monkeypatch.setattr(
            ChaosProxy, "_corrupted", staticmethod(flip_pending_offset)
        )
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(action="corrupt", kind="probe", max_triggers=0),
        )))
        sends = 0
        with ChaosProxy(endpoint.address, injector) as proxy:
            transport = TcpTransport(
                endpoints={"S1": (proxy.host, proxy.port)}, retry=FAST
            )
            try:
                transport.register("client")
                transport.register("S1")
                envelope_bytes = 1
                while sends < envelope_bytes:
                    pending.append(sends)
                    message = transport.send("client", "S1", "probe", {"n": 7})
                    assert pending == []  # the flip really happened
                    envelope_bytes = (
                        message.size_bytes - codec.FRAME_HEADER_BYTES
                    )
                    sends += 1
                records = endpoint.server.session_records(transport.session_id)
            finally:
                transport.close()
        assert sends > 60  # header + CRC + body of a small envelope
        assert [r.sequence for r in records] == list(
            range(1, sends + 1)
        )
        # Two frames crossed the proxy per message: the garbled one and
        # its one retry.
        assert len(injector.event_log()) == 2 * sends

    def test_duplicates_do_not_desync_later_sends(self, threaded_endpoint):
        """Dedupe ACKs linger in the stream; the sender must skip the
        stale ones instead of mismatching them against later sends."""
        endpoint = threaded_endpoint("S1")
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(action="duplicate", max_triggers=3),
        )))
        with ChaosProxy(endpoint.address, injector) as proxy:
            transport = TcpTransport(
                endpoints={"S1": (proxy.host, proxy.port)}, retry=FAST
            )
            try:
                transport.register("client")
                transport.register("S1")
                for n in range(6):
                    transport.send("client", "S1", "seq", {"n": n})
                records = endpoint.server.session_records(transport.session_id)
            finally:
                transport.close()
        assert [r.sequence for r in records] == list(
            range(1, 7)
        )
        duplicates = endpoint.server.registry.snapshot().get(
            "repro_endpoint_duplicates_total"
        )
        assert duplicates is not None  # the endpoint really absorbed them

    def test_proxy_crash_turns_the_port_dark(self, threaded_endpoint):
        endpoint = threaded_endpoint("S1")
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(action="crash", party="S1", occurrence=2),
        )))
        proxy = ChaosProxy(endpoint.address, injector)
        proxy.start()
        transport = TcpTransport(
            endpoints={"S1": (proxy.host, proxy.port)}, retry=FAST
        )
        try:
            transport.register("client")
            transport.register("S1")
            transport.send("client", "S1", "first", 1)
            with pytest.raises(NetworkError, match="after 3 attempts"):
                transport.send("client", "S1", "second", 2)
        finally:
            transport.close()
            proxy.stop()
        assert endpoint.server.messages_received() == 1

    def test_full_protocol_through_flaky_proxy(
        self, ca, client, workload, threaded_endpoint
    ):
        """A whole protocol run with the mediator behind a chaos proxy
        must converge to the fault-free result."""
        endpoint = threaded_endpoint("mediator")
        # A commutative run sends five mediator-bound frames; the
        # corrupt at #3 fails the envelope's CRC wherever the flip
        # lands and forces a retry, whose fresh observation (#4) trips
        # the reset — so all three faults fire in one run.
        injector = FaultInjector(FaultPlan(seed=11, rules=(
            FaultRule(action="duplicate", occurrence=2),
            FaultRule(action="corrupt", occurrence=3),
            FaultRule(action="reset", occurrence=4),
        )))
        with ChaosProxy(endpoint.address, injector) as proxy:
            transport = TcpTransport(
                endpoints={"mediator": (proxy.host, proxy.port)}, retry=FAST
            )
            try:
                federation = build_federation(ca, client, workload, transport)
                result = run_join_query(
                    federation, QUERY, protocol="commutative"
                )
                expected = reference_join(federation, QUERY)
            finally:
                transport.close()
        assert result.global_result == expected
        assert len(injector.event_log()) == 3  # all three faults fired


class TestKillS2Acceptance:
    """The documented chaos scenario, on every protocol, over TCP."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_structured_failure_with_fault_in_trace(
        self, ca, client, workload, tmp_path, protocol
    ):
        plan = FaultPlan.load(str(KILL_S2_PLAN))
        injector = FaultInjector(plan)
        network = FaultyTransport(
            TcpTransport(retry=FAST), injector
        )
        tracer = Tracer()
        try:
            federation = build_federation(ca, client, workload, network)
            with use_tracer(tracer):
                run = run_join_query(
                    federation, QUERY, protocol=protocol, on_failure="return"
                )
        finally:
            network.close()
        assert isinstance(run, RunFailure)  # structured, not a traceback
        assert run.ok is False
        assert run.phase == "delivery"
        assert run.error_type == "FaultInjectedError"
        assert "S2" in run.error_message
        assert any("crash" in event for event in run.fault_events)
        # The injected fault is visible in the exported trace.
        trace_path = tmp_path / f"{protocol}.trace.json"
        write_chrome_trace(str(trace_path), tracer.spans)
        exported = json.loads(trace_path.read_text())
        names = {event.get("name") for event in exported["traceEvents"]}
        assert "fault:crash" in names
        # And the dead endpoint leaked no transport threads.
        assert transport_threads() == []

    def test_crash_kills_the_hosted_endpoint_socket(
        self, ca, client, workload
    ):
        """After the injected crash the victim's port is really dark:
        a direct control request against it exhausts its retries."""
        injector = FaultInjector(FaultPlan.load(str(KILL_S2_PLAN)))
        inner = TcpTransport(retry=FAST)
        network = FaultyTransport(inner, injector)
        try:
            federation = build_federation(ca, client, workload, network)
            run = run_join_query(
                federation, QUERY, protocol="commutative", on_failure="return"
            )
            assert isinstance(run, RunFailure)
            with pytest.raises(NetworkError):
                inner.remote_view("S2")
        finally:
            network.close()


class TestShutdownHygiene:
    def test_close_after_crash_leaks_no_threads(self, ca, workload):
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(action="crash", party="S1", occurrence=1),
        )))
        network = FaultyTransport(TcpTransport(retry=FAST), injector)
        federation = Federation(ca=ca, network=network)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        with pytest.raises(FaultInjectedError):
            network.send("mediator", "S1", "poke", 1)
        network.close()
        network.close()  # idempotent
        assert transport_threads() == []

    def test_closed_transport_refuses_new_work(self):
        network = FaultyTransport(
            TcpTransport(retry=FAST), FaultInjector(FaultPlan())
        )
        network.register("a")
        network.register("b")
        network.close()
        with pytest.raises(NetworkError, match="closed"):
            network.send("a", "b", "late", 1)
