"""FaultyTransport over the in-process bus: retry, crash, delegation."""

import pathlib
import time

import pytest

from repro import Federation, RunFailure, run_join_query
from repro.errors import FaultInjectedError
from repro.faults import FaultInjector, FaultPlan, FaultRule, FaultyTransport
from repro.mediation.access_control import allow_all
from repro.mediation.network import Network

QUERY = "select * from R1 natural join R2"
KILL_S2_PLAN = pathlib.Path(__file__).resolve().parents[2] / (
    "examples/faultplans/kill-s2-mid-delivery.json"
)


def faulty_bus(plan: FaultPlan) -> FaultyTransport:
    return FaultyTransport(Network(), FaultInjector(plan))


def build_federation(ca, client, workload, network) -> Federation:
    federation = Federation(ca=ca, network=network)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


class TestTransientFaults:
    def test_dropped_message_is_retried_and_delivered_once(self):
        transport = faulty_bus(
            FaultPlan(rules=(FaultRule(action="drop", occurrence=1),))
        )
        transport.register("a")
        transport.register("b")
        message = transport.send("a", "b", "ping", {"x": 1})
        assert message.sequence == 1
        assert len(transport.transcript) == 1  # delivered exactly once
        assert [e.action for e in transport.fault_events] == ["drop"]

    def test_corrupt_is_transient_too(self):
        transport = faulty_bus(
            FaultPlan(rules=(FaultRule(action="corrupt", occurrence=2),))
        )
        transport.register("a")
        transport.register("b")
        transport.send("a", "b", "ping", 1)
        transport.send("a", "b", "ping", 2)
        assert len(transport.transcript) == 2

    def test_unsurvivable_drop_exhausts_bounded_retries(self):
        transport = faulty_bus(
            FaultPlan(rules=(
                FaultRule(action="drop", max_triggers=0),  # every attempt
            ))
        )
        transport.register("a")
        transport.register("b")
        with pytest.raises(FaultInjectedError) as excinfo:
            transport.send("a", "b", "ping", {})
        assert excinfo.value.retryable is True
        # attempts=4 by default: one initial try plus three retries.
        assert len(transport.fault_events) == 4
        assert len(transport.transcript) == 0

    def test_delay_slows_but_delivers(self):
        transport = faulty_bus(
            FaultPlan(rules=(
                FaultRule(action="delay", delay_seconds=0.05, occurrence=1),
            ))
        )
        transport.register("a")
        transport.register("b")
        started = time.perf_counter()
        transport.send("a", "b", "ping", {})
        assert time.perf_counter() - started >= 0.05
        assert len(transport.transcript) == 1


class TestCrash:
    def test_crash_is_permanent(self):
        transport = faulty_bus(
            FaultPlan(rules=(FaultRule(action="crash", party="b",
                                       occurrence=2),))
        )
        transport.register("a")
        transport.register("b")
        transport.send("a", "b", "ping", 1)
        with pytest.raises(FaultInjectedError) as excinfo:
            transport.send("a", "b", "ping", 2)
        assert excinfo.value.retryable is False
        # The victim stays dead for every later message touching it.
        with pytest.raises(FaultInjectedError, match="has crashed"):
            transport.send("b", "a", "pong", 3)
        assert len(transport.transcript) == 1


class TestDelegation:
    def test_observables_live_in_the_wrapped_transport(self):
        inner = Network()
        transport = FaultyTransport(inner, FaultInjector(FaultPlan()))
        transport.register("a")
        transport.register("b")
        transport.send("a", "b", "ping", {"x": 1})
        # One shared transcript, visible from both layers.
        assert transport.transcript == inner.transcript
        assert [m.kind for m in transport.transcript] == ["ping"]
        assert transport.session_id == inner.session_id
        assert transport.parties() == ("a", "b")
        assert transport.total_bytes() == inner.total_bytes()


class TestGracefulDegradation:
    def test_kill_s2_plan_yields_structured_failure_on_the_bus(
        self, ca, client, workload
    ):
        plan = FaultPlan.load(str(KILL_S2_PLAN))
        federation = build_federation(
            ca, client, workload, faulty_bus(plan)
        )
        run = run_join_query(
            federation, QUERY, protocol="commutative", on_failure="return"
        )
        assert isinstance(run, RunFailure)
        assert run.ok is False
        assert run.phase == "delivery"
        assert run.error_type == "FaultInjectedError"
        assert "S2" in run.error_message
        assert any("crash" in event for event in run.fault_events)
        assert run.messages_delivered() > 0  # partial transcript preserved
        assert "FAILED" in run.summary()

    def test_on_failure_raise_is_the_default(self, ca, client, workload):
        plan = FaultPlan.load(str(KILL_S2_PLAN))
        federation = build_federation(ca, client, workload, faulty_bus(plan))
        with pytest.raises(FaultInjectedError):
            run_join_query(federation, QUERY, protocol="commutative")

    def test_invalid_on_failure_rejected(self, ca, client, workload):
        from repro.errors import ProtocolError

        federation = build_federation(ca, client, workload, Network())
        with pytest.raises(ProtocolError, match="on_failure"):
            run_join_query(federation, QUERY, on_failure="shrug")

    def test_expired_deadline_degrades_to_runfailure(
        self, ca, client, workload
    ):
        federation = build_federation(
            ca, client, workload, faulty_bus(FaultPlan())
        )
        run = run_join_query(
            federation, QUERY, protocol="commutative",
            on_failure="return", deadline_seconds=1e-6,
        )
        assert isinstance(run, RunFailure)
        assert run.error_type == "DeadlineExceeded"

    def test_same_seed_same_plan_byte_identical_event_logs(
        self, ca, client, workload
    ):
        plan = FaultPlan(seed=77, rules=(
            FaultRule(action="drop", probability=0.3, max_triggers=2),
            FaultRule(action="corrupt", probability=0.2, max_triggers=1),
        ))

        def chaos_run() -> str:
            injector = FaultInjector(plan)
            federation = build_federation(
                ca, client, workload, FaultyTransport(Network(), injector)
            )
            result = run_join_query(
                federation, QUERY, protocol="das", on_failure="return"
            )
            assert result.ok  # the plan is survivable
            return injector.event_log_text()

        first, second = chaos_run(), chaos_run()
        assert first.encode("utf-8") == second.encode("utf-8")
        assert first  # the plan actually fired something
