"""Tests for the span model, the tracer, and context propagation."""

import os
import threading
import time

import pytest

from repro.errors import TelemetryError
from repro.telemetry import tracing
from repro.telemetry.tracing import (
    SPAN_IDS_PER_DRAW,
    Span,
    SpanContext,
    Tracer,
    current_context,
    current_span,
    get_tracer,
    new_span_id,
    new_trace_id,
    span,
    use_tracer,
)


class TestIdentifiers:
    def test_sizes_and_uniqueness(self):
        trace_ids = {new_trace_id() for _ in range(64)}
        span_ids = {new_span_id() for _ in range(64)}
        assert len(trace_ids) == 64 and len(span_ids) == 64
        assert all(len(t) == 32 for t in trace_ids)
        assert all(len(s) == 16 for s in span_ids)

    def test_pooled_span_ids_stay_distinct_hex(self):
        ids = [new_span_id() for _ in range(3 * SPAN_IDS_PER_DRAW + 5)]
        assert len(set(ids)) == len(ids)
        assert all(len(s) == 16 and int(s, 16) >= 0 for s in ids)

    def test_threads_draw_their_own_ids(self):
        drawn: list[list[str]] = [[], []]

        def draw(into):
            into.extend(new_span_id() for _ in range(SPAN_IDS_PER_DRAW))

        threads = [threading.Thread(target=draw, args=(d,)) for d in drawn]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(drawn[0]) | set(drawn[1])) == 2 * SPAN_IDS_PER_DRAW

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_does_not_reuse_the_pool(self):
        new_span_id()  # the pool holds ids the parent hands out next
        reader, writer = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report its next ids and leave
            try:
                os.write(writer, "".join(new_span_id() for _ in range(8)).encode())
            finally:
                os._exit(0)
        os.close(writer)
        with os.fdopen(reader) as pipe:
            child = pipe.read()
        os.waitpid(pid, 0)
        child_ids = {child[i:i + 16] for i in range(0, len(child), 16)}
        parent_ids = {new_span_id() for _ in range(8)}
        assert len(child_ids) == 8 and not child_ids & parent_ids

    def test_ids_do_not_touch_module_random_state(self):
        import random

        random.seed(42)
        expected = random.Random(42).random()
        new_trace_id()
        new_span_id()
        assert random.random() == expected


class TestSpanContext:
    def test_wire_round_trip(self):
        context = SpanContext(trace_id="t" * 32, span_id="s" * 16)
        assert SpanContext.from_wire(context.to_wire()) == context

    @pytest.mark.parametrize(
        "raw", [None, (), ("only-one",), ("a", 2), ("", "b"), "ab", 5]
    )
    def test_from_wire_tolerates_garbage(self, raw):
        assert SpanContext.from_wire(raw) is None


class TestTracer:
    def test_nesting_follows_the_call_stack(self):
        tracer = Tracer()
        with tracer.span("outer", "client") as outer:
            assert current_span() is outer
            with tracer.span("inner", "client") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        assert current_span() is None
        assert [
            span for span in tracer.spans if span.parent_id == outer.span_id
        ] == [inner]

    def test_root_span_uses_tracer_trace_id(self):
        tracer = Tracer()
        with tracer.span("root", "client") as root:
            pass
        assert root.trace_id == tracer.trace_id
        assert root.parent_id is None

    def test_explicit_parent_overrides_ambient_and_sets_trace(self):
        tracer = Tracer()
        remote = SpanContext(trace_id="f" * 32, span_id="e" * 16)
        with tracer.span("recv:x", "S1", parent=remote) as adopted:
            pass
        assert adopted.trace_id == remote.trace_id
        assert adopted.parent_id == remote.span_id

    def test_exception_marks_error_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("bad", "client"):
                raise ValueError("boom")
        (bad,) = tracer.find("bad")
        assert bad.status == "error"
        assert bad.seconds >= 0.0
        assert current_span() is None

    def test_durations_are_recorded(self):
        tracer = Tracer()
        with tracer.span("work", "client"):
            pass
        (work,) = tracer.find("work")
        assert work.seconds >= 0.0
        assert work.end >= work.start

    def test_set_up_runs_on_the_span_s_own_clock(self, monkeypatch):
        """Drawing the id is set-up: its time is the span's own, not
        its parent's."""
        def slow_id():
            time.sleep(0.02)
            return "ab" * 8

        tracer = Tracer()
        with tracer.span("parent", "client"):
            monkeypatch.setattr(tracing, "new_span_id", slow_id)
            with tracer.span("child", "client"):
                pass
            monkeypatch.undo()
        (parent,), (child,) = tracer.find("parent"), tracer.find("child")
        assert child.seconds >= 0.02
        assert parent.seconds - child.seconds < 0.02

    def test_adopt_and_queries(self):
        tracer = Tracer()
        foreign = Span(
            trace_id=tracer.trace_id,
            span_id=new_span_id(),
            parent_id=None,
            name="remote",
            party="S2",
            start=1.0,
            seconds=0.5,
        )
        tracer.adopt([foreign])
        assert tracer.parties() == {"S2"}
        assert tracer.trace_ids() == {tracer.trace_id}
        assert tracer.find("remote") == [foreign]

    def test_thread_safety_of_collection(self):
        tracer = Tracer()

        def worker():
            for _ in range(50):
                with tracer.span("t", "p"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer.spans) == 200


class TestSpanSerialization:
    def test_dict_round_trip(self):
        tracer = Tracer()
        with tracer.span("step", "S1", attributes={"items": 3}) as opened:
            pass
        restored = Span.from_dict(opened.to_dict())
        assert restored.span_id == opened.span_id
        assert restored.attributes == {"items": 3}
        assert restored.seconds == opened.seconds

    def test_malformed_record_raises(self):
        with pytest.raises(TelemetryError):
            Span.from_dict({"name": "missing-everything"})


class TestInstallation:
    def test_module_span_is_noop_without_tracer(self):
        assert get_tracer() is None
        with span("anything", "client") as opened:
            assert opened is None
        assert current_context() is None

    def test_module_span_records_when_installed(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("step", "client", items=2) as opened:
                assert opened is not None
                assert current_context() == opened.context()
        assert get_tracer() is None
        assert tracer.find("step")[0].attributes == {"items": 2}

    @pytest.mark.parametrize("slow", ["current_session_id", "_Scope"])
    def test_module_span_set_up_runs_on_the_span_s_own_clock(
        self, monkeypatch, slow
    ):
        """The session lookup, the scope's construction and its
        ``__enter__`` are set-up of :func:`span`: their time is the
        span's own, not its parent's."""
        original = getattr(tracing, slow)

        def slow_set_up(*args, **kwargs):
            time.sleep(0.02)
            return original(*args, **kwargs)

        tracer = Tracer()
        with use_tracer(tracer):
            with span("parent", "client"):
                monkeypatch.setattr(tracing, slow, slow_set_up)
                with span("child", "client"):
                    pass
                monkeypatch.undo()
        (parent,), (child,) = tracer.find("parent"), tracer.find("child")
        assert child.seconds >= 0.02
        assert parent.seconds - child.seconds < 0.02
