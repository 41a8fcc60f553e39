"""Tests for the session registry and the session context.

The registry is the isolation backbone of concurrent mediation
(docs/transport.md): endpoints, the mediator, and datasources all key
per-session state here.  These tests pin the lifecycle contract —
open/touch/close, TTL sweep, LRU eviction, eviction callbacks — and
the contextvar propagation that carries a session id from the runner
down to every transport send.
"""

import threading

import pytest

from repro.session import (
    DEFAULT_SESSION_CAPACITY,
    DEFAULT_SESSION_TTL,
    Session,
    SessionRegistry,
    current_session_id,
    new_session_id,
    session_scope,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestLifecycle:
    def test_open_creates_and_is_idempotent(self):
        registry = SessionRegistry()
        session = registry.open("alpha")
        assert session.id == "alpha"
        assert not session.closed
        assert registry.open("alpha") is session
        assert len(registry) == 1

    def test_open_without_id_mints_one(self):
        registry = SessionRegistry()
        session = registry.open()
        assert session.id
        assert session.id in registry

    def test_get_creates_by_default_but_not_with_create_false(self):
        registry = SessionRegistry()
        assert registry.get("ghost", create=False) is None
        assert registry.get("ghost").id == "ghost"

    def test_peek_neither_creates_nor_touches(self):
        clock = FakeClock()
        registry = SessionRegistry(clock=clock)
        assert registry.peek("quiet") is None
        registry.open("quiet")
        registry.open("loud")
        clock.advance(10.0)
        registry.peek("quiet")
        # "quiet" was not LRU-bumped by the peek: it is still the
        # least recently used.
        assert registry.ids()[0] == "quiet"

    def test_close_removes_and_marks_closed(self):
        registry = SessionRegistry()
        session = registry.open("alpha")
        closed = registry.close("alpha")
        assert closed is session
        assert closed.closed
        assert "alpha" not in registry
        assert registry.close("alpha") is None  # idempotent

    def test_state_survives_between_accesses(self):
        registry = SessionRegistry()
        registry.get("alpha").state["records"] = [1, 2]
        assert registry.get("alpha").state["records"] == [1, 2]

    def test_clear_closes_everything(self):
        ended = []
        registry = SessionRegistry(on_evict=lambda s, why: ended.append((s.id, why)))
        registry.open("a")
        registry.open("b")
        registry.clear()
        assert len(registry) == 0
        assert sorted(ended) == [("a", "closed"), ("b", "closed")]


class TestEviction:
    def test_lru_eviction_over_capacity(self):
        ended = []
        registry = SessionRegistry(
            capacity=2, on_evict=lambda s, why: ended.append((s.id, why))
        )
        registry.open("a")
        registry.open("b")
        registry.get("a")  # bump: "b" is now least recently used
        registry.open("c")
        assert ended == [("b", "lru")]
        assert registry.ids() == ["a", "c"]

    def test_ttl_sweep_on_access_and_explicit_expire(self):
        clock = FakeClock()
        ended = []
        registry = SessionRegistry(
            ttl=60.0, clock=clock,
            on_evict=lambda s, why: ended.append((s.id, why)),
        )
        registry.open("stale")
        clock.advance(61.0)
        registry.open("fresh")  # access sweeps the stale session
        assert ended == [("stale", "ttl")]
        clock.advance(61.0)
        expired = registry.expire()
        assert [session.id for session in expired] == ["fresh"]
        assert len(registry) == 0

    def test_stale_id_recreates_instead_of_resurrecting(self):
        clock = FakeClock()
        registry = SessionRegistry(ttl=60.0, clock=clock)
        first = registry.get("alpha")
        first.state["secret"] = 42
        clock.advance(61.0)
        second = registry.get("alpha")
        assert second is not first
        assert second.state == {}

    def test_ttl_none_disables_expiry(self):
        clock = FakeClock()
        registry = SessionRegistry(ttl=None, clock=clock)
        registry.open("forever")
        clock.advance(10 * DEFAULT_SESSION_TTL)
        assert registry.expire() == []
        assert "forever" in registry

    def test_touch_refreshes_ttl(self):
        clock = FakeClock()
        registry = SessionRegistry(ttl=60.0, clock=clock)
        registry.open("alpha")
        for _ in range(5):
            clock.advance(40.0)
            registry.get("alpha")
        assert "alpha" in registry

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SessionRegistry(capacity=0)
        with pytest.raises(ValueError):
            SessionRegistry(ttl=0.0)


class TestLocks:
    def test_default_lock_is_a_threading_lock(self):
        session = SessionRegistry().open("alpha")
        assert session.lock.acquire(blocking=False)
        session.lock.release()

    def test_concurrent_access_keeps_distinct_sessions(self):
        registry = SessionRegistry(capacity=DEFAULT_SESSION_CAPACITY)
        errors: list[Exception] = []

        def worker(index: int) -> None:
            try:
                for step in range(50):
                    session = registry.get(f"worker-{index}")
                    with session.lock:
                        session.state["steps"] = session.state.get("steps", 0) + 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(registry) == 8
        for index in range(8):
            assert registry.peek(f"worker-{index}").state["steps"] == 50


class TestContext:
    def test_no_scope_means_no_session(self):
        assert current_session_id() is None

    def test_scope_installs_and_restores(self):
        with session_scope("outer") as outer:
            assert outer == "outer"
            assert current_session_id() == "outer"
            with session_scope("inner"):
                assert current_session_id() == "inner"
            assert current_session_id() == "outer"
        assert current_session_id() is None

    def test_scope_mints_fresh_id_when_none(self):
        with session_scope() as minted:
            assert current_session_id() == minted
        with session_scope() as second:
            assert second != minted

    def test_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with session_scope("doomed"):
                raise RuntimeError("boom")
        assert current_session_id() is None

    def test_new_session_ids_are_hex_and_unique(self):
        ids = {new_session_id() for _ in range(64)}
        assert len(ids) == 64
        for session_id in ids:
            assert len(session_id) == 16
            int(session_id, 16)  # must be hex


class TestSessionObject:
    def test_idle_seconds_tracks_touch(self):
        session = Session("alpha", threading.Lock(), now=100.0)
        assert session.idle_seconds(130.0) == 30.0
        session.touch(130.0)
        assert session.idle_seconds(130.0) == 0.0
