"""Session lifecycle: multiplexing many join queries over shared parties.

One *session* is one client's series of queries — the unit of isolation
when a single mediator/datasource trio serves many clients at once
(Shafieinejad et al. motivate exactly this workload: the same encrypted
sources answering a *series* of queries).  This module provides the two
halves of that multiplexing:

* a **registry** (:class:`SessionRegistry`) that keys arbitrary
  per-session protocol state — endpoint routing records, dedupe
  windows, decomposition caches, credential-verification caches — by
  session id, with an explicit lifecycle (open → steps → close) plus
  LRU + TTL eviction so abandoned sessions cannot leak memory in a
  long-lived ``repro serve`` process;
* a **context** (:func:`session_scope` / :func:`current_session_id`)
  that propagates the active session id through a run the same way
  :mod:`repro.deadline` propagates deadlines: the runner opens a scope,
  and every transport send, fault decision, and span below it can read
  the id without plumbing it through each protocol signature.

Isolation is a security property here, not just a performance one
(Vaswani et al., "Information Flows in Encrypted Databases"): endpoint
state recorded under one session id must never be observable through
another session's queries, which is why the registry — not ad-hoc
module globals — owns every per-session slot.

The module is dependency-free (no telemetry, no transport imports) so
any layer may use it without import cycles.
"""

from __future__ import annotations

import contextvars
import secrets
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "DEFAULT_SESSION_CAPACITY",
    "DEFAULT_SESSION_TTL",
    "Session",
    "SessionRegistry",
    "current_session_id",
    "new_session_id",
    "session_scope",
]

#: Sessions kept per registry before the least-recently-used is evicted.
DEFAULT_SESSION_CAPACITY = 1024
#: Seconds of inactivity after which a session is expired by a sweep.
DEFAULT_SESSION_TTL = 900.0


def new_session_id() -> str:
    """A fresh, unguessable session identifier (64 bits of entropy)."""
    return secrets.token_hex(8)


class Session:
    """One open session: identity, liveness clock, and its state slots.

    ``state`` is a free-form dict owned by whoever opened the session
    (an endpoint keeps its records and dedupe window there, a mediator
    its decomposition cache).  ``lock``, a :class:`threading.Lock`,
    serializes steps *within* the session while distinct sessions
    proceed in parallel.
    """

    __slots__ = ("id", "created_at", "last_used", "state", "lock", "closed")

    def __init__(
        self, session_id: str, lock: threading.Lock, now: float
    ) -> None:
        self.id = session_id
        self.created_at = now
        self.last_used = now
        self.state: dict[str, Any] = {}
        self.lock = lock
        self.closed = False

    def touch(self, now: float) -> None:
        self.last_used = now

    def idle_seconds(self, now: float) -> float:
        return now - self.last_used

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session({self.id!r}, closed={self.closed})"


class SessionRegistry:
    """Keyed per-session state with explicit lifecycle and bounded memory.

    Lifecycle: a session is **opened** (explicitly via :meth:`open`, or
    implicitly by :meth:`get` with ``create=True`` — a session's first
    message opens it without a SESSION frame), **touched** by each
    step, and ends by :meth:`close`, by TTL expiry (:meth:`expire`, also
    run opportunistically on every access), or by LRU eviction once the
    registry exceeds ``capacity``.  ``on_evict(session, reason)`` is
    fired for every ending (reasons: ``"closed"``, ``"ttl"``, ``"lru"``)
    so owners can release derived resources.

    Thread-safe: a private :class:`threading.Lock` guards the table, so
    the registry serves the bus's caller threads and an endpoint's
    connection threads alike.  Each session gets its own
    :class:`threading.Lock`, handed to the caller; the registry itself
    never acquires it.
    """

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_SESSION_CAPACITY,
        ttl: float | None = DEFAULT_SESSION_TTL,
        on_evict: Callable[[Session, str], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive or None, got {ttl}")
        self.capacity = capacity
        self.ttl = ttl
        self._on_evict = on_evict
        self._clock = clock
        self._guard = threading.Lock()
        #: Insertion order doubles as LRU order: every touch reinserts.
        self._sessions: dict[str, Session] = {}

    # -- lifecycle ---------------------------------------------------------

    def open(self, session_id: str | None = None) -> Session:
        """Explicitly open a fresh session; returns the existing one if
        the id is already live (opens are idempotent — a retried SESSION
        frame must not fail)."""
        session_id = session_id or new_session_id()
        return self.get(session_id)

    def get(self, session_id: str, *, create: bool = True) -> Session | None:
        """The live session for ``session_id``, LRU-touched.

        With ``create=True`` (default) an unknown id opens implicitly, so
        a session needs no explicit open.
        Expired sessions are swept first, so a stale id re-creates a
        fresh session rather than resurrecting evicted state.
        """
        now = self._clock()
        ended: list[tuple[Session, str]] = []
        try:
            with self._guard:
                self._sweep(now, ended)
                session = self._sessions.pop(session_id, None)
                if session is None:
                    if not create:
                        return None
                    session = Session(session_id, threading.Lock(), now)
                session.touch(now)
                self._sessions[session_id] = session  # reinsert = LRU bump
                self._evict_over_capacity(ended)
                return session
        finally:
            self._notify(ended)

    def peek(self, session_id: str) -> Session | None:
        """The live session, without touching LRU order or creating."""
        with self._guard:
            return self._sessions.get(session_id)

    def close(self, session_id: str) -> Session | None:
        """End a session explicitly; returns it (now closed), if it was
        live."""
        with self._guard:
            session = self._sessions.pop(session_id, None)
        if session is not None:
            session.closed = True
            self._notify([(session, "closed")])
        return session

    def expire(self) -> list[Session]:
        """Sweep TTL-stale sessions now; returns the expired ones."""
        ended: list[tuple[Session, str]] = []
        with self._guard:
            self._sweep(self._clock(), ended)
        self._notify(ended)
        return [session for session, _ in ended]

    def clear(self) -> None:
        """Close every live session (registry shutdown)."""
        with self._guard:
            doomed = list(self._sessions.values())
            self._sessions.clear()
        for session in doomed:
            session.closed = True
        self._notify([(session, "closed") for session in doomed])

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._guard:
            return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        with self._guard:
            return session_id in self._sessions

    def ids(self) -> list[str]:
        """Live session ids, least-recently-used first."""
        with self._guard:
            return list(self._sessions)

    # -- internals ---------------------------------------------------------

    def _sweep(self, now: float, ended: list[tuple[Session, str]]) -> None:
        """Remove TTL-expired sessions (guard held)."""
        if self.ttl is None:
            return
        stale = [
            session_id
            for session_id, session in self._sessions.items()
            if session.idle_seconds(now) > self.ttl
        ]
        for session_id in stale:
            session = self._sessions.pop(session_id)
            session.closed = True
            ended.append((session, "ttl"))

    def _evict_over_capacity(self, ended: list[tuple[Session, str]]) -> None:
        """Drop least-recently-used sessions above capacity (guard held)."""
        while len(self._sessions) > self.capacity:
            session_id = next(iter(self._sessions))
            session = self._sessions.pop(session_id)
            session.closed = True
            ended.append((session, "lru"))

    def _notify(self, ended: list[tuple[Session, str]]) -> None:
        """Fire eviction callbacks outside the guard (no re-entrancy)."""
        if self._on_evict is None:
            return
        for session, reason in ended:
            self._on_evict(session, reason)


# ---------------------------------------------------------------------------
# Context propagation (mirrors repro.deadline).
# ---------------------------------------------------------------------------

_current_session: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro.session", default=None
)


def current_session_id() -> str | None:
    """The session id installed by the innermost :func:`session_scope`."""
    return _current_session.get()


@contextmanager
def session_scope(session_id: str | None = None) -> Iterator[str]:
    """Install a session id for the dynamic extent of a run.

    Everything below the scope — transport sends, fault decisions,
    spans — reads the id via :func:`current_session_id`.  ``None``
    mints a fresh id; scopes nest, restoring the outer id on exit.
    """
    session_id = session_id or new_session_id()
    token = _current_session.set(session_id)
    try:
        yield session_id
    finally:
        _current_session.reset(token)
