"""Deadline propagation from the runner down through transport calls.

A :class:`Deadline` is an absolute point on the monotonic clock plus
the budget it was created with.  The runner installs one for the whole
query (``run_join_query(..., deadline_seconds=...)``); every blocking
wait below it — TCP connects, acknowledgement reads, fault-injected
delays — shortens its own timeout to the remaining budget and raises
:class:`~repro.errors.DeadlineExceeded` once nothing is left.  The
deadline lives in a :mod:`contextvars` variable, so propagation follows
the call stack with no plumbing through protocol signatures.

Design notes:

* the deadline is a *ceiling*, not a replacement, for per-operation
  timeouts: an acknowledgement wait uses ``min(io_timeout, remaining)``,
* with no deadline installed every helper degrades to a pass-through,
  mirroring the opt-in design of :mod:`repro.telemetry`,
* :class:`DeadlineExceeded` subclasses :class:`~repro.errors.
  NetworkError`, so hardened callers treat budget exhaustion like any
  other delivery failure.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.errors import DeadlineExceeded


class Deadline:
    """An absolute expiry on the monotonic clock."""

    __slots__ = ("budget", "_expires_at")

    def __init__(self, seconds: float) -> None:
        if seconds <= 0:
            raise ValueError(f"deadline budget must be positive, got {seconds}")
        self.budget = float(seconds)
        self._expires_at = time.monotonic() + self.budget

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self._expires_at - time.monotonic()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(budget={self.budget}, remaining={self.remaining():.3f})"


_current_deadline: ContextVar[Deadline | None] = ContextVar(
    "repro_current_deadline", default=None
)


def current_deadline() -> Deadline | None:
    """The innermost installed deadline, or None."""
    return _current_deadline.get()


@contextmanager
def deadline(seconds: float | None) -> Iterator[Deadline | None]:
    """Install a deadline for the duration of the block.

    ``seconds=None`` is a no-op passthrough so callers can forward an
    optional configuration value unconditionally.
    """
    if seconds is None:
        yield None
        return
    installed = Deadline(seconds)
    token = _current_deadline.set(installed)
    try:
        yield installed
    finally:
        _current_deadline.reset(token)


def check_deadline(context: str) -> None:
    """Raise :class:`DeadlineExceeded` if the installed deadline expired."""
    installed = _current_deadline.get()
    if installed is not None and installed.expired():
        raise DeadlineExceeded(
            f"deadline of {installed.budget}s exhausted during {context}"
        )
