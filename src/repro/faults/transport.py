"""A fault-injecting decorator for any :class:`~repro.transport.base.Transport`.

:class:`FaultyTransport` wraps a real carrier — the in-process bus or
the TCP transport — and consults a shared
:class:`~repro.faults.injector.FaultInjector` on every delivery
attempt.  All transcript, sequence and session state lives in the
wrapped transport (attribute access falls through to it), so analyses and
protocols see exactly one transport; the decorator only decides whether
each attempt is delayed, lost, garbled, or interrupted by a crash.

Failure semantics mirror the hardened TCP transport:

* ``drop`` and ``corrupt`` model transient in-flight loss — the
  decorator retries them itself (bounded attempts), so a survivable
  plan converges to the fault-free result on *any* carrier, including
  the bus, which has no retry of its own.
* ``crash`` is permanent: the victim is marked dead (every later
  message touching it fails immediately), and when the carrier hosts a
  real endpoint for the victim it is actually killed
  (:meth:`~repro.transport.tcp.TcpTransport.crash_party`), so the port
  goes dark too.
* every failure surfaces as :class:`~repro.errors.FaultInjectedError`,
  a :class:`~repro.errors.NetworkError` — hardened callers cannot tell
  injected chaos from organic failure.
"""

from __future__ import annotations

import time
from typing import Any

from repro.deadline import check_deadline
from repro.errors import FaultInjectedError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent
from repro.session import current_session_id
from repro.transport.base import Message, Transport

#: How a transient in-flight fault reads in the raised error.
_TRANSIENT = {"drop": "dropped", "corrupt": "corrupted"}


class FaultyTransport(Transport):
    """Wrap ``inner`` and inject the faults ``injector`` decides on."""

    def __init__(
        self,
        inner: Transport,
        injector: FaultInjector,
        *,
        attempts: int = 4,
    ) -> None:
        # No super().__init__(): this decorator owns no transcript of
        # its own — _parties/_messages/_sequence/session_id resolve
        # through __getattr__ to the wrapped transport, keeping one
        # shared source of truth for every observable.
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        self._inner = inner
        self.injector = injector
        self._attempts = attempts
        self._crashed: set[str] = set()

    def __getattr__(self, name: str) -> Any:
        inner = self.__dict__.get("_inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    # -- delegated lifecycle -------------------------------------------------

    def register(self, party: str) -> None:
        self._inner.register(party)

    def close(self) -> None:
        self._inner.close()

    def __enter__(self) -> "FaultyTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- fault-aware delivery --------------------------------------------------

    def send(self, sender: str, receiver: str, kind: str, body: Any) -> Message:
        """Deliver through the wrapped transport, injecting faults.

        Transient faults (drop, corrupt) are retried up to ``attempts``
        times; each retry is a fresh observation for the injector, so
        occurrence-based rules do not re-fire on the retry they caused.
        """
        for attempt in range(self._attempts):
            check_deadline(f"send of {kind!r} from {sender!r} to {receiver!r}")
            self._require_alive(sender, receiver)
            fired = self.injector.observe(
                "transport", sender, receiver, kind,
                session=current_session_id() or self.session_id,
            )
            try:
                self._enact(fired, sender, receiver, kind)
            except FaultInjectedError as exc:
                if exc.retryable and attempt < self._attempts - 1:
                    continue
                raise
            return self._inner.send(sender, receiver, kind, body)
        raise AssertionError("unreachable: the loop returns or raises")

    def _require_alive(self, sender: str, receiver: str) -> None:
        for party in (sender, receiver):
            if party in self._crashed:
                raise FaultInjectedError(
                    f"party {party!r} has crashed (injected fault); "
                    f"cannot deliver {sender!r} -> {receiver!r}",
                    retryable=False,
                )

    def _enact(
        self, fired, sender: str, receiver: str, kind: str
    ) -> None:
        for rule in fired:
            if rule.action == "delay":
                time.sleep(rule.delay_seconds)
        for rule in fired:
            if rule.action == "crash":
                victim = rule.crash_target
                self._crashed.add(victim)
                crash = getattr(self._inner, "crash_party", None)
                if crash is not None:
                    crash(victim)
                raise FaultInjectedError(
                    f"party {victim!r} crashed (injected fault) while "
                    f"{sender!r} -> {receiver!r} kind={kind!r} was in flight",
                    retryable=False,
                )
        for rule in fired:
            if rule.action in _TRANSIENT:
                raise FaultInjectedError(
                    f"message {sender!r} -> {receiver!r} kind={kind!r} "
                    f"{_TRANSIENT[rule.action]} in transit (injected fault)",
                    retryable=True,
                )

    # -- introspection ---------------------------------------------------------

    @property
    def fault_events(self) -> list[FaultEvent]:
        """The injector's deterministic event log."""
        return self.injector.event_log()
