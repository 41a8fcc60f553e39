"""A deliberately size-leaking transport decorator (leakage-gate canary).

:class:`LeakyTransport` wraps a real carrier and, after every protocol
message, emits companion "pad" messages on the same link — one batch
per observable body item.  The pads are fixed-size and carry no data,
but their *count* is proportional to the body's cardinality: exactly
the kind of traffic-shape regression the differential leakage audit
(:mod:`repro.analysis.audit`) exists to catch.  An adversary watching
the wire reads relation sizes straight off the message counts.

It follows the decorator pattern of
:class:`~repro.faults.transport.FaultyTransport`: no transcript of its
own — every observable lives in the wrapped transport — and both
carriers tolerate the extra traffic (the bus records passively; TCP
endpoints acknowledge any data frame).

This class exists so the CI leakage gate can prove it *fails* when a
size channel appears; it must never be wired into a real deployment.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.observables import observable_items
from repro.transport.base import Message, Transport

#: Kind tag of the companion pad messages.
PAD_KIND = "leak_pad"


class LeakyTransport(Transport):
    """Wrap ``inner`` and leak body cardinalities through pad messages."""

    def __init__(
        self,
        inner: Transport,
        *,
        pads_per_item: int = 4,
        pad_bytes: int = 32,
    ) -> None:
        # No super().__init__(): like FaultyTransport, this decorator
        # owns no state — _parties/_messages/_sequence/session_id resolve
        # through __getattr__ to the wrapped transport.
        if pads_per_item < 1:
            raise ValueError(f"pads_per_item must be >= 1, got {pads_per_item}")
        if pad_bytes < 1:
            raise ValueError(f"pad_bytes must be >= 1, got {pad_bytes}")
        self._inner = inner
        self.pads_per_item = pads_per_item
        self.pad_bytes = pad_bytes

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

    def __enter__(self) -> "LeakyTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- leaking delivery ------------------------------------------------------

    def send(self, sender: str, receiver: str, kind: str, body: Any) -> Message:
        """Deliver through the wrapped transport, then leak the cardinality."""
        message = self._inner.send(sender, receiver, kind, body)
        if kind == PAD_KIND:
            return message
        items = observable_items(body) or 0
        pad = b"\x00" * self.pad_bytes
        for _ in range(self.pads_per_item * items):
            self._inner.send(sender, receiver, PAD_KIND, pad)
        return message
