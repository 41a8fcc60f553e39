"""Lightweight instrumentation of cryptographic primitive usage.

The paper's Table 2 lists which cryptographic primitives each protocol
applies (hash functions, commutative encryption, homomorphic encryption,
random numbers).  To *reproduce* that table from running code rather than
restate it, every primitive in :mod:`repro.crypto` reports each invocation
through :func:`record`.  Analyses install a :class:`PrimitiveCounter`
around a protocol run and read back exact operation counts.

Counting is opt-in and costs one dictionary lookup per primitive call when
no counter is installed.

A counter is per run, per thread and nestable: every
:class:`~repro.core.result.MediationResult` carries the counter of
its own run — scopes the process-wide
:class:`repro.telemetry.metrics.MetricsRegistry` does not have.  Every
recorded operation is *also* forwarded into the installed registry (as
the ``repro_crypto_primitive_ops_total`` counter family), so Prometheus
expositions and JSON snapshots carry exactly the totals the counters
observe.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

from repro.telemetry import metrics as _metrics

_local = threading.local()


def _stack() -> list["PrimitiveCounter"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


class PrimitiveCounter:
    """Collects per-operation invocation counts of crypto primitives.

    Operation names are dotted strings such as ``"hash.ideal"``,
    ``"commutative.encrypt"``, ``"paillier.encrypt"`` or ``"random.key"``.
    :attr:`counts` maps each name to its invocation count;
    :meth:`families` aggregates by the prefix before the first dot, which
    is the granularity of the paper's Table 2.
    """

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def record(self, operation: str, amount: int = 1) -> None:
        self.counts[operation] += amount

    def families(self) -> dict[str, int]:
        """Aggregate counts by primitive family (prefix before '.')."""
        totals: Counter[str] = Counter()
        for operation, count in self.counts.items():
            family = operation.split(".", 1)[0]
            totals[family] += count
        return dict(totals)

    def total(self, prefix: str = "") -> int:
        """Total invocations of operations starting with ``prefix``."""
        return sum(
            count for op, count in self.counts.items() if op.startswith(prefix)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrimitiveCounter({dict(self.counts)!r})"


def record(operation: str, amount: int = 1) -> None:
    """Report ``amount`` invocations of ``operation`` to active counters
    and to the installed metrics registry (if any).

    A batch reports its size in one call; an empty batch reports nothing,
    so it leaves no zero-valued entry behind.
    """
    if not amount:
        return
    for counter in _stack():
        counter.record(operation, amount)
    registry = _metrics.get_registry()
    if registry is not None:
        registry.record_primitive(operation, amount)


@contextmanager
def count_primitives() -> Iterator[PrimitiveCounter]:
    """Context manager installing a fresh :class:`PrimitiveCounter`.

    Counters nest: every counter on the stack sees every recorded
    operation, so an outer audit still observes operations recorded while
    an inner one is active.
    """
    counter = PrimitiveCounter()
    stack = _stack()
    stack.append(counter)
    try:
        yield counter
    finally:
        stack.remove(counter)
