"""Padding policy and the per-run hardening context.

The opt-in hardened mode makes every adversary-observable quantity a
function of **adjacency invariants** — quantities the differential
audit's one-value perturbation (:func:`repro.analysis.audit.
adjacent_workload`) provably preserves: relation cardinalities, active-
domain sizes, the multiset of per-value multiplicities, schemas, and
payload widths.  Three mechanisms, all configured here:

* **uniform plaintexts** — every encoding that becomes a ciphertext body
  is wrapped to one per-channel target length (quantum-rounded maximum),
  so ciphertext sizes stop tracking row content;
* **bucket padding** — DAS partition buckets are topped up to an
  invariant per-bucket bound with dummy etuples that are ciphertext-
  indistinguishable from real rows and **decrypt to discard** at the
  client (a one-byte marker under the encryption);
* **fixed-size result frames** — result channels deliver through
  :class:`~repro.hardening.cover.CoverTraffic`, whose frame count is a
  pure function of an invariant bound.

What hardening deliberately does **not** hide — wall-clock timing and
the (invariant, but larger) total volume — is documented as the residual
channel set in ``docs/security.md`` ("Hardened mode"), following the
information-flow analysis of arXiv 1605.01092.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import ParameterError, ProtocolError
from repro.hardening.cover import CoverTraffic
from repro.telemetry import metrics as _metrics

#: First byte of every hardened plaintext: real payload or dummy filler.
MARKER_DUMMY = 0x00
MARKER_REAL = 0x01

#: Marker byte plus a 32-bit big-endian payload length.
HEADER_BYTES = 5

#: Prometheus counter: plaintext bytes added by padding and dummies.
PAD_BYTES_METRIC = "repro_hardening_pad_bytes_total"
#: Prometheus counter: dummy items (etuples, result pairs) injected.
DUMMY_ITEMS_METRIC = "repro_hardening_dummy_items_total"
#: Prometheus counter: result frames scheduled by the cover scheduler.
FRAMES_METRIC = "repro_hardening_frames_total"


@dataclass(frozen=True)
class PaddingPolicy:
    """Tunable parameters of the hardened mode (all adjacency-blind)."""

    #: Items per result frame (fixed-size chunked delivery).
    batch_size: int = 64
    #: Row/tuple-set plaintexts are padded to multiples of this.
    quantum: int = 32
    #: Index-table plaintexts are padded to multiples of this (tables
    #: serialize larger than rows, so a coarser quantum keeps the padded
    #: length stable across adjacent workloads).
    table_quantum: int = 256

    def __post_init__(self) -> None:
        for name in ("batch_size", "quantum", "table_quantum"):
            if getattr(self, name) < 1:
                raise ParameterError(
                    f"PaddingPolicy.{name} must be >= 1, "
                    f"got {getattr(self, name)}"
                )

    # -- plaintext wrapping ------------------------------------------------

    def padded_length(self, max_payload: int, quantum: int | None = None) -> int:
        """Smallest quantum multiple holding a ``max_payload``-byte wrap."""
        if max_payload < 0:
            raise ParameterError(f"negative payload length {max_payload}")
        quantum = quantum or self.quantum
        need = HEADER_BYTES + max_payload
        return -(-need // quantum) * quantum

    def wrap(self, payload: bytes, target: int) -> bytes:
        """``marker || len || payload || zeros`` — exactly ``target`` bytes."""
        if HEADER_BYTES + len(payload) > target:
            raise ParameterError(
                f"cannot wrap {len(payload)} payload bytes into a "
                f"{target}-byte hardened plaintext"
            )
        return (
            bytes([MARKER_REAL])
            + len(payload).to_bytes(4, "big")
            + payload
            + b"\x00" * (target - HEADER_BYTES - len(payload))
        )

    def wrap_dummy(self, target: int) -> bytes:
        """An all-zero dummy plaintext of exactly ``target`` bytes."""
        if target < 1:
            raise ParameterError(f"dummy target must be >= 1, got {target}")
        return b"\x00" * target

    def unwrap(self, padded: bytes) -> bytes | None:
        """Recover the payload; ``None`` flags a dummy to discard."""
        if not padded:
            raise ProtocolError("empty hardened plaintext")
        if padded[0] == MARKER_DUMMY:
            return None
        if padded[0] != MARKER_REAL or len(padded) < HEADER_BYTES:
            raise ProtocolError("malformed hardened plaintext header")
        length = int.from_bytes(padded[1:HEADER_BYTES], "big")
        if HEADER_BYTES + length > len(padded):
            raise ProtocolError("hardened plaintext truncated")
        return padded[HEADER_BYTES:HEADER_BYTES + length]

    # -- invariant bounds ---------------------------------------------------

    def bucket_bound(
        self,
        max_multiplicity: int,
        domain_size: int,
        buckets: int,
        strategy: str,
    ) -> int:
        """Per-bucket row bound from adjacency invariants only.

        ``max_multiplicity * (values per partition)`` dominates every
        bucket's real occupancy: a bucket of k values holds at most
        k * max_multiplicity rows.  Both factors are preserved by the
        one-value perturbation, so the padded occupancy histogram is
        identical for adjacent workloads.
        """
        if domain_size == 0 or max_multiplicity == 0:
            return 0
        if strategy == "singleton":
            return max_multiplicity
        return max_multiplicity * -(-domain_size // min(buckets, domain_size))


@dataclass
class HardeningStats:
    """Byte and item accounting of one hardened run."""

    real_bytes: int = 0
    padded_bytes: int = 0
    dummy_items: int = 0
    frames: int = 0
    dummy_frames: int = 0


class Hardening:
    """Per-run hardening context: policy, accounting, cover scheduler.

    Every party of a delivery phase is seated with the same one (built
    by :func:`repro.core.runner.run_join_query`) and routes every
    plaintext that becomes adversary-visible ciphertext through it.
    """

    def __init__(self, policy: PaddingPolicy | None = None) -> None:
        self.policy = policy or PaddingPolicy()
        self.stats = HardeningStats()
        self.cover = CoverTraffic(self)

    # -- wrapping with accounting ------------------------------------------

    def wrap_uniform(
        self, payloads: Iterable[bytes], quantum: int | None = None
    ) -> tuple[list[bytes], int]:
        """Wrap all ``payloads`` to one shared target length.

        The target is the quantum-rounded maximum, so within the channel
        every ciphertext body has the same size.  Returns the wrapped
        list plus the target (for sizing matching dummies).
        """
        items = list(payloads)
        target = self.policy.padded_length(
            max((len(item) for item in items), default=0), quantum
        )
        wrapped = [self.policy.wrap(item, target) for item in items]
        self.stats.real_bytes += sum(len(item) for item in items)
        self.stats.padded_bytes += target * len(items)
        return wrapped, target

    def wrap_table(self, table_bytes: bytes) -> bytes:
        """Pad one serialized index table to the coarse table quantum."""
        target = self.policy.padded_length(
            len(table_bytes), self.policy.table_quantum
        )
        self.stats.real_bytes += len(table_bytes)
        self.stats.padded_bytes += target
        return self.policy.wrap(table_bytes, target)

    def dummy(self, target: int) -> bytes:
        """An accounted dummy plaintext (decrypts to discard)."""
        self.stats.dummy_items += 1
        self.stats.padded_bytes += target
        return self.policy.wrap_dummy(target)

    def unwrap(self, padded: bytes) -> bytes | None:
        return self.policy.unwrap(padded)

    # -- reporting ----------------------------------------------------------

    def artifact(self) -> dict[str, Any]:
        """JSON-able digest for ``result.artifacts["hardening"]``."""
        stats = self.stats
        overhead = (
            stats.padded_bytes / stats.real_bytes if stats.real_bytes else 1.0
        )
        return {
            "enabled": True,
            "policy": {
                "batch_size": self.policy.batch_size,
                "quantum": self.policy.quantum,
                "table_quantum": self.policy.table_quantum,
            },
            "real_bytes_total": stats.real_bytes,
            "padded_bytes_total": stats.padded_bytes,
            "pad_bytes_total": stats.padded_bytes - stats.real_bytes,
            "overhead_factor": round(overhead, 4),
            "dummy_items_total": stats.dummy_items,
            "frames_total": stats.frames,
            "dummy_frames_total": stats.dummy_frames,
        }

    def record_metrics(self, protocol: str) -> None:
        """Fold the run's accounting into the installed metrics registry."""
        registry = _metrics.get_registry()
        if registry is None:
            return
        labels = {"protocol": protocol}
        registry.counter(
            PAD_BYTES_METRIC, labels,
            help_text="Plaintext bytes added by hardened-mode padding",
        ).inc(self.stats.padded_bytes - self.stats.real_bytes)
        registry.counter(
            DUMMY_ITEMS_METRIC, labels,
            help_text="Dummy items injected by hardened-mode padding",
        ).inc(self.stats.dummy_items)
        registry.counter(
            FRAMES_METRIC, labels,
            help_text="Result frames scheduled by hardened-mode cover traffic",
        ).inc(self.stats.frames)


def resolve_hardening(
    value: Any, default: PaddingPolicy | None = None
) -> Hardening | None:
    """Normalize a caller-facing hardening argument to a run context.

    Accepts ``None`` (fall back to ``default``, typically the
    federation-level policy), booleans, a :class:`PaddingPolicy`, or an
    existing :class:`Hardening` context.
    """
    if value is None:
        value = default
    if value is None or value is False:
        return None
    if value is True:
        return Hardening()
    if isinstance(value, Hardening):
        return value
    if isinstance(value, PaddingPolicy):
        return Hardening(value)
    raise ParameterError(
        f"hardening must be a bool, PaddingPolicy, or Hardening context; "
        f"got {type(value).__name__}"
    )
