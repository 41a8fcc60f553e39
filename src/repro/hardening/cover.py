"""Cover traffic: fixed-size result frames with dummy top-up.

The hardened mode's result channels never send "the result" as one
message whose count or size tracks the data.  Instead,
:class:`CoverTraffic` schedules a **deterministic number of frames** per
result kind — ``ceil(bound / batch_size)`` where ``bound`` is computed
from adjacency-invariant quantities only (active-domain sizes,
multiplicity maxima, partition counts) — and fills any shortfall of real
items with indistinguishable dummies supplied by the caller.  Frames
consisting purely of dummies are exactly the "sealed no-op" cover frames
of the oblivious-processing literature (arXiv 1312.4012): an adversary
counting or sizing frames on any link learns only the invariant
schedule.

The schedule is a pure function of the bound and the policy, so two runs
over adjacent workloads — or two runs of the *same* workload under a
seeded fault plan — produce byte-identical frame sequences and therefore
byte-identical fault logs (the injector's decisions key off message
positions, which never move).
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from repro.errors import ProtocolError


class CoverTraffic:
    """Chunked, count-equalized delivery of one result channel.

    Bound to a :class:`~repro.hardening.policy.Hardening` context for the
    batch size and the frame accounting; the context creates one per run.
    """

    def __init__(self, hardening: Any) -> None:
        self._hardening = hardening

    def schedule(self, bound: int) -> int:
        """Frames sent for a channel with invariant bound ``bound``.

        At least one frame is always sent, so the channel's *kind* stays
        observable even for an empty (but invariantly empty) result.
        """
        if bound < 0:
            raise ProtocolError(f"negative cover-traffic bound {bound}")
        batch = self._hardening.policy.batch_size
        return max(1, -(-bound // batch))

    def deliver_chunks(
        self,
        kind: str,
        items: Sequence[Any],
        bound: int,
        dummies: Sequence[Any] = (),
        shuffle: bool = False,
    ) -> list[list[Any]]:
        """``items`` as the ``schedule(bound)`` frames of one ``kind``.

        ``items`` is topped up to exactly ``bound`` elements from the
        front of ``dummies``, optionally shuffled (protocol randomness —
        dummy positions must not leak), and partitioned into frames of
        at most ``batch_size`` elements each; a frame body is a plain
        list.  Returns the frames in delivery order; the caller emits
        each as one message of ``kind``.
        """
        real = list(items)
        if len(real) > bound:
            raise ProtocolError(
                f"{kind}: {len(real)} real items exceed the hardened "
                f"bound {bound} — the bound must dominate every workload"
            )
        shortfall = bound - len(real)
        if shortfall > len(dummies):
            raise ProtocolError(
                f"{kind}: {shortfall} dummy items needed but only "
                f"{len(dummies)} given"
            )
        filler = list(dummies[:shortfall])
        dummy_ids = {id(item) for item in filler}
        padded = real + filler
        if shuffle:
            random.SystemRandom().shuffle(padded)
        batch = self._hardening.policy.batch_size
        stats = self._hardening.stats
        frames = [
            padded[position * batch:(position + 1) * batch]
            for position in range(self.schedule(bound))
        ]
        stats.frames += len(frames)
        stats.dummy_frames += sum(
            bool(chunk) and all(id(item) in dummy_ids for item in chunk)
            for chunk in frames
        )
        return frames
