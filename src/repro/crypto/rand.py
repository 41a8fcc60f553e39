"""Protocol randomness that is not a key or a nonce: message order.

The delivery phases send their message sets "arbitrarily ordered"
(Listings 2–4): the order must not reveal the value order, the position
of a dummy, or anything else, so it is drawn from the OS CSPRNG.
:func:`shuffled` draws all of it as one ``os.urandom`` call — a 16-byte
sort key per item — where ``random.SystemRandom().shuffle`` makes one
call per swap.  Two items tie with probability about n²/2^129.
"""

from __future__ import annotations

import os
import struct
from typing import Iterable, TypeVar

T = TypeVar("T")

_KEY_BYTES = 16


def shuffled(items: Iterable[T]) -> list[T]:
    """A uniformly random permutation of ``items``, as a new list."""
    items = list(items)
    count = len(items)
    keys = struct.unpack(
        f"{_KEY_BYTES}s" * count, os.urandom(_KEY_BYTES * count)
    )
    return [items[position] for position in sorted(range(count), key=keys.__getitem__)]
