"""Flattening message bodies into the byte material a party observed.

Semi-honest leakage analysis asks: *given everything a party saw, what
can it compute?*  The first step is mechanising "everything it saw" —
this module walks arbitrary message bodies (dataclasses, containers,
ciphertexts, integers) and collects every byte string and integer that
crossed the wire, so scanners can search a party's view for plaintext
material that should never be there.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence
from typing import Any, Iterator

from repro.transport.base import PartyView


def iter_byte_material(body: Any) -> Iterator[bytes]:
    """Yield every byte string reachable inside a message body.

    Integers are included via their big-endian encodings (ciphertext
    integers, tags, index values); container structure is flattened, a
    column table's as the pairs it iterates.  Anything else raises
    :class:`TypeError`: a leak scan over material it cannot see would
    pass vacuously.
    """
    if body is None or isinstance(body, bool):
        return
    if isinstance(body, (bytes, bytearray)):
        yield bytes(body)
        return
    if isinstance(body, str):
        yield body.encode("utf-8")
        return
    if isinstance(body, int):
        yield body.to_bytes(max(1, (body.bit_length() + 7) // 8), "big")
        return
    if isinstance(body, Mapping):  # dicts and hybrid key encapsulations
        for key, value in body.items():
            yield from iter_byte_material(key)
            yield from iter_byte_material(value)
        return
    if isinstance(body, (list, tuple, Sequence)):
        for item in body:
            yield from iter_byte_material(item)
        return
    if isinstance(body, (set, frozenset)):
        # Equal sets can iterate in different orders (it depends on how
        # they were built), so walk the items in one canonical order.
        walks = sorted(list(iter_byte_material(item)) for item in body)
        for material in walks:
            yield from material
        return
    if dataclasses.is_dataclass(body) and not isinstance(body, type):
        for field in dataclasses.fields(body):
            yield from iter_byte_material(getattr(body, field.name))
        return
    if hasattr(body, "to_bytes") and callable(body.to_bytes):
        try:
            yield body.to_bytes()
            return
        except TypeError:
            pass
    # Fail closed: a repr would stand in for material it does not show
    # (a Relation's names its row count, not its rows).
    raise TypeError(
        f"cannot walk the byte material of a {type(body).__name__} in a message body"
    )


def view_material(view: PartyView) -> bytes:
    """All byte material a party received, concatenated with separators.

    Only *received* messages count — what a party sent it already knew.
    Separators prevent false matches across fragment boundaries.
    """
    fragments: list[bytes] = []
    for message in view.received:
        for fragment in iter_byte_material(message.body):
            fragments.append(fragment)
    return b"\x00\xff\x00".join(fragments)
