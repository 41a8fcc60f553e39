"""Domain partitioning and index tables for the DAS protocol.

Section 3: *"The index values for an attribute A_i are defined by first
dividing the active domain domactive(A_i) into partitions and then
assigning a unique identifier to each partition; these identifiers can
for example be computed with a collision free hash function that uses
properties of the partition."*

A :class:`Partition` records the active-domain values it covers (and,
for ordered domains, its range bounds).  An :class:`IndexTable` maps
partitions to opaque index values; each datasource salts its identifiers
so the mediator cannot correlate index values across sources or infer
partition contents.  The client — holding both decrypted index tables —
detects *overlapping* partitions to build the server condition
``Cond_S``.

Partitioning strategies (Section 6 discusses the trade-off):

* :func:`equi_depth` — equal-population buckets over any ordered domain,
* :func:`singleton` — one value per partition (maximally efficient,
  maximally leaky; the limit case of "small partitions ... can leak
  confidential information").
"""

from __future__ import annotations

import json
import secrets
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.crypto.hashes import collision_free_hash
from repro.errors import PartitionError
from repro.relational.encoding import decode_value, encode_value
from repro.relational.schema import Value

#: Width (bytes) of a partition index value.
INDEX_VALUE_BYTES = 8


@dataclass(frozen=True)
class Partition:
    """A partition of an attribute's active domain.

    ``values`` are the active-domain members assigned to this partition.
    ``bounds`` (optional) records the covering interval for range-based
    strategies; when present, cross-source overlap uses interval
    intersection (the sound choice: the *other* source may hold active
    values anywhere inside the range).
    """

    values: frozenset[Value]
    bounds: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise PartitionError("a partition must cover at least one value")
        if self.bounds is not None:
            low, high = self.bounds
            if low > high:
                raise PartitionError("partition bounds out of order")
            for value in self.values:
                if not isinstance(value, int) or not low <= value <= high:
                    raise PartitionError(
                        f"value {value!r} outside partition bounds {self.bounds}"
                    )

    def overlaps(self, other: "Partition") -> bool:
        """The paper's ``p1 cap p2 != emptyset`` test."""
        if self.bounds is not None and other.bounds is not None:
            return (
                self.bounds[0] <= other.bounds[1]
                and other.bounds[0] <= self.bounds[1]
            )
        return bool(self.values & other.values)

    def descriptor(self) -> bytes:
        """Canonical byte description (input to the identifier hash)."""
        if self.bounds is not None:
            return b"range:" + json.dumps(list(self.bounds)).encode()
        encoded = sorted(encode_value(v).hex() for v in self.values)
        return b"set:" + json.dumps(encoded).encode()


@dataclass(frozen=True)
class IndexTable:
    """``ITable_{R_i.A_join}``: the partition -> index-value mapping."""

    attribute: str
    entries: tuple[tuple[Partition, int], ...]
    salt: bytes = field(default=b"", repr=False)
    #: value -> index value, built from ``entries``.
    _index_of: dict[Value, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index_values = [index for _, index in self.entries]
        if len(set(index_values)) != len(index_values):
            raise PartitionError("index values must be unique")
        index_of: dict[Value, int] = {}
        for partition, index in self.entries:
            for value in partition.values:
                if value in index_of:
                    raise PartitionError("partitions must not share active values")
                index_of[value] = index
        object.__setattr__(self, "_index_of", index_of)

    @property
    def partitions(self) -> tuple[Partition, ...]:
        return tuple(partition for partition, _ in self.entries)

    def index_of(self, value: Value) -> int:
        """Index value of the partition containing ``value``."""
        try:
            return self._index_of[value]
        except KeyError:
            raise PartitionError(f"value {value!r} not covered by any partition") from None

    def covered_values(self) -> frozenset[Value]:
        return frozenset(self._index_of)

    def overlapping_pairs(
        self, other: "IndexTable"
    ) -> list[tuple[int, int]]:
        """Index-value pairs of overlapping partitions across two tables.

        Exactly the pairs the client enumerates to assemble ``Cond_S``.
        """
        return [
            (own_index, other_index)
            for own_partition, own_index in self.entries
            for other_partition, other_index in other.entries
            if own_partition.overlaps(other_partition)
        ]

    # -- serialization (travels hybrid-encrypted to the client) ---------

    def to_bytes(self) -> bytes:
        payload = {
            "attribute": self.attribute,
            "entries": [
                {
                    "values": [encode_value(v).hex() for v in sorted(
                        partition.values, key=lambda v: (type(v).__name__, v)
                    )],
                    "bounds": list(partition.bounds) if partition.bounds else None,
                    "index": index,
                }
                for partition, index in self.entries
            ],
        }
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "IndexTable":
        payload = json.loads(data.decode("utf-8"))
        entries = []
        for entry in payload["entries"]:
            values = frozenset(
                decode_value(bytes.fromhex(encoded))
                for encoded in entry["values"]
            )
            bounds = tuple(entry["bounds"]) if entry["bounds"] else None
            entries.append((Partition(values, bounds), entry["index"]))
        return cls(attribute=payload["attribute"], entries=tuple(entries))


def _index_value(partition: Partition, salt: bytes) -> int:
    digest = collision_free_hash(salt + partition.descriptor())
    return int.from_bytes(digest[:INDEX_VALUE_BYTES], "big")


def build_index_table(
    attribute: str,
    partitions: Sequence[Partition],
    salt: bytes | None = None,
) -> IndexTable:
    """Assign salted collision-free-hash identifiers to partitions."""
    if salt is None:
        salt = secrets.token_bytes(16)
    entries = []
    used: set[int] = set()
    for partition in partitions:
        index = _index_value(partition, salt)
        # Collisions of a 64-bit truncation are negligible but cheap to
        # rule out entirely within one table.
        bump = 0
        while index in used:
            bump += 1
            index = _index_value(partition, salt + bump.to_bytes(4, "big"))
        used.add(index)
        entries.append((partition, index))
    return IndexTable(attribute=attribute, entries=tuple(entries), salt=salt)


# ---------------------------------------------------------------------------
# Partitioning strategies
# ---------------------------------------------------------------------------


def equi_depth(active_domain: Iterable[Value], buckets: int) -> list[Partition]:
    """Equal-population partitions over any ordered active domain."""
    values = sorted(set(active_domain), key=lambda v: (type(v).__name__, v))
    if not values:
        return []
    if buckets < 1:
        raise PartitionError("need at least one bucket")
    buckets = min(buckets, len(values))
    size = -(-len(values) // buckets)  # ceil division
    partitions = []
    for start in range(0, len(values), size):
        chunk = values[start:start + size]
        bounds = None
        if all(isinstance(v, int) and not isinstance(v, bool) for v in chunk):
            bounds = (chunk[0], chunk[-1])
        partitions.append(Partition(frozenset(chunk), bounds))
    return partitions


def singleton(active_domain: Iterable[Value]) -> list[Partition]:
    """One partition per active value — the maximal-leakage limit case."""
    return [
        Partition(frozenset({value}))
        for value in sorted(set(active_domain), key=lambda v: (type(v).__name__, v))
    ]
