"""In-memory reference storage backend.

Implements the :class:`~repro.storage.base.StorageBackend` contract with
plain dictionaries.  It is the semantic reference the SQLite backend is
tested against (the equivalence suite asserts byte-identical join
results on both), and the default backend when no ``--storage`` spec is
given — non-persistent, but it still provides within-process index-cache
amortization across a query series.
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro.relational.relation import Relation
from repro.storage.base import StorageBackend, relation_fingerprint


class MemoryBackend(StorageBackend):
    """Dictionary-backed backend; the reference implementation."""

    kind = "memory"

    def __init__(self) -> None:
        # One lock serializes every operation: the concurrent sessions of
        # one serve process share a single backend, and unguarded
        # iteration over ``_cache`` (invalidate, epoch bump) would race
        # with puts.
        self._lock = threading.Lock()
        # (namespace, relation name) -> content fingerprint
        self._fingerprints: dict[tuple[str, str], bytes] = {}
        # namespace -> epoch
        self._epochs: dict[str, int] = {}
        # (namespace, relation, kind, key) -> (epoch, value)
        self._cache: dict[tuple[str, str, str, bytes], tuple[int, bytes]] = {}

    # -- content fingerprints -------------------------------------------

    def store_relation(self, namespace: str, relation: Relation) -> bool:
        digest = relation_fingerprint(relation)
        with self._lock:
            existing = self._fingerprints.get((namespace, relation.name))
            if existing == digest:
                return False
            self._fingerprints[(namespace, relation.name)] = digest
            if existing is not None:
                self._invalidate_locked(namespace, relation.name)
            return True

    # -- key epochs ------------------------------------------------------

    def key_epoch(self, namespace: str) -> int:
        with self._lock:
            return self._epochs.get(namespace, 0)

    def bump_key_epoch(self, namespace: str) -> int:
        with self._lock:
            epoch = self._epochs.get(namespace, 0) + 1
            self._epochs[namespace] = epoch
            stale = [
                entry_key
                for entry_key, (entry_epoch, _) in self._cache.items()
                if entry_key[0] == namespace and entry_epoch != epoch
            ]
            for entry_key in stale:
                del self._cache[entry_key]
            return epoch

    # -- cache -----------------------------------------------------------

    def cache_get(
        self, namespace: str, relation: str, kind: str, key: bytes
    ) -> bytes | None:
        with self._lock:
            entry = self._cache.get((namespace, relation, kind, key))
            if entry is None:
                return None
            epoch, value = entry
            if epoch != self._epochs.get(namespace, 0):
                return None
            return value

    def cache_get_many(
        self, namespace: str, relation: str, kind: str, keys: Sequence[bytes]
    ) -> list[bytes | None]:
        with self._lock:
            epoch = self._epochs.get(namespace, 0)
            entries = [
                self._cache.get((namespace, relation, kind, key)) for key in keys
            ]
        return [
            entry[1] if entry is not None and entry[0] == epoch else None
            for entry in entries
        ]

    def cache_put(
        self, namespace: str, relation: str, kind: str, key: bytes, value: bytes
    ) -> None:
        with self._lock:
            epoch = self._epochs.get(namespace, 0)
            self._cache[(namespace, relation, kind, key)] = (epoch, value)

    def invalidate_relation(self, namespace: str, relation: str) -> int:
        with self._lock:
            return self._invalidate_locked(namespace, relation)

    def _invalidate_locked(self, namespace: str, relation: str) -> int:
        stale = [
            entry_key
            for entry_key in self._cache
            if entry_key[0] == namespace and entry_key[1] == relation
        ]
        for entry_key in stale:
            del self._cache[entry_key]
        return len(stale)

    def cache_size(self, namespace: str | None = None) -> int:
        with self._lock:
            if namespace is None:
                return len(self._cache)
            return sum(
                1 for entry_key in self._cache if entry_key[0] == namespace
            )
