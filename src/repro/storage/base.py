"""Storage backend contract and the amortized index-cache layer.

The paper re-pays the dominant crypto cost (encrypting join attributes)
on every query.  Following "Equi-Joins over Encrypted Data for Series of
Queries" (arXiv 2103.05792), a datasource can keep its encrypted-index
artifacts in a pluggable store and amortize them across a series.  The
source's relation stays where the source holds it — the store keeps no
copy of its rows — and the store holds

* **key epochs** — a per-namespace counter; a rotation makes every
  entry written earlier stale,
* **content fingerprints** — one digest per stored relation, so changed
  content invalidates the relation's cache entries even across
  restarts,
* **encrypted-index caches** — per-``(namespace, relation)`` key/value
  entries holding commutative tags and double-encryptions, the source's
  hybrid session and the commutative tuple-set bodies encrypted under
  it, DAS index tables, and Paillier polynomial coefficients.  An entry
  is kept only where reading it back is cheaper than recomputing it: a
  DAS etuple is one DEM pass, so it is re-encrypted per query and never
  stored.

Cache semantics:

* every entry is written under the namespace's current key epoch; a key
  rotation (``bump_key_epoch``) makes all earlier entries stale and
  eagerly drops them;
* any row mutation of a relation invalidates every cache entry for that
  relation (``invalidate_relation``) — the cached artifacts are
  functions of the row set;
* cache *reads and writes are soft*: :class:`IndexCache` converts
  :class:`~repro.errors.StorageError` into a miss (counted as an
  ``error``), so protocols degrade to recomputing the index instead of
  failing the query when the cache store is unavailable.
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import StorageError
from repro.relational.encoding import encode_relation
from repro.relational.relation import Relation
from repro.telemetry import tracing
from repro.telemetry.metrics import get_registry

#: Cache entry kinds — one namespace of keys per cached artifact family.
KIND_COMM_KEY = "comm_key"
KIND_COMM_TAG = "comm_tag"
KIND_COMM_DOUBLE = "comm_double"
KIND_COMM_TUPLES = "comm_tuples"
KIND_DAS_INDEX = "das_index"
KIND_PM_COEFFS = "pm_coeffs"
KIND_HYBRID_SESSION = "hybrid_session"

CACHE_HITS_METRIC = "repro_storage_cache_hits_total"
CACHE_MISSES_METRIC = "repro_storage_cache_misses_total"
CACHE_ERRORS_METRIC = "repro_storage_cache_errors_total"


def relation_fingerprint(relation: Relation) -> bytes:
    """Content digest of a relation (rows + schema), 16 bytes.

    Cache keys for artifacts derived from a *filtered view* (the partial
    result after access control and selection pushdown) embed this
    digest, so two queries share cache entries exactly when they operate
    on the same row set.
    """
    return hashlib.sha256(encode_relation(relation)).digest()[:16]


@dataclass
class CacheStats:
    """Counters for one cache client (usually one datasource)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "errors": self.errors,
        }

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.puts += other.puts
        self.errors += other.errors


class StorageBackend(abc.ABC):
    """Abstract store for key epochs, content fingerprints and
    encrypted-index caches.

    ``namespace`` is the owning party (datasource name); all methods are
    namespace-scoped so one backend instance can serve a whole
    federation (each source still only ever asks for its own namespace).
    """

    #: Short backend identifier ("memory", "sqlite").
    kind: str = "abstract"

    # -- content fingerprints -------------------------------------------

    @abc.abstractmethod
    def store_relation(self, namespace: str, relation: Relation) -> bool:
        """Record the content fingerprint of ``relation`` under
        ``namespace``; the rows themselves are not stored.

        Returns ``True`` if the content *changed* (new relation, or rows
        differ from the recorded fingerprint) — in which case the
        backend has already invalidated the relation's cache entries.
        Storing identical content is a no-op that keeps caches warm.
        """

    # -- key epochs ------------------------------------------------------

    @abc.abstractmethod
    def key_epoch(self, namespace: str) -> int:
        """Current key epoch of ``namespace`` (starts at 0)."""

    @abc.abstractmethod
    def bump_key_epoch(self, namespace: str) -> int:
        """Rotate keys: increment the epoch and drop all stale cache
        entries written under earlier epochs.  Returns the new epoch."""

    # -- encrypted-index cache ------------------------------------------

    @abc.abstractmethod
    def cache_get(
        self, namespace: str, relation: str, kind: str, key: bytes
    ) -> bytes | None:
        """Value stored for ``key`` at the *current* epoch, else None."""

    @abc.abstractmethod
    def cache_get_many(
        self, namespace: str, relation: str, kind: str, keys: Sequence[bytes]
    ) -> list[bytes | None]:
        """:meth:`cache_get` of every key, in order, as one read: all
        values come from the same epoch and a failure fails the batch."""

    @abc.abstractmethod
    def cache_put(
        self, namespace: str, relation: str, kind: str, key: bytes, value: bytes
    ) -> None:
        """Store ``value`` under the current epoch (overwrites)."""

    @abc.abstractmethod
    def invalidate_relation(self, namespace: str, relation: str) -> int:
        """Drop every cache entry for ``relation``; returns the count."""

    @abc.abstractmethod
    def cache_size(self, namespace: str | None = None) -> int:
        """Number of live cache entries (optionally one namespace)."""

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (connections, file handles)."""

    def describe(self) -> str:
        return self.kind


#: Truncated-SHA256 envelope appended to every cache value by
#: :class:`IndexCache` — a uniform integrity seal, so bit rot (or the
#: fault injector's ``corrupt`` action) in *any* cached artifact is
#: detected at read time and degrades to a recompute, never to a wrong
#: join result.  Bare integers (commutative tags) have no inherent
#: framing, so without this a flipped bit would decode silently.
_SEAL_BYTES = 8


def _seal(value: bytes) -> bytes:
    return value + hashlib.sha256(value).digest()[:_SEAL_BYTES]


def _unseal(data: bytes) -> bytes | None:
    if len(data) < _SEAL_BYTES:
        return None
    value, seal = data[:-_SEAL_BYTES], data[-_SEAL_BYTES:]
    if hashlib.sha256(value).digest()[:_SEAL_BYTES] != seal:
        return None
    return value


#: What a read the backend failed stands as: shorter than any seal, so it
#: counts as an error and reads as a miss like any other broken value.
_UNREADABLE = b""


@dataclass
class IndexCache:
    """Soft-failure cache facade bound to one backend namespace.

    Protocol code talks to this object, never to the backend directly:
    every backend error is swallowed into a miss (and counted), so a
    broken or fault-injected cache store degrades the protocols to the
    paper's recompute-everything behavior instead of failing queries.
    Values are integrity-sealed (see :func:`_seal`); a failed seal check
    counts as an ``error`` and reads as a miss.
    """

    backend: StorageBackend
    namespace: str
    stats: CacheStats = field(default_factory=CacheStats)

    def _count(self, metric: str, kind: str) -> None:
        registry = get_registry()
        if registry is not None:
            registry.counter(
                metric,
                {"backend": self.backend.kind, "kind": kind},
                help_text="Encrypted-index cache accesses by outcome",
            ).inc()

    def get(self, relation: str, kind: str, key: bytes) -> bytes | None:
        try:
            sealed = self.backend.cache_get(self.namespace, relation, kind, key)
        except StorageError:
            sealed = _UNREADABLE
        return self._unsealed(kind, sealed)

    def get_many(
        self, relation: str, kind: str, keys: Sequence[bytes]
    ) -> list[bytes | None]:
        """:meth:`get` of every key as one backend read, counted key for
        key; a backend error makes each key of the batch one error."""
        try:
            batch = self.backend.cache_get_many(
                self.namespace, relation, kind, keys
            )
        except StorageError:
            batch = [_UNREADABLE] * len(keys)
        return [self._unsealed(kind, sealed) for sealed in batch]

    def _unsealed(self, kind: str, sealed: bytes | None) -> bytes | None:
        """Count one read by its outcome; the value if its seal holds."""
        if sealed is None:
            self.stats.misses += 1
            self._count(CACHE_MISSES_METRIC, kind)
            return None
        value = _unseal(sealed)
        if value is None:  # corrupted at rest: recompute, don't trust it
            self.stats.errors += 1
            self._count(CACHE_ERRORS_METRIC, kind)
        else:
            self.stats.hits += 1
            self._count(CACHE_HITS_METRIC, kind)
        return value

    def put(self, relation: str, kind: str, key: bytes, value: bytes) -> None:
        try:
            self.backend.cache_put(
                self.namespace, relation, kind, key, _seal(value)
            )
        except StorageError:
            self.stats.errors += 1
            self._count(CACHE_ERRORS_METRIC, kind)
            return
        self.stats.puts += 1

    def epoch(self) -> int:
        try:
            return self.backend.key_epoch(self.namespace)
        except StorageError:
            self.stats.errors += 1
            return -1

    def decode_failure(self, kind: str) -> None:
        """Reclassify the last hit as an error: the blob came back but
        failed deserialization (corruption, format drift).  Callers
        recompute the artifact, so the net accounting is one error and
        no hit — corrupted stores never inflate hit rates."""
        if self.stats.hits > 0:
            self.stats.hits -= 1
        self.stats.errors += 1
        self._count(CACHE_ERRORS_METRIC, kind)

    def span(self, operation: str, **attributes: object):
        """A ``storage:<operation>`` tracing span for cache-heavy steps."""
        return tracing.span(
            f"storage:{operation}",
            self.namespace,
            kind="storage",
            backend=self.backend.kind,
            **attributes,
        )
