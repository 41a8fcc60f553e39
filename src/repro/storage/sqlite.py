"""SQLite storage backend: durable key epochs, fingerprints and caches.

Schema:

* ``meta_fingerprints(namespace, name, fingerprint)`` — the content
  digest of each relation a source stored; the rows stay with the
  source.
* ``meta_epochs(namespace, epoch)`` — the per-namespace key epoch.
* ``index_cache(namespace, relation, kind, key, epoch, value)`` — the
  encrypted-index cache; entries written under an old epoch are dropped
  eagerly on rotation and ignored defensively on read.

A file written by an older build may also hold ``meta_relations`` and
its typed ``rel_<id>`` row tables.  Opening it carries the fingerprints
over and drops those tables: the store was never the authority for rows.

A single connection guarded by a lock serves all namespaces; the
concurrent sessions of one ``serve`` process (many sessions, one
backend) are supported by ``check_same_thread=False`` plus our own
mutex.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Sequence

from repro.errors import StorageError
from repro.relational.relation import Relation
from repro.storage.base import StorageBackend, relation_fingerprint

#: Keys per ``IN (...)`` list of a batched cache read — with the four
#: scope parameters, under the 999 host parameters of older SQLite builds.
_KEYS_PER_STATEMENT = 500

_DDL = (
    """
    CREATE TABLE IF NOT EXISTS meta_fingerprints (
        namespace   TEXT NOT NULL,
        name        TEXT NOT NULL,
        fingerprint BLOB NOT NULL,
        PRIMARY KEY (namespace, name)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS meta_epochs (
        namespace TEXT PRIMARY KEY,
        epoch     INTEGER NOT NULL DEFAULT 0
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS index_cache (
        namespace TEXT NOT NULL,
        relation  TEXT NOT NULL,
        kind      TEXT NOT NULL,
        key       BLOB NOT NULL,
        epoch     INTEGER NOT NULL,
        value     BLOB NOT NULL,
        PRIMARY KEY (namespace, relation, kind, key)
    )
    """,
)


def _drop_row_plane(connection: sqlite3.Connection) -> None:
    """Upgrade a file an older build wrote: keep its fingerprints, drop
    ``meta_relations`` and every ``rel_<id>`` row table."""
    tables = [
        name
        for (name,) in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND (name = 'meta_relations' OR name GLOB 'rel_[0-9]*')"
        )
    ]
    if not tables:
        return
    connection.execute("BEGIN")
    try:
        if "meta_relations" in tables:
            connection.execute(
                "INSERT OR IGNORE INTO meta_fingerprints "
                "SELECT namespace, name, fingerprint FROM meta_relations"
            )
        for name in tables:
            connection.execute(f'DROP TABLE "{name}"')
        connection.execute("COMMIT")
    except sqlite3.Error:
        connection.execute("ROLLBACK")
        raise
    # Unless SQLite was built with secure_delete on, a dropped table's
    # pages keep their bytes on the free list; rebuild the file so the
    # old rows are not left at rest.
    connection.execute("VACUUM")


class SQLiteBackend(StorageBackend):
    """Durable backend over a single SQLite database file."""

    kind = "sqlite"

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        try:
            self._connection = sqlite3.connect(
                path, check_same_thread=False, isolation_level=None
            )
            self._connection.execute("PRAGMA journal_mode=WAL")
            # Every cache_put is its own commit.  At the default FULL each
            # of them fsyncs the WAL — three per join value and source in a
            # cold commutative fill — a wait that follows the disk's load,
            # not the CPU's.  NORMAL syncs at checkpoints only: a process
            # crash loses nothing, a power cut may lose the last commits
            # (regenerable cache entries, or a fingerprint the next start
            # records again) but never corrupts the file.  bump_key_epoch,
            # the one write that nothing regenerates, syncs its own commit.
            self._connection.execute("PRAGMA synchronous=NORMAL")
            for statement in _DDL:
                self._connection.execute(statement)
            _drop_row_plane(self._connection)
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open sqlite store {path!r}: {exc}") from exc

    # -- helpers ---------------------------------------------------------

    def _execute(self, sql: str, parameters: Sequence[object] = ()) -> sqlite3.Cursor:
        try:
            return self._connection.execute(sql, tuple(parameters))
        except sqlite3.Error as exc:
            raise StorageError(f"sqlite error: {exc}") from exc

    # -- content fingerprints -------------------------------------------

    def store_relation(self, namespace: str, relation: Relation) -> bool:
        digest = relation_fingerprint(relation)
        with self._lock:
            row = self._execute(
                "SELECT fingerprint FROM meta_fingerprints "
                "WHERE namespace = ? AND name = ?",
                (namespace, relation.name),
            ).fetchone()
            if row is not None and bytes(row[0]) == digest:
                return False
            self._execute("BEGIN")
            try:
                self._execute(
                    "INSERT INTO meta_fingerprints (namespace, name, "
                    "fingerprint) VALUES (?, ?, ?) ON CONFLICT (namespace, "
                    "name) DO UPDATE SET fingerprint = excluded.fingerprint",
                    (namespace, relation.name, digest),
                )
                if row is not None:
                    self._invalidate_locked(namespace, relation.name)
                self._execute("COMMIT")
            except Exception:
                self._execute("ROLLBACK")
                raise
            return True

    # -- key epochs ------------------------------------------------------

    def key_epoch(self, namespace: str) -> int:
        with self._lock:
            return self._epoch_locked(namespace)

    def _epoch_locked(self, namespace: str) -> int:
        row = self._execute(
            "SELECT epoch FROM meta_epochs WHERE namespace = ?", (namespace,)
        ).fetchone()
        return int(row[0]) if row is not None else 0

    def bump_key_epoch(self, namespace: str) -> int:
        with self._lock:
            epoch = self._epoch_locked(namespace) + 1
            # A rotation retires key material and must not come undone by
            # a power cut: this one commit is synced to disk.
            self._execute("PRAGMA synchronous=FULL")
            try:
                self._execute("BEGIN")
                try:
                    self._execute(
                        "INSERT INTO meta_epochs (namespace, epoch) "
                        "VALUES (?, ?) ON CONFLICT (namespace) "
                        "DO UPDATE SET epoch = excluded.epoch",
                        (namespace, epoch),
                    )
                    self._execute(
                        "DELETE FROM index_cache "
                        "WHERE namespace = ? AND epoch != ?",
                        (namespace, epoch),
                    )
                    self._execute("COMMIT")
                except Exception:
                    self._execute("ROLLBACK")
                    raise
            finally:
                self._execute("PRAGMA synchronous=NORMAL")
            return epoch

    # -- cache -----------------------------------------------------------

    def cache_get(
        self, namespace: str, relation: str, kind: str, key: bytes
    ) -> bytes | None:
        with self._lock:
            epoch = self._epoch_locked(namespace)
            row = self._execute(
                "SELECT value FROM index_cache WHERE namespace = ? AND "
                "relation = ? AND kind = ? AND key = ? AND epoch = ?",
                (namespace, relation, kind, key, epoch),
            ).fetchone()
        return bytes(row[0]) if row is not None else None

    def cache_get_many(
        self, namespace: str, relation: str, kind: str, keys: Sequence[bytes]
    ) -> list[bytes | None]:
        found: dict[bytes, bytes] = {}
        with self._lock:
            epoch = self._epoch_locked(namespace)
            for start in range(0, len(keys), _KEYS_PER_STATEMENT):
                chunk = keys[start : start + _KEYS_PER_STATEMENT]
                found.update(
                    self._execute(
                        "SELECT key, value FROM index_cache WHERE namespace = ? "
                        "AND relation = ? AND kind = ? AND epoch = ? AND key IN "
                        f"({', '.join('?' * len(chunk))})",
                        (namespace, relation, kind, epoch, *chunk),
                    )
                )
        return [found.get(key) for key in keys]

    def cache_put(
        self, namespace: str, relation: str, kind: str, key: bytes, value: bytes
    ) -> None:
        with self._lock:
            epoch = self._epoch_locked(namespace)
            self._execute(
                "INSERT INTO index_cache (namespace, relation, kind, key, "
                "epoch, value) VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT (namespace, relation, kind, key) DO UPDATE SET "
                "epoch = excluded.epoch, value = excluded.value",
                (namespace, relation, kind, key, epoch, value),
            )

    def invalidate_relation(self, namespace: str, relation: str) -> int:
        with self._lock:
            return self._invalidate_locked(namespace, relation)

    def _invalidate_locked(self, namespace: str, relation: str) -> int:
        cursor = self._execute(
            "DELETE FROM index_cache WHERE namespace = ? AND relation = ?",
            (namespace, relation),
        )
        return cursor.rowcount if cursor.rowcount is not None else 0

    def cache_size(self, namespace: str | None = None) -> int:
        with self._lock:
            if namespace is None:
                row = self._execute("SELECT COUNT(*) FROM index_cache").fetchone()
            else:
                row = self._execute(
                    "SELECT COUNT(*) FROM index_cache WHERE namespace = ?",
                    (namespace,),
                ).fetchone()
        return int(row[0])

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass

    def describe(self) -> str:
        return f"sqlite:{self.path}"
