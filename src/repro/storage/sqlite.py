"""SQLite storage backend: persistent rows, pushdown, durable caches.

Schema (deliberately vanilla SQL so a Postgres backend can reuse it):

* ``meta_relations(namespace, name, table_id, schema_json, fingerprint)``
  — one row per stored relation; ``table_id`` names the physical table.
* ``rel_<table_id>(c0, c1, ...)`` — typed columns positionally matching
  the relation schema (INT/BOOL -> INTEGER, STRING -> TEXT; booleans
  persist as 0/1).
* ``meta_epochs(namespace, epoch)`` — the per-namespace key epoch.
* ``index_cache(namespace, relation, kind, key, epoch, value)`` — the
  encrypted-index cache; entries written under an old epoch are dropped
  eagerly on rotation and ignored defensively on read.

Selections push down as parameterized WHERE clauses and the DAS server
query runs as a three-way equi-join over temp tables (see
:mod:`repro.relational.sql`'s pushdown compiler); Python never loops
over non-qualifying rows.

A single connection guarded by a lock serves all namespaces; the
concurrent sessions of one ``serve`` process (many sessions, one
backend) are supported by ``check_same_thread=False`` plus our own
mutex.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from typing import Iterable, Sequence

from repro.errors import StorageError
from repro.relational.conditions import Condition
from repro.relational.relation import Relation, Row
from repro.relational.schema import Attribute, AttributeType, Schema, Value
from repro.relational.sql import compile_bucket_join, compile_select
from repro.storage.base import StorageBackend, relation_fingerprint
from repro.telemetry import tracing

_COLUMN_TYPES = {
    AttributeType.INT: "INTEGER",
    AttributeType.BOOL: "INTEGER",
    AttributeType.STRING: "TEXT",
}

#: Keys per ``IN (...)`` list of a batched cache read — with the four
#: scope parameters, under the 999 host parameters of older SQLite builds.
_KEYS_PER_STATEMENT = 500

_DDL = (
    """
    CREATE TABLE IF NOT EXISTS meta_relations (
        namespace   TEXT NOT NULL,
        name        TEXT NOT NULL,
        table_id    INTEGER PRIMARY KEY AUTOINCREMENT,
        schema_json TEXT NOT NULL,
        fingerprint BLOB NOT NULL,
        UNIQUE (namespace, name)
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


def _schema_to_json(schema: Schema) -> str:
    return json.dumps(
        {
            "relation": schema.relation_name,
            "attributes": [
                {"name": a.name, "type": a.type.value} for a in schema.attributes
            ],
        },
        sort_keys=True,
    )


def _schema_from_json(text: str) -> Schema:
    try:
        payload = json.loads(text)
        return Schema(
            payload["relation"],
            [
                Attribute(entry["name"], AttributeType(entry["type"]))
                for entry in payload["attributes"]
            ],
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise StorageError(f"corrupt stored schema: {exc}") from exc


def _to_sql_row(row: Row) -> tuple:
    return tuple(int(v) if isinstance(v, bool) else v for v in row)


def _from_sql_row(raw: Sequence[object], schema: Schema) -> Row:
    values: list[Value] = []
    for attribute, value in zip(schema.attributes, raw):
        if attribute.type is AttributeType.BOOL:
            values.append(bool(value))
        elif attribute.type is AttributeType.INT:
            if not isinstance(value, int):
                raise StorageError(
                    f"stored value {value!r} is not an integer for "
                    f"{attribute.name}"
                )
            values.append(value)
        else:
            if not isinstance(value, str):
                raise StorageError(
                    f"stored value {value!r} is not a string for "
                    f"{attribute.name}"
                )
            values.append(value)
    return tuple(values)


class SQLiteBackend(StorageBackend):
    """Durable backend over a single SQLite database file."""

    kind = "sqlite"
    persistent = True

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._temp_counter = 0
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
            # (regenerable cache entries, or a relation the next start
            # stores again) but never corrupts the file.  bump_key_epoch,
            # the one write that nothing regenerates, syncs its own commit.
            self._connection.execute("PRAGMA synchronous=NORMAL")
            for statement in _DDL:
                self._connection.execute(statement)
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open sqlite store {path!r}: {exc}") from exc
        # in-memory databases are not persistent across processes
        if path == ":memory:":
            self.persistent = False

    # -- helpers ---------------------------------------------------------

    def _execute(self, sql: str, parameters: Sequence[object] = ()) -> sqlite3.Cursor:
        try:
            return self._connection.execute(sql, tuple(parameters))
        except sqlite3.Error as exc:
            raise StorageError(f"sqlite error: {exc}") from exc

    def _meta(self, namespace: str, name: str) -> tuple[int, Schema, bytes] | None:
        cursor = self._execute(
            "SELECT table_id, schema_json, fingerprint FROM meta_relations "
            "WHERE namespace = ? AND name = ?",
            (namespace, name),
        )
        row = cursor.fetchone()
        if row is None:
            return None
        return int(row[0]), _schema_from_json(row[1]), bytes(row[2])

    # -- rows ------------------------------------------------------------

    def store_relation(self, namespace: str, relation: Relation) -> bool:
        digest = relation_fingerprint(relation)
        with self._lock:
            existing = self._meta(namespace, relation.name)
            if existing is not None and existing[2] == digest:
                return False
            with tracing.span(
                "storage:store_relation",
                namespace,
                kind="storage",
                backend=self.kind,
                relation=relation.name,
                rows=len(relation),
            ):
                self._execute("BEGIN")
                try:
                    if existing is not None:
                        table_id = existing[0]
                        self._execute(f"DROP TABLE IF EXISTS rel_{table_id}")
                        self._execute(
                            "UPDATE meta_relations SET schema_json = ?, "
                            "fingerprint = ? WHERE table_id = ?",
                            (_schema_to_json(relation.schema), digest, table_id),
                        )
                        self._invalidate_locked(namespace, relation.name)
                    else:
                        cursor = self._execute(
                            "INSERT INTO meta_relations "
                            "(namespace, name, schema_json, fingerprint) "
                            "VALUES (?, ?, ?, ?)",
                            (
                                namespace,
                                relation.name,
                                _schema_to_json(relation.schema),
                                digest,
                            ),
                        )
                        table_id = int(cursor.lastrowid or 0)
                    columns = ", ".join(
                        f"c{i} {_COLUMN_TYPES[a.type]} NOT NULL"
                        for i, a in enumerate(relation.schema.attributes)
                    )
                    self._execute(f"CREATE TABLE rel_{table_id} ({columns})")
                    placeholders = ", ".join(
                        "?" for _ in relation.schema.attributes
                    )
                    self._connection.executemany(
                        f"INSERT INTO rel_{table_id} VALUES ({placeholders})",
                        [_to_sql_row(row) for row in relation],
                    )
                    self._execute("COMMIT")
                except Exception:
                    self._execute("ROLLBACK")
                    raise
            return True

    def load_relation(self, namespace: str, name: str) -> Relation | None:
        with self._lock:
            meta = self._meta(namespace, name)
            if meta is None:
                return None
            table_id, schema, _ = meta
            with tracing.span(
                "storage:load_relation",
                namespace,
                kind="storage",
                backend=self.kind,
                relation=name,
            ):
                rows = self._execute(
                    f"SELECT {', '.join(f'c{i}' for i in range(len(schema.attributes)))} "
                    f"FROM rel_{table_id}"
                ).fetchall()
            return Relation(schema, [_from_sql_row(raw, schema) for raw in rows])

    def relation_names(self, namespace: str) -> list[str]:
        with self._lock:
            rows = self._execute(
                "SELECT name FROM meta_relations WHERE namespace = ? ORDER BY name",
                (namespace,),
            ).fetchall()
        return [row[0] for row in rows]

    def select(
        self, namespace: str, name: str, condition: Condition | None
    ) -> Relation:
        with self._lock:
            meta = self._meta(namespace, name)
            if meta is None:
                raise StorageError(
                    f"relation {name!r} not stored under namespace {namespace!r}"
                )
            table_id, schema, _ = meta
            compiled = compile_select(f"rel_{table_id}", schema, condition)
            with tracing.span(
                "storage:select",
                namespace,
                kind="storage",
                backend=self.kind,
                relation=name,
                pushdown=condition is not None,
            ):
                rows = self._execute(compiled.text, compiled.parameters).fetchall()
            return Relation(schema, [_from_sql_row(raw, schema) for raw in rows])

    # -- server-query pushdown ------------------------------------------

    def bucket_join(
        self,
        left_values: Sequence[bytes],
        right_values: Sequence[bytes],
        pairs: Iterable[tuple[bytes, bytes]],
    ) -> list[tuple[int, int]]:
        with self._lock:
            self._temp_counter += 1
            suffix = self._temp_counter
            left_table = f"temp.bj_left_{suffix}"
            right_table = f"temp.bj_right_{suffix}"
            pairs_table = f"temp.bj_pairs_{suffix}"
            with tracing.span(
                "storage:bucket_join",
                "mediator",
                kind="storage",
                backend=self.kind,
                left=len(left_values),
                right=len(right_values),
            ):
                try:
                    for table in (left_table, right_table):
                        self._execute(
                            f"CREATE TABLE {table} "
                            "(pos INTEGER NOT NULL, val BLOB NOT NULL)"
                        )
                    self._execute(
                        f"CREATE TABLE {pairs_table} "
                        "(lval BLOB NOT NULL, rval BLOB NOT NULL)"
                    )
                    self._connection.executemany(
                        f"INSERT INTO {left_table} VALUES (?, ?)",
                        list(enumerate(left_values)),
                    )
                    self._connection.executemany(
                        f"INSERT INTO {right_table} VALUES (?, ?)",
                        list(enumerate(right_values)),
                    )
                    self._connection.executemany(
                        f"INSERT INTO {pairs_table} VALUES (?, ?)",
                        [(lv, rv) for lv, rv in pairs],
                    )
                    compiled = compile_bucket_join(
                        left_table, right_table, pairs_table
                    )
                    rows = self._execute(compiled.text).fetchall()
                    return [(int(i), int(j)) for i, j in rows]
                except sqlite3.Error as exc:
                    raise StorageError(f"bucket join failed: {exc}") from exc
                finally:
                    for table in (left_table, right_table, pairs_table):
                        try:
                            self._connection.execute(f"DROP TABLE IF EXISTS {table}")
                        except sqlite3.Error:
                            pass

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
