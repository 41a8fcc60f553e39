"""StorageBackend contract tests, run against both implementations.

The memory backend is the semantic reference; every behavioural test
here is parameterized over both so the SQLite implementation can never
drift from it.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.crypto.hybrid import Encapsulation, Session
from repro.crypto.symmetric import SessionKey
from repro.errors import StorageError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, AttributeType, Schema
from repro.storage import (
    MemoryBackend,
    SQLiteBackend,
    storage_from_spec,
)
from repro.storage.serialize import (
    deserialize_int,
    deserialize_int_list,
    deserialize_session,
    serialize_int,
    serialize_int_list,
    serialize_session,
)

SCHEMA = Schema(
    "R",
    (
        Attribute("k", AttributeType.INT),
        Attribute("name", AttributeType.STRING),
        Attribute("active", AttributeType.BOOL),
    ),
)

ROWS = [
    (1, "ada", True),
    (2, "bob", False),
    (3, "eve", True),
]


def make_relation(rows=None, name="R"):
    schema = SCHEMA if name == "R" else Schema(name, SCHEMA.attributes)
    return Relation(schema, rows if rows is not None else ROWS)


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        instance = MemoryBackend()
    else:
        instance = SQLiteBackend(str(tmp_path / "store.db"))
    yield instance
    instance.close()


class TestRows:
    def test_identical_content_is_a_noop(self, backend):
        relation = make_relation()
        backend.store_relation("S1", relation)
        backend.cache_put("S1", "R", "comm_tag", b"key", b"value")
        # Re-storing the same rows must not invalidate the cache: this
        # is what keeps indexes warm across process restarts.
        assert backend.store_relation("S1", make_relation()) is False
        assert backend.cache_get("S1", "R", "comm_tag", b"key") == b"value"

    def test_changed_content_invalidates(self, backend):
        backend.store_relation("S1", make_relation())
        backend.cache_put("S1", "R", "comm_tag", b"key", b"value")
        changed = make_relation(rows=ROWS + [(4, "dan", False)])
        assert backend.store_relation("S1", changed) is True
        assert backend.cache_get("S1", "R", "comm_tag", b"key") is None
        assert backend.store_relation("S1", changed) is False

    def test_namespaces_are_isolated(self, backend):
        backend.store_relation("S1", make_relation())
        backend.cache_put("S2", "R", "comm_tag", b"key", b"value")
        # S1's fingerprint is not S2's: the same content is new there,
        # and S1's change leaves S2's cache alone.
        assert backend.store_relation("S2", make_relation()) is True
        changed = make_relation(rows=ROWS[:1])
        assert backend.store_relation("S1", changed) is True
        assert backend.cache_get("S2", "R", "comm_tag", b"key") == b"value"


class TestCacheAndEpochs:
    def test_epoch_starts_at_zero(self, backend):
        assert backend.key_epoch("S1") == 0

    def test_put_get(self, backend):
        backend.cache_put("S1", "R", "comm_tag", b"k1", b"v1")
        assert backend.cache_get("S1", "R", "comm_tag", b"k1") == b"v1"
        assert backend.cache_get("S1", "R", "comm_tag", b"k2") is None
        assert backend.cache_get("S1", "R", "das_index", b"k1") is None

    def test_overwrite(self, backend):
        backend.cache_put("S1", "R", "comm_tag", b"k", b"old")
        backend.cache_put("S1", "R", "comm_tag", b"k", b"new")
        assert backend.cache_get("S1", "R", "comm_tag", b"k") == b"new"

    def test_epoch_bump_drops_stale_entries(self, backend):
        backend.cache_put("S1", "R", "comm_tag", b"k", b"v")
        assert backend.bump_key_epoch("S1") == 1
        assert backend.cache_get("S1", "R", "comm_tag", b"k") is None
        assert backend.cache_size("S1") == 0
        # Entries written under the new epoch are served again.
        backend.cache_put("S1", "R", "comm_tag", b"k", b"v2")
        assert backend.cache_get("S1", "R", "comm_tag", b"k") == b"v2"

    def test_epoch_bump_is_per_namespace(self, backend):
        backend.cache_put("S1", "R", "comm_tag", b"k", b"v1")
        backend.cache_put("S2", "R", "comm_tag", b"k", b"v2")
        backend.bump_key_epoch("S1")
        assert backend.cache_get("S1", "R", "comm_tag", b"k") is None
        assert backend.cache_get("S2", "R", "comm_tag", b"k") == b"v2"

    def test_invalidate_relation_is_per_relation(self, backend):
        backend.cache_put("S1", "R", "comm_tag", b"k", b"v1")
        backend.cache_put("S1", "Q", "comm_tag", b"k", b"v2")
        assert backend.invalidate_relation("S1", "R") == 1
        assert backend.cache_get("S1", "R", "comm_tag", b"k") is None
        assert backend.cache_get("S1", "Q", "comm_tag", b"k") == b"v2"

    def test_cache_size(self, backend):
        backend.cache_put("S1", "R", "comm_tag", b"k1", b"v")
        backend.cache_put("S1", "R", "das_index", b"k2", b"v")
        backend.cache_put("S2", "R", "comm_tag", b"k1", b"v")
        assert backend.cache_size("S1") == 2
        assert backend.cache_size() == 3


class TestSQLitePersistence:
    def test_everything_survives_a_reopen(self, tmp_path):
        path = str(tmp_path / "store.db")
        first = SQLiteBackend(path)
        first.store_relation("S1", make_relation())
        first.cache_put("S1", "R", "comm_tag", b"k", b"v")
        first.bump_key_epoch("S2")
        first.close()

        second = SQLiteBackend(path)
        try:
            # The fingerprint survived: identical content is no change,
            # and the cache entry filed under it still hits.
            assert second.store_relation("S1", make_relation()) is False
            assert second.cache_get("S1", "R", "comm_tag", b"k") == b"v"
            assert second.key_epoch("S1") == 0
            assert second.key_epoch("S2") == 1
        finally:
            second.close()

    def test_commits_survive_a_killed_process(self, tmp_path):
        # The store syncs at WAL checkpoints, not at every commit; what a
        # process committed must still be there when it dies unclosed.
        path = str(tmp_path / "store.db")
        writer = (
            "import os, sys\n"
            "from repro.storage.sqlite import SQLiteBackend\n"
            "backend = SQLiteBackend(sys.argv[1])\n"
            "for i in range(50):\n"
            "    backend.cache_put('S1', 'R', 'comm_tuples', b'k%d' % i, b'v' * 3000)\n"
            "backend.bump_key_epoch('S2')\n"
            "os._exit(9)\n"
        )
        source = str(pathlib.Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", writer, path],
            env={**os.environ, "PYTHONPATH": source},
        )
        assert done.returncode == 9

        survivor = SQLiteBackend(path)
        try:
            assert survivor.cache_size("S1") == 50
            assert survivor.cache_get("S1", "R", "comm_tuples", b"k49") == b"v" * 3000
            assert survivor.key_epoch("S2") == 1
        finally:
            survivor.close()

    def test_only_a_rotation_is_synced_at_commit(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "store.db"))
        try:
            pragma = backend._connection.execute
            assert pragma("PRAGMA journal_mode").fetchone()[0] == "wal"
            assert pragma("PRAGMA synchronous").fetchone()[0] == 1  # NORMAL
            statements: list[str] = []
            backend._connection.set_trace_callback(statements.append)
            backend.cache_put("S1", "R", "comm_tag", b"k", b"v")
            assert not any("synchronous" in sql for sql in statements)
            backend.bump_key_epoch("S1")
            modes = [sql for sql in statements if "synchronous" in sql]
            assert modes == ["PRAGMA synchronous=FULL", "PRAGMA synchronous=NORMAL"]
            assert pragma("PRAGMA synchronous").fetchone()[0] == 1
        finally:
            backend.close()

    def test_in_memory_database_is_not_persistent(self):
        first = SQLiteBackend(":memory:")
        first.cache_put("S1", "R", "comm_tag", b"k", b"v")
        first.close()
        second = SQLiteBackend(":memory:")
        try:
            assert second.cache_size() == 0
        finally:
            second.close()


class TestSpecParsing:
    def test_none_and_empty(self):
        assert storage_from_spec(None) is None
        assert storage_from_spec("") is None

    def test_memory(self):
        backend = storage_from_spec("memory")
        assert isinstance(backend, MemoryBackend)

    def test_sqlite(self, tmp_path):
        backend = storage_from_spec(f"sqlite:{tmp_path / 's.db'}")
        try:
            assert isinstance(backend, SQLiteBackend)
        finally:
            backend.close()

    @pytest.mark.parametrize("spec", ["sqlite:", "postgres:db", "bogus"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(StorageError):
            storage_from_spec(spec)


class TestSerializers:
    def test_int_round_trip(self):
        for value in (0, 1, 255, 256, 2**521 - 1):
            assert deserialize_int(serialize_int(value)) == value

    def test_int_list_round_trip(self):
        values = [0, 7, 2**128, 13]
        assert deserialize_int_list(serialize_int_list(values)) == values
        assert deserialize_int_list(serialize_int_list([])) == []

    def test_session_round_trip(self):
        session = Session(
            SessionKey(bytes(range(32))),
            Encapsulation({b"fp2": b"wrapped2", b"fp1": b"wrapped1"}),
        )
        restored = deserialize_session(serialize_session(session))
        assert restored.key.master == session.key.master
        assert restored.encapsulation.digest() == session.encapsulation.digest()

    @pytest.mark.parametrize("mutate", ["truncate", "flip", "extend"])
    def test_corrupt_blobs_rejected(self, mutate):
        blob = serialize_session(
            Session(SessionKey(bytes(32)), Encapsulation({b"fp": b"w"}))
        )
        if mutate == "truncate":
            corrupt = blob[: len(blob) // 2]
        elif mutate == "flip":
            corrupt = bytes([blob[0] ^ 0xFF]) + blob[1:]
        else:
            corrupt = blob + b"trailing"
        with pytest.raises(StorageError):
            deserialize_session(corrupt)

    def test_corrupt_int_list_rejected(self):
        blob = serialize_int_list([1, 2, 3])
        with pytest.raises(StorageError):
            deserialize_int_list(bytes([blob[0] ^ 0xFF]) + blob[1:])
