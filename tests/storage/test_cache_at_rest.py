"""No plaintext at rest, in any table of the store.

The E1 byte scan (``verify_no_plaintext_leak``) looks at what the
mediator receives; this is the same scan over what a source leaves at
rest.  After one query of each protocol on a ``sqlite:`` store, no row
encoding, join-value encoding or payload string of either relation may
appear in any cell of any table ``sqlite_master`` lists — cache keys
are MACs and content digests, cache values are ciphertexts, tags, key
material and salted index tables, and the store keeps no copy of the
rows.  A file an older build wrote, with its typed ``rel_<id>`` row
tables, loses them on open and still answers queries.
"""

import json
import sqlite3

import pytest

from repro import Federation, run_join_query
from repro.core.joinkeys import encode_key
from repro.core.runner import reference_join
from repro.mediation.access_control import allow_all
from repro.relational.encoding import encode_relation, encode_row, encode_value
from repro.storage import SQLiteBackend, relation_fingerprint

QUERY = "select * from clinic natural join lab"
MIN_NEEDLE_BYTES = 4


def needles(relation, join_attribute):
    """Every plaintext byte string of ``relation`` worth scanning for."""
    found = set()
    for row in relation:
        found.add(encode_row(row))
        found.add(encode_key((relation.value(row, join_attribute),)))
        for value in row:
            found.add(encode_value(value))
            if isinstance(value, str):
                found.add(value.encode("utf-8"))
    found = {needle for needle in found if len(needle) >= MIN_NEEDLE_BYTES}
    # Raw, and as the hex text a JSON-framed artifact would carry.
    return found | {needle.hex().encode("ascii") for needle in found}


def cells(path):
    """``(table.column, bytes)`` for every cell of every table."""
    connection = sqlite3.connect(path)
    try:
        tables = [
            name
            for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        ]
        found = []
        for table in tables:
            cursor = connection.execute(f'SELECT * FROM "{table}"')
            columns = [entry[0] for entry in cursor.description]
            for row in cursor:
                for column, value in zip(columns, row):
                    if not isinstance(value, bytes):
                        value = str(value).encode("utf-8")
                    found.append((f"{table}.{column}", value))
        return tables, found
    finally:
        connection.close()


def build(ca, client, workload, backend):
    federation = Federation(ca=ca, storage=backend)
    relations = (workload.relation_1, workload.relation_2)
    for source, relation in zip(("S1", "S2"), relations):
        federation.add_source(source, [(relation, allow_all())])
    federation.attach_client(client)
    return federation


def wanted(workload):
    join_attribute = workload.spec.join_attribute
    return set().union(
        *(
            needles(relation, join_attribute)
            for relation in (workload.relation_1, workload.relation_2)
        )
    )


def leaks(found, targets):
    return sorted(
        {place for place, material in found for needle in targets if needle in material}
    )


@pytest.mark.parametrize("protocol", ["das", "commutative", "private-matching"])
def test_no_plaintext_in_cache_keys_or_values(
    ca, client, string_workload, tmp_path, protocol
):
    path = str(tmp_path / "at-rest.db")
    backend = SQLiteBackend(path)
    try:
        federation = build(ca, client, string_workload, backend)
        result = run_join_query(federation, QUERY, protocol=protocol)
        assert len(result.global_result) > 0
    finally:
        backend.close()

    tables, found = cells(path)
    assert "index_cache" in tables
    assert any(place.startswith("index_cache.") for place, _ in found)
    targets = wanted(string_workload)
    assert len(targets) > 100  # string join values and payloads: real needles
    assert leaks(found, targets) == []


def test_an_older_store_loses_its_row_tables(ca, client, string_workload, tmp_path):
    # The layout an older build wrote: each stored relation's rows in a
    # typed rel_<table_id> table, described by a row of meta_relations.
    path = str(tmp_path / "older.db")
    relation = string_workload.relation_1
    schema_json = json.dumps(
        {
            "relation": relation.name,
            "attributes": [
                {"name": a.name, "type": a.type.value}
                for a in relation.schema.attributes
            ],
        },
        sort_keys=True,
    )
    width = len(relation.schema.attributes)
    columns = ", ".join(f"c{i} TEXT NOT NULL" for i in range(width))
    older = sqlite3.connect(path)
    older.execute(
        "CREATE TABLE meta_relations (namespace TEXT NOT NULL, "
        "name TEXT NOT NULL, table_id INTEGER PRIMARY KEY AUTOINCREMENT, "
        "schema_json TEXT NOT NULL, fingerprint BLOB NOT NULL, "
        "UNIQUE (namespace, name))"
    )
    older.execute(
        "INSERT INTO meta_relations VALUES ('S1', ?, 1, ?, ?)",
        (relation.name, schema_json, relation_fingerprint(relation)),
    )
    older.execute(f"CREATE TABLE rel_1 ({columns})")
    older.executemany(
        f"INSERT INTO rel_1 VALUES ({', '.join('?' * width)})",
        list(relation),
    )
    older.commit()
    older.close()

    backend = SQLiteBackend(path)
    try:
        # The fingerprint came over: S1's unchanged relation is no change.
        assert backend.store_relation("S1", relation) is False
        federation = build(ca, client, string_workload, backend)
        result = run_join_query(federation, QUERY, protocol="das")
        expected = reference_join(federation, QUERY)
        assert encode_relation(result.global_result) == encode_relation(expected)
    finally:
        backend.close()

    tables, found = cells(path)
    assert "meta_relations" not in tables
    assert not any(name.startswith("rel_") for name in tables)
    assert leaks(found, wanted(string_workload)) == []
    # Nor are the dropped rows left on the file's free pages.
    with open(path, "rb") as handle:
        image = handle.read()
    strings = {value.encode("utf-8") for row in relation for value in row}
    assert not any(string in image for string in strings)
