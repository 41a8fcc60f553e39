"""No plaintext in the index cache, key or value.

The E1 byte scan (``verify_no_plaintext_leak``) looks at what the
mediator receives; this is the same scan over what a source leaves at
rest.  After one query of each protocol on a ``sqlite:`` store, no row
encoding, join-value encoding or payload string of either relation may
appear in any ``index_cache.key`` or ``index_cache.value`` — cache keys
are MACs and content digests, cache values are ciphertexts, tags, key
material and salted index tables.
"""

import sqlite3

import pytest

from repro import Federation, run_join_query
from repro.core.joinkeys import encode_key
from repro.mediation.access_control import allow_all
from repro.relational.encoding import encode_row, encode_value
from repro.storage import SQLiteBackend

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


@pytest.mark.parametrize("protocol", ["das", "commutative", "private-matching"])
def test_no_plaintext_in_cache_keys_or_values(
    ca, client, string_workload, tmp_path, protocol
):
    path = str(tmp_path / "at-rest.db")
    backend = SQLiteBackend(path)
    try:
        federation = Federation(ca=ca, storage=backend)
        relations = (string_workload.relation_1, string_workload.relation_2)
        for source, relation in zip(("S1", "S2"), relations):
            federation.add_source(source, [(relation, allow_all())])
        federation.attach_client(client)
        result = run_join_query(federation, QUERY, protocol=protocol)
        assert len(result.global_result) > 0
        entries = sqlite3.connect(path).execute(
            "SELECT kind, key, value FROM index_cache"
        ).fetchall()
    finally:
        backend.close()

    assert entries  # the query did file something to scan
    # (The relations themselves are in the store's row tables, by
    # design; the scan is of the cache alone.)
    join_attribute = string_workload.spec.join_attribute
    wanted = set().union(
        *(needles(relation, join_attribute) for relation in relations)
    )
    assert len(wanted) > 100  # string join values and payloads: real needles
    leaks = sorted(
        {
            f"{kind}.{column}"
            for kind, key, value in entries
            for column, material in (("key", key), ("value", value))
            for needle in wanted
            if needle in material
        }
    )
    assert leaks == []
