"""Cache-invalidation semantics through the mediation layer.

Cached encrypted indexes are functions of (row set, protocol keys): a
row mutation must drop the relation's entries and the next query must
reflect the new rows; a key rotation must bump the epoch and drop
everything written under the old one.  Correctness-first: a stale cache
here would silently produce wrong join results, so these tests assert
both the cache bookkeeping and the query output.
"""

import pytest

from repro import Federation, run_join_query
from repro.core.runner import reference_join
from repro.mediation.access_control import allow_all
from repro.relational.encoding import encode_relation
from repro.storage import MemoryBackend, SQLiteBackend

from tests.hardening.test_encapsulation import das_encapsulations

QUERY = "select * from R1 natural join R2"


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        instance = MemoryBackend()
    else:
        instance = SQLiteBackend(str(tmp_path / "invalidation.db"))
    yield instance
    instance.close()


@pytest.fixture
def federation(ca, client, workload, backend):
    federation = Federation(ca=ca, storage=backend)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


def run_and_check(federation, protocol="commutative"):
    result = run_join_query(federation, QUERY, protocol=protocol)
    reference = reference_join(federation, QUERY)
    assert encode_relation(result.global_result) == encode_relation(reference)
    return result


def joining_row(workload, relation):
    """A row of ``relation`` whose join key appears on the other side."""
    other = (
        workload.relation_2
        if relation is workload.relation_1
        else workload.relation_1
    )
    k = relation.schema.position("k")
    other_k = other.schema.position("k")
    shared = {row[other_k] for row in other.rows}
    return next(row for row in relation.rows if row[k] in shared)


class TestRowMutations:
    def test_insert_invalidates_and_query_sees_new_rows(
        self, federation, backend, workload
    ):
        run_and_check(federation)
        assert backend.cache_size("S1") > 0
        before = len(run_and_check(federation).global_result)

        # Insert a fresh row whose join key definitely matches R2.
        joining = list(joining_row(workload, workload.relation_1))
        joining[-1] = "fresh-payload"
        federation.source("S1").insert_rows("R1", [tuple(joining)])

        # The mutation dropped R1's cache entries and the protocol
        # result includes the new row's matches.
        result = run_and_check(federation)
        assert len(result.global_result) > before

    def test_delete_invalidates_and_query_shrinks(self, federation, workload):
        before = len(run_and_check(federation).global_result)
        doomed = joining_row(workload, workload.relation_2)
        federation.source("S2").delete_rows("R2", [doomed])
        after = len(run_and_check(federation).global_result)
        assert after < before

    def test_update_row_changes_the_result(self, federation, workload):
        run_and_check(federation)
        old = joining_row(workload, workload.relation_1)
        updated = list(old)
        updated[-1] = "rewritten"
        federation.source("S1").update_row("R1", old, tuple(updated))
        result = run_and_check(federation)
        assert any("rewritten" in row for row in result.global_result.rows)

    def test_mutation_only_invalidates_its_relation(
        self, federation, backend, workload
    ):
        run_and_check(federation)
        s2_entries = backend.cache_size("S2")
        assert s2_entries > 0
        federation.source("S1").insert_rows(
            "R1", [workload.relation_1.rows[0]]
        )
        # Set semantics: inserting an existing row is content-neutral...
        # so S1's caches survive too; a genuinely new row must only
        # touch S1.
        new_row = list(workload.relation_1.rows[0])
        new_row[-1] = "different"
        federation.source("S1").insert_rows("R1", [tuple(new_row)])
        assert backend.cache_size("S1") == 0
        assert backend.cache_size("S2") == s2_entries


class TestKeyRotation:
    def test_rotation_bumps_epoch_and_drops_entries(
        self, federation, backend
    ):
        run_and_check(federation)
        assert backend.cache_size("S1") > 0
        assert federation.source("S1").rotate_keys() == 1
        assert backend.key_epoch("S1") == 1
        assert backend.cache_size("S1") == 0

    def test_post_rotation_queries_are_correct_and_recache(
        self, federation, backend
    ):
        run_and_check(federation)
        federation.source("S1").rotate_keys()
        federation.source("S2").rotate_keys()
        result = run_and_check(federation)
        # Everything was recomputed under the new epoch...
        assert result.artifacts["storage_cache"]["errors"] == 0
        assert backend.cache_size("S1") > 0
        # ...and is served again on the next run.
        warm = run_and_check(federation)
        assert warm.artifacts["storage_cache"]["hits"] > 0

    def test_rotation_retires_the_hybrid_session(self, federation):
        """The per-epoch session (and with it every cached ciphertext
        body) is replaced by a rotation: new encapsulation digest, the
        old bodies miss, nothing errors."""

        def encapsulations(result):
            found = das_encapsulations(result)
            assert all(len(digests) == 1 for digests in found.values())
            return found

        cold_result = run_and_check(federation, "das")
        cold = encapsulations(cold_result)
        misses = cold_result.artifacts["storage_cache"]["misses"]
        warm_result = run_and_check(federation, "das")
        assert encapsulations(warm_result) == cold
        assert warm_result.artifacts["storage_cache"]["misses"] == misses

        federation.source("S1").rotate_keys()
        s1_stats = federation.source("S1").index_cache().stats
        hits = s1_stats.hits
        rotated_result = run_and_check(federation, "das")
        rotated = encapsulations(rotated_result)
        assert rotated["S1"] != cold["S1"]
        assert rotated["S2"] == cold["S2"]
        assert s1_stats.hits == hits  # no stale body was served
        assert rotated_result.artifacts["storage_cache"]["errors"] == 0

    def test_rotation_without_storage_is_a_noop(self, ca, client, workload):
        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        assert federation.source("S1").rotate_keys() == 0


class TestStoreWrittenByAnOlderCheckout:
    """Entries a store may already hold from before the leading PM
    coefficient stopped being encrypted and commutative exponents became
    short: the former must miss, the latter must keep working."""

    def test_pm_blob_with_leading_coefficient_is_a_plain_miss(
        self, federation, workload
    ):
        import hashlib

        from repro.core.private_matching import (
            _build_polynomial,
            hybrid_fingerprint,
        )
        from repro.storage.base import KIND_PM_COEFFS
        from repro.storage.serialize import serialize_int_list

        client = federation.require_client()
        scheme, public_key = client.homomorphic_scheme, client.homomorphic_public_key
        plain, _ = _build_polynomial(
            workload.relation_1, ("k",), scheme, public_key, 48
        )
        # The slot and blob of the previous layout: digest over, and
        # ciphertexts of, all n + 1 coefficients.
        digest = hashlib.sha256()
        for coefficient in plain:
            digest.update(coefficient.to_bytes(
                (coefficient.bit_length() + 7) // 8 or 1, "big"))
            digest.update(b"/")
        old_slot = b"pmcoef:" + hybrid_fingerprint(public_key) + digest.digest()[:16]
        old_blob = serialize_int_list(
            [scheme.encrypt(public_key, c).value for c in plain]
        )
        cache = federation.source("S1").index_cache()
        cache.put("R1", KIND_PM_COEFFS, old_slot, old_blob)

        result = run_and_check(federation, protocol="private-matching")
        stats = result.artifacts["storage_cache"]
        assert stats["errors"] == 0
        n = len(workload.relation_1.active_domain("k"))
        assert result.artifacts["polynomial_degrees"]["S1"] == n == len(plain) - 1
        assert cache.get("R1", KIND_PM_COEFFS, old_slot) == old_blob  # untouched
        # The entry written in its place serves the next query.
        warm = run_and_check(federation, protocol="private-matching")
        assert warm.artifacts["storage_cache"]["errors"] == 0
        assert warm.artifacts["storage_cache"]["hits"] > stats["hits"]

    def test_full_width_exponent_in_comm_key_slot_is_used(
        self, federation, workload
    ):
        from repro import CommutativeConfig
        from repro.core.commutative import _key_digest, _slot
        from repro.core.joinkeys import encode_key
        from repro.crypto import commutative as comm
        from repro.crypto import groups
        from repro.storage.base import KIND_COMM_KEY, KIND_COMM_TAG
        from repro.storage.serialize import serialize_int

        # 512 bits: generate_key would draw 256, the stored one has 511.
        group = groups.commutative_group(512)
        stored = comm.CommutativeKey(group, group.q - 2)
        assert stored.exponent.bit_length() > comm.exponent_bits(group)
        slot = b"key:" + serialize_int(group.p)[:16]
        cache = federation.source("S1").index_cache()
        cache.put("R1", KIND_COMM_KEY, slot, serialize_int(stored.exponent))

        result = run_join_query(
            federation, QUERY, protocol="commutative",
            config=CommutativeConfig(group_bits=512),
        )
        reference = reference_join(federation, QUERY)
        assert encode_relation(result.global_result) == encode_relation(reference)
        assert result.artifacts["storage_cache"]["errors"] == 0
        # Loaded, not regenerated: the slot is unchanged and S1's tags
        # were computed (and cached) under that exponent.
        assert cache.get("R1", KIND_COMM_KEY, slot) == serialize_int(stored.exponent)
        value = workload.relation_1.active_domain("k")[0]
        assert cache.get(
            "R1", KIND_COMM_TAG,
            _slot(b"tag:", _key_digest(stored), encode_key((value,))),
        ) is not None
