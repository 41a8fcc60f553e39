"""Storage fault injection: queries degrade to recomputing indexes.

The ``storage`` injection site subjects backend operations to fault
plans.  The contract under test: cache-layer faults (store down, slow
I/O, corrupted blobs) never fail a query — the soft-failure
:class:`~repro.storage.base.IndexCache` converts them into counted
misses and the protocols recompute the encrypted indexes.
"""

import pytest

from repro import Federation, run_join_query
from repro.core.runner import reference_join
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.mediation.access_control import allow_all
from repro.relational.encoding import encode_relation
from repro.storage import FaultyStorage, MemoryBackend

QUERY = "select * from R1 natural join R2"


def build(ca, client, workload, storage):
    federation = Federation(ca=ca, storage=storage)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


def faulty(*rules, seed=2007):
    return FaultyStorage(
        MemoryBackend(), FaultInjector(FaultPlan(seed=seed, rules=tuple(rules)))
    )


def assert_correct(federation, protocol="commutative"):
    result = run_join_query(federation, QUERY, protocol=protocol)
    reference = reference_join(federation, QUERY)
    assert encode_relation(result.global_result) == encode_relation(reference)
    return result


class TestPlanValidation:
    def test_storage_site_actions(self):
        from repro.faults.plan import SITE_ACTIONS

        assert SITE_ACTIONS["storage"] == frozenset(
            {"delay", "drop", "corrupt"}
        )


@pytest.mark.parametrize("protocol", ["das", "commutative", "private-matching"])
class TestGracefulDegradation:
    def test_dropped_cache_reads_degrade_to_recompute(
        self, ca, client, workload, protocol
    ):
        storage = faulty(
            FaultRule(
                action="drop", kind="storage:cache_get", max_triggers=0,
            ),
            FaultRule(
                action="drop", kind="storage:cache_put", max_triggers=0,
            ),
        )
        federation = build(ca, client, workload, storage)
        result = assert_correct(federation, protocol)
        stats = result.artifacts["storage_cache"]
        assert stats["errors"] > 0
        assert stats["hits"] == 0

    def test_corrupted_cache_blobs_are_rejected_not_trusted(
        self, ca, client, workload, protocol
    ):
        storage = faulty(
            FaultRule(
                action="corrupt", kind="storage:cache_get", max_triggers=0,
            )
        )
        federation = build(ca, client, workload, storage)
        # Warm the cache, then read it back through the corruptor:
        # every deserializer must reject the bit-flipped blobs and the
        # protocols recompute instead of using garbage.
        assert_correct(federation, protocol)
        warm = assert_correct(federation, protocol)
        assert warm.artifacts["storage_cache"]["hits"] == 0
        assert warm.artifacts["storage_cache"]["errors"] > 0


@pytest.mark.parametrize("protocol", ["das", "commutative"])
class TestSessionSlot:
    """The per-epoch hybrid session slot is what a warm delivery's
    ciphertext bodies hang on: losing or corrupting it must cost a fresh
    encapsulation and a cold fill of what was filed under the old one,
    never pair a body with the wrong key.  That is every tuple set for
    commutative; DAS files no etuples, so there it is the one index
    table."""

    #: Which of S1's cache reads in a delivery is its session slot:
    #: DAS reads it first; commutative reads its key and its tags before.
    SESSION_READ = {"das": 1, "commutative": 3}

    def warm(self, ca, client, workload, protocol):
        inner = MemoryBackend()
        assert_correct(build(ca, client, workload, inner), protocol)
        return inner

    @staticmethod
    def session_slot(client):
        from repro.core.encapsulation import session_slot

        return session_slot(client.credential_public_keys())

    def encapsulation_digest(self, inner, client, workload):
        from repro.storage import KIND_HYBRID_SESSION, IndexCache
        from repro.storage.serialize import deserialize_session

        blob = IndexCache(inner, "S1").get(
            workload.relation_1.name, KIND_HYBRID_SESSION,
            self.session_slot(client),
        )
        return deserialize_session(blob).encapsulation.digest()

    def test_missing_session_slot_degrades_to_a_cold_fill(
        self, ca, client, workload, protocol
    ):
        inner = self.warm(ca, client, workload, protocol)
        storage = FaultyStorage(
            inner,
            FaultInjector(
                FaultPlan(
                    seed=1,
                    rules=(
                        FaultRule(
                            action="drop", kind="storage:cache_get",
                            sender="S1",
                            occurrence=self.SESSION_READ[protocol],
                        ),
                    ),
                )
            ),
        )
        federation = build(ca, client, workload, storage)
        size = inner.cache_size("S1")
        digest = self.encapsulation_digest(inner, client, workload)
        assert_correct(federation, protocol)
        # A fresh session replaced the unreadable one, and what hangs on
        # it was re-filed under its digest next to the orphans: DAS's
        # index table, commutative's tuple sets.
        assert self.encapsulation_digest(inner, client, workload) != digest
        refiled = inner.cache_size("S1") - size
        assert (refiled == 1) if protocol == "das" else (refiled > 1)
        assert_correct(federation, protocol)

    def test_corrupt_session_slot_degrades_to_a_cold_fill(
        self, ca, client, workload, protocol
    ):
        from repro.storage import KIND_HYBRID_SESSION, IndexCache

        inner = self.warm(ca, client, workload, protocol)
        relation = workload.relation_1.name
        digest = self.encapsulation_digest(inner, client, workload)
        # Well-sealed, but not a session: the decode failure path.
        IndexCache(inner, "S1").put(
            relation, KIND_HYBRID_SESSION, self.session_slot(client),
            b"SHS1 not a session",
        )
        federation = build(ca, client, workload, inner)
        refilled = assert_correct(federation, protocol).artifacts["storage_cache"]
        assert refilled["errors"] == 1
        assert self.encapsulation_digest(inner, client, workload) != digest
        misses = refilled["misses"]
        assert (misses == 1) if protocol == "das" else (misses > 1)
        # The replacement session was persisted: the next query is warm.
        warm = assert_correct(federation, protocol).artifacts["storage_cache"]
        assert (warm["errors"], warm["misses"]) == (1, refilled["misses"])

    def test_a_store_of_the_previous_dem_gets_a_cold_fill(
        self, ca, client, workload, protocol, monkeypatch
    ):
        """A store written before the DEM changed holds its session under
        a slot that names no DEM, and bodies whose tags were made under
        the old MAC sub-key label.  None of it is served: the source
        mints a fresh session, whose digest no old body is filed under,
        so the client never meets a tag it cannot verify."""
        from repro.core import encapsulation
        from repro.crypto import symmetric
        from repro.storage import KIND_HYBRID_SESSION, IndexCache
        from repro.storage.serialize import deserialize_session

        def old_slot(client_keys):
            return b"session:" + encapsulation.recipient_digest(client_keys)

        with monkeypatch.context() as old_build:
            old_build.setattr(encapsulation, "session_slot", old_slot)
            old_build.setattr(symmetric, "_CIPHER_LABEL", b"repro/dem/cipher")
            old_build.setattr(symmetric, "_MAC_LABEL", b"repro/dem/mac")
            inner = self.warm(ca, client, workload, protocol)

        relation = workload.relation_1.name
        cache = IndexCache(inner, "S1")
        stale = cache.get(
            relation, KIND_HYBRID_SESSION,
            old_slot(client.credential_public_keys()),
        )
        assert cache.get(
            relation, KIND_HYBRID_SESSION, self.session_slot(client)
        ) is None
        federation = build(ca, client, workload, inner)
        cold = assert_correct(federation, protocol).artifacts["storage_cache"]
        assert cold["misses"] > 0
        assert self.encapsulation_digest(inner, client, workload) != (
            deserialize_session(stale).encapsulation.digest()
        )
        warm = assert_correct(federation, protocol).artifacts["storage_cache"]
        assert warm["misses"] == cold["misses"]


class TestDelay:
    def test_slow_storage_is_only_slow(self, ca, client, workload):
        storage = faulty(
            FaultRule(
                action="delay", delay_seconds=0.01,
                kind="storage:cache_get", occurrence=1,
            )
        )
        federation = build(ca, client, workload, storage)
        result = assert_correct(federation)
        assert result.artifacts["storage_cache"]["errors"] == 0

    def test_fault_events_are_recorded(self, ca, client, workload):
        injector = FaultInjector(
            FaultPlan(
                seed=1,
                rules=(
                    FaultRule(
                        action="drop", kind="storage:cache_put",
                        max_triggers=0,
                    ),
                ),
            )
        )
        storage = FaultyStorage(MemoryBackend(), injector)
        federation = build(ca, client, workload, storage)
        assert_correct(federation)
        assert injector.events
        assert all(event.site == "storage" for event in injector.events)


class TestHardFailures:
    def test_faulty_wrapper_describes_itself(self):
        storage = faulty()
        assert storage.describe().startswith("faulty(")
