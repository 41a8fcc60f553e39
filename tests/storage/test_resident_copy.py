"""The index cache's resident copy of its batched reads, and the
source's content-keyed memo of what it derives from R_i.

:meth:`IndexCache.get_many` serves the slots an earlier batch read and
verified from memory and reads only the rest from the store.  These
tests pin what that copy may hold: only values the store served at the
current key epoch, never more entries than the store keeps live, nothing
across a rotation or a mutation, and nothing when the epoch cannot be
read.  Its hits count exactly like store hits.  The memo
(:meth:`DataSource.derived`) changes none of that: each query returns
the reference join and the same accounting as without it, and it keeps
one entry per relation.
"""

import sys
import threading

import pytest

from repro import Federation, reference_join, run_join_query
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.mediation.access_control import allow_all
from repro.mediation.datasource import DataSource
from repro.relational.encoding import encode_relation
from repro.storage import (
    KIND_COMM_DOUBLE,
    KIND_COMM_TAG,
    KIND_COMM_TUPLES,
    FaultyStorage,
    IndexCache,
    MemoryBackend,
    SQLiteBackend,
)
from repro.transport import TcpTransport

QUERY = "select * from R1 natural join R2"
BATCHED = (KIND_COMM_TAG, KIND_COMM_DOUBLE, KIND_COMM_TUPLES)


class CountingBackend(MemoryBackend):
    """A memory backend that counts its batched reads."""

    def __init__(self) -> None:
        super().__init__()
        self.batched_reads = 0

    def cache_get_many(self, namespace, relation, kind, keys):
        self.batched_reads += 1
        return super().cache_get_many(namespace, relation, kind, keys)


def build(ca, client, workload, storage, network=None):
    if network is None:
        federation = Federation(ca=ca, storage=storage)  # in-process bus
    else:
        federation = Federation(ca=ca, storage=storage, network=network)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


def run_and_check(federation):
    result = run_join_query(federation, QUERY, protocol="commutative")
    reference = reference_join(federation, QUERY)
    assert encode_relation(result.global_result) == encode_relation(reference)
    return result


def resident_slots(federation, source):
    cache = federation.source(source).index_cache()
    return {
        (relation, kind, slot)
        for (relation, kind), table in cache._resident.items()
        for slot in table
    }


def live_slots(backend, source):
    """The store's live entries of the three batched kinds."""
    return {
        (relation, kind, key)
        for (namespace, relation, kind, key) in backend._cache
        if namespace == source and kind in BATCHED
    }


def cache_stats(result):
    return {
        name: dict(stats)
        for name, stats in result.artifacts["storage_cache"]["sources"].items()
    }


def delta(after, before):
    return {
        name: {outcome: after[name][outcome] - before[name][outcome]
               for outcome in after[name]}
        for name in after
    }


class TestBound:
    def test_a_long_series_holds_the_stores_live_entries(
        self, ca, client, workload
    ):
        backend = CountingBackend()
        federation = build(ca, client, workload, backend)
        run_and_check(federation)
        # A put does not fill the copy: the cold query read nothing back.
        assert resident_slots(federation, "S1") == set()
        sizes = []
        for query in range(2, 51):
            reads = backend.batched_reads
            run_and_check(federation)
            for source in ("S1", "S2"):
                assert resident_slots(federation, source) == live_slots(
                    backend, source
                )
            sizes.append(len(resident_slots(federation, "S1")))
            if query > 2:  # warm: every batched slot came from memory
                assert backend.batched_reads == reads
        assert sizes == [sizes[0]] * len(sizes)
        assert sizes[0] > 0


class TestRotation:
    def test_a_local_rotation_empties_the_copy(self, ca, client, workload):
        backend = MemoryBackend()
        federation = build(ca, client, workload, backend)
        run_and_check(federation)
        run_and_check(federation)
        before = resident_slots(federation, "S1")
        assert before
        federation.source("S1").rotate_keys()
        assert resident_slots(federation, "S1") == set()
        run_and_check(federation)
        run_and_check(federation)
        after = resident_slots(federation, "S1")
        assert after == live_slots(backend, "S1")
        assert not after & before

    def test_a_rotation_by_another_process_is_seen(
        self, ca, client, workload
    ):
        """The store's epoch moved behind this source's back (another
        process shares the store): no old-epoch entry is kept."""
        backend = MemoryBackend()
        federation = build(ca, client, workload, backend)
        run_and_check(federation)
        run_and_check(federation)
        before = resident_slots(federation, "S1")
        backend.bump_key_epoch("S1")
        run_and_check(federation)
        run_and_check(federation)
        after = resident_slots(federation, "S1")
        assert after == live_slots(backend, "S1")
        assert not after & before

    def test_an_old_epoch_value_is_never_served(self):
        backend = MemoryBackend()
        cache = IndexCache(backend, "S1")
        slots = [b"slot-%d" % i for i in range(4)]
        for slot in slots:
            cache.put("R", KIND_COMM_TAG, slot, b"old " + slot)
        assert cache.get_many("R", KIND_COMM_TAG, slots) == [
            b"old " + slot for slot in slots
        ]
        backend.bump_key_epoch("S1")
        cache.put("R", KIND_COMM_TAG, slots[0], b"new")
        assert cache.get_many("R", KIND_COMM_TAG, slots) == [b"new"] + [None] * 3
        assert cache.stats.as_dict() == {
            "hits": 5, "misses": 3, "puts": 5, "errors": 0,
        }


class TestMutation:
    @pytest.fixture(params=["memory", "sqlite"])
    def backend(self, request, tmp_path):
        if request.param == "memory":
            made = MemoryBackend()
        else:
            made = SQLiteBackend(str(tmp_path / "mutation.db"))
        yield made
        made.close()

    def test_insert_rows_costs_what_it_cost_before(
        self, ca, client, workload, backend
    ):
        federation = build(ca, client, workload, backend)
        run_and_check(federation)
        warm = cache_stats(run_and_check(federation))
        k = workload.relation_1.schema.position("k")
        shared = {
            row[workload.relation_2.schema.position("k")]
            for row in workload.relation_2.rows
        }
        row = list(next(r for r in workload.relation_1.rows if r[k] in shared))
        row[-1] = "fresh-payload"
        federation.source("S1").insert_rows("R1", [tuple(row)])
        assert resident_slots(federation, "S1") == set()
        mutated = cache_stats(run_and_check(federation))
        # The counts a store without a resident copy gives (pinned).
        assert delta(mutated, warm) == {
            "S1": {"hits": 0, "misses": 20, "puts": 20, "errors": 0},
            "S2": {"hits": 14, "misses": 6, "puts": 6, "errors": 0},
        }
        again = cache_stats(run_and_check(federation))
        assert delta(again, mutated) == {
            "S1": {"hits": 20, "misses": 0, "puts": 0, "errors": 0},
            "S2": {"hits": 20, "misses": 0, "puts": 0, "errors": 0},
        }
        if isinstance(backend, MemoryBackend):
            assert resident_slots(federation, "S1") == live_slots(backend, "S1")


class ForgettingBackend(MemoryBackend):
    """A memory backend during whose batched read the cache forgets:
    another thread mutating the relation while a batch is out."""

    cache: IndexCache

    def cache_get_many(self, namespace, relation, kind, keys):
        values = super().cache_get_many(namespace, relation, kind, keys)
        self.cache.forget(relation)
        return values


class TestInterleaving:
    def test_a_forget_during_a_batch_keeps_nothing_it_read(self):
        backend = ForgettingBackend()
        cache = backend.cache = IndexCache(backend, "S1")
        slots = [b"slot-%d" % i for i in range(4)]
        for slot in slots:
            cache.put("R", KIND_COMM_TAG, slot, b"value " + slot)
        assert cache.get_many("R", KIND_COMM_TAG, slots) == [
            b"value " + slot for slot in slots
        ]
        assert cache._resident == {}


class TestUnreadableEpoch:
    def test_a_dropped_epoch_read_falls_through_to_the_store(self):
        inner = CountingBackend()
        injector = FaultInjector(
            FaultPlan(
                seed=1,
                rules=(
                    FaultRule(
                        action="drop", kind="storage:key_epoch", occurrence=3,
                    ),
                ),
            )
        )
        cache = IndexCache(FaultyStorage(inner, injector), "S1")
        slots = [b"slot-%d" % i for i in range(4)]
        for slot in slots:
            cache.put("R", KIND_COMM_TAG, slot, b"value " + slot)
        expected = [b"value " + slot for slot in slots]
        assert cache.get_many("R", KIND_COMM_TAG, slots) == expected  # fills
        assert cache.get_many("R", KIND_COMM_TAG, slots) == expected  # memory
        assert inner.batched_reads == 1
        # The third epoch read is dropped: the batch is a store read, and
        # nothing it read is kept, so the next batch reads the store too.
        assert cache.get_many("R", KIND_COMM_TAG, slots) == expected
        assert inner.batched_reads == 2
        assert cache._resident == {}
        assert cache.get_many("R", KIND_COMM_TAG, slots) == expected
        assert inner.batched_reads == 3
        assert len(injector.events) == 1
        assert cache.stats.as_dict() == {
            "hits": 16, "misses": 0, "puts": 4, "errors": 0,
        }


class TestThreads:
    def test_two_threads_on_one_tcp_sqlite_federation(
        self, ca, client, workload, tmp_path
    ):
        storage = SQLiteBackend(str(tmp_path / "threads.db"))
        network = TcpTransport()
        interval = sys.getswitchinterval()
        try:
            federation = build(ca, client, workload, storage, network)
            expected = encode_relation(reference_join(federation, QUERY))
            failures: list = []

            def series(name: str) -> None:
                for query in range(6):
                    try:
                        result = run_join_query(
                            federation, QUERY, protocol="commutative",
                            session_id=f"{name}-{query}",
                        )
                        if encode_relation(result.global_result) != expected:
                            failures.append((name, query, "wrong join"))
                    except Exception as error:  # reported below
                        failures.append((name, query, repr(error)))

            sys.setswitchinterval(1e-6)
            threads = [
                threading.Thread(target=series, args=(name,))
                for name in ("a", "b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
            network.close()
            storage.close()
        assert failures == []


def derive_every_time(self, relation, join_attributes, derive):
    """``DataSource.derived`` without the memo."""
    return derive()


def mutate(federation, source="S1", relation="R1"):
    """Give ``relation`` one more row under a join value both sides hold
    (a new payload under an existing key), so the join changes."""
    held = [
        federation.source(name).relations[held_relation]
        for name, held_relation in (("S1", "R1"), ("S2", "R2"))
    ]
    shared = set.intersection(*(
        {row[each.schema.position("k")] for row in each.rows} for each in held
    ))
    current = federation.source(source).relations[relation]
    k = current.schema.position("k")
    row = list(next(r for r in current.rows if r[k] in shared))
    row[-1] = "fresh-payload"
    federation.source(source).insert_rows(relation, [tuple(row)])


class TestContentMemo:
    SERIES = ("query", "query", "query", "insert", "query", "query",
              "rotate", "query", "query")

    def run_series(self, ca, client, workload):
        federation = build(ca, client, workload, MemoryBackend())
        accounting = []
        for step in self.SERIES:
            if step == "insert":
                mutate(federation)
            elif step == "rotate":
                federation.source("S2").rotate_keys()
            else:
                accounting.append(
                    run_and_check(federation).artifacts["storage_cache"]
                )
        return federation, accounting

    def test_the_accounting_is_the_accounting_without_the_memo(
        self, ca, client, workload, monkeypatch
    ):
        federation, kept = self.run_series(ca, client, workload)
        assert all(federation.source(name)._derived for name in ("S1", "S2"))
        monkeypatch.setattr(DataSource, "derived", derive_every_time)
        _, derived = self.run_series(ca, client, workload)
        assert kept == derived

    @pytest.mark.parametrize("change", ["insert", "rotate", "foreign"])
    def test_a_change_returns_the_reference_join(
        self, ca, client, workload, change
    ):
        backend = MemoryBackend()
        federation = build(ca, client, workload, backend)
        run_and_check(federation)
        run_and_check(federation)
        if change == "insert":
            mutate(federation)
        elif change == "rotate":
            federation.source("S1").rotate_keys()
        else:
            # Another DataSource over the same store changes its copy of R1:
            # the store's entries for R1 go, this source's rows stay.
            other = build(ca, client, workload, backend)
            mutate(other)
            run_and_check(other)
        for _ in range(2):
            run_and_check(federation)
        if change == "foreign":
            run_and_check(other)
            mutate(federation, "S2", "R2")
            run_and_check(federation)
            run_and_check(other)

    @pytest.mark.parametrize("selections", [
        # Both sources get each selection: both R_i alternate.
        (" where k < 45", " where k >= 19"),
        # Only S2 gets one: S1's R_i stays, the tags it receives alternate.
        ("", " where r2_p0 != 'vvEX'"),
    ], ids=["both", "S2"])
    def test_one_entry_per_relation_across_alternating_selections(
        self, ca, client, workload, selections
    ):
        federation = build(ca, client, workload, MemoryBackend())
        federation.mediator.push_down = True  # a selection is a new R_i
        entries: dict[str, list] = {"S1": [], "S2": []}
        for turn in range(50):
            query = QUERY + selections[turn % 2]
            result = run_join_query(federation, query, protocol="commutative")
            reference = reference_join(federation, query)
            assert encode_relation(result.global_result) == encode_relation(
                reference
            )
            sizes = result.artifacts["active_domain_sizes"]
            for name, other in (("S1", "S2"), ("S2", "S1")):
                memo = federation.source(name)._derived
                assert len(memo) == 1
                (_, derived), = memo.values()
                # Round 2's map holds the tags just received: |M_other|.
                assert len(derived.match_slots.held[1]) == sizes[other]
                entries[name].append(derived)
        replaced = {
            name: [a is not b for a, b in zip(kept, kept[1:])]
            for name, kept in entries.items()
        }
        # A source whose R_i alternated replaced its entry every query;
        # one whose R_i stayed kept it.
        assert all(replaced["S2"])
        assert all(replaced["S1"]) if selections[0] else not any(replaced["S1"])
