"""``cache_get_many`` is the scalar loop, read as one statement.

For every backend, ``IndexCache.get_many(relation, kind, keys)`` must
return what ``[cache.get(relation, kind, key) for key in keys]`` returns
and count what it counts — over present, absent, stale-epoch,
other-relation, other-kind, unsealed, duplicate and more than 500 keys.
Under the fault injector a batch is one observation: a fired ``drop`` or
``corrupt`` costs the whole batch, as errors, never as a wrong value.
"""

import sqlite3

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.storage import (
    KIND_COMM_DOUBLE,
    KIND_COMM_TAG,
    FaultyStorage,
    IndexCache,
    MemoryBackend,
    SQLiteBackend,
)

KIND = KIND_COMM_TAG


def value_of(key: bytes) -> bytes:
    return b"value of " + key


@pytest.fixture(params=["memory", "sqlite", "faulty"])
def backend(request, tmp_path):
    if request.param == "sqlite":
        made = SQLiteBackend(str(tmp_path / "many.db"))
    elif request.param == "faulty":
        made = FaultyStorage(MemoryBackend(), FaultInjector(FaultPlan(seed=1)))
    else:
        made = MemoryBackend()
    yield made
    made.close()


def plant(backend, key: bytes, value: bytes, epoch: int) -> None:
    """File a raw (unsealed, any-epoch) entry behind the contract's back."""
    inner = getattr(backend, "inner", backend)
    if isinstance(inner, MemoryBackend):
        inner._cache[("S1", "R", KIND, key)] = (epoch, value)
    else:
        with sqlite3.connect(inner.path) as connection:
            connection.execute(
                "INSERT INTO index_cache VALUES (?, ?, ?, ?, ?, ?)",
                ("S1", "R", KIND, key, epoch, value),
            )


@pytest.fixture
def keys(backend):
    """Key groups by the outcome a read of them must have."""
    cache = IndexCache(backend, "S1")
    retired = [b"retired-%d" % i for i in range(5)]
    for key in retired:  # dropped eagerly by the rotation below
        cache.put("R", KIND, key, value_of(key))
    epoch = backend.bump_key_epoch("S1")
    present = [b"present-%d" % i for i in range(620)]  # two IN-lists
    for key in present:
        cache.put("R", KIND, key, value_of(key))
    other_relation = [b"elsewhere-%d" % i for i in range(5)]
    for key in other_relation:
        cache.put("Q", KIND, key, value_of(key))
    other_kind = [b"otherwise-%d" % i for i in range(5)]
    for key in other_kind:
        cache.put("R", KIND_COMM_DOUBLE, key, value_of(key))
    IndexCache(backend, "S2").put("R", KIND, b"foreign", value_of(b"foreign"))
    plant(backend, b"stale", value_of(b"stale"), epoch - 1)
    plant(backend, b"unsealed", b"no seal on this value", epoch)
    return {
        "present": present,
        "absent": [b"absent-%d" % i for i in range(7)],
        "retired": retired,
        "stale": [b"stale"],
        "other_relation": other_relation,
        "other_kind": other_kind,
        "other_namespace": [b"foreign"],
        "unsealed": [b"unsealed"],
        "duplicate": [present[0], b"absent-0", present[0], b"absent-0"],
        "empty": [],
    }


def both_ways(backend, batch):
    scalar, batched = IndexCache(backend, "S1"), IndexCache(backend, "S1")
    one_by_one = [scalar.get("R", KIND, key) for key in batch]
    at_once = batched.get_many("R", KIND, batch)
    return one_by_one, scalar.stats.as_dict(), at_once, batched.stats.as_dict()


GROUPS = [
    "present", "absent", "retired", "stale", "other_relation", "other_kind",
    "other_namespace", "unsealed", "duplicate", "empty",
]


class TestScalarEquivalence:
    @pytest.mark.parametrize("group", GROUPS)
    def test_each_outcome_reads_and_counts_the_same(self, backend, keys, group):
        batch = keys[group]
        one_by_one, scalar_stats, at_once, batched_stats = both_ways(backend, batch)
        assert at_once == one_by_one
        assert batched_stats == scalar_stats
        # One group, one outcome: the totals above are key-for-key counts.
        outcome = {
            "present": "hits", "unsealed": "errors", "duplicate": None,
        }.get(group, "misses")
        if outcome is not None:
            assert batched_stats[outcome] == len(batch)

    def test_a_mixed_batch_keeps_order_and_totals(self, backend, keys):
        batch = [key for group in GROUPS for key in keys[group]]
        batch = batch[::3] + batch[1::3] + batch[2::3]  # interleave outcomes
        one_by_one, scalar_stats, at_once, batched_stats = both_ways(backend, batch)
        assert at_once == one_by_one
        assert batched_stats == scalar_stats
        assert [value is not None for value in at_once] == [
            key.startswith(b"present-") for key in batch
        ]
        assert all(
            value == value_of(key)
            for key, value in zip(batch, at_once) if value is not None
        )

    def test_backend_batch_is_the_backend_scalar(self, backend, keys):
        batch = keys["present"][:3] + keys["stale"] + keys["absent"][:2]
        assert backend.cache_get_many("S1", "R", KIND, batch) == [
            backend.cache_get("S1", "R", KIND, key) for key in batch
        ]


def injected(*rules):
    inner = MemoryBackend()
    cache = IndexCache(inner, "S1")
    present = [b"present-%d" % i for i in range(4)]
    for key in present:
        cache.put("R", KIND, key, value_of(key))
    storage = FaultyStorage(inner, FaultInjector(FaultPlan(seed=1, rules=rules)))
    return storage, present


class TestInjectedFaults:
    @pytest.mark.parametrize("action", ["drop", "corrupt"])
    def test_a_standing_fault_is_the_scalar_loop(self, action):
        storage, present = injected(
            FaultRule(action=action, kind="storage:cache_get", max_triggers=0)
        )
        batch = present + [b"absent"]
        one_by_one, scalar_stats, at_once, batched_stats = both_ways(storage, batch)
        assert at_once == one_by_one == [None] * len(batch)
        assert batched_stats == scalar_stats
        assert batched_stats["hits"] == 0
        assert batched_stats["errors"] >= len(present)

    @pytest.mark.parametrize("action", ["drop", "corrupt"])
    def test_one_firing_costs_the_whole_batch_and_only_it(self, action):
        storage, present = injected(
            FaultRule(action=action, kind="storage:cache_get", occurrence=1)
        )
        cache = IndexCache(storage, "S1")
        assert cache.get_many("R", KIND, present) == [None] * len(present)
        assert cache.stats.as_dict() == {
            "hits": 0, "misses": 0, "puts": 0, "errors": len(present),
        }
        assert cache.get_many("R", KIND, present) == list(map(value_of, present))
        assert cache.stats.hits == len(present)
        assert len(storage.injector.events) == 1

    def test_a_batch_is_one_observation_under_the_scalar_name(self):
        storage, present = injected(
            FaultRule(
                action="delay", delay_seconds=0.001,
                kind="storage:cache_get", max_triggers=0,
            )
        )
        IndexCache(storage, "S1").get_many("R", KIND, present)
        assert [event.kind for event in storage.injector.events] == [
            "storage:cache_get"
        ]
