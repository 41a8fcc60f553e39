"""White-box tests for commutative delivery internals."""

import gc
import hashlib
from itertools import chain
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.statistics import _collect_ciphertext_fragments
from repro.analysis.views import iter_byte_material
from repro import Federation, reference_join, run_join_query
from repro.core import commutative
from repro.core.commutative import (
    MessageSet,
    _columns,
    _Derived,
    _MatchSlots,
    _cached_key,
    _double_encrypt,
    _exchange,
    _key_digest,
    _prepare_source,
    _round_1,
    _round_2,
    _slots,
)
from repro.crypto import commutative as comm
from repro.crypto import groups
from repro.crypto.engine import CryptoEngine
from repro.crypto.hashes import IdealHash, match_digest
from repro.crypto.rand import shuffled as _shuffled
from repro.errors import ParameterError, ProtocolError
from repro.mediation.access_control import allow_all
from repro.mediation.network import Network
from repro.mediation.sizing import estimate_size
from repro.relational.encoding import encode_relation
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.storage import KIND_COMM_DOUBLE, IndexCache, MemoryBackend
from repro.storage.serialize import serialize_int
from repro.transport import TcpTransport, codec

from tests.transport import reference_codec as reference

S = schema("R", k="int", p="string")
R = Relation(S, [(1, "a"), (1, "b"), (2, "c"), (3, "d")])


@pytest.fixture(scope="module")
def group():
    return groups.commutative_group(128)


@pytest.fixture(scope="module")
def ideal_hash(group):
    return IdealHash(group.p)


class TestPrepareSource:
    def test_one_message_per_active_value(self, group, ideal_hash, rsa_key):
        state, messages = _prepare_source(
            R, ("k",), group, ideal_hash, [rsa_key.public_key()],
        )
        assert len(messages) == 3  # active domain {1, 2, 3}
        assert len(state.tuple_ciphertexts) == 3

    def test_tags_are_group_elements(self, group, ideal_hash, rsa_key):
        _, messages = _prepare_source(
            R, ("k",), group, ideal_hash, [rsa_key.public_key()],
        )
        assert all(group.contains(tag) for tag in messages.tags)

    def test_tags_distinct(self, group, ideal_hash, rsa_key):
        _, messages = _prepare_source(
            R, ("k",), group, ideal_hash, [rsa_key.public_key()],
        )
        assert len(set(messages.tags)) == len(messages)

    def test_group_verification_failure(self):
        # Refused before the source's state is touched.
        for bogus in (2163, 2161):  # composite, 3 mod 4; prime, 1 mod 4
            with pytest.raises(ProtocolError, match="not a safe prime"):
                _round_1(None, "mediator", {"modulus": bogus, "hash_tag": b""})


class TestDoubleEncrypt:
    def test_payloads_preserved(self, group, ideal_hash, rsa_key):
        state, messages = _prepare_source(
            R, ("k",), group, ideal_hash, [rsa_key.public_key()],
        )
        other_key = comm.generate_key(group)
        doubled = _double_encrypt(messages, other_key)
        assert set(map(id, doubled.payloads)) == set(map(id, messages.payloads))

    def test_tags_transformed(self, group, ideal_hash, rsa_key):
        _, messages = _prepare_source(
            R, ("k",), group, ideal_hash, [rsa_key.public_key()],
        )
        other_key = comm.generate_key(group)
        doubled = _double_encrypt(messages, other_key)
        assert not set(messages.tags) & set(doubled.tags)


    def test_non_residue_tag_is_a_typed_error(self, group, ideal_hash, rsa_key):
        """Second-round tags come from the other source via the mediator:
        one outside QR_p fails the batch."""
        _, messages = _prepare_source(
            R, ("k",), group, ideal_hash, [rsa_key.public_key()],
        )
        non_residue = next(x for x in range(2, 1000) if not group.contains(x))
        tags = list(messages.tags)
        tags[1] = non_residue
        messages = MessageSet(tuple(tags), messages.payloads)
        with pytest.raises(ParameterError):
            _double_encrypt(
                messages, comm.generate_key(group), engine=CryptoEngine()
            )


class TestRound2Digests:
    """Steps 5/6 return a 16-byte match digest per double encryption."""

    def test_digest_of_the_double_encryption(self, group, ideal_hash, rsa_key):
        _, messages = _prepare_source(
            R, ("k",), group, ideal_hash, [rsa_key.public_key()],
        )
        other_key = comm.generate_key(group)
        doubled = _double_encrypt(messages, other_key)
        expected = {
            id(payload): match_digest(comm.apply(other_key, tag), group.p)
            for tag, payload in messages
        }
        assert all(type(tag) is bytes and len(tag) == 16 for tag in doubled.tags)
        assert {id(payload): tag for tag, payload in doubled} == expected

    @settings(max_examples=25, deadline=None)
    @given(
        values_1=st.sets(st.integers(0, 40), max_size=12),
        values_2=st.sets(st.integers(0, 40), max_size=12),
        exponents=st.tuples(st.integers(1, 2**64), st.integers(1, 2**64)),
    )
    def test_digest_matches_equal_raw_matches(
        self, values_1, values_2, exponents
    ):
        """The pairs matched on digests are the pairs matched on the raw
        double encryptions — the common values, each once."""
        group = groups.commutative_group(128)
        ideal_hash = IdealHash(group.p)
        key_1, key_2 = (comm.CommutativeKey(group, e) for e in exponents)

        def round_1(key, values):
            return MessageSet(
                tuple(comm.apply(key, ideal_hash(b"%d" % v)) for v in values),
                tuple(values),
            )

        # Each source double-encrypts the other's round-1 set.
        from_2 = round_1(key_2, values_2)
        from_1 = round_1(key_1, values_1)
        raw_1 = {comm.apply(key_1, tag): value for tag, value in from_2}
        raw_2 = {comm.apply(key_2, tag): value for tag, value in from_1}
        digest_1 = dict(_double_encrypt(from_2, key_1))
        digest_2 = dict(_double_encrypt(from_1, key_2))

        raw_pairs = {(a, raw_1[t]) for t, a in raw_2.items() if t in raw_1}
        digest_pairs = {
            (a, digest_1[t]) for t, a in digest_2.items() if t in digest_1
        }
        assert digest_pairs == raw_pairs
        assert digest_pairs == {(v, v) for v in values_1 & values_2}


class TestRound2Cache:
    """The digests persist under ``match:`` slots of ``comm_double``."""

    @pytest.fixture
    def cache(self):
        return IndexCache(MemoryBackend(), "S1")

    @pytest.fixture
    def messages(self, group, ideal_hash, rsa_key):
        _, messages = _prepare_source(
            R, ("k",), group, ideal_hash, [rsa_key.public_key()],
        )
        return messages

    def test_warm_call_reads_digests(self, group, cache, messages):
        key = comm.generate_key(group)
        cold = _double_encrypt(messages, key, cache=cache, relation_name="R")
        warm = _double_encrypt(messages, key, cache=cache, relation_name="R")
        assert sorted(cold) == sorted(warm)
        assert cache.stats.hits == len(messages)
        assert cache.stats.errors == 0

    def test_old_double_entry_is_never_read_as_a_digest(
        self, group, cache, messages
    ):
        """At the 128-bit group a double encryption serializes to 16
        bytes, exactly a digest's width: only the slot prefix keeps an
        entry written by an older build from being misread."""
        key = comm.generate_key(group)
        digest = _key_digest(key)
        for tag in messages.tags:
            element = comm.apply(key, tag)
            cache.put(
                "R", KIND_COMM_DOUBLE,
                _slots(b"double:", digest, [serialize_int(tag)])[0],
                element.to_bytes(16, "big"),
            )
        doubled = _double_encrypt(messages, key, cache=cache, relation_name="R")
        assert sorted(doubled) == sorted(_double_encrypt(messages, key))
        assert cache.stats.hits == 0

    def test_wrong_length_blob_is_a_decode_failure(
        self, group, cache, messages
    ):
        key = comm.generate_key(group)
        digest = _key_digest(key)
        slot = _slots(b"match:", digest, [serialize_int(messages.tags[0])])[0]
        cache.put("R", KIND_COMM_DOUBLE, slot, b"\x00" * 15)
        doubled = _double_encrypt(messages, key, cache=cache, relation_name="R")
        assert sorted(doubled) == sorted(_double_encrypt(messages, key))
        assert cache.stats.errors == 1
        assert cache.stats.hits == 0
        # Recomputed and filed again at full width.
        assert len(cache.get("R", KIND_COMM_DOUBLE, slot)) == 16


class TestKeySlot:
    def test_each_rfc_3526_group_keeps_its_own_exponent(self):
        """The RFC 3526 moduli share their first 16 bytes; a key filed
        for one group must not be served for another."""
        cache = IndexCache(MemoryBackend(), "S1")
        big = groups.commutative_group(4096)
        small = groups.commutative_group(2048)
        key_big = _cached_key(cache, "R1", big)
        key_small = _cached_key(cache, "R1", small)
        assert key_small.exponent != key_big.exponent
        assert key_small.exponent.bit_length() <= comm.exponent_bits(small)
        assert _cached_key(cache, "R1", big) == key_big
        assert _cached_key(cache, "R1", small) == key_small


class TestShuffle:
    def test_preserves_multiset(self):
        items = [(i, b"x") for i in range(50)]
        shuffled = _shuffled(items)
        assert sorted(tag for tag, _ in shuffled) == list(range(50))

    def test_does_not_mutate_input(self):
        items = [(i, b"x") for i in range(10)]
        snapshot = list(items)
        _shuffled(items)
        assert items == snapshot

    def test_actually_shuffles(self):
        items = [(i, b"x") for i in range(64)]
        # The probability all 20 attempts return identity order is ~0.
        assert any(
            [tag for tag, _ in _shuffled(items)] != list(range(64))
            for _ in range(20)
        )


class TestSlotBytes:
    """A slot is ``prefix + blake2b(material, digest_size=16,
    key=key_digest)``: stores written by earlier builds stay warm."""

    def test_slot_bytes_are_pinned(self, group):
        key_digest = _key_digest(comm.generate_key(group))
        materials = [b"", b"a", b"\x00" * 200, serialize_int(2**127 + 5)]
        expected = [
            b"tag:" + hashlib.blake2b(
                material, digest_size=16, key=key_digest
            ).digest()
            for material in materials
        ]
        assert _slots(b"tag:", key_digest, materials) == expected
        assert _slots(b"tag:", key_digest, iter(materials)) == expected


class TestMessageSet:
    """A message set holds two columns and reads, everywhere it is read,
    as its ``(tag, payload)`` pairs; only the codec writes it as a list
    of ``tagged-message`` records."""

    @pytest.fixture
    def exchange(self):
        tags = (2**2047 + 11, 5, 0, 2**64)
        tokens = tuple(bytes([i]) * 8 for i in range(len(tags)))
        return MessageSet(tags, tokens), list(zip(tags, tokens))

    def test_reads_as_its_pairs(self, exchange):
        body, pairs = exchange
        assert len(body) == len(pairs)
        assert list(body) == pairs
        assert body[1] == pairs[1] and body[-1] == pairs[-1]
        assert body[1:3] == pairs[1:3] and type(body[1:3]) is MessageSet
        assert body == pairs and pairs == body
        assert body == MessageSet(body.tags, body.payloads)
        assert body != pairs[:-1]

    def test_wire_bytes_are_the_records_and_walkers_read_the_pairs(
        self, exchange
    ):
        body, pairs = exchange
        encoded = codec.encode_value(body)
        assert encoded == reference.encode_records(
            reference.MESSAGE_RECORD, pairs
        )
        decoded = codec.decode_value(encoded)
        assert type(decoded) is MessageSet
        assert (decoded.tags, decoded.payloads) == (body.tags, body.payloads)
        assert estimate_size(body) == estimate_size(pairs)
        assert estimate_size({"set": body}) == estimate_size({"set": pairs})
        assert list(iter_byte_material(body)) == list(
            iter_byte_material(pairs)
        )
        fragments = ([], [])
        _collect_ciphertext_fragments(body, fragments[0])
        _collect_ciphertext_fragments(pairs, fragments[1])
        assert fragments[0] == fragments[1]

    def test_the_untimed_exchange_builds_no_record_per_message(self):
        """Step 4 allocates a handful of objects, not one per message:
        objects it allocated are where a garbage collection can start
        inside an untimed step."""
        sets = {
            source: MessageSet(
                tuple(range(base, base + 200)), (b"ct",) * 200
            )
            for source, base in (("S1", 0), ("S2", 1000))
        }
        mediator = SimpleNamespace()
        gc.disable()
        try:
            before = len(gc.get_objects())
            outbound = _exchange(mediator, "S2", sets)
            allocated = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert allocated < 20
        (_, _, to_1), (_, _, to_2) = outbound
        assert to_1.tags == sets["S2"].tags and to_2.tags == sets["S1"].tags
        assert list(chain(to_2.payloads, to_1.payloads)) == list(mediator.tokens)

    @pytest.mark.parametrize(
        "body",
        [[(5, b"token")], ((5, b"token"),), {5: b"token"}, b"set", 7, None],
        ids=["pairs", "tuple-of-pairs", "dict", "bytes", "int", "none"],
    )
    def test_a_body_that_is_no_message_set_is_refused(self, body):
        with pytest.raises(ProtocolError, match="message set is a"):
            _round_2(SimpleNamespace(), "mediator", body)
        with pytest.raises(ProtocolError, match="message set is a"):
            _exchange(SimpleNamespace(), "S2", {"S1": body, "S2": body})

    def test_the_empty_set_travels_and_decodes_as_an_empty_list(self):
        """The empty set has no wire type: it is written as ``[]``,
        decodes as ``[]``, and a handler takes ``[]`` (or ``()``) as the
        empty set."""
        empty = MessageSet((), ())
        assert codec.encode_value(empty) == codec.encode_value([])
        assert codec.decode_value(codec.encode_value(empty)) == [] == empty
        for decoded in ([], ()):
            assert type(_columns(decoded)) is MessageSet
            assert _columns(decoded) == empty


class TestContentMemo:
    """A storage-backed source derives from R_i once per content: the
    grouping, the encodings and every slot MAC."""

    DERIVATIONS = ("group_by_key", "encode_rows", "encode_key", "_slots")

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(self.DERIVATIONS, 0)
        for name in self.DERIVATIONS:
            def counted(*args, _name=name, _call=getattr(commutative, name)):
                counts[_name] += 1
                return _call(*args)

            monkeypatch.setattr(commutative, name, counted)
        return counts

    @pytest.mark.parametrize("hardened", [False, True])
    def test_a_warm_query_derives_nothing(
        self, ca, client, workload, calls, hardened
    ):
        federation = Federation(ca=ca, storage=MemoryBackend())
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        query = "select * from R1 natural join R2"
        expected = encode_relation(reference_join(federation, query))
        counts = []
        for _ in range(3):
            before = dict(calls)
            result = run_join_query(
                federation, query, protocol="commutative",
                hardening=hardened or None,
            )
            assert encode_relation(result.global_result) == expected
            counts.append({name: calls[name] - before[name] for name in calls})
        assert all(counts[0].values())  # the cold query derives everything
        assert counts[1] == counts[2] == dict.fromkeys(self.DERIVATIONS, 0)

    def test_the_cold_path_keeps_nothing(self, ca, client, workload, calls):
        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        for _ in range(2):
            before = calls["group_by_key"]
            run_join_query(
                federation, "select * from R1 natural join R2",
                protocol="commutative",
            )
            assert calls["group_by_key"] - before == 2
        assert all(not source._derived for source in federation.sources.values())

    def test_slots_follow_the_key_digest(self, group):
        derived = _Derived(R, ("k",))
        digest_1, digest_2 = (
            _key_digest(comm.generate_key(group)) for _ in range(2)
        )
        for digest in (digest_1, digest_2, digest_1):
            assert derived.tags(digest) == _slots(
                b"tag:", digest, derived.encoded_keys
            )
            for binding, target in ((b"b1", None), (b"b2", None), (b"b2", 64)):
                sets = [s + bytes(target or 0) for s in derived.encoded_sets]
                assert derived.tuples(digest, binding, sets, target) == _slots(
                    b"tupct:" + binding, digest,
                    [k + s for k, s in zip(derived.encoded_keys, sets)],
                )

    def test_the_round_2_map_holds_only_the_tags_just_received(self, group):
        match_slots = _MatchSlots()
        digest_1, digest_2 = (
            _key_digest(comm.generate_key(group)) for _ in range(2)
        )
        series = [
            (digest_1, list(range(2, 40))),
            (digest_1, list(range(30, 50))),  # 10 held, 10 fresh
            (digest_1, [7, 8]),
            (digest_2, [7, 8]),  # another key: nothing held is reused
            (digest_2, list(range(100, 300))),
        ]
        for digest, tags in series:
            assert match_slots(digest, tags) == _slots(
                b"match:", digest, map(serialize_int, tags)
            )
            held_digest, held = match_slots.held
            assert held_digest == digest and set(held) == set(tags)

    def test_the_cold_double_encryption_is_the_memoised_one(
        self, group, ideal_hash, rsa_key
    ):
        cache = IndexCache(MemoryBackend(), "S1")
        _, messages = _prepare_source(
            R, ("k",), group, ideal_hash, [rsa_key.public_key()],
        )
        key = comm.generate_key(group)
        match_slots = _MatchSlots()
        cold = _double_encrypt(messages, key, cache=cache, relation_name="R")
        warm = _double_encrypt(
            messages, key, cache=cache, relation_name="R",
            match_slots=match_slots,
        )
        again = _double_encrypt(
            messages, key, cache=cache, relation_name="R",
            match_slots=match_slots,
        )
        assert sorted(cold) == sorted(warm) == sorted(again)
        assert cache.stats.as_dict() == {
            "hits": 2 * len(messages), "misses": len(messages),
            "puts": len(messages), "errors": 0,
        }


class TestSetsTravelAsColumns:
    """A warm query carries its message sets as columns from the source
    that builds them to the socket."""

    @pytest.mark.parametrize("carrier", ["bus", "tcp"])
    @pytest.mark.parametrize("hardened", [False, True], ids=["plain", "hardened"])
    def test_a_warm_query_sends_message_sets(
        self, ca, client, workload, carrier, hardened
    ):
        network = TcpTransport() if carrier == "tcp" else Network()
        try:
            federation = Federation(
                ca=ca, network=network, storage=MemoryBackend()
            )
            federation.add_source("S1", [(workload.relation_1, allow_all())])
            federation.add_source("S2", [(workload.relation_2, allow_all())])
            federation.attach_client(client)
            query = "select * from R1 natural join R2"
            expected = encode_relation(reference_join(federation, query))
            for _ in range(2):
                result = run_join_query(
                    federation, query, protocol="commutative",
                    hardening=hardened or None,
                )
                assert encode_relation(result.global_result) == expected
            sets = [
                m.body for m in result.messages
                if m.kind in ("commutative_m_set", "commutative_exchange",
                              "commutative_double")
            ]
            assert len(sets) == 6
            assert all(type(body) is MessageSet and body for body in sets)
        finally:
            network.close()
