"""White-box tests for commutative delivery internals."""

import pytest

from repro.core.commutative import (
    CommutativeConfig,
    TaggedMessage,
    _double_encrypt,
    _prepare_source,
    _shuffled,
)
from repro.crypto import commutative as comm
from repro.crypto import groups
from repro.crypto.engine import CryptoEngine
from repro.crypto.hashes import IdealHash
from repro.errors import ParameterError, ProtocolError
from repro.relational.relation import Relation
from repro.relational.schema import schema

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
            CommutativeConfig(),
        )
        assert len(messages) == 3  # active domain {1, 2, 3}
        assert len(state.tuple_ciphertexts) == 3

    def test_tags_are_group_elements(self, group, ideal_hash, rsa_key):
        _, messages = _prepare_source(
            R, ("k",), group, ideal_hash, [rsa_key.public_key()],
            CommutativeConfig(),
        )
        assert all(group.contains(m.tag) for m in messages)

    def test_tags_distinct(self, group, ideal_hash, rsa_key):
        _, messages = _prepare_source(
            R, ("k",), group, ideal_hash, [rsa_key.public_key()],
            CommutativeConfig(),
        )
        assert len({m.tag for m in messages}) == len(messages)

    def test_group_verification_failure(self, ideal_hash, rsa_key):
        bogus = comm.CommutativeGroup(2163)  # composite, 3 mod 4
        with pytest.raises(ProtocolError):
            _prepare_source(
                R, ("k",), bogus, IdealHash(bogus.p),
                [rsa_key.public_key()],
                CommutativeConfig(verify_group=True),
            )


class TestDoubleEncrypt:
    def test_payloads_preserved(self, group, ideal_hash, rsa_key):
        state, messages = _prepare_source(
            R, ("k",), group, ideal_hash, [rsa_key.public_key()],
            CommutativeConfig(),
        )
        other_key = comm.generate_key(group)
        doubled = _double_encrypt(messages, other_key)
        assert {id(m.payload) for m in doubled} == {
            id(m.payload) for m in messages
        }

    def test_tags_transformed(self, group, ideal_hash, rsa_key):
        _, messages = _prepare_source(
            R, ("k",), group, ideal_hash, [rsa_key.public_key()],
            CommutativeConfig(),
        )
        other_key = comm.generate_key(group)
        doubled = _double_encrypt(messages, other_key)
        original_tags = {m.tag for m in messages}
        assert all(m.tag not in original_tags for m in doubled)


    def test_non_residue_tag_is_a_typed_error(self, group, ideal_hash, rsa_key):
        """Second-round tags come from the other source via the mediator:
        one outside QR_p fails the batch."""
        _, messages = _prepare_source(
            R, ("k",), group, ideal_hash, [rsa_key.public_key()],
            CommutativeConfig(),
        )
        non_residue = next(x for x in range(2, 1000) if not group.contains(x))
        messages[1] = TaggedMessage(tag=non_residue, payload=messages[1].payload)
        with pytest.raises(ParameterError):
            _double_encrypt(
                messages, comm.generate_key(group), engine=CryptoEngine()
            )


class TestShuffle:
    def test_preserves_multiset(self):
        items = [TaggedMessage(tag=i, payload=b"x") for i in range(50)]
        shuffled = _shuffled(items)
        assert sorted(m.tag for m in shuffled) == list(range(50))

    def test_does_not_mutate_input(self):
        items = [TaggedMessage(tag=i, payload=b"x") for i in range(10)]
        snapshot = list(items)
        _shuffled(items)
        assert items == snapshot

    def test_actually_shuffles(self):
        items = [TaggedMessage(tag=i, payload=b"x") for i in range(64)]
        # The probability all 20 attempts return identity order is ~0.
        assert any(
            [m.tag for m in _shuffled(items)] != list(range(64))
            for _ in range(20)
        )
