"""The codec's kernels against the value-at-a-time reference walk.

``repro.transport.codec`` encodes and decodes with two one-pass kernels
that write ints, bytes and interning references inline; the reference
(``tests/transport/reference_codec.py``) is the one-call-per-value
reading of the same v2 grammar.  Here the kernels must write the
reference's bytes exactly, decode to the same trees, refuse the same
damaged streams, refuse at encode time what the decoder refuses, and
keep the shape that makes them fast.  (Every ``roundtrip`` of
``test_codec.py`` — nested shareables included — also compares the
bytes with the reference.)
"""

import random
import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commutative import TaggedMessage
from repro.core.das import (
    EncryptedRelation,
    EncryptedTuple,
    ServerQuery,
    ServerResult,
)
from repro.crypto.hybrid import Encapsulation, HybridCiphertext
from repro.crypto.paillier import PaillierCiphertext, PaillierPublicKey
from repro.crypto.rsa import RSAPublicKey
from repro.errors import CodecError, ValueCodecError
from repro.mediation.credentials import Credential
from repro.relational.partition import IndexTable, Partition
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.transport import codec

from tests.transport import reference_codec as reference

#: One session's encapsulation and one Paillier key, shared across a
#: tree: the encoder must intern them and the decoder share them again.
KEM = Encapsulation({b"\x01" * 16: b"\x02" * 64})
PAILLIER = PaillierPublicKey(n=(1 << 255) + 95)
RSA = RSAPublicKey(n=(1 << 511) + 187, e=65537)

ints = st.integers(min_value=-(1 << 80), max_value=1 << 80)
blobs = st.binary(max_size=24)
texts = st.text(max_size=8)

encapsulations = st.one_of(
    st.just(KEM),
    st.builds(
        lambda fp, wrapped: Encapsulation({fp: wrapped}),
        st.binary(min_size=1, max_size=8), blobs,
    ),
)
hybrid_cts = st.builds(HybridCiphertext, encapsulations, blobs)
das_tuples = st.builds(
    EncryptedTuple, hybrid_cts, ints, st.one_of(st.just(()), st.tuples(texts, ints))
)


def _index_table(attribute: str, values: list[int], salt: bytes) -> IndexTable:
    """Disjoint partitions of ``values``, two values each."""
    entries = tuple(
        (Partition(frozenset(values[i:i + 2])), 100 + i)
        for i in range(0, len(values), 2)
    )
    return IndexTable(attribute, entries, salt)


def _server_result(rows_1: list, rows_2: list, positions: list) -> ServerResult:
    flat = [n for i, j in positions for n in (i % len(rows_1), j % len(rows_2))]
    return ServerResult(rows_1, rows_2, struct.pack(f">{len(flat)}I", *flat))


#: A generator per registered extension; ``test_every_extension_is_generated``
#: keeps this in step with the registry.
EXTENSIONS = {
    "hybrid-kem": encapsulations,
    "hybrid-ct": hybrid_cts,
    "rsa-pub": st.one_of(
        st.just(RSA), st.builds(RSAPublicKey, ints, st.integers(3, 1 << 17))
    ),
    "paillier-pub": st.one_of(st.just(PAILLIER), st.builds(PaillierPublicKey, ints)),
    "paillier-ct": st.builds(
        PaillierCiphertext, st.integers(0, 1 << 510), st.just(PAILLIER)
    ),
    "credential": st.builds(
        Credential,
        st.frozensets(st.tuples(texts, texts), max_size=3), st.just(RSA),
        texts, blobs,
    ),
    "partition": st.one_of(
        st.frozensets(st.integers(0, 99), min_size=1, max_size=4).map(Partition),
        st.frozensets(st.integers(0, 99), min_size=1, max_size=4).map(
            lambda values: Partition(values, (min(values), max(values)))
        ),
    ),
    "index-table": st.builds(
        _index_table, texts, st.lists(st.integers(0, 999), unique=True, max_size=6),
        blobs,
    ),
    "das-tuple": das_tuples,
    "das-relation": st.builds(
        EncryptedRelation, texts, texts, st.lists(das_tuples, max_size=3).map(tuple)
    ),
    "das-server-query": st.builds(
        ServerQuery, st.lists(st.tuples(ints, ints), max_size=3).map(tuple)
    ),
    "das-server-result": st.builds(  # rows repeat: the row-table layout
        _server_result,
        st.lists(das_tuples, min_size=1, max_size=3),
        st.lists(das_tuples, min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=6),
    ),
    "tagged-message": st.builds(
        TaggedMessage, st.integers(0, 1 << 2048), st.one_of(hybrid_cts, blobs)
    ),
    "relation": st.builds(
        lambda rows: Relation(schema("R1", k="int", a="string"), rows),
        st.lists(st.tuples(ints, texts), max_size=3),
    ),
}

leaves = st.one_of(
    st.none(), st.booleans(), ints, blobs, texts,
    st.floats(allow_nan=False),
    *EXTENSIONS.values(),
)
keys = st.one_of(ints, blobs, texts)


def trees(leaf_strategy: st.SearchStrategy, max_leaves: int) -> st.SearchStrategy:
    return st.recursive(
        leaf_strategy,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.tuples(children, children),
            st.dictionaries(keys, children, max_size=3),
            st.frozensets(keys, max_size=3),
            st.sets(keys, max_size=3),
        ),
        max_leaves=max_leaves,
    )


def hundred_messages(seed: int) -> list[TaggedMessage]:
    """A message set M_i of 100 tagged ciphertexts under one session."""
    rng = random.Random(seed)
    return [
        TaggedMessage(
            rng.getrandbits(2048),
            HybridCiphertext(KEM, rng.randbytes(rng.randrange(16, 80))),
        )
        for _ in range(100)
    ]


def assert_same_as_reference(value) -> bytes:
    encoded = codec.encode_value(value)
    assert encoded == reference.encode_value(value)
    decoded = codec.decode_value(encoded)
    assert decoded == value
    assert decoded == reference.decode_value(encoded)
    return encoded


def same_outcome(data: bytes) -> None:
    """Both decoders refuse ``data`` with a CodecError, or both decode it
    to trees that encode identically."""
    try:
        kernel = codec.decode_value(data)
    except CodecError:
        with pytest.raises(CodecError):
            reference.decode_value(data)
        return
    assert reference.encode_value(reference.decode_value(data)) == (
        reference.encode_value(kernel)
    )


class TestSameBytesAsTheReference:
    def test_every_extension_is_generated(self):
        codec._bootstrap()
        registered = {
            extension.name for extension in codec._BY_NAME.values()
            if not extension.name.startswith("test-")
        }
        assert registered == set(EXTENSIONS)

    @given(trees(leaves, max_leaves=20))
    @settings(max_examples=300, deadline=None)
    def test_generated_trees(self, value):
        assert_same_as_reference(value)

    @given(st.integers(min_value=0))
    @settings(max_examples=20, deadline=None)
    def test_a_hundred_tagged_messages_share_one_encapsulation(self, seed):
        messages = hundred_messages(seed)
        encoded = assert_same_as_reference(messages)
        assert encoded.count(KEM[b"\x01" * 16]) == 1
        decoded = codec.decode_value(encoded)
        assert len({id(message.payload.wrapped_keys) for message in decoded}) == 1

    @given(st.lists(EXTENSIONS["paillier-ct"], min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_paillier_key_interned_once(self, ciphertexts):
        encoded = assert_same_as_reference(ciphertexts)
        modulus = PAILLIER.n.to_bytes(32, "big")
        assert encoded.count(modulus) == 1

    def test_relation_extension_packs_to_bytes(self):
        relation = Relation(schema("R1", k="int", a="string"), [(1, "x")])
        assert_same_as_reference([relation, relation])


class TestDamagedStreamsAgainstTheReference:
    """The kernels refuse exactly what the reference refuses."""

    @given(trees(leaves, max_leaves=8))
    @settings(max_examples=40, deadline=None)
    def test_every_strict_prefix(self, value):
        encoded = codec.encode_value(value)
        for cut in range(len(encoded)):
            with pytest.raises(CodecError):
                codec.decode_value(encoded[:cut])
            with pytest.raises(CodecError):
                reference.decode_value(encoded[:cut])

    @given(trees(leaves, max_leaves=8), st.integers(1, 255))
    @settings(max_examples=60, deadline=None)
    def test_every_single_byte_corruption(self, value, mask):
        encoded = codec.encode_value(value)
        for position in range(len(encoded)):
            corrupted = bytearray(encoded)
            corrupted[position] ^= mask
            same_outcome(bytes(corrupted))

    @given(st.integers(min_value=0), st.integers(1, 255))
    @settings(max_examples=3, deadline=None)
    def test_corrupted_message_set(self, seed, mask):
        encoded = codec.encode_value(hundred_messages(seed)[:2])
        for position in range(len(encoded)):
            corrupted = bytearray(encoded)
            corrupted[position] ^= mask
            same_outcome(bytes(corrupted))


def nested(depth: int) -> list:
    """A tree exactly ``depth`` levels deep, as the decoder counts them:
    the root list is level 1 and the innermost (empty) list level
    ``depth``."""
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


class TestDepthBound:
    """The encoder refuses exactly the trees its decoder would refuse."""

    def test_the_deepest_tree_allowed_round_trips(self):
        value = nested(codec.MAX_VALUE_DEPTH)
        assert codec.decode_value(codec.encode_value(value)) == value

    def test_one_level_more_is_refused_at_encode_time(self):
        value = nested(codec.MAX_VALUE_DEPTH + 1)
        with pytest.raises(ValueCodecError, match="deeper than"):
            codec.encode_value(value)
        # The reference writes it, and the decoder refuses what it wrote.
        with pytest.raises(ValueCodecError, match="deeper than"):
            codec.decode_value(reference.encode_value(value))

    def test_a_very_deep_tree_is_a_codec_error_not_a_recursion_error(self):
        with pytest.raises(ValueCodecError, match="deeper than"):
            codec.encode_value(nested(5000))

    def test_a_self_containing_list_is_refused(self):
        loop: list = []
        loop.append(loop)
        with pytest.raises(ValueCodecError, match="deeper than"):
            codec.encode_value(loop)

    @pytest.mark.parametrize(
        "levels", range(codec.MAX_VALUE_DEPTH - 6, codec.MAX_VALUE_DEPTH + 2)
    )
    @pytest.mark.parametrize(
        "leaf",
        [
            None,
            7,
            [1],
            TaggedMessage(5, HybridCiphertext(KEM, b"x")),
            [KEM, KEM],  # the second is a reference
        ],
        ids=["none", "int", "list", "extension", "reference"],
    )
    def test_encoder_and_decoder_draw_the_line_in_one_place(self, levels, leaf):
        value = leaf
        for _ in range(levels):
            value = [value]
        written = reference.encode_value(value)
        try:
            codec.decode_value(written)
        except ValueCodecError:
            with pytest.raises(ValueCodecError, match="deeper than"):
                codec.encode_value(value)
            with pytest.raises(ValueCodecError):
                reference.decode_value(written)
        else:
            assert codec.encode_value(value) == written
            reference.decode_value(written)


class TestKernelShape:
    """A host-independent tripwire: the number of Python-level calls.

    The value-at-a-time walk makes ~30 calls per tagged message to
    encode it and ~55 to decode it.  The kernels make one call per
    extension to encode (the packers are C ``attrgetter``s) and, to
    decode, one per extension plus the domain constructors
    (``unpack`` lambda, dataclass ``__init__``, ``__post_init__``).
    The bounds leave room for interpreter differences across
    Python 3.10–3.12 but not for a per-value walk.
    """

    ENCODE_CALLS_PER_MESSAGE = 4
    DECODE_CALLS_PER_MESSAGE = 10

    @staticmethod
    def python_calls(function, *args):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(profile)
        try:
            result = function(*args)
        finally:
            sys.setprofile(None)
        return calls, result

    def test_calls_per_tagged_message(self):
        messages = hundred_messages(27)
        codec.encode_value(messages[:1])  # registry bootstrapped
        encode_calls, encoded = self.python_calls(codec.encode_value, messages)
        decode_calls, decoded = self.python_calls(codec.decode_value, encoded)
        assert decoded == messages
        assert encode_calls <= self.ENCODE_CALLS_PER_MESSAGE * len(messages)
        assert decode_calls <= self.DECODE_CALLS_PER_MESSAGE * len(messages)
