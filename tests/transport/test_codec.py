"""Unit tests for the binary wire codec: values, envelopes, framing."""

import dataclasses
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commutative import TaggedMessage
from repro.core.das import (
    EncryptedRelation,
    EncryptedTuple,
    ServerQuery,
    ServerResult,
)
from repro.crypto import hybrid
from repro.crypto.paillier import PaillierCiphertext, PaillierPublicKey
from repro.errors import EncodingError, NetworkError
from repro.relational.partition import IndexTable, Partition
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.transport import codec

from tests.transport import reference_codec as reference


def roundtrip(value):
    encoded = codec.encode_value(value)
    assert encoded == reference.encode_value(value)  # the same v2 bytes
    decoded = codec.decode_value(encoded)
    assert decoded == value
    return decoded


def raw_envelope(flags, sequence, *texts, body=b"\x00"):
    """An envelope laid out by hand from ``docs/transport.md``."""
    head = struct.pack(">BQ", flags, sequence) + b"".join(
        struct.pack(">H", len(text)) + text for text in texts
    )
    return head + struct.pack(">I", zlib.crc32(head + body)) + body


class TestPrimitives:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            255,
            -256,
            1 << 4096,
            -(1 << 4096),
            3.25,
            b"",
            b"\x00\xffpayload",
            "",
            "unicode ❤ text",
        ],
    )
    def test_scalar_roundtrip(self, value):
        decoded = roundtrip(value)
        assert type(decoded) is type(value)

    def test_bool_is_not_int(self):
        # bool is an int subclass; the tags must keep them apart.
        assert codec.decode_value(codec.encode_value(True)) is True
        assert codec.decode_value(codec.encode_value(1)) == 1
        assert codec.decode_value(codec.encode_value(1)) is not True

    @pytest.mark.parametrize(
        "value",
        [
            [],
            [1, "two", b"three", None],
            (1, (2, (3,))),
            {"k": [1, 2], b"raw": {"nested": True}},
            {1, 2, 3},
            frozenset({("role", "analyst"), ("clearance", "high")}),
            {b"token": b"ciphertext", b"other": b""},
        ],
    )
    def test_container_roundtrip(self, value):
        decoded = roundtrip(value)
        assert type(decoded) is type(value)

    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.binary(max_size=64),
                st.text(max_size=64),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.tuples(children, children),
                st.dictionaries(st.text(max_size=8), children, max_size=4),
            ),
            max_leaves=25,
        )
    )
    def test_random_trees_roundtrip(self, value):
        roundtrip(value)

    def test_unregistered_type_fails_loudly(self):
        class Strange:
            pass

        with pytest.raises(EncodingError, match="no wire encoding"):
            codec.encode_value(Strange())


class TestDomainExtensions:
    def test_hybrid_ciphertext(self, rsa_key):
        ciphertext = hybrid.encrypt([rsa_key.public_key()], b"tuple bytes")
        roundtrip(ciphertext)

    def test_credentials(self, client):
        roundtrip(client.credentials)

    def test_paillier_ciphertext_and_key(self, paillier_key):
        public = paillier_key.public_key
        from repro.crypto import paillier

        roundtrip(public)
        roundtrip([paillier.encrypt(public, m) for m in (0, 1, 12345)])

    def test_paillier_key_interned_once(self, paillier_key):
        from repro.crypto import paillier

        public = paillier_key.public_key
        one = codec.encode_value(paillier.encrypt(public, 1))
        many = codec.encode_value(
            [paillier.encrypt(public, m) for m in range(8)]
        )
        # Eight ciphertexts must cost far less than eight full keys: the
        # modulus travels once, references afterwards.
        key_bytes = (public.n.bit_length() + 7) // 8
        assert len(many) < 8 * len(one) - 6 * key_bytes

    def test_interned_key_is_shared_after_decode(self, paillier_key):
        from repro.crypto import paillier

        public = paillier_key.public_key
        decoded = codec.decode_value(
            codec.encode_value(
                [paillier.encrypt(public, m) for m in range(4)]
            )
        )
        keys = {id(ciphertext.public_key) for ciphertext in decoded}
        assert len(keys) == 1

    def test_index_table_with_salt_and_bounds(self):
        table = IndexTable(
            attribute="R1.k",
            entries=(
                (Partition(frozenset({1, 2}), bounds=(1, 2)), 7),
                (Partition(frozenset({5}), bounds=(3, 9)), 9),
            ),
            salt=b"\x01\x02salt",
        )
        decoded = roundtrip(table)
        assert decoded.salt == table.salt  # to_bytes() would drop this

    def test_das_structures(self, rsa_key):
        keys = [rsa_key.public_key()]
        row = EncryptedTuple(
            etuple=hybrid.encrypt(keys, b"row"),
            index_value=42,
            plain_values=("visible", 7),
        )
        relation = EncryptedRelation(source="S1", relation_name="R1", rows=(row,))
        roundtrip(relation)
        roundtrip(ServerQuery(pairs=((1, 2), (3, 4))))
        roundtrip(ServerResult([row], [row], struct.pack(">2I", 0, 0)))

    def test_shared_encapsulation_travels_once(self, rsa_key):
        session = hybrid.new_session([rsa_key.public_key()])
        relation = EncryptedRelation(
            source="S1",
            relation_name="R1",
            rows=tuple(
                EncryptedTuple(session.encrypt(b"row-%d" % i), index_value=i)
                for i in range(50)
            ),
        )
        encoded = codec.encode_value(relation)
        # 50 rows, one wrapped key: references after the first occurrence.
        assert len(encoded) < 50 * hybrid.wrapped_key_size(rsa_key.public_key())
        decoded = codec.decode_value(encoded)
        assert decoded == relation
        assert len({id(row.etuple.wrapped_keys) for row in decoded.rows}) == 1

    def test_size_estimate_charges_the_ciphertext_header(self, rsa_key):
        """One more ciphertext of a session costs its body plus
        ``CIPHERTEXT_HEADER_BYTES`` on the wire, and the same in the
        bus's structural estimate."""
        from repro.mediation.sizing import estimate_size

        session = hybrid.new_session([rsa_key.public_key()])
        ciphertexts = [session.encrypt(b"row-%d" % i) for i in range(3)]
        extra = len(ciphertexts[2].body) + hybrid.CIPHERTEXT_HEADER_BYTES
        assert (
            codec.encoded_size(ciphertexts)
            - codec.encoded_size(ciphertexts[:2])
        ) == extra
        assert (
            estimate_size(ciphertexts) - estimate_size(ciphertexts[:2])
        ) == extra

    def test_distinct_encapsulations_stay_distinct(self, rsa_key):
        keys = [rsa_key.public_key()]
        decoded = roundtrip([hybrid.encrypt(keys, b"x") for _ in range(3)])
        assert len({ct.wrapped_keys.digest() for ct in decoded}) == 3

    def test_tagged_messages(self, rsa_key):
        keys = [rsa_key.public_key()]
        roundtrip(
            [
                TaggedMessage(tag=12345, payload=hybrid.encrypt(keys, b"x")),
                TaggedMessage(tag=9, payload=b"id-token"),
            ]
        )

    def test_relation(self):
        relation = Relation(
            schema("R1", k="int", a="string"), [(1, "x"), (2, "y")]
        )
        roundtrip(relation)


# -- shareables nested in shareables -------------------------------------------
#
# A shareable that holds another shareable (a key and its group) must be
# numbered in the interning table only once it is complete, after the
# shareables nested inside it: that is the order in which the decoder can
# rebuild them.  Encoder and decoder must number the table in the same
# order, or the second reference in a stream resolves to the wrong object
# — silently.  No domain type of the protocols nests that way, so the
# ``nested_extensions`` fixture registers such a pair for these tests.


@dataclasses.dataclass(frozen=True)
class Group:
    p: int


@dataclasses.dataclass(frozen=True)
class GroupKey:
    group: Group
    h: int


@dataclasses.dataclass(frozen=True)
class GroupCiphertext:
    c: int
    public_key: GroupKey


GROUP = Group(p=278997584469130276002310604683966369823)
OTHER_GROUP = Group(p=23)
KEY = GroupKey(GROUP, h=4)
KEY_SAME_GROUP = GroupKey(GROUP, h=9)
KEY_OTHER_GROUP = GroupKey(OTHER_GROUP, h=4)
PAILLIER = PaillierPublicKey(n=3233 * 3127)
ENCAPSULATION = hybrid.Encapsulation({b"f" * 16: b"w" * 32})
SHAREABLES = [
    GROUP, OTHER_GROUP, KEY, KEY_SAME_GROUP, KEY_OTHER_GROUP,
    PAILLIER, ENCAPSULATION,
]
SHAREABLE_TYPES = tuple({type(item) for item in SHAREABLES})
CARRIERS = [
    GroupCiphertext(4, KEY),
    GroupCiphertext(9, KEY),
    GroupCiphertext(4, KEY_SAME_GROUP),
    GroupCiphertext(4, KEY_OTHER_GROUP),
    PaillierCiphertext(value=5, public_key=PAILLIER),
    hybrid.HybridCiphertext(ENCAPSULATION, b"body-1"),
    hybrid.HybridCiphertext(ENCAPSULATION, b"body-2"),
]

_NESTED_EXTENSIONS = [
    ("test-group", Group, lambda g: (g.p,), lambda t: Group(*t), True),
    ("test-key", GroupKey, lambda k: (k.group, k.h), lambda t: GroupKey(*t), True),
    (
        "test-ct", GroupCiphertext,
        lambda c: (c.c, c.public_key), lambda t: GroupCiphertext(*t), False,
    ),
]


@pytest.fixture(scope="class")
def nested_extensions():
    codec._bootstrap()
    for extension in _NESTED_EXTENSIONS:
        codec._register(*extension)
    yield
    for name, cls, *_ in _NESTED_EXTENSIONS:
        del codec._BY_NAME[name.encode("ascii")], codec._BY_CLS[cls]


def shareables_in(value):
    """Every shareable instance of a value tree, in one fixed walk order."""
    if isinstance(value, SHAREABLE_TYPES):
        yield value
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from shareables_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from shareables_in(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from shareables_in(getattr(value, field.name))


def assert_sharing_preserved(value, decoded):
    original = [id(item) for item in shareables_in(value)]
    rebuilt = [id(item) for item in shareables_in(decoded)]
    assert len(original) == len(rebuilt)
    # One decoded object per original object, and the same one each time.
    assert len(set(zip(original, rebuilt))) == len(set(original))
    assert len(set(original)) == len(set(rebuilt))


@pytest.mark.usefixtures("nested_extensions")
class TestNestedShareables:
    @pytest.mark.parametrize(
        "value",
        [
            [KEY, KEY],
            [KEY, GROUP],
            [KEY, KEY_SAME_GROUP, GROUP, KEY],
            CARRIERS[0:2],  # two ciphertexts under one key
            [KEY, CARRIERS[0], CARRIERS[1]],
            [KEY_OTHER_GROUP, KEY, OTHER_GROUP, GROUP],
        ],
        ids=[
            "pub-pub", "pub-group", "two-keys-one-group", "cts-one-key",
            "pub-then-cts", "two-groups",
        ],
    )
    def test_references_resolve_to_the_object_they_named(self, value):
        decoded = roundtrip(value)
        assert [type(item) for item in decoded] == [type(item) for item in value]
        assert_sharing_preserved(value, decoded)

    @given(
        st.recursive(
            st.one_of(
                st.sampled_from(SHAREABLES),
                st.sampled_from(CARRIERS),
                st.integers(min_value=0, max_value=255),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=5),
                st.tuples(children, children),
                st.dictionaries(st.text(max_size=4), children, max_size=4),
            ),
            max_leaves=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_random_nestings_roundtrip_with_sharing(self, value):
        assert_sharing_preserved(value, roundtrip(value))


class TestEnvelopeAndFraming:
    def test_envelope_roundtrip(self):
        payload = codec.encode_envelope(3, "S1", "mediator", "kind", {"a": 1})
        assert codec.decode_envelope(payload) == (
            3, "S1", "mediator", "kind", {"a": 1}, None, None, None,
        )

    def test_envelope_roundtrip_with_request_id(self):
        payload = codec.encode_envelope(
            7, "S1", "mediator", "kind", {"a": 1}, request_id="abcd:7"
        )
        assert codec.decode_envelope(payload) == (
            7, "S1", "mediator", "kind", {"a": 1}, None, "abcd:7", None,
        )

    def test_envelope_roundtrip_with_session_id(self):
        payload = codec.encode_envelope(
            9, "S1", "mediator", "kind", {"a": 1},
            request_id="abcd:9", session_id="feedc0de00000001",
        )
        assert codec.decode_envelope(payload) == (
            9, "S1", "mediator", "kind", {"a": 1},
            None, "abcd:9", "feedc0de00000001",
        )

    def test_session_only_envelope_roundtrip(self):
        payload = codec.encode_envelope(
            2, "S1", "mediator", "kind", None, session_id="cafe"
        )
        assert codec.decode_envelope(payload) == (
            2, "S1", "mediator", "kind", None, None, None, "cafe",
        )

    def test_malformed_session_id_rejected(self):
        # The session flag promises a real identifier.
        empty = raw_envelope(0x04, 1, b"a", b"b", b"k", b"")
        with pytest.raises(EncodingError, match="session"):
            codec.decode_envelope(empty)
        with pytest.raises(EncodingError, match="request id"):
            codec.decode_envelope(raw_envelope(0x02, 1, b"a", b"b", b"k", b""))
        assert codec.decode_envelope(
            raw_envelope(0x04, 1, b"a", b"b", b"k", b"s")
        ) == (1, "a", "b", "k", None, None, None, "s")

    def test_malformed_envelope_rejected(self):
        with pytest.raises(EncodingError, match="envelope"):
            codec.decode_envelope(codec.encode_value(("not", "an", "envelope")))
        with pytest.raises(EncodingError, match="envelope flags"):
            codec.decode_envelope(raw_envelope(0x08, 1, b"a", b"b", b"k"))
        with pytest.raises(EncodingError, match="envelope"):
            codec.decode_envelope(raw_envelope(0x00, 1, b"a", b"\xff", b"k"))

    @pytest.mark.parametrize(
        "fields",
        [
            {"sequence": -1},
            {"sequence": 1 << 64},
            {"sender": "x" * 65536},
            {"kind": None},
            {"trace": ("only-one",)},
            {"session_id": 7},
        ],
    )
    def test_unencodable_header_fields_fail_typed(self, fields):
        arguments = {
            "sequence": 1, "sender": "a", "receiver": "b", "kind": "k",
            "body": None, **fields,
        }
        with pytest.raises(EncodingError):
            codec.encode_envelope(**arguments)

    def test_frame_roundtrip(self):
        frame = codec.build_frame(codec.DATA, b"payload")
        assert len(frame) == codec.FRAME_HEADER_BYTES + len(b"payload")
        frame_type, length = codec.parse_frame_header(
            frame[: codec.FRAME_HEADER_BYTES]
        )
        assert (frame_type, length) == (codec.DATA, len(b"payload"))

    @pytest.mark.parametrize(
        "header",
        [
            b"XX\x02\x01\x00\x00\x00\x00",  # bad magic
            b"SM\x03\x01\x00\x00\x00\x00",  # unsupported version
            b"SM\x02\x63\x00\x00\x00\x00",  # unknown frame type
            b"SM\x02\x01\xff\xff\xff\xff",  # absurd length
            b"short",
            b"SM\x02\x0b\x00\x00\x00\x00",  # retired STATS
            b"SM\x02\x0c\x00\x00\x00\x00",  # retired STATS reply
            # Wire version 1 (tuple envelopes) is refused whole, whatever
            # the rest of the header says.
            b"SM\x01\x01\x00\x00\x00\x07",  # a well-formed v1 DATA header
            b"XX\x01\x01\x00\x00\x00\x00",
            b"SM\x01\x63\x00\x00\x00\x00",
            b"SM\x01\x01\xff\xff\xff\xff",
            b"SM\x01\x0b\x00\x00\x00\x00",
            b"SM\x01\x0c\x00\x00\x00\x00",
        ],
    )
    def test_bad_frame_headers_rejected(self, header):
        with pytest.raises(NetworkError):
            codec.parse_frame_header(header)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(EncodingError, match="trailing"):
            codec.decode_value(codec.encode_value(1) + b"\x00")

    def test_truncated_value_rejected(self):
        encoded = codec.encode_value([1, 2, 3])
        with pytest.raises(EncodingError):
            codec.decode_value(encoded[:-1])

    def test_encoded_size_matches_encoding(self):
        value = {"modulus": 1 << 127, "hash_tag": b"tag"}
        assert codec.encoded_size(value) == len(codec.encode_value(value))
