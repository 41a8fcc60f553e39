"""Column tables decode to the type that was sent.

A ``MessageSet`` travels as a list of ``tagged-message`` records and an
``EncryptedRows`` as a list or tuple of ``das-tuple`` records; the
decoder reads such a sequence straight back into the column type.  Every
body that holds tables — R_i^S, R_C, hardened frames, message sets of
ciphertext and token payloads, tables sharing encapsulations — must
decode, on the kernels and on the value-at-a-time reference, to the
same column types with equal columns and re-encode to the same bytes.
The empty set or table has no wire type: at the top of a body it
decodes as ``[]`` / ``()``, and inside R_i^S or R_C as the empty table.
Each malformed record list is refused with a ``ValueCodecError``.
"""

import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commutative import MessageSet
from repro.core.das import EncryptedRelation, EncryptedRows, ServerResult
from repro.crypto.hybrid import Encapsulation, HybridCiphertext
from repro.errors import ValueCodecError
from repro.transport import codec

from tests.transport import reference_codec as reference
from tests.transport.test_codec_kernels import KEM, blobs, encapsulations, hybrid_cts
from tests.transport.test_das_rows_codec import partial_results, tables
from tests.transport.test_message_set_codec import message_sets


def assert_same_tables(decoded, sent) -> None:
    """``decoded`` holds a table of the type ``sent`` holds wherever it
    holds one, with equal columns; everything else is equal."""
    if type(sent) is MessageSet:
        if not sent:
            assert decoded == [] and type(decoded) is list
            return
        assert type(decoded) is MessageSet
        assert (decoded.tags, decoded.payloads) == (sent.tags, sent.payloads)
    elif type(sent) is EncryptedRows:
        if not sent:
            assert type(decoded) is sent.container and not decoded
            return
        assert_same_rows(decoded, sent)
    elif type(sent) is EncryptedRelation:
        assert type(decoded) is EncryptedRelation
        assert (decoded.source, decoded.relation_name) == (
            sent.source, sent.relation_name
        )
        assert_same_rows(decoded.rows, sent.rows)
    elif type(sent) is ServerResult:
        assert type(decoded) is ServerResult
        assert_same_rows(decoded.rows_1, sent.rows_1)
        assert_same_rows(decoded.rows_2, sent.rows_2)
        assert decoded.positions == sent.positions
    elif type(sent) is dict:
        assert type(decoded) is dict and list(decoded) == list(sent)
        for key, value in sent.items():
            assert_same_tables(decoded[key], value)
    elif type(sent) in (list, tuple):
        assert type(decoded) is type(sent) and len(decoded) == len(sent)
        for got, value in zip(decoded, sent):
            assert_same_tables(got, value)
    else:
        assert decoded == sent


def assert_same_rows(decoded, sent: EncryptedRows) -> None:
    """An ``EncryptedRows`` of the same container and columns — the
    empty table included, which names no encapsulation."""
    assert type(decoded) is EncryptedRows
    assert decoded.container is sent.container
    assert decoded.bodies == tuple(sent.bodies)
    assert decoded.index_values == tuple(sent.index_values)
    if sent:
        assert decoded.encapsulation == sent.encapsulation
    else:
        assert decoded.encapsulation is None


def round_trips(body) -> None:
    """Both decoders give ``body``'s tables back, and what they give
    re-encodes to the bytes sent."""
    encoded = codec.encode_value(body)
    assert encoded == reference.encode_value(body)
    for decode in (codec.decode_value, reference.decode_value):
        decoded = decode(encoded)
        assert_same_tables(decoded, body)
        assert codec.encode_value(decoded) == encoded


def server_results(draw_tables) -> st.SearchStrategy:
    """R_C: two row tables and pairs of positions into them."""
    return st.tuples(
        draw_tables, draw_tables,
        st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=12),
    ).map(
        lambda drawn: ServerResult(
            drawn[0], drawn[1],
            struct.pack(
                f">{2 * len(drawn[2])}I",
                *(
                    n for i, j in drawn[2]
                    for n in (i % len(drawn[0]), j % len(drawn[1]))
                ),
            ) if drawn[0] and drawn[1] else b"",
        )
    )


class TestRoundTrip:
    @given(tables(container=tuple))
    @settings(max_examples=150, deadline=None)
    def test_r_i_s(self, rows):
        round_trips(partial_results(rows))

    @given(server_results(tables()))
    @settings(max_examples=150, deadline=None)
    def test_r_c(self, result):
        round_trips(result)

    @given(tables(), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_hardened_frames(self, rows, batch):
        frames = [rows[start:start + batch] for start in range(0, len(rows), batch)]
        for frame in frames or [rows]:
            round_trips(frame)
        round_trips(frames)

    @given(message_sets(st.one_of(blobs, hybrid_cts)))
    @settings(max_examples=150, deadline=None)
    def test_ciphertext_and_token_payloads(self, messages):
        round_trips(messages)

    @given(
        st.lists(encapsulations, max_size=2),
        message_sets(st.one_of(blobs, hybrid_cts)),
        tables(),
        tables(container=tuple),
    )
    @settings(max_examples=100, deadline=None)
    def test_interning_across_tables(self, first, messages, one, two):
        """Encapsulations interned before a table, by it and by a later
        one decode to one shared object, as they were sent."""
        round_trips([first, messages, one, two, one, partial_results(two)])

    def test_two_tables_under_one_encapsulation_share_it(self):
        one = EncryptedRows(KEM, (b"a", b"b"), (1, 2))
        two = EncryptedRows(KEM, (b"c",), (3,), tuple)
        decoded = codec.decode_value(codec.encode_value([one, two]))
        assert decoded[0].encapsulation is decoded[1].encapsulation
        assert codec.encode_value([one, two]).count(KEM[b"\x01" * 16]) == 1

    @pytest.mark.parametrize(
        "empty",
        [
            MessageSet((), ()),
            EncryptedRows(None, (), ()),
            EncryptedRows(KEM, (), (), tuple),
            EncryptedRelation("S1", "R1", EncryptedRows(None, (), (), tuple)),
            ServerResult(EncryptedRows(None, (), ()), EncryptedRows(KEM, (), ()), b""),
        ],
        ids=["set", "list-table", "tuple-table", "r-i-s", "r-c"],
    )
    def test_the_empty_set_and_table(self, empty):
        round_trips(empty)

    @pytest.mark.parametrize(
        "table",
        [
            MessageSet((5, b"d" * 16), (HybridCiphertext(KEM, b"x"), b"token")),
            EncryptedRows(KEM, (b"x", b"y"), (5, 6), tuple),
        ],
        ids=["message-set", "das-rows"],
    )
    def test_the_depth_refusal(self, table):
        """Nested ever deeper, a table is refused by the encoder exactly
        where both decoders refuse what the reference writes, and
        round-trips above that line."""
        outcomes = []
        for levels in range(codec.MAX_VALUE_DEPTH - 12, codec.MAX_VALUE_DEPTH + 2):
            value = table
            for _ in range(levels):
                value = [value]
            written = reference.encode_value(value)
            try:
                codec.decode_value(written)
            except ValueCodecError:
                with pytest.raises(ValueCodecError, match="deeper than"):
                    codec.encode_value(value)
                with pytest.raises(ValueCodecError, match="deeper than"):
                    reference.decode_value(written)
                outcomes.append(False)
            else:
                round_trips(value)
                outcomes.append(True)
        assert outcomes == sorted(outcomes, reverse=True)  # one line
        assert outcomes[0] and not outcomes[-1]


#: A second session's encapsulation.
OTHER = Encapsulation({b"\x03" * 16: b"\x04" * 64})
CT = HybridCiphertext(KEM, b"etuple")


def listed(*entries: bytes, tag: int = codec._T_LIST) -> bytes:
    """A list (or tuple) head over entries encoded by hand."""
    return codec._HEAD(tag, len(entries)) + b"".join(entries)


def record(name: bytes, pair) -> bytes:
    """One ``name`` record holding ``pair``, as a table entry."""
    return reference.encode_records(name, [pair])[5:]


MALFORMED = {
    # An entry that is no record of the table's kind.
    "message-then-int": listed(
        record(reference.MESSAGE_RECORD, (1, b"t")), codec.encode_value(5)
    ),
    "row-then-bytes": listed(
        record(reference.ROW_RECORD, (CT, 1)), codec.encode_value(b"row")
    ),
    "row-then-message": listed(
        record(reference.ROW_RECORD, (CT, 1)),
        record(reference.MESSAGE_RECORD, (1, b"t")),
    ),
    "message-then-row": listed(
        record(reference.MESSAGE_RECORD, (1, b"t")),
        record(reference.ROW_RECORD, (CT, 1)),
    ),
    # A message set travels as a list, and a record only in a table.
    "tuple-of-messages": reference.encode_records(
        reference.MESSAGE_RECORD, [(1, b"t")], tuple
    ),
    "lone-message": record(reference.MESSAGE_RECORD, (1, b"t")),
    "lone-row": record(reference.ROW_RECORD, (CT, 1)),
    "row-in-a-set": codec._HEAD(codec._T_SET, 1) + record(
        reference.ROW_RECORD, (CT, 1)
    ),
    # An etuple that is no hybrid ciphertext with a bytes body.
    "bare-body": reference.encode_records(reference.ROW_RECORD, [(b"etuple", 1)]),
    "int-body": reference.encode_records(
        reference.ROW_RECORD, [(HybridCiphertext(KEM, 7), 1)]
    ),
    "str-body": reference.encode_records(
        reference.ROW_RECORD, [(CT, 1), (HybridCiphertext(KEM, "row"), 2)]
    ),
    # An index value that is no int.
    "str-index": reference.encode_records(reference.ROW_RECORD, [(CT, "7")]),
    "bool-index": reference.encode_records(reference.ROW_RECORD, [(CT, True)]),
    "none-index": reference.encode_records(
        reference.ROW_RECORD, [(CT, 1), (CT, None)], tuple
    ),
    # Rows of one table under two sessions.
    "two-encapsulations": reference.encode_records(
        reference.ROW_RECORD, [(CT, 1), (HybridCiphertext(OTHER, b"y"), 2)]
    ),
}


class TestMalformedTables:
    @pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
    def test_refused_by_both_decoders(self, data):
        for decode in (codec.decode_value, reference.decode_value):
            with pytest.raises(ValueCodecError):
                decode(data)

    @pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
    def test_refused_inside_an_envelope(self, data):
        payload = codec.encode_envelope(3, "S1", "mediator", "kind", None)
        forged = payload[:-1] + data  # the body None is one byte
        head = codec.decode_header(payload)
        crc = codec._U32.pack(zlib.crc32(
            forged[head.body_offset:], zlib.crc32(forged[:head.body_offset - 4])
        ))
        forged = forged[:head.body_offset - 4] + crc + forged[head.body_offset:]
        codec.decode_header(forged)  # routable and checksummed
        with pytest.raises(ValueCodecError):
            codec.decode_envelope(forged)
