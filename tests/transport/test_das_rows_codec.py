"""DAS rows on the wire: a tuple or list of records.

R_i^S, R_C's two tables and the hardened ``das_server_result`` frames
travel as :class:`repro.core.das.EncryptedRows` — one encapsulation, a
column of DEM bodies, a column of index values — and
``codec._write_columns`` writes them in one loop, as the tuple (R_i^S)
or list (R_C, frames) of ``das-tuple`` records their ``(etuple,
index_value)`` pairs make.  The bytes must be those the value-at-a-time
reference (``tests/transport/reference_codec.py``) writes, record by
record; the tree must be refused at the depth the record form is
refused; and the writer must make no Python call per row.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.das import EncryptedRelation, EncryptedRows, ServerResult
from repro.crypto.hybrid import HybridCiphertext
from repro.errors import ValueCodecError
from repro.transport import codec

from tests.transport import reference_codec as reference
from tests.transport.test_codec_kernels import KEM, blobs, encapsulations
from tests.transport.test_message_set_codec import python_calls

index_values = st.integers(-(1 << 80), 1 << 80)


def tables(
    min_size: int = 0, max_size: int = 12, container: type = list
) -> st.SearchStrategy:
    """One source's rows as columns, under one encapsulation."""
    return st.tuples(
        encapsulations,
        st.lists(st.tuples(blobs, index_values), min_size=min_size,
                 max_size=max_size),
    ).map(
        lambda drawn: EncryptedRows(
            drawn[0],
            tuple(body for body, _ in drawn[1]),
            tuple(index for _, index in drawn[1]),
            container,
        )
    )


def records(rows: EncryptedRows) -> bytes:
    """The records a table travels as, written pair by pair."""
    return reference.encode_records(reference.ROW_RECORD, rows, rows.container)


def partial_results(rows: EncryptedRows) -> dict:
    """A ``das_encrypted_partial_result`` body: R_i^S next to its index
    table, which shares the relation's encapsulation."""
    relation = EncryptedRelation("S1", "R1", rows)
    assert rows.container is tuple
    table = HybridCiphertext(rows.encapsulation or KEM, b"index table")
    return {"relation": relation, "index_table": table}


class TestDasRowColumns:
    @given(tables(container=tuple))
    @settings(max_examples=200, deadline=None)
    def test_r_i_s_has_the_bytes_of_its_tuple_of_records(self, rows):
        body = partial_results(rows)
        relation = body["relation"]
        assert codec.encode_value(relation) == (
            codec._BY_CLS[EncryptedRelation].header
            + codec._HEAD(codec._T_TUPLE, 3)
            + reference.encode_value("S1") + reference.encode_value("R1")
            + records(rows)
        )
        encoded = codec.encode_value(body)
        assert encoded == reference.encode_value(body)
        assert codec.decode_value(encoded) == body

    @given(tables(min_size=1), tables(min_size=1), st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=20
    ))
    @settings(max_examples=200, deadline=None)
    def test_r_c_has_the_bytes_of_its_lists_of_records(self, one, two, pairs):
        flat = [n for i, j in pairs for n in (i % len(one), j % len(two))]
        result = ServerResult(one, two, struct.pack(f">{len(flat)}I", *flat))
        encoded = codec.encode_value(result)
        assert encoded == reference.encode_value(result)
        by_hand = (
            codec._BY_CLS[ServerResult].header + codec._HEAD(codec._T_TUPLE, 3)
            + records(one)
        )
        assert encoded.startswith(by_hand)
        assert encoded.endswith(reference.encode_value(result.positions))
        assert codec.decode_value(encoded) == result

    @given(tables(), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_hardened_frames_have_the_bytes_of_their_lists(self, rows, batch):
        frames = [rows[start:start + batch] for start in range(0, len(rows), batch)]
        for frame in frames or [rows]:
            assert type(frame) is EncryptedRows and frame.container is list
            encoded = codec.encode_value(frame)
            assert encoded == reference.encode_value(frame) == records(frame)
            assert codec.decode_value(encoded) == frame

    @given(st.lists(encapsulations, max_size=3), tables(), tables())
    @settings(max_examples=100, deadline=None)
    def test_interning_runs_across_the_tables_of_a_body(self, first, one, two):
        """Encapsulations interned before a table, by it and by a later
        table (or ciphertext) are numbered as the reference numbers
        them."""
        tail = partial_results(
            EncryptedRows(two.encapsulation, two.bodies, two.index_values, tuple)
        )
        encoded = codec.encode_value([first, one, two, one, tail])
        assert encoded == reference.encode_value([first, one, two, one, tail])
        assert codec.decode_value(encoded) == [first, one, two, one, tail]

    @pytest.mark.parametrize("container", [list, tuple])
    def test_the_empty_table(self, container):
        for encapsulation in (KEM, None):
            empty = EncryptedRows(encapsulation, (), (), container)
            assert codec.encode_value(empty) == reference.encode_value(container())
        relation = EncryptedRelation("S1", "R1", EncryptedRows(None, (), (), tuple))
        assert codec.decode_value(codec.encode_value(relation)) == relation

    @pytest.mark.parametrize(
        "levels", range(codec.MAX_VALUE_DEPTH - 12, codec.MAX_VALUE_DEPTH + 2)
    )
    @pytest.mark.parametrize(
        "rows",
        [
            EncryptedRows(KEM, (b"x",), (5,)),
            EncryptedRows(KEM, (b"x", b"y"), (5, 6)),
            EncryptedRows(KEM, (b"x",), (5,), tuple),
            EncryptedRows(None, (), ()),
        ],
        ids=["one-row", "interned", "tuple", "empty"],
    )
    def test_refused_at_the_depth_of_the_record_form(self, levels, rows):
        value: object = rows
        for _ in range(levels):
            value = [value]
        written = reference.encode_value(value)
        try:
            codec.decode_value(written)
        except ValueCodecError:
            with pytest.raises(ValueCodecError, match="deeper than"):
                codec.encode_value(value)
        else:
            assert codec.encode_value(value) == written


def test_a_table_costs_no_call_per_row():
    """The column writer makes its calls per table and per encapsulation
    written in full, none per row."""
    bodies = tuple(bytes([n]) * 40 for n in range(100))
    codec.encode_value([])  # registry bootstrapped
    calls = []
    for count in (10, 100):
        rows = EncryptedRows(KEM, bodies[:count], tuple(range(count)))
        made, encoded = python_calls(codec.encode_value, rows)
        assert encoded == records(rows)
        calls.append(made)
    assert calls[0] == calls[1] < 40
