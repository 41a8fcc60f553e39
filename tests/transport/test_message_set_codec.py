"""A commutative ``MessageSet`` on the wire: a list of records.

``repro.transport.codec`` writes a ``MessageSet`` from its two columns
in one loop (``codec._write_columns``) as the list of ``tagged-message``
records its ``(tag, payload)`` pairs make, and reads that list back into
a ``MessageSet``.  Its bytes must be those the value-at-a-time reference
(``tests/transport/reference_codec.py``) writes, record by record; the
tree must be refused at the depth the record list is refused; and the
writer must make no Python call per message.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commutative import MessageSet
from repro.crypto.hybrid import HybridCiphertext
from repro.errors import ValueCodecError
from repro.transport import codec

from tests.transport import reference_codec as reference
from tests.transport.test_codec_kernels import (
    KEM,
    blobs,
    encapsulations,
    hundred_messages,
    hybrid_cts,
    leaves,
    trees,
)


def message_sets(payloads: st.SearchStrategy) -> st.SearchStrategy:
    """A ``MessageSet`` of int or bytes tags next to ``payloads``."""
    tags = st.one_of(st.integers(-(1 << 2048), 1 << 2048), blobs)
    return st.lists(st.tuples(tags, payloads), max_size=10).map(
        lambda entries: MessageSet(
            tuple(tag for tag, _ in entries),
            tuple(payload for _, payload in entries),
        )
    )


#: Bytes (ID tokens), hybrid ciphertexts under several encapsulations,
#: and anything else a tree can hold.
any_payloads = st.one_of(blobs, hybrid_cts, trees(leaves, max_leaves=4))


class TestMessageSetColumns:
    @given(message_sets(any_payloads))
    @settings(max_examples=200, deadline=None)
    def test_the_bytes_of_the_list_form(self, messages):
        encoded = codec.encode_value(messages)
        assert encoded == reference.encode_value(messages)
        assert encoded == reference.encode_records(
            reference.MESSAGE_RECORD, messages
        )
        assert codec.decode_value(encoded) == list(messages)

    @given(
        st.lists(encapsulations, max_size=3),
        message_sets(st.one_of(blobs, hybrid_cts)),
        message_sets(any_payloads),
    )
    @settings(max_examples=100, deadline=None)
    def test_interning_runs_across_the_sets_of_a_body(self, first, one, two):
        """Encapsulations interned before a set, inside it and in a
        later set are numbered as the reference numbers them."""
        encoded = codec.encode_value([first, one, two, one])
        assert encoded == reference.encode_value([first, one, two, one])
        assert codec.decode_value(encoded) == [first, one, two, one]

    def test_the_empty_set(self):
        assert codec.encode_value(MessageSet((), ())) == reference.encode_value([])

    @pytest.mark.parametrize(
        "levels", range(codec.MAX_VALUE_DEPTH - 12, codec.MAX_VALUE_DEPTH + 2)
    )
    @pytest.mark.parametrize(
        "tags, payloads",
        [
            ((5,), (HybridCiphertext(KEM, b"x"),)),
            ((5, 6), (HybridCiphertext(KEM, b"x"), HybridCiphertext(KEM, b"y"))),
            ((b"t" * 16,), (b"token",)),
            ((5,), ([[1]],)),
            ((True,), (None,)),
            ((), ()),
        ],
        ids=["ciphertext", "interned", "bytes", "tree", "other-tag", "empty"],
    )
    def test_refused_at_the_depth_of_the_list_form(self, levels, tags, payloads):
        value: object = MessageSet(tags, payloads)
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


def test_a_message_set_costs_no_call_per_message():
    """The column writer makes its calls per set and per encapsulation
    written in full, none per message."""
    messages = hundred_messages(27)
    codec.encode_value(messages[:1])  # registry bootstrapped
    calls = []
    for count in (10, 100):
        made, encoded = python_calls(codec.encode_value, messages[:count])
        assert encoded == reference.encode_value(messages[:count])
        calls.append(made)
    assert calls[0] == calls[1] < 40
