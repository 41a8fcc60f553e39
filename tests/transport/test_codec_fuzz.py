"""Fuzzing the wire codec: totality on truncated, corrupted, oversized input.

The codec's contract (``repro.errors.CodecError``): any byte string fed
to a decode entry point either decodes cleanly or raises a typed
``CodecError`` subclass.  It never hangs, never trips an ``assert`` or
a ``RecursionError``, and never returns garbage — a successful decode
always has the validated shape the caller relies on.
"""

import asyncio
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hybrid import Encapsulation, HybridCiphertext
from repro.errors import CodecError, FrameCodecError, ValueCodecError
from repro.transport import codec

_SHARED = Encapsulation({b"f" * 16: b"w" * 128})
#: One interned encapsulation, then two references to it.
SHARED_CIPHERTEXTS = [HybridCiphertext(_SHARED, b"body-%d" % i) for i in range(3)]

#: Representative payload trees the protocols actually ship.
SAMPLES = [
    {"tags": [b"\x01" * 16, b"\x02" * 16], "count": 2},
    (1, "S1", "mediator", "kind", {"n": 1 << 256}),
    [None, True, -5, 3.25, "unicode ❤", frozenset({("role", "analyst")})],
    SHARED_CIPHERTEXTS,
]

#: A valid envelope encoding used as the corruption target.
ENVELOPE = codec.encode_envelope(
    9, "S1", "mediator", "tagged-set", {"tags": [b"\xaa" * 24]},
    trace=("t" * 32, "s" * 16), request_id="fuzz:9",
)


def decode_is_total(decoder, data: bytes) -> None:
    """Decoding either succeeds or raises a typed CodecError; any other
    exception type (AssertionError, RecursionError, struct.error, ...)
    is a contract violation."""
    try:
        decoder(data)
    except CodecError:
        pass


class TestRandomBytes:
    @given(st.binary(max_size=512))
    @settings(max_examples=200)
    def test_decode_value_is_total(self, data):
        decode_is_total(codec.decode_value, data)

    @given(st.binary(max_size=512))
    @settings(max_examples=200)
    def test_decode_envelope_is_total(self, data):
        decode_is_total(codec.decode_envelope, data)

    @given(st.binary(min_size=0, max_size=16))
    def test_parse_frame_header_is_total(self, header):
        try:
            codec.parse_frame_header(header)
        except FrameCodecError:
            pass


class TestTruncation:
    @pytest.mark.parametrize("value", SAMPLES)
    def test_every_strict_prefix_is_rejected(self, value):
        encoded = codec.encode_value(value)
        for cut in range(len(encoded)):
            with pytest.raises(CodecError):
                codec.decode_value(encoded[:cut])

    def test_truncated_envelope_is_rejected(self):
        for cut in range(len(ENVELOPE)):
            with pytest.raises(CodecError):
                codec.decode_envelope(ENVELOPE[:cut])


class TestCorruption:
    @given(
        position=st.integers(min_value=0, max_value=len(ENVELOPE) - 1),
        mask=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=300)
    def test_flipped_byte_never_yields_garbage(self, position, mask):
        """A corrupted envelope either raises a CodecError or still
        decodes to a *validated* envelope shape — never to an
        unchecked value the transport would act on."""
        corrupted = bytearray(ENVELOPE)
        corrupted[position] ^= mask
        try:
            envelope = codec.decode_envelope(bytes(corrupted))
        except CodecError:
            return
        assert isinstance(envelope, tuple) and len(envelope) == 8
        sequence, sender, receiver, kind = envelope[:4]
        assert isinstance(sequence, int)
        assert all(isinstance(part, str) for part in (sender, receiver, kind))

    @given(data=st.binary(min_size=1, max_size=64))
    def test_unknown_extension_names_are_rejected_not_imported(self, data):
        payload = bytes([0x0C, min(len(data), 255)]) + data
        with pytest.raises(CodecError):
            codec.decode_value(payload)


class TestInterningReferences:
    def test_dangling_reference_is_rejected(self):
        encoded = codec.encode_value(SHARED_CIPHERTEXTS)
        # Cut the first ciphertext (the only full encapsulation) out of
        # the list: the remaining references point at nothing.
        first = codec.encode_value(SHARED_CIPHERTEXTS[0])
        position = encoded.index(first)
        dangling = (
            encoded[:1] + struct.pack(">I", 2)
            + encoded[position + len(first):]
        )
        with pytest.raises(ValueCodecError, match="dangling"):
            codec.decode_value(dangling)

    @given(
        position=st.integers(min_value=0),
        mask=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=300)
    def test_corrupted_shared_stream_is_total(self, position, mask):
        corrupted = bytearray(codec.encode_value(SHARED_CIPHERTEXTS))
        corrupted[position % len(corrupted)] ^= mask
        decode_is_total(codec.decode_value, bytes(corrupted))

    def test_ciphertext_without_an_encapsulation_is_rejected(self):
        forged = codec.encode_value(SHARED_CIPHERTEXTS[0]).replace(
            codec.encode_value(_SHARED), codec.encode_value(7)
        )
        with pytest.raises(ValueCodecError, match="hybrid-ct"):
            codec.decode_value(forged)


class TestOversized:
    def test_frame_header_claiming_oversized_payload_rejected(self):
        header = codec.MAGIC + bytes((codec.VERSION, codec.DATA)) + struct.pack(
            ">I", 0xFFFFFFFF
        )
        with pytest.raises(FrameCodecError, match="exceeds the size limit"):
            codec.parse_frame_header(header)

    def test_build_frame_refuses_oversized_payload(self, monkeypatch):
        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 1024)
        with pytest.raises(FrameCodecError, match="exceeds"):
            codec.build_frame(codec.DATA, b"\x00" * 1025)

    def test_container_count_lie_rejected_without_allocation(self):
        """A list header claiming 2**31 elements in a 12-byte buffer
        must fail on the length check, not try to build the list."""
        payload = bytes([0x07]) + struct.pack(">I", 1 << 31) + b"\x00" * 8
        with pytest.raises(ValueCodecError, match="claims"):
            codec.decode_value(payload)

    def test_dict_count_lie_rejected(self):
        payload = bytes([0x09]) + struct.pack(">I", 1 << 30) + b"\x00" * 8
        with pytest.raises(ValueCodecError, match="claims"):
            codec.decode_value(payload)

    def test_over_deep_nesting_rejected_not_recursion_error(self):
        # 100 nested single-element lists: beyond MAX_VALUE_DEPTH.
        depth = codec.MAX_VALUE_DEPTH + 36
        payload = (bytes([0x07]) + struct.pack(">I", 1)) * depth + bytes([0x00])
        with pytest.raises(ValueCodecError, match="deeper than"):
            codec.decode_value(payload)

    def test_huge_int_length_is_bounded_by_truncation_check(self):
        payload = bytes([0x03]) + struct.pack(">I", 1 << 28)
        with pytest.raises(ValueCodecError, match="truncated"):
            codec.decode_value(payload)


class TestStreamFraming:
    """The asyncio reader half of the contract: a peer that goes away
    mid-frame surfaces as a typed error, never a hang."""

    def read_with(self, data: bytes):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await codec.read_frame(reader, timeout=1.0)

        return asyncio.run(scenario())

    def test_connection_closed_mid_header(self):
        with pytest.raises(FrameCodecError, match="mid-frame"):
            self.read_with(codec.MAGIC + bytes((codec.VERSION,)))

    def test_connection_closed_mid_payload(self):
        frame = codec.build_frame(codec.DATA, b"payload-bytes")
        with pytest.raises(FrameCodecError, match="mid-frame"):
            self.read_with(frame[:-4])

    def test_garbage_header_rejected_before_reading_payload(self):
        with pytest.raises(FrameCodecError, match="magic"):
            self.read_with(b"GARBAGE!" + b"\x00" * 64)

    def test_complete_frame_still_reads(self):
        frame_type, payload = self.read_with(
            codec.build_frame(codec.ACK, codec.encode_value({"sequence": 1}))
        )
        assert frame_type == codec.ACK
        assert codec.decode_value(payload) == {"sequence": 1}
