"""The envelope header: one layout, parsed without touching the body.

``docs/transport.md`` holds the layout; these tests hold it still
(golden bytes), attack it (every truncation, every flipped byte) and pin
what an endpoint may rely on after ``decode_header`` returns.
"""

import json
import pathlib
import zlib

import pytest

from repro.errors import CodecError, FrameCodecError
from repro.transport import codec

from tests.transport import wire_samples

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "wire_v2.json").read_text()
)


def header_fields(fields: dict) -> tuple:
    return (
        fields["sequence"], fields["sender"], fields["receiver"],
        fields["kind"], fields["trace"], fields["request_id"],
        fields["session_id"],
    )


class TestGoldenBytes:
    def test_encoder_still_writes_the_committed_bytes(self):
        """An accidental layout change — header or ``das-server-result``
        — fails here; an intended header change bumps ``codec.VERSION``."""
        assert wire_samples.golden_document() == GOLDEN
        assert GOLDEN["version"] == codec.VERSION

    @pytest.mark.parametrize("flags", sorted(wire_samples.ENVELOPES))
    def test_committed_envelopes_decode(self, flags):
        fields = wire_samples.ENVELOPES[flags]
        payload = bytes.fromhex(GOLDEN["envelopes"][flags])
        assert payload[0] == int(flags, 16)
        header = codec.decode_header(payload)
        assert header[:7] == header_fields(fields)
        assert codec.decode_value(payload[header.body_offset:]) == fields["body"]
        sequence, sender, receiver, kind, body, *optional = (
            codec.decode_envelope(payload)
        )
        assert (sequence, sender, receiver, kind, *optional) == header[:7]
        assert body == fields["body"]

    def test_committed_server_result_decodes(self):
        decoded = codec.decode_value(bytes.fromhex(GOLDEN["server_result"]))
        assert decoded == wire_samples.server_result()

    def test_checksum_covers_every_other_byte(self):
        payload = bytes.fromhex(GOLDEN["envelopes"]["0x07"])
        offset = codec.decode_header(payload).body_offset
        stored = int.from_bytes(payload[offset - 4:offset], "big")
        assert stored == zlib.crc32(payload[:offset - 4] + payload[offset:])


@pytest.mark.parametrize("flags", sorted(wire_samples.ENVELOPES))
class TestHeaderFuzz:
    def test_every_truncation_is_a_codec_error(self, flags):
        payload = bytes.fromhex(GOLDEN["envelopes"][flags])
        for cut in range(len(payload)):
            with pytest.raises(CodecError):
                codec.decode_header(payload[:cut])

    def test_every_flipped_byte_is_a_codec_error(self, flags):
        """Header bytes included: a flipped sequence number or routing
        string never reaches the endpoint's records."""
        payload = bytes.fromhex(GOLDEN["envelopes"][flags])
        for position in range(len(payload)):
            for mask in (0x01, 0x5A, 0x80, 0xFF):
                garbled = bytearray(payload)
                garbled[position] ^= mask
                with pytest.raises(CodecError):
                    codec.decode_header(bytes(garbled))

    def test_flips_with_a_recomputed_checksum_stay_well_formed(self, flags):
        """An adversary who fixes the CRC up gets a typed error or a
        header of the validated shape — never anything else."""
        payload = bytes.fromhex(GOLDEN["envelopes"][flags])
        offset = codec.decode_header(payload).body_offset
        well_formed = 0
        for position in range(offset - 4):
            garbled = bytearray(payload)
            garbled[position] ^= 0x5A
            garbled[offset - 4:offset] = zlib.crc32(
                garbled[:offset - 4] + garbled[offset:]
            ).to_bytes(4, "big")
            try:
                header = codec.decode_header(bytes(garbled))
            except CodecError:
                continue  # the flip moved a length: the CRC is elsewhere
            well_formed += 1
            assert isinstance(header.sequence, int)
            assert all(isinstance(text, str) for text in header[1:4])
            assert header.trace is None or (
                len(header.trace) == 2
                and all(isinstance(text, str) for text in header.trace)
            )
            assert header.request_id is None or header.request_id
            assert header.session_id is None or header.session_id
            assert header.body_offset == offset
        assert well_formed  # e.g. a flipped sequence byte


class TestVersion:
    def test_a_version_1_frame_is_refused(self):
        """A v1 peer's DATA frame (its payload was an encoded tuple)
        fails at the frame header, typed — it is never parsed as a v2
        envelope."""
        v1_payload = codec.encode_value((1, "a", "b", "kind", None))
        v1_frame = (
            codec.MAGIC + bytes((1, codec.DATA))
            + len(v1_payload).to_bytes(4, "big") + v1_payload
        )
        with pytest.raises(FrameCodecError, match="unsupported wire version 1"):
            codec.parse_frame_header(v1_frame[: codec.FRAME_HEADER_BYTES])
        # And even unframed, the old tuple is not a v2 envelope.
        with pytest.raises(CodecError):
            codec.decode_header(v1_payload)
