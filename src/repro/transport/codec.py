"""Length-prefixed binary codec for protocol messages.

Everything the three delivery protocols put on the bus — ciphertexts,
index tables, tagged message sets, encrypted polynomial coefficients,
credentials — must survive a real wire.  This module defines:

* a **value codec**: a recursive, type-tagged binary encoding of the
  payload trees the protocols exchange (primitives, containers, and a
  registry of domain extension types),
* an **envelope codec**: one ``struct``-parsed header — flags,
  sequence, routing strings, the optional trace context
  (``docs/observability.md``), request id (``docs/robustness.md``) and
  session id selected by flag bits, a CRC-32 — followed by the encoded
  body as an opaque tail, so an endpoint routes, checks, records and
  acknowledges a message from :func:`decode_header` alone,
* **framing**: an 8-byte frame header (magic, version, frame type,
  payload length) plus asyncio stream helpers.

``docs/transport.md`` holds the wire format as one table.  In short
(all integers big-endian)::

    frame    := magic(2) version(1) type(1) length(4) payload(length)
    envelope := flags(1) sequence(8) text*  crc32(4)  value
    text     := u16 length + UTF-8
    value    := tag(1) tag-specific-body

**Extensions** cover the domain types (hybrid and Paillier ciphertexts,
index tables, DAS relations, credentials, ...), by name.  Public keys
and hybrid key encapsulations are **interned**: the first occurrence in
a stream is encoded in full and, once complete, appended to an
interning table that encoder and decoder maintain in the same order;
later occurrences encode as a 5-byte ``ref``.  A thousand
Paillier ciphertexts ship their modulus once, an encrypted relation its
source's wrapped session key once, and a DAS server result each distinct
row once, next to one packed table of row positions
(:class:`repro.core.das.ServerResult` holds R_C in that form) — which keeps wire
bytes close to the structural estimates of
:func:`repro.mediation.sizing.estimate_size`.

The registry is populated lazily on first use so that importing the
codec does not drag in the whole protocol stack.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import zlib
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, NamedTuple

from repro.errors import CodecError, FrameCodecError, ValueCodecError

# -- framing constants --------------------------------------------------------

MAGIC = b"SM"
VERSION = 2
#: magic(2) + version(1) + frame type(1) + payload length(4).
FRAME_HEADER_BYTES = 8
#: Refuse frames above this size instead of exhausting memory.
MAX_FRAME_BYTES = 1 << 30
#: Refuse value trees nested deeper than this instead of recursing into
#: a RecursionError on adversarial input.  Protocol payloads nest a
#: handful of levels; 64 leaves a wide margin.
MAX_VALUE_DEPTH = 64

# Frame types.
DATA = 0x01    # one protocol message envelope
ACK = 0x02     # receipt acknowledgement for a DATA frame
HELLO = 0x03   # endpoint handshake request
OK = 0x04      # handshake / control success
FETCH = 0x05   # request the endpoint's recorded view
VIEW = 0x06    # response to FETCH
TELEMETRY = 0x07       # request the endpoint's spans and metrics
TELEMETRY_DATA = 0x08  # response to TELEMETRY
SESSION = 0x09         # session lifecycle control (open / close)
BUSY = 0x0A    # endpoint at session capacity: back off and retry
ERROR = 0x7F   # remote failure report

_FRAME_TYPES = {
    DATA, ACK, HELLO, OK, FETCH, VIEW,
    TELEMETRY, TELEMETRY_DATA, SESSION, BUSY, ERROR,
}

# -- value tags ---------------------------------------------------------------

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_BYTES = 0x05
_T_STR = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_SET = 0x0A
_T_FROZENSET = 0x0B
_T_EXT = 0x0C
_T_REF = 0x0D

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
#: A tag and the u32 after it (a length, a count or an interning index).
_HEAD = struct.Struct(">BI").pack
_U32_AT = _U32.unpack_from

_CONTAINER_TAGS = {
    list: _T_LIST, tuple: _T_TUPLE, dict: _T_DICT,
    set: _T_SET, frozenset: _T_FROZENSET,
}


class _Extension(NamedTuple):
    """One registered domain type: how to take it apart and rebuild it."""

    name: str
    cls: type
    pack: Callable[[Any], Any]
    unpack: Callable[[Any], Any]
    shareable: bool = False
    #: ``EXT``, the name's length and the ASCII name: what every full
    #: occurrence of the type starts with on the wire.
    header: bytes = b""


#: Keyed by the raw ASCII name, as the decoder reads it off the wire.
_BY_NAME: dict[bytes, _Extension] = {}
_BY_CLS: dict[type, _Extension] = {}
_BOOTSTRAPPED = False


def _register(
    name: str,
    cls: type,
    pack: Callable[[Any], Any],
    unpack: Callable[[Any], Any],
    shareable: bool = False,
) -> None:
    raw = name.encode("ascii")
    extension = _Extension(
        name, cls, pack, unpack, shareable, bytes((_T_EXT, len(raw))) + raw
    )
    _BY_NAME[raw] = extension
    _BY_CLS[cls] = extension


def _bootstrap() -> None:
    """Register every domain type the protocols put on the wire.

    Imports happen here, not at module load, so the codec stays cheap to
    import and free of circular-import hazards.
    """
    global _BOOTSTRAPPED
    if _BOOTSTRAPPED:
        return
    _BOOTSTRAPPED = True

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
    from repro.mediation.credentials import Credential
    from repro.relational.encoding import decode_relation, encode_relation
    from repro.relational.partition import IndexTable, Partition
    from repro.relational.relation import Relation

    # A type's packed value is the tuple of its constructor's positional
    # arguments (``attrgetter`` builds it in C), except where noted.
    _register(
        "hybrid-kem",
        Encapsulation,
        lambda e: (dict(e),),
        lambda t: Encapsulation(*t),
        shareable=True,
    )
    _register(
        "hybrid-ct",
        HybridCiphertext,
        attrgetter("wrapped_keys", "body"),
        lambda t: HybridCiphertext(*t),
    )
    _register(
        "rsa-pub",
        RSAPublicKey,
        attrgetter("n", "e"),
        lambda t: RSAPublicKey(*t),
        shareable=True,
    )
    _register(
        "paillier-pub",
        PaillierPublicKey,
        lambda k: (k.n,),
        lambda t: PaillierPublicKey(*t),
        shareable=True,
    )
    _register(
        "paillier-ct",
        PaillierCiphertext,
        attrgetter("value", "public_key"),
        lambda t: PaillierCiphertext(*t),
    )
    _register(
        "credential",
        Credential,
        attrgetter("properties", "public_key", "issuer", "signature"),
        lambda t: Credential(*t),
    )
    _register(
        "partition",
        Partition,
        attrgetter("values", "bounds"),
        lambda t: Partition(*t),
    )
    _register(
        "index-table",
        IndexTable,
        attrgetter("attribute", "entries", "salt"),
        lambda t: IndexTable(*t),
    )
    _register(
        "das-tuple",
        EncryptedTuple,
        attrgetter("etuple", "index_value", "plain_values"),
        lambda t: EncryptedTuple(*t),
    )
    _register(
        "das-relation",
        EncryptedRelation,
        attrgetter("source", "relation_name", "rows"),
        lambda t: EncryptedRelation(*t),
    )
    _register(
        "das-server-query",
        ServerQuery,
        lambda q: (q.pairs,),
        lambda t: ServerQuery(*t),
    )
    _register(  # distinct rows once, then a packed position table
        "das-server-result",
        ServerResult,
        attrgetter("rows_1", "rows_2", "positions"),
        lambda t: ServerResult(*t),
    )
    _register(
        "tagged-message",
        TaggedMessage,
        attrgetter("tag", "payload"),
        lambda t: TaggedMessage(*t),
    )
    _register("relation", Relation, encode_relation, decode_relation)  # bytes


def _canonical(items: Any) -> list:
    """Deterministic set ordering, so equal sets encode identically."""
    return sorted(items, key=lambda item: (type(item).__name__, repr(item)))


def _too_deep() -> ValueCodecError:
    return ValueCodecError(f"value tree deeper than {MAX_VALUE_DEPTH} levels")


# -- the encoding kernel -------------------------------------------------------
#
# One recursive call per container or extension; ints, bytes, strings,
# the singletons and interning references are written inline in the
# loop of the container that holds them.  ``depth`` counts as the
# decoder does (the root is level 1, an extension's packed value one
# level below it), so the encoder refuses exactly the trees its decoder
# would.


def _write(
    values: Any, out: bytearray, interned: dict[int, int], keep: list, depth: int
) -> None:
    """Append the encodings of ``values``, each ``depth`` levels deep."""
    for value in values:
        kind = type(value)
        if kind is int:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            out += _HEAD(_T_INT, len(raw))
            out += raw
        elif kind is bytes:
            out += _HEAD(_T_BYTES, len(value))
            out += value
        elif kind is str:
            raw = value.encode("utf-8")
            out += _HEAD(_T_STR, len(raw))
            out += raw
        elif kind in _CONTAINER_TAGS:
            tag = _CONTAINER_TAGS[kind]
            out += _HEAD(tag, len(value))
            if value:
                if depth >= MAX_VALUE_DEPTH:
                    raise _too_deep()
                if tag == _T_DICT:
                    value = chain.from_iterable(value.items())
                elif tag >= _T_SET:  # a set or a frozenset
                    value = _canonical(value)
                _write(value, out, interned, keep, depth + 1)
        elif value is None:
            out.append(_T_NONE)
        elif value is True:
            out.append(_T_TRUE)
        elif value is False:
            out.append(_T_FALSE)
        elif kind is float:
            out.append(_T_FLOAT)
            out += _F64.pack(value)
        elif kind in _BY_CLS:
            extension = _BY_CLS[kind]
            if extension.shareable:
                index = interned.get(id(value))
                if index is not None:
                    out += _HEAD(_T_REF, index)
                    continue
            if depth >= MAX_VALUE_DEPTH:
                raise _too_deep()
            out += extension.header
            packed = extension.pack(value)
            if type(packed) is tuple:  # written here: one call less
                out += _HEAD(_T_TUPLE, len(packed))
                if packed and depth + 1 >= MAX_VALUE_DEPTH:
                    raise _too_deep()
                _write(packed, out, interned, keep, depth + 2)
            else:
                _write((packed,), out, interned, keep, depth + 1)
            if extension.shareable:
                # Numbered once complete, after any shareables nested
                # inside it — the order in which the decoder rebuilds them.
                interned[id(value)] = len(interned)
                keep.append(value)  # its id stays unique while we run
        elif isinstance(value, (bytes, bytearray)):
            out += _HEAD(_T_BYTES, len(value))
            out += value
        else:
            raise ValueCodecError(
                f"no wire encoding registered for {kind.__name__}"
            )


# -- the decoding kernel -------------------------------------------------------
#
# The mirror image: one walk of offsets over one ``bytes`` object, one
# recursive call per container or extension.  A read past the end
# surfaces as IndexError / struct.error, which :func:`decode_value` turns
# into "truncated"; every other rejection is raised where it is found.


def _read(
    data: bytes, pos: int, count: int, depth: int, interned: list
) -> tuple[list, int]:
    """Decode ``count`` consecutive values, each ``depth`` levels deep,
    from ``data[pos:]``; returns them and the offset after the last."""
    values: list = []
    append = values.append
    end = len(data)
    for _ in range(count):
        tag = data[pos]
        if tag == _T_INT or tag == _T_BYTES or tag == _T_STR:
            start = pos + 5
            pos = start + _U32_AT(data, pos + 1)[0]
            if pos > end:
                raise ValueCodecError("truncated value encoding")
            if tag == _T_INT:
                append(int.from_bytes(data[start:pos], "big", signed=True))
            elif tag == _T_BYTES:
                append(data[start:pos])
            else:
                try:
                    append(data[start:pos].decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise ValueCodecError(f"malformed UTF-8 string: {exc}") from exc
        elif tag == _T_REF:
            index = _U32_AT(data, pos + 1)[0]
            pos += 5
            if index >= len(interned):
                raise ValueCodecError(f"dangling interning reference {index}")
            append(interned[index])
        elif tag == _T_EXT:
            start = pos + 2
            pos = start + data[pos + 1]
            extension = _BY_NAME.get(data[start:pos])
            if extension is None:
                raise ValueCodecError(
                    f"unknown wire extension {data[start:pos]!r}"
                )
            if depth >= MAX_VALUE_DEPTH:
                raise _too_deep()
            if data[pos] == _T_TUPLE:  # read here: one call less
                size = _U32_AT(data, pos + 1)[0]
                pos += 5
                if size > end - pos:
                    raise _implausible(size, end - pos)
                if size and depth + 1 >= MAX_VALUE_DEPTH:
                    raise _too_deep()
                items, pos = _read(data, pos, size, depth + 2, interned)
                packed: Any = tuple(items)
            else:
                items, pos = _read(data, pos, 1, depth + 1, interned)
                packed = items[0]
            try:
                value = extension.unpack(packed)
            except CodecError:
                raise
            except Exception as exc:
                # A domain constructor rejecting a malformed payload is a
                # codec failure at this boundary, not a caller bug.
                raise ValueCodecError(
                    f"malformed {extension.name!r} extension payload: {exc}"
                ) from exc
            if extension.shareable:
                interned.append(value)
            append(value)
        elif _T_LIST <= tag <= _T_FROZENSET:
            size = _U32_AT(data, pos + 1)[0]
            pos += 5
            # Every element costs at least one tag byte (a dict entry
            # two): a larger count is a lie, refused before allocating.
            width = 2 * size if tag == _T_DICT else size
            if width > end - pos:
                raise _implausible(size, end - pos)
            if size and depth >= MAX_VALUE_DEPTH:
                raise _too_deep()
            items, pos = _read(data, pos, width, depth + 1, interned)
            if tag == _T_LIST:
                append(items)
            elif tag == _T_TUPLE:
                append(tuple(items))
            else:
                try:
                    if tag == _T_DICT:
                        pairs = iter(items)
                        append(dict(zip(pairs, pairs)))
                    else:
                        append((set if tag == _T_SET else frozenset)(items))
                except TypeError as exc:
                    raise ValueCodecError(
                        f"unhashable dict key or set element: {exc}"
                    ) from exc
        elif tag <= _T_TRUE:
            pos += 1
            append(None if tag == _T_NONE else tag == _T_TRUE)
        elif tag == _T_FLOAT:
            append(_F64.unpack_from(data, pos + 1)[0])
            pos += 9
        else:
            raise ValueCodecError(f"unknown value tag 0x{tag:02x}")
    return values, pos


def _implausible(count: int, remaining: int) -> ValueCodecError:
    return ValueCodecError(
        f"container claims {count} elements but only {remaining} bytes remain"
    )


# -- public value/envelope API -----------------------------------------------

def encode_value(value: Any) -> bytes:
    """Encode one payload tree to bytes.

    A tree nested deeper than :data:`MAX_VALUE_DEPTH` levels — which
    :func:`decode_value` would refuse — is refused here, with a
    :class:`~repro.errors.ValueCodecError`, before anything is sent.
    """
    _bootstrap()
    out = bytearray()
    _write((value,), out, {}, [], 1)
    return bytes(out)


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`.

    Total on arbitrary input: any failure to decode — including
    surprises escaping domain-type constructors — surfaces as a
    :class:`~repro.errors.CodecError` subclass.
    """
    _bootstrap()
    try:
        values, offset = _read(data, 0, 1, 1, [])
    except CodecError:
        raise
    except (IndexError, struct.error) as exc:
        raise ValueCodecError("truncated value encoding") from exc
    except Exception as exc:
        raise ValueCodecError(f"undecodable value stream: {exc}") from exc
    if offset != len(data):
        raise ValueCodecError(f"{len(data) - offset} trailing bytes after value")
    return values[0]


def encoded_size(value: Any) -> int:
    """Actual number of payload bytes :func:`encode_value` produces."""
    return len(encode_value(value))


# Envelope flag bits: which optional header fields are present.
_F_TRACE = 0x01
_F_REQUEST_ID = 0x02
_F_SESSION_ID = 0x04
_ENVELOPE_PREFIX = struct.Struct(">BQ")  # flags, sequence
_U16 = struct.Struct(">H")


class EnvelopeHeader(NamedTuple):
    """Everything of an envelope but its body, as :func:`decode_header`
    reads it; the encoded body is ``payload[body_offset:]``."""

    sequence: int
    sender: str
    receiver: str
    kind: str
    trace: tuple[str, str] | None
    request_id: str | None
    session_id: str | None
    body_offset: int


def encode_envelope(
    sequence: int,
    sender: str,
    receiver: str,
    kind: str,
    body: Any,
    trace: tuple[str, str] | None = None,
    request_id: str | None = None,
    session_id: str | None = None,
) -> bytes:
    """Encode one message envelope (the payload of a DATA frame).

    ``trace`` is an optional ``(trace_id, span_id)`` pair identifying
    the sender-side span this message belongs to.  ``request_id`` is an
    optional globally unique delivery token: endpoints deduplicate DATA
    frames on it, which is what makes sender-side re-delivery after an
    ambiguous failure safe (see ``docs/robustness.md``).  ``session_id``
    names the client session the message belongs to; endpoints key all
    per-session protocol state (views, dedupe windows, telemetry) by it
    (see ``docs/transport.md``).  Each optional field sets its flag bit
    and is otherwise absent from the header; the CRC-32 covers every
    other byte of the envelope, header and body.
    """
    flags = 0
    texts = [sender, receiver, kind]
    try:
        if trace is not None:
            flags |= _F_TRACE
            trace_id, span_id = trace
            texts += (trace_id, span_id)
        if request_id is not None:
            flags |= _F_REQUEST_ID
            texts.append(request_id)
        if session_id is not None:
            flags |= _F_SESSION_ID
            texts.append(session_id)
        chunks = [_ENVELOPE_PREFIX.pack(flags, sequence)]
        for text in texts:
            raw = text.encode("utf-8")
            chunks += (_U16.pack(len(raw)), raw)
    except (struct.error, AttributeError, TypeError, ValueError) as exc:
        raise ValueCodecError(f"unencodable envelope header: {exc}") from exc
    head = b"".join(chunks)
    tail = encode_value(body)
    return head + _U32.pack(zlib.crc32(tail, zlib.crc32(head))) + tail


def decode_header(data: bytes) -> EnvelopeHeader:
    """Parse and checksum an envelope without decoding its body.

    This is all an endpoint needs to route, record, deduplicate and
    acknowledge a message; any byte flipped in flight — header or body —
    fails the CRC here instead of depending on where it lands in the
    value grammar.
    """
    try:
        flags, sequence = _ENVELOPE_PREFIX.unpack_from(data)
        if flags & ~(_F_TRACE | _F_REQUEST_ID | _F_SESSION_ID):
            raise ValueCodecError(f"unknown envelope flags 0x{flags:02x}")
        offset = _ENVELOPE_PREFIX.size
        texts = []
        for _ in range(
            3 + 2 * bool(flags & _F_TRACE) + bool(flags & _F_REQUEST_ID)
            + bool(flags & _F_SESSION_ID)
        ):
            end = offset + 2 + _U16.unpack_from(data, offset)[0]
            if end > len(data):
                raise ValueCodecError("truncated message envelope")
            texts.append(data[offset + 2:end].decode("utf-8"))
            offset = end
        crc = _U32.unpack_from(data, offset)[0]
    except (struct.error, UnicodeDecodeError, TypeError) as exc:
        raise ValueCodecError(f"malformed message envelope: {exc}") from exc
    view = memoryview(data)
    if zlib.crc32(view[offset + 4:], zlib.crc32(view[:offset])) != crc:
        raise ValueCodecError("message envelope fails its checksum")
    sender, receiver, kind = texts[:3]
    optional = iter(texts[3:])
    trace = (next(optional), next(optional)) if flags & _F_TRACE else None
    request_id = next(optional) if flags & _F_REQUEST_ID else None
    session_id = next(optional) if flags & _F_SESSION_ID else None
    if request_id == "":
        raise ValueCodecError("malformed envelope request id")
    if session_id == "":
        raise ValueCodecError("malformed envelope session id")
    return EnvelopeHeader(
        sequence, sender, receiver, kind, trace, request_id, session_id,
        offset + 4,
    )


def decode_envelope(
    data: bytes,
) -> tuple[
    int, str, str, str, Any,
    tuple[str, str] | None, str | None, str | None,
]:
    """Inverse of :func:`encode_envelope`: header, checksum and body.

    Always returns an 8-tuple ``(sequence, sender, receiver, kind,
    body, trace, request_id, session_id)``; the trace context, request
    id, and session id are ``None`` when the envelope did not carry
    them.
    """
    header = decode_header(data)
    body = decode_value(data[header.body_offset:])
    return (*header[:4], body, *header[4:7])


# -- framing ------------------------------------------------------------------

def build_frame(frame_type: int, payload: bytes) -> bytes:
    """Prepend the 8-byte frame header to an encoded payload."""
    if frame_type not in _FRAME_TYPES:
        raise FrameCodecError(f"unknown frame type 0x{frame_type:02x}")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameCodecError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return MAGIC + bytes((VERSION, frame_type)) + _U32.pack(len(payload)) + payload


def parse_frame_header(header: bytes) -> tuple[int, int]:
    """Validate a frame header; returns ``(frame_type, payload_length)``."""
    if len(header) != FRAME_HEADER_BYTES:
        raise FrameCodecError("short frame header")
    if header[:2] != MAGIC:
        raise FrameCodecError(f"bad frame magic {header[:2]!r}")
    if header[2] != VERSION:
        raise FrameCodecError(f"unsupported wire version {header[2]}")
    frame_type = header[3]
    if frame_type not in _FRAME_TYPES:
        raise FrameCodecError(f"unknown frame type 0x{frame_type:02x}")
    length = _U32.unpack(header[4:8])[0]
    if length > MAX_FRAME_BYTES:
        raise FrameCodecError(f"frame of {length} bytes exceeds the size limit")
    return frame_type, length


async def read_frame(
    reader: asyncio.StreamReader, timeout: float | None = None
) -> tuple[int, bytes]:
    """Read one complete frame; raises :class:`FrameCodecError` on EOF/garbage.

    ``timeout`` bounds each of the two reads; ``asyncio.TimeoutError``
    propagates to the caller, which maps it onto the failure being
    diagnosed (ack timeout, dead peer, ...).
    """
    try:
        header = await asyncio.wait_for(
            reader.readexactly(FRAME_HEADER_BYTES), timeout
        )
        frame_type, length = parse_frame_header(header)
        payload = await asyncio.wait_for(reader.readexactly(length), timeout)
    except asyncio.IncompleteReadError as exc:
        raise FrameCodecError("connection closed mid-frame") from exc
    return frame_type, payload


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    """Read one complete frame from a blocking socket.

    The blocking twin of :func:`read_frame`: the same header checks, and
    :class:`FrameCodecError` on EOF.  The socket's own timeout bounds
    each ``recv``; ``TimeoutError`` propagates to the caller.
    """
    frame_type, length = parse_frame_header(_recv_exactly(sock, FRAME_HEADER_BYTES))
    return frame_type, _recv_exactly(sock, length)


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    buffer = bytearray(count)
    view = memoryview(buffer)
    received = 0
    while received < count:
        chunk = sock.recv_into(view[received:])
        if not chunk:
            raise FrameCodecError("connection closed mid-frame")
        received += chunk
    return bytes(buffer)


async def write_frame(
    writer: asyncio.StreamWriter, frame_type: int, payload: bytes
) -> None:
    """Write one frame and flush."""
    writer.write(build_frame(frame_type, payload))
    await writer.drain()
