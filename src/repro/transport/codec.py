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
(:meth:`repro.core.das.ServerResult.row_tables`) — which keeps wire
bytes close to the structural estimates of
:func:`repro.mediation.sizing.estimate_size`.

The registry is populated lazily on first use so that importing the
codec does not drag in the whole protocol stack.
"""

from __future__ import annotations

import asyncio
import struct
import zlib
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


class _Extension(NamedTuple):
    """One registered domain type: how to take it apart and rebuild it."""

    name: str
    cls: type
    pack: Callable[[Any], Any]
    unpack: Callable[[Any], Any]
    shareable: bool = False


_BY_NAME: dict[str, _Extension] = {}
_BY_CLS: dict[type, _Extension] = {}
_BOOTSTRAPPED = False


def _register(
    name: str,
    cls: type,
    pack: Callable[[Any], Any],
    unpack: Callable[[Any], Any],
    shareable: bool = False,
) -> None:
    extension = _Extension(name, cls, pack, unpack, shareable)
    _BY_NAME[name] = extension
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

    _register(
        "hybrid-kem",
        Encapsulation,
        lambda e: (dict(e),),
        lambda t: Encapsulation(t[0]),
        shareable=True,
    )
    _register(
        "hybrid-ct",
        HybridCiphertext,
        lambda c: (c.wrapped_keys, c.body),
        lambda t: HybridCiphertext(wrapped_keys=t[0], body=t[1]),
    )
    _register(
        "rsa-pub",
        RSAPublicKey,
        lambda k: (k.n, k.e),
        lambda t: RSAPublicKey(n=t[0], e=t[1]),
        shareable=True,
    )
    _register(
        "paillier-pub",
        PaillierPublicKey,
        lambda k: (k.n,),
        lambda t: PaillierPublicKey(n=t[0]),
        shareable=True,
    )
    _register(
        "paillier-ct",
        PaillierCiphertext,
        lambda c: (c.value, c.public_key),
        lambda t: PaillierCiphertext(value=t[0], public_key=t[1]),
    )
    _register(
        "credential",
        Credential,
        lambda c: (c.properties, c.public_key, c.issuer, c.signature),
        lambda t: Credential(
            properties=t[0], public_key=t[1], issuer=t[2], signature=t[3]
        ),
    )
    _register(
        "partition",
        Partition,
        lambda p: (p.values, p.bounds),
        lambda t: Partition(values=t[0], bounds=t[1]),
    )
    _register(
        "index-table",
        IndexTable,
        lambda i: (i.attribute, i.entries, i.salt),
        lambda t: IndexTable(attribute=t[0], entries=t[1], salt=t[2]),
    )
    _register(
        "das-tuple",
        EncryptedTuple,
        lambda e: (e.etuple, e.index_value, e.plain_values),
        lambda t: EncryptedTuple(
            etuple=t[0], index_value=t[1], plain_values=t[2]
        ),
    )
    _register(
        "das-relation",
        EncryptedRelation,
        lambda r: (r.source, r.relation_name, r.rows),
        lambda t: EncryptedRelation(
            source=t[0], relation_name=t[1], rows=t[2]
        ),
    )
    _register(
        "das-server-query",
        ServerQuery,
        lambda q: (q.pairs,),
        lambda t: ServerQuery(pairs=t[0]),
    )
    _register(
        "das-server-result",
        ServerResult,
        ServerResult.row_tables,
        lambda t: ServerResult.from_row_tables(*t),
    )
    _register(
        "tagged-message",
        TaggedMessage,
        lambda m: (m.tag, m.payload),
        lambda t: TaggedMessage(tag=t[0], payload=t[1]),
    )
    _register(
        "relation",
        Relation,
        lambda r: encode_relation(r),
        lambda data: decode_relation(data),
    )


class _Encoder:
    """One encoding pass; owns the stream's interning table."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self._interned: dict[int, int] = {}  # id(obj) -> table index
        self._keepalive: list[Any] = []      # ids stay valid while we run

    def encode(self, value: Any) -> bytes:
        self._value(value)
        return b"".join(self._chunks)

    # -- emit helpers -----------------------------------------------------

    def _tag(self, tag: int) -> None:
        self._chunks.append(bytes((tag,)))

    def _u32(self, value: int) -> None:
        self._chunks.append(_U32.pack(value))

    def _sized(self, tag: int, data: bytes) -> None:
        self._tag(tag)
        self._u32(len(data))
        self._chunks.append(data)

    def _items(self, tag: int, items: Any, count: int) -> None:
        self._tag(tag)
        self._u32(count)
        for item in items:
            self._value(item)

    # -- dispatch ---------------------------------------------------------

    def _value(self, value: Any) -> None:
        if value is None:
            self._tag(_T_NONE)
        elif value is True:
            self._tag(_T_TRUE)
        elif value is False:
            self._tag(_T_FALSE)
        elif type(value) is int:
            length = (value.bit_length() + 8) // 8  # room for the sign bit
            self._sized(_T_INT, value.to_bytes(max(1, length), "big", signed=True))
        elif type(value) is float:
            self._tag(_T_FLOAT)
            self._chunks.append(_F64.pack(value))
        elif isinstance(value, (bytes, bytearray)):
            self._sized(_T_BYTES, bytes(value))
        elif type(value) is str:
            self._sized(_T_STR, value.encode("utf-8"))
        elif type(value) is list:
            self._items(_T_LIST, value, len(value))
        elif type(value) is tuple:
            self._items(_T_TUPLE, value, len(value))
        elif type(value) is dict:
            self._tag(_T_DICT)
            self._u32(len(value))
            for key, item in value.items():
                self._value(key)
                self._value(item)
        elif type(value) is set:
            self._items(_T_SET, _canonical(value), len(value))
        elif type(value) is frozenset:
            self._items(_T_FROZENSET, _canonical(value), len(value))
        else:
            self._extension(value)

    def _extension(self, value: Any) -> None:
        _bootstrap()
        extension = _BY_CLS.get(type(value))
        if extension is None:
            raise ValueCodecError(
                f"no wire encoding registered for {type(value).__name__}"
            )
        if extension.shareable:
            index = self._interned.get(id(value))
            if index is not None:
                self._tag(_T_REF)
                self._u32(index)
                return
        name = extension.name.encode("ascii")
        self._tag(_T_EXT)
        self._chunks.append(bytes((len(name),)))
        self._chunks.append(name)
        self._value(extension.pack(value))
        if extension.shareable:
            # Numbered once complete, after any shareables nested inside
            # it — the order in which the decoder can rebuild them.
            self._interned[id(value)] = len(self._interned)
            self._keepalive.append(value)


def _canonical(items: Any) -> list:
    """Deterministic set ordering, so equal sets encode identically."""
    return sorted(items, key=lambda item: (type(item).__name__, repr(item)))


class _Decoder:
    """One decoding pass over a complete buffer.

    Hardened against adversarial input: every structural implausibility
    (truncation, impossible container counts, over-deep nesting, a
    domain constructor choking on a malformed payload) raises
    :class:`~repro.errors.ValueCodecError` — never a hang, an
    ``assert``, or a raw :class:`RecursionError`.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0
        self._depth = 0
        self._interned: list[Any] = []

    def decode(self) -> Any:
        value = self._value()
        if self._offset != len(self._data):
            raise ValueCodecError(
                f"{len(self._data) - self._offset} trailing bytes after value"
            )
        return value

    # -- read helpers -----------------------------------------------------

    def _take(self, count: int) -> bytes:
        end = self._offset + count
        if end > len(self._data):
            raise ValueCodecError("truncated value encoding")
        chunk = self._data[self._offset:end]
        self._offset = end
        return chunk

    def _u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def _count(self, per_item_bytes: int = 1) -> int:
        """A container count, sanity-checked against the bytes left.

        Every encoded element costs at least one tag byte, so a count
        exceeding the remaining buffer is a corrupt or adversarial
        length — reject it before allocating anything.
        """
        count = self._u32()
        remaining = len(self._data) - self._offset
        if count * per_item_bytes > remaining:
            raise ValueCodecError(
                f"container claims {count} elements but only {remaining} "
                f"bytes remain"
            )
        return count

    # -- dispatch ---------------------------------------------------------

    def _value(self) -> Any:
        self._depth += 1
        if self._depth > MAX_VALUE_DEPTH:
            raise ValueCodecError(
                f"value tree deeper than {MAX_VALUE_DEPTH} levels"
            )
        try:
            return self._dispatch()
        finally:
            self._depth -= 1

    def _dispatch(self) -> Any:
        tag = self._take(1)[0]
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            return int.from_bytes(self._take(self._u32()), "big", signed=True)
        if tag == _T_FLOAT:
            return _F64.unpack(self._take(8))[0]
        if tag == _T_BYTES:
            return self._take(self._u32())
        if tag == _T_STR:
            try:
                return self._take(self._u32()).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueCodecError(f"malformed UTF-8 string: {exc}") from exc
        if tag == _T_LIST:
            return [self._value() for _ in range(self._count())]
        if tag == _T_TUPLE:
            return tuple(self._value() for _ in range(self._count()))
        if tag == _T_DICT:
            count = self._count(per_item_bytes=2)
            result = {}
            try:
                for _ in range(count):
                    key = self._value()
                    result[key] = self._value()
            except TypeError as exc:  # unhashable decoded key
                raise ValueCodecError(f"unhashable dict key: {exc}") from exc
            return result
        if tag == _T_SET:
            try:
                return {self._value() for _ in range(self._count())}
            except TypeError as exc:
                raise ValueCodecError(f"unhashable set element: {exc}") from exc
        if tag == _T_FROZENSET:
            try:
                return frozenset(
                    self._value() for _ in range(self._count())
                )
            except TypeError as exc:
                raise ValueCodecError(f"unhashable set element: {exc}") from exc
        if tag == _T_EXT:
            return self._ext()
        if tag == _T_REF:
            index = self._u32()
            if index >= len(self._interned):
                raise ValueCodecError(f"dangling interning reference {index}")
            return self._interned[index]
        raise ValueCodecError(f"unknown value tag 0x{tag:02x}")

    def _ext(self) -> Any:
        _bootstrap()
        name_length = self._take(1)[0]
        try:
            name = self._take(name_length).decode("ascii")
        except UnicodeDecodeError as exc:
            raise ValueCodecError(f"malformed extension name: {exc}") from exc
        extension = _BY_NAME.get(name)
        if extension is None:
            raise ValueCodecError(f"unknown wire extension {name!r}")
        packed = self._value()
        try:
            value = extension.unpack(packed)
        except CodecError:
            raise
        except Exception as exc:
            # A domain constructor rejecting a malformed payload is a
            # codec failure at this boundary, not a caller bug.
            raise ValueCodecError(
                f"malformed {name!r} extension payload: {exc}"
            ) from exc
        if extension.shareable:
            self._interned.append(value)
        return value


# -- public value/envelope API -----------------------------------------------

def encode_value(value: Any) -> bytes:
    """Encode one payload tree to bytes."""
    return _Encoder().encode(value)


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`.

    Total on arbitrary input: any failure to decode — including
    surprises escaping domain-type constructors — surfaces as a
    :class:`~repro.errors.CodecError` subclass.
    """
    try:
        return _Decoder(data).decode()
    except CodecError:
        raise
    except Exception as exc:
        raise ValueCodecError(f"undecodable value stream: {exc}") from exc


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


async def write_frame(
    writer: asyncio.StreamWriter, frame_type: int, payload: bytes
) -> None:
    """Write one frame and flush."""
    writer.write(build_frame(frame_type, payload))
    await writer.drain()
