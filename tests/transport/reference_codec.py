"""The value codec as a value-at-a-time walk: the oracle for the kernels.

This is the straightforward reading of the v2 value grammar
(``docs/transport.md``): one method call per value on both sides, one
slice per field on the decoding side.  It shares the extension registry
and the wire constants of :mod:`repro.transport.codec` and nothing
else, so ``tests/transport/test_codec_kernels.py`` can require the
kernels' bytes to equal these byte for byte, their decoded trees to
equal these, and both to refuse the same damaged streams.

Unlike the kernels it does not bound the depth of the trees it
encodes; compare the two only on trees within ``MAX_VALUE_DEPTH``.  A
column table (a ``MessageSet``, a DAS ``EncryptedRows``) it writes as
the wire does, a list (or tuple) of ``tagged-message`` / ``das-tuple``
records, one record per ``(tag, payload)`` / ``(etuple, index_value)``
pair it iterates; and it reads such a list back into the column type,
one value at a time, refusing what the kernel refuses.
"""

from __future__ import annotations

from typing import Any

from repro.core.commutative import MessageSet
from repro.core.das import EncryptedRows
from repro.crypto.hybrid import HybridCiphertext
from repro.errors import CodecError, ValueCodecError
from repro.transport import codec
from repro.transport.codec import (
    _F64,
    _T_BYTES,
    _T_DICT,
    _T_EXT,
    _T_FALSE,
    _T_FLOAT,
    _T_FROZENSET,
    _T_INT,
    _T_LIST,
    _T_NONE,
    _T_REF,
    _T_SET,
    _T_STR,
    _T_TRUE,
    _T_TUPLE,
    _U32,
    MAX_VALUE_DEPTH,
    _canonical,
)

#: The record each pair of a column table travels as.
MESSAGE_RECORD = b"tagged-message"
ROW_RECORD = b"das-tuple"


class Encoder:
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
        elif type(value) is MessageSet:
            self._records(_T_LIST, MESSAGE_RECORD, value)
        elif type(value) is EncryptedRows:
            tag = _T_TUPLE if value.container is tuple else _T_LIST
            self._records(tag, ROW_RECORD, value)
        else:
            self._extension(value)

    def _records(self, tag: int, name: bytes, pairs: Any) -> None:
        """A column table: one ``name`` record per pair it iterates."""
        self._tag(tag)
        self._u32(len(pairs))
        for pair in pairs:
            self._tag(_T_EXT)
            self._chunks.append(bytes((len(name),)))
            self._chunks.append(name)
            self._value(tuple(pair))

    def _extension(self, value: Any) -> None:
        codec._bootstrap()
        extension = codec._BY_CLS.get(type(value))
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


class Decoder:
    """One decoding pass over a complete buffer.

    Every structural implausibility (truncation, impossible container
    counts, over-deep nesting, a domain constructor choking on a
    malformed payload) raises :class:`~repro.errors.ValueCodecError`.
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
        """A container count, sanity-checked against the bytes left."""
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
        if tag == _T_LIST or tag == _T_TUPLE:
            count = self._count()
            for name in (ROW_RECORD, MESSAGE_RECORD):
                if count and (name is ROW_RECORD or tag == _T_LIST) and (
                    self._data.startswith(self._head(name), self._offset)
                ):
                    return self._table(tag, name, count)
            items = [self._value() for _ in range(count)]
            return items if tag == _T_LIST else tuple(items)
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

    @staticmethod
    def _head(name: bytes) -> bytes:
        return bytes((_T_EXT, len(name))) + name + bytes((_T_TUPLE,)) + (
            _U32.pack(2)
        )

    def _table(self, tag: int, name: bytes, count: int) -> Any:
        """A list (or tuple) of ``name`` records, read as the column type
        they stand for: each record one level below the sequence, its
        two fields two levels further down."""
        pairs = []
        self._depth += 2
        try:
            for _ in range(count):
                if self._take(len(self._head(name))) != self._head(name):
                    raise ValueCodecError(
                        f"a table entry is not a {name.decode()} record"
                    )
                pairs.append((self._value(), self._value()))
        finally:
            self._depth -= 2
        if name is MESSAGE_RECORD:
            return MessageSet(
                tuple(tag_ for tag_, _ in pairs),
                tuple(payload for _, payload in pairs),
            )
        for etuple, index_value in pairs:
            if type(etuple) is not HybridCiphertext or (
                type(etuple.body) is not bytes
            ):
                raise ValueCodecError("a das-tuple's etuple is no hybrid ciphertext")
            if type(index_value) is not int:
                raise ValueCodecError("a das-tuple's index value is no int")
            first = pairs[0][0].wrapped_keys
            if etuple.wrapped_keys.digest() != first.digest():
                raise ValueCodecError(
                    "das rows of one table reference more than one encapsulation"
                )
        return EncryptedRows(
            pairs[0][0].wrapped_keys,
            tuple(etuple.body for etuple, _ in pairs),
            tuple(index_value for _, index_value in pairs),
            list if tag == _T_LIST else tuple,
        )

    def _ext(self) -> Any:
        codec._bootstrap()
        name_length = self._take(1)[0]
        try:
            name = self._take(name_length).decode("ascii")
        except UnicodeDecodeError as exc:
            raise ValueCodecError(f"malformed extension name: {exc}") from exc
        extension = codec._BY_NAME.get(name.encode("ascii"))
        if extension is None:
            raise ValueCodecError(f"unknown wire extension {name!r}")
        packed = self._value()
        try:
            value = extension.unpack(packed)
        except CodecError:
            raise
        except Exception as exc:
            raise ValueCodecError(
                f"malformed {name!r} extension payload: {exc}"
            ) from exc
        if extension.shareable:
            self._interned.append(value)
        return value


def encode_value(value: Any) -> bytes:
    return Encoder().encode(value)


def decode_value(data: bytes) -> Any:
    try:
        return Decoder(data).decode()
    except CodecError:
        raise
    except Exception as exc:
        raise ValueCodecError(f"undecodable value stream: {exc}") from exc


def encode_records(name: bytes, pairs: Any, container: type = list) -> bytes:
    """The list (or tuple) of ``name`` records holding ``pairs``, as the
    wire writes a column table — for any pairs, malformed ones too."""
    encoder = Encoder()
    encoder._records(_T_TUPLE if container is tuple else _T_LIST, name, pairs)
    return b"".join(encoder._chunks)
