"""The command log's record format: one checksummed frame per record.

A frame is a ``>III`` header — the body's length (below 2**30, so a frame
never starts with ``{``), the body's CRC32, a CRC32 of those 8 bytes — and
the body.  A torn append leaves a prefix of correct bytes, so a whole header
or body that fails its check is corruption wherever it sits (a damaged
length never passes for a torn tail); only a frame running past the end of
the bytes is torn.

The body is the tagged tuple ``(lsn, txn_id, procedure, params, partition,
logical_time)``: None, True, False; ints 0-127 in the tag byte, else 1 to 8
bytes or length-prefixed; floats as 8 IEEE bytes (NaN, ±inf, -0.0 exact);
str as UTF-8 (lone surrogates kept); tuple, list and dict as a count (one
byte under a lower-case tag, four under upper case), then the items, a
dict's keys and values alternating.  Two or more equal-length rows of
int64, float or bool columns are packed by one cached ``struct.Struct``.
So ``decode(encode(r)) == r`` type for type; any other type raises.
"""

from __future__ import annotations

import struct
from functools import lru_cache, partial
from itertools import chain, starmap
from typing import Any
from zlib import crc32

from repro.errors import RecoveryError, ReproError
from repro.hstore.cmdlog import LogRecord

__all__ = ["encode_frame", "decode_frame"]

_HEADER = struct.Struct(">III")
_PREFIX = struct.Struct(">II")
_MAX_BODY = 1 << 30

_STR8, _STR32, _BIG, _ROWS, _SMALL = b"sSIR\x80"  # _SMALL | n holds 0 <= n < 128
_CONSTANT = {ord("N"): None, ord("Y"): True, ord("F"): False}
_CONSTANT_TAG = {value: bytes([tag]) for tag, value in _CONSTANT.items()}
#: fixed-width scalars (ints narrowed to fit, floats): the tag is the struct code
_FIXED = {tag: struct.Struct(">" + chr(tag)) for tag in b"bhiqd"}
_PACK = {code: partial(struct.Struct(">B" + code).pack, ord(code)) for code in "bhiqd"}
_PACK_HEAD32 = struct.Struct(">BI").pack
_PACK_ROWS = struct.Struct(">BIB").pack
_UNPACK_U32 = struct.Struct(">I").unpack_from
_SMALL_INT = [bytes([_SMALL | n]) for n in range(128)]
_STR8_HEAD = [bytes([_STR8, n]) for n in range(256)]
#: container tags: lower case takes a 1-byte count, upper case a 4-byte one
_CONTAINER_TAG = {tuple: ord("t"), list: ord("l"), dict: ord("m")}
_TUPLE, _LIST, _DICT = _CONTAINER_TAG.values()
_BUILD = {_TUPLE: tuple, _LIST: list, _DICT: lambda items: dict(zip(items[::2], items[1::2]))}
#: packed-row column codes by type; ints narrow to the column's range
_ROW_CODE = {float: "d", bool: "?"}
#: the narrowest int code by bit length, not counting the sign
_INT_CODES = "b" * 8 + "h" * 8 + "i" * 16 + "q" * 32
#: one compiled ``struct.Struct`` per row shape (column codes)
_row_struct = lru_cache(maxsize=256)(lambda code: struct.Struct(">" + code))


def encode_frame(record: LogRecord) -> bytes:
    """One record's frame: header, then the tagged body."""
    out: list[bytes] = []
    fields = (record.lsn, record.txn_id, record.procedure, record.params)
    _put(fields + (record.partition, record.logical_time), out)
    body = b"".join(out)
    if len(body) >= _MAX_BODY:
        raise ReproError(f"log record {record.lsn} is {len(body)} bytes, over 1 GiB")
    prefix = _PREFIX.pack(len(body), crc32(body))
    return prefix + crc32(prefix).to_bytes(4, "big") + body


def decode_frame(buf: bytes, pos: int) -> tuple[LogRecord, int] | None:
    """The record framed at ``buf[pos:]`` and the offset just past it, or
    ``None`` when the bytes end inside the frame (a torn tail).  A header
    or body that fails its check raises :class:`RecoveryError`."""
    body_at = pos + _HEADER.size
    if len(buf) < body_at:
        return None
    length, body_crc, head_crc = _HEADER.unpack_from(buf, pos)
    if crc32(buf[pos : pos + 8]) != head_crc:
        raise RecoveryError("frame header fails its check")
    end = body_at + length
    if len(buf) < end:
        return None
    body = buf[body_at:end]
    if crc32(body) != body_crc:
        raise RecoveryError("frame body fails its CRC32")
    try:
        fields, used = _get(body, 0)
        if used != length or type(fields) is not tuple:
            raise ValueError(f"{length - used} bytes past the record")
        return LogRecord(*fields), end
    except (IndexError, KeyError, TypeError, ValueError, struct.error) as exc:
        raise RecoveryError(f"undecodable frame body: {exc}") from exc


def _put(value: tuple | list | dict, out: list[bytes]) -> None:
    """Append ``value``'s tagged bytes to ``out``; scalars are written in
    the loop, only nested containers recurse."""
    append = out.append
    kind = type(value)
    if kind not in _CONTAINER_TAG:
        raise ReproError(f"the command log cannot encode a value of type {kind.__name__}")
    count = len(value)
    if kind is tuple and count > 1 and type(value[0]) is tuple and _put_rows(value, out):
        return
    tag = _CONTAINER_TAG[kind]
    append(bytes((tag, count)) if count < 256 else _PACK_HEAD32(tag & ~0x20, count))
    for item in chain.from_iterable(value.items()) if kind is dict else value:
        kind = type(item)
        if kind is str:
            data = item.encode("utf-8", "surrogatepass")
            size = len(data)
            append(_STR8_HEAD[size] if size < 256 else _PACK_HEAD32(_STR32, size))
            append(data)
        elif kind is int:
            if 0 <= item < 128:
                append(_SMALL_INT[item])
            elif -(1 << 63) <= item < 1 << 63:
                append(_PACK[_INT_CODES[(item if item >= 0 else ~item).bit_length()]](item))
            else:
                data = item.to_bytes(item.bit_length() // 8 + 1, "big", signed=True)
                append(_PACK_HEAD32(_BIG, len(data)))
                append(data)
        elif kind is float:
            append(_PACK["d"](item))
        elif item is None or kind is bool:
            append(_CONSTANT_TAG[item])
        else:
            _put(item, out)


def _put_rows(rows: tuple, out: list[bytes]) -> bool:
    """Pack ``rows`` with one struct if every column has one numeric type;
    False (nothing written) when they do not qualify."""
    width = len(rows[0])
    if not 0 < width < 256 or set(map(type, rows)) != {tuple} or set(map(len, rows)) != {width}:
        return False
    codes = []
    for column in zip(*rows):
        kinds = set(map(type, column))
        kind = kinds.pop()
        if kinds:
            return False
        if kind in _ROW_CODE:
            codes.append(_ROW_CODE[kind])
            continue
        bits = max(~min(column), max(column)).bit_length() if kind is int else 64
        if bits >= 64:
            return False
        codes.append(_INT_CODES[bits])
    code = "".join(codes)
    out.append(_PACK_ROWS(_ROWS, len(rows), width))
    out.append(code.encode("ascii"))
    out.append(b"".join(starmap(_row_struct(code).pack, rows)))
    return True


def _get(buf: bytes, pos: int) -> tuple[Any, int]:
    """The container whose tag is at ``buf[pos]``, and the offset past it."""
    tag = buf[pos]
    if tag == _ROWS:
        count, start = _UNPACK_U32(buf, pos + 1)[0], pos + 6 + buf[pos + 5]
        row = _row_struct(buf[pos + 6 : start].decode("ascii"))
        end = start + count * row.size
        return tuple(row.iter_unpack(buf[start:end])), end
    if tag & 0x20:  # lower case: a 1-byte count
        count, pos = buf[pos + 1], pos + 2
    else:
        count, pos, tag = _UNPACK_U32(buf, pos + 1)[0], pos + 5, tag | 0x20
    items: list[Any] = []
    append = items.append
    for _ in range(2 * count if tag == _DICT else count):
        item = buf[pos]
        if item >= _SMALL:
            append(item - _SMALL)
            pos += 1
        elif item == _STR8:
            end = pos + 2 + buf[pos + 1]
            append(buf[pos + 2 : end].decode("utf-8", "surrogatepass"))
            pos = end
        elif item in _FIXED:
            fixed = _FIXED[item]
            append(fixed.unpack_from(buf, pos + 1)[0])
            pos += 1 + fixed.size
        elif item in _CONSTANT:
            append(_CONSTANT[item])
            pos += 1
        elif item == _STR32 or item == _BIG:
            end = pos + 5 + _UNPACK_U32(buf, pos + 1)[0]
            data, pos = buf[pos + 5 : end], end
            if item == _STR32:
                append(data.decode("utf-8", "surrogatepass"))
            else:
                append(int.from_bytes(data, "big", signed=True))
        else:
            value, pos = _get(buf, pos)
            append(value)
    return _BUILD[tag](items), pos  # KeyError: the tag starts no container
