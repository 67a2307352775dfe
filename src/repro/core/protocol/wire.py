"""Low-level wire primitives and the field kinds messages declare.

The paper serializes FlexRAN protocol messages with Google Protocol
Buffers and credits "their optimized serialization" for the sublinear
signaling growth of Fig. 7a.  Protobuf is not available offline, so the
reproduction implements the same family of primitives from scratch:
LEB128 varints, zigzag svarints, length-prefixed UTF-8 strings and byte
blobs, and homogeneous collections.  Wire sizes are therefore directly
comparable to a protobuf encoding of the same data.

Messages declare each field once with :func:`wire`, naming its wire
kind; :mod:`repro.core.protocol.codec` compiles the encoders and
decoders from those declarations and calls the ``put_*`` / ``get_*``
primitives below for the kinds it does not inline.

Encode and decode enforce the same 10-byte varint bound, so every
frame the encoder can produce is one the decoder will accept:
out-of-range values raise :class:`EncodeError` at the sender instead of
a :class:`DecodeError` at the receiver.  The ``get_*`` primitives take
``(data, pos)`` and return ``(value, next_pos)``; reading past the end
of *data* raises ``IndexError``, which the codec maps to
:class:`DecodeError` once per frame.
"""

from __future__ import annotations

from dataclasses import field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.protocol.errors import DecodeError, EncodeError

_MAX_VARINT_BYTES = 10

# A 10-byte LEB128 varint carries 10 x 7 = 70 payload bits, so the
# largest encodable unsigned value is 2^70 - 1.  Zigzag halves that
# range symmetrically around zero.
VARINT_BITS = 7 * _MAX_VARINT_BYTES
VARINT_LIMIT = 1 << VARINT_BITS
_SVARINT_MIN = -(VARINT_LIMIT >> 1)
_SVARINT_MAX = (VARINT_LIMIT >> 1) - 1

# -- field declarations -------------------------------------------------

_SCALAR_DEFAULTS = {"varint": 0, "byte": 0, "bool": False, "string": "",
                    "blob": b""}
_CONTAINER_FACTORIES = {"uints": list, "sints": list, "strings": list,
                        "records": list, "int_map": dict, "str_map": dict}
_NO_DEFAULT = object()


def wire(kind: str, default: Any = _NO_DEFAULT, *,
         of: Optional[type] = None):
    """Declare a dataclass field that travels on the wire as *kind*.

    Fields are encoded in declaration order.  ``record`` and
    ``records`` carry one or a list of the record class *of*; every
    other kind gets its natural zero default unless *default* is given.
    """
    meta = {"wire": kind, "of": of}
    if kind in ("record", "records") and of is None:
        raise TypeError(f"wire kind {kind!r} needs of=<record class>")
    if kind == "record":
        return field(default_factory=of, metadata=meta)
    if kind in _CONTAINER_FACTORIES:
        return field(default_factory=_CONTAINER_FACTORIES[kind],
                     metadata=meta)
    if kind not in _SCALAR_DEFAULTS:
        raise ValueError(f"unknown wire kind {kind!r}")
    if default is _NO_DEFAULT:
        default = _SCALAR_DEFAULTS[kind]
    return field(default=default, metadata=meta)


# -- encoding: append to a bytearray ------------------------------------


def put_varint(buf: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if 0 <= value < 0x80:
        buf.append(value)
        return
    if value < 0:
        raise EncodeError(f"varint cannot encode negative value {value}")
    if value >= VARINT_LIMIT:
        raise EncodeError(
            f"varint out of range: {value} needs more than "
            f"{_MAX_VARINT_BYTES} bytes")
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def zigzag(value: int) -> int:
    """Map a signed int onto an unsigned one (``2v`` or ``-2v - 1``).

    Width-free: no 64-bit assumption, so values outside the 10-byte
    varint range raise :class:`EncodeError` instead of wrapping.
    """
    if value < _SVARINT_MIN or value > _SVARINT_MAX:
        raise EncodeError(
            f"svarint out of range: {value} not in "
            f"[{_SVARINT_MIN}, {_SVARINT_MAX}]")
    return (value << 1) if value >= 0 else ~(value << 1)


def put_byte(buf: bytearray, value: int) -> None:
    if not 0 <= value <= 0xFF:
        raise EncodeError(f"byte out of range: {value}")
    buf.append(value)


def put_blob(buf: bytearray, data: bytes) -> None:
    put_varint(buf, len(data))
    buf += data


def put_string(buf: bytearray, text: str) -> None:
    put_blob(buf, text.encode("utf-8"))


def put_strings(buf: bytearray, items: List[str]) -> None:
    put_varint(buf, len(items))
    for text in items:
        put_string(buf, text)


def _put_run(buf: bytearray, value: int, n: int) -> None:
    """Append *n* copies of one unsigned varint: one encoding, repeated."""
    one = bytearray()
    put_varint(one, value)
    buf += one * n


def _put_elements(buf: bytearray, items: List[int]) -> None:
    """Append the varints of a non-empty list, uniform widths in bulk.

    min/max run at C speed: a constant run repeats one encoding, a
    1-byte list is its own encoding, and a 2-byte list fills the even
    and odd byte strides.
    """
    lo, hi = min(items), max(items)
    if lo == hi:
        _put_run(buf, lo, len(items))
    elif lo >= 0 and hi < 0x80:
        buf += bytes(items)
    elif lo >= 0x80 and hi < 0x4000:
        pairs = bytearray(2 * len(items))
        pairs[0::2] = bytes([(v & 0x7F) | 0x80 for v in items])
        pairs[1::2] = bytes([v >> 7 for v in items])
        buf += pairs
    else:
        for v in items:
            put_varint(buf, v)


def put_uints(buf: bytearray, values) -> None:
    """Append a length-prefixed list of unsigned varints."""
    items = values if type(values) is list else list(values)
    put_varint(buf, len(items))
    if items:
        _put_elements(buf, items)


def put_sints(buf: bytearray, values) -> None:
    """Append a length-prefixed list of zigzag svarints."""
    items = values if type(values) is list else list(values)
    put_varint(buf, len(items))
    if not items:
        return
    lo, hi = min(items), max(items)
    if lo == hi:
        _put_run(buf, zigzag(lo), len(items))
        return
    zigzag(lo)
    zigzag(hi)  # range-checks every element
    _put_elements(buf, [(v << 1) if v >= 0 else ~(v << 1) for v in items])


def put_int_map(buf: bytearray, mapping: Dict[int, int]) -> None:
    """Append a varint -> varint map in sorted-key order."""
    put_varint(buf, len(mapping))
    for key in (mapping if len(mapping) < 2 else sorted(mapping)):
        put_varint(buf, key)
        put_varint(buf, mapping[key])


def put_str_map(buf: bytearray, mapping: Dict[str, str]) -> None:
    """Append a string -> string map in sorted-key order."""
    put_varint(buf, len(mapping))
    for key in sorted(mapping):
        put_string(buf, key)
        put_string(buf, mapping[key])


# -- decoding: (data, pos) -> (value, next pos) -------------------------


def get_varint(data: bytes, pos: int) -> Tuple[int, int]:
    byte = data[pos]
    if byte < 0x80:
        return byte, pos + 1
    result = 0
    shift = 0
    for pos in range(pos, pos + _MAX_VARINT_BYTES):
        byte = data[pos]
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos + 1
        shift += 7
    raise DecodeError("varint longer than 10 bytes")


def get_byte(data: bytes, pos: int) -> Tuple[int, int]:
    return data[pos], pos + 1


def get_blob(data: bytes, pos: int) -> Tuple[bytes, int]:
    n, pos = get_varint(data, pos)
    end = pos + n
    if end > len(data):
        raise DecodeError(
            f"truncated field: need {n} bytes, have {len(data) - pos}")
    return data[pos:end], end


def get_string(data: bytes, pos: int) -> Tuple[str, int]:
    raw, pos = get_blob(data, pos)
    try:
        return raw.decode("utf-8"), pos
    except UnicodeDecodeError as exc:
        raise DecodeError(f"invalid UTF-8 in string field: {exc}") from None


def get_strings(data: bytes, pos: int) -> Tuple[List[str], int]:
    n, pos = get_varint(data, pos)
    out = []
    for _ in range(n):
        text, pos = get_string(data, pos)
        out.append(text)
    return out, pos


def _get_elements(data: bytes, pos: int) -> Tuple[List[int], int, bool]:
    """Read a length-prefixed varint list: ``(items, next pos, run)``.

    Uniform widths are read in bulk: a 1-byte list is one slice, a
    constant 2-byte run one repeated pair (``run`` is then True), any
    other 2-byte list the even and odd byte strides.
    """
    n, pos = get_varint(data, pos)
    if not n:
        return [], pos, False
    end = pos + n
    if end > len(data):  # every element takes at least one byte
        raise DecodeError(f"truncated list: {n} elements, "
                          f"{len(data) - pos} bytes left")
    first = data[pos]
    if first < 0x80:
        chunk = data[pos:end]
        if max(chunk) < 0x80:
            return list(chunk), end, False
    elif end + n <= len(data) and data[pos + 1] < 0x80:
        chunk = data[pos:end + n]
        if chunk == chunk[:2] * n:
            return [(first & 0x7F) | (chunk[1] << 7)] * n, end + n, True
        low, high = chunk[0::2], chunk[1::2]
        if min(low) >= 0x80 and max(high) < 0x80:
            return ([(a & 0x7F) | (b << 7) for a, b in zip(low, high)],
                    end + n, False)
    out = []
    for _ in range(n):
        value, pos = get_varint(data, pos)
        out.append(value)
    return out, pos, False


def get_uints(data: bytes, pos: int) -> Tuple[List[int], int]:
    items, pos, _ = _get_elements(data, pos)
    return items, pos


def get_sints(data: bytes, pos: int) -> Tuple[List[int], int]:
    items, pos, run = _get_elements(data, pos)
    if run:
        v = items[0]
        return [(v >> 1) ^ -(v & 1)] * len(items), pos
    return [(v >> 1) ^ -(v & 1) for v in items], pos


def get_int_map(data: bytes, pos: int) -> Tuple[Dict[int, int], int]:
    n, pos = get_varint(data, pos)
    out = {}
    for _ in range(n):
        key, pos = get_varint(data, pos)
        out[key], pos = get_varint(data, pos)
    return out, pos


def get_str_map(data: bytes, pos: int) -> Tuple[Dict[str, str], int]:
    n, pos = get_varint(data, pos)
    out = {}
    for _ in range(n):
        key, pos = get_string(data, pos)
        out[key], pos = get_string(data, pos)
    return out, pos


# -- field-at-a-time access ---------------------------------------------


class Writer:
    """Append-only wire buffer writing one field at a time."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def varint(self, value: int) -> "Writer":
        put_varint(self._buf, value)
        return self

    def svarint(self, value: int) -> "Writer":
        put_varint(self._buf, zigzag(value))
        return self

    def byte(self, value: int) -> "Writer":
        put_byte(self._buf, value)
        return self

    def string(self, text: str) -> "Writer":
        put_string(self._buf, text)
        return self

    def blob(self, data: bytes) -> "Writer":
        put_blob(self._buf, data)
        return self

    def varint_list(self, values) -> "Writer":
        put_uints(self._buf, values)
        return self

    def svarint_list(self, values) -> "Writer":
        put_sints(self._buf, values)
        return self

    def int_map(self, mapping: Dict[int, int]) -> "Writer":
        put_int_map(self._buf, mapping)
        return self

    def str_map(self, mapping: Dict[str, str]) -> "Writer":
        put_str_map(self._buf, mapping)
        return self

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class Reader:
    """Sequential wire-buffer reader, one field at a time."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def _read(self, get):
        try:
            value, self._pos = get(self._data, self._pos)
        except IndexError:
            raise DecodeError("truncated field") from None
        return value

    def varint(self) -> int:
        return self._read(get_varint)

    def svarint(self) -> int:
        # The 10-byte varint cap mirrors the encoder's range check:
        # every decodable zigzag value lies inside
        # [_SVARINT_MIN, _SVARINT_MAX], so round-trips are total.
        raw = self.varint()
        return (raw >> 1) ^ -(raw & 1)

    def byte(self) -> int:
        return self._read(get_byte)

    def string(self) -> str:
        return self._read(get_string)

    def blob(self) -> bytes:
        return self._read(get_blob)

    def varint_list(self) -> List[int]:
        return self._read(get_uints)

    def svarint_list(self) -> List[int]:
        return self._read(get_sints)

    def int_map(self) -> Dict[int, int]:
        return self._read(get_int_map)

    def str_map(self) -> Dict[str, str]:
        return self._read(get_str_map)

    def expect_end(self) -> None:
        if self.remaining:
            raise DecodeError(f"{self.remaining} trailing bytes after message")


def varint_size(value: int) -> int:
    """Encoded size of an unsigned varint, in bytes."""
    if value < 0:
        raise EncodeError(f"varint cannot encode negative value {value}")
    if value >= VARINT_LIMIT:
        raise EncodeError(
            f"varint out of range: {value} needs more than "
            f"{_MAX_VARINT_BYTES} bytes")
    if value < 0x80:
        return 1
    return (value.bit_length() + 6) // 7
