"""Framing, and the codec compiled from the message declarations.

Frame layout::

    [1 byte  message type]
    [varint  agent id]
    [varint  transaction id]
    [varint  TTI stamp]
    [payload, message-specific]

Every message the platform exchanges goes through ``encode``/``decode``
-- also in simulation, so the signaling-overhead measurements of Fig. 7
count real serialized bytes and the decode path is exercised end-to-end
on every TTI.

At import, each message and record class's field declarations (see
:func:`repro.core.protocol.wire.wire`) are compiled into one
straight-line encode and one decode function, as :mod:`dataclasses`
compiles ``__init__``.  The generated code inlines varints, bytes,
bools, nested records and empty length-prefixed values, and calls the
:mod:`~repro.core.protocol.wire` primitives for strings, lists and maps.
A decoder reads with plain indexing: running off the end of the frame
raises ``IndexError``, mapped to :class:`DecodeError` once per frame,
and bytes left over after the last field are rejected.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.core.protocol import wire
from repro.core.protocol.errors import (
    DecodeError,
    EncodeError,
    RetiredMessageType,
    UnknownMessageType,
)
from repro.core.protocol.messages import (
    MESSAGE_TYPES,
    RETIRED_MESSAGE_TYPES,
    FlexRanMessage,
)

# Length-prefixed kinds, encoded and decoded by one call to
# wire.put_<kind> / wire.get_<kind>, and the literal of their empty value.
_EMPTY = {"string": "''", "blob": "b''", "strings": "[]", "uints": "[]",
          "sints": "[]", "int_map": "{}", "str_map": "{}"}


class _Source:
    """Lines of one generated function, with fresh local names."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._n = 0

    def name(self, stem: str) -> str:
        self._n += 1
        return f"{stem}{self._n}"

    def add(self, depth: int, *lines: str) -> None:
        self.lines.extend("    " * depth + line for line in lines)


def _schema(cls):
    for f in dataclasses.fields(cls):
        if "wire" not in f.metadata:
            raise TypeError(f"{cls.__name__}.{f.name} has no wire kind; "
                            f"declare it with wire(...)")
        yield f.name, f.metadata["wire"], f.metadata["of"]


def _records(cls, found: Dict[type, None]) -> None:
    """Collect every record class reachable from *cls*, depth first."""
    for _, _, of in _schema(cls):
        if of is not None and of not in found:
            _records(of, found)
            found[of] = None


# -- encode -------------------------------------------------------------


def _put_varint(src: _Source, depth: int, expr: str) -> None:
    v = src.name("v")
    src.add(depth,
            f"{v} = {expr}",
            f"if 0 <= {v} < 0x80:",
            f"    append({v})",
            f"elif 0x80 <= {v} < 0x4000:",
            f"    append(({v} & 0x7F) | 0x80)",
            f"    append({v} >> 7)",
            f"elif 0x4000 <= {v} < VARINT_LIMIT:",
            f"    while {v} >= 0x80:",
            f"        append(({v} & 0x7F) | 0x80)",
            f"        {v} >>= 7",
            f"    append({v})",
            "else:",
            f"    put_varint(buf, {v})  # raises EncodeError")


def _encode_fields(src: _Source, depth: int, cls, obj: str) -> None:
    for name, kind, of in _schema(cls):
        value = f"{obj}.{name}"
        if kind == "varint":
            _put_varint(src, depth, value)
        elif kind == "byte":
            v = src.name("v")
            src.add(depth,
                    f"{v} = {value}",
                    f"if 0 <= {v} <= 0xFF:",
                    f"    append({v})",
                    "else:",
                    f"    put_byte(buf, {v})")
        elif kind == "bool":
            src.add(depth, f"append(1 if {value} else 0)")
        elif kind == "record":
            record = src.name("r")
            src.add(depth, f"{record} = {value}")
            _encode_fields(src, depth, of, record)
        elif kind == "records":
            items, record = src.name("items"), src.name("r")
            src.add(depth, f"{items} = {value}")
            _put_varint(src, depth, f"len({items})")
            src.add(depth, f"for {record} in {items}:")
            _encode_fields(src, depth + 1, of, record)
        else:
            # Length-prefixed kinds: an empty value is one zero byte.
            v = src.name("v")
            src.add(depth,
                    f"{v} = {value}",
                    f"if not {v}:",
                    "    append(0)",
                    "else:",
                    f"    put_{kind}(buf, {v})")


# -- decode -------------------------------------------------------------


def _get_varint(src: _Source, depth: int, target: str) -> None:
    src.add(depth,
            f"{target} = data[pos]",
            "pos += 1",
            f"if {target} >= 0x80:",
            f"    {target} &= 0x7F",
            "    shift = 7",
            "    while True:",
            "        b = data[pos]",
            "        pos += 1",
            f"        {target} |= (b & 0x7F) << shift",
            "        if b < 0x80:",
            "            break",
            "        shift += 7",
            "        if shift == VARINT_BITS:",
            "            raise DecodeError('varint longer than 10 bytes')")


def _decode_fields(src: _Source, depth: int, cls) -> str:
    """Emit the decode of one *cls* instance; returns its local name."""
    entries = []
    for name, kind, of in _schema(cls):
        x = src.name("x")
        if kind == "varint":
            _get_varint(src, depth, x)
        elif kind in ("byte", "bool"):
            test = " != 0" if kind == "bool" else ""
            src.add(depth, f"{x} = data[pos]{test}", "pos += 1")
        elif kind == "record":
            x = _decode_fields(src, depth, of)
        elif kind == "records":
            n, add = src.name("n"), src.name("add")
            _get_varint(src, depth, n)
            src.add(depth, f"{x} = []", f"{add} = {x}.append",
                    f"for _ in range({n}):")
            record = _decode_fields(src, depth + 1, of)
            src.add(depth + 1, f"{add}({record})")
        else:
            src.add(depth,
                    "if data[pos] == 0:",
                    f"    {x} = {_EMPTY[kind]}",
                    "    pos += 1",
                    "else:",
                    f"    {x}, pos = get_{kind}(data, pos)")
        entries.append(f"{name!r}: {x}")
    # Bypass the dataclass __init__ (one keyword binding per field):
    # the instance dict is the whole object state.
    obj = src.name("o")
    src.add(depth, f"{obj} = new({cls.__name__})",
            f"{obj}.__dict__ = {{{', '.join(entries)}}}")
    return obj


# -- compile ------------------------------------------------------------


_HELPERS = {
    **{f"put_{kind}": getattr(wire, f"put_{kind}") for kind in _EMPTY},
    **{f"get_{kind}": getattr(wire, f"get_{kind}") for kind in _EMPTY},
    "put_varint": wire.put_varint, "put_byte": wire.put_byte,
    "VARINT_LIMIT": wire.VARINT_LIMIT, "VARINT_BITS": wire.VARINT_BITS,
    "DecodeError": DecodeError,
    "new": object.__new__,
}


def _compile(cls, msg_type, classes: Dict[str, type]):
    """Build (encode, decode) for *cls*; with *msg_type*, at frame level."""
    enc = _Source()
    prefix = repr(bytes((msg_type,))) if msg_type is not None else ""
    enc.add(0, "def encode(m):")
    enc.add(1, f"buf = bytearray({prefix})", "append = buf.append")
    _encode_fields(enc, 1, cls, "m")
    enc.add(1, "return bytes(buf)")

    dec = _Source()
    dec.add(0, "def decode(data):",
            f"    pos = {0 if msg_type is None else 1}",
            "    try:")
    obj = _decode_fields(dec, 2, cls)
    dec.add(1,
            "except IndexError:",
            f"    raise DecodeError('truncated {cls.__name__}') from None",
            "if pos != len(data):",
            "    raise DecodeError(f'{len(data) - pos} trailing bytes "
            "after message')",
            f"return {obj}")

    namespace = {**_HELPERS, **classes}
    source = "\n".join(enc.lines + dec.lines)
    exec(compile(source, f"<wire codec for {cls.__name__}>", "exec"),
         namespace)
    return namespace["encode"], namespace["decode"]


def _build():
    records: Dict[type, None] = {}
    for cls in MESSAGE_TYPES.values():
        _records(cls, records)
    classes = {c.__name__: c for c in [*records, *MESSAGE_TYPES.values()]}
    encoders, decoders = {}, {}
    for msg_type, cls in MESSAGE_TYPES.items():
        encoders[cls], decoders[msg_type] = _compile(cls, msg_type, classes)
    return encoders, decoders, {c: _compile(c, None, classes)
                                for c in records}


_ENCODERS, _DECODERS, _RECORDS = _build()


def encode(message: FlexRanMessage) -> bytes:
    """Serialize *message* into a wire frame."""
    try:
        encoder = _ENCODERS[message.__class__]
    except KeyError:
        raise EncodeError(f"{type(message).__name__} is not a registered "
                          f"message type") from None
    return encoder(message)


def decode(frame: bytes) -> FlexRanMessage:
    """Parse a wire frame back into a message instance."""
    if not frame:
        raise DecodeError("empty frame")
    msg_type = frame[0]
    try:
        decoder = _DECODERS[msg_type]
    except KeyError:
        retired = RETIRED_MESSAGE_TYPES.get(msg_type)
        if retired is not None:
            raise RetiredMessageType(
                f"message type {msg_type} ({retired}) was removed from "
                f"this protocol; the sender speaks a deprecated dialect "
                f"and must be upgraded") from None
        raise UnknownMessageType(f"unknown message type {msg_type}") from None
    return decoder(frame)


def encoded_size(message: FlexRanMessage) -> int:
    """Wire size of *message* in bytes (the Fig. 7 accounting unit)."""
    return len(encode(message))


def encode_record(record) -> bytes:
    """Serialize one record (e.g. a :class:`UeStatsReport`), unframed."""
    return _RECORDS[type(record)][0](record)


def decode_record(cls, data: bytes):
    """Parse bytes from :func:`encode_record` back into a *cls* record."""
    return _RECORDS[cls][1](data)
