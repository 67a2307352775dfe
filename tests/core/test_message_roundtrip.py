"""Property-based round-trips for every protocol message dataclass.

The strategies are derived from the message declarations themselves
(each field's wire kind), so a new message or field is covered without
editing this file.  For each registered message type we build random
instances (covering the full varint value range, signed lists, string
maps and nested report records) and assert ``decode(encode(msg)) ==
msg``, that the frame is fully consumed (trailing bytes are rejected),
and that ``encoded_size`` agrees with the frame length.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.protocol.codec import decode, encode, encoded_size
from repro.core.protocol.errors import DecodeError
from repro.core.protocol.messages import MESSAGE_TYPES

# Field strategies per wire kind.  UVAR spans the full 10-byte varint
# range (byte counters accumulate past 2^63); SVAR exercises signed
# fields (SINR, noise) well past the 2^63 boundary the old zigzag broke
# at.
UVAR = st.integers(min_value=0, max_value=2 ** 70 - 1)
SVAR = st.integers(min_value=-(2 ** 69), max_value=2 ** 69 - 1)
SHORT = st.text(max_size=20)
KIND_STRATEGIES = {
    "varint": UVAR,
    "byte": st.integers(min_value=0, max_value=255),
    "bool": st.booleans(),
    "string": SHORT,
    "blob": st.binary(max_size=40),
    "strings": st.lists(SHORT, max_size=4),
    "uints": st.lists(UVAR, max_size=6),
    "sints": st.lists(SVAR, max_size=6),
    "int_map": st.dictionaries(UVAR, UVAR, max_size=5),
    "str_map": st.dictionaries(SHORT, SHORT, max_size=5),
}


def strategy_for(cls):
    """Instances of *cls* with every declared field drawn by its kind."""
    fields = {}
    for f in dataclasses.fields(cls):
        kind, of = f.metadata["wire"], f.metadata["of"]
        if kind == "record":
            fields[f.name] = strategy_for(of)
        elif kind == "records":
            fields[f.name] = st.lists(strategy_for(of), max_size=3)
        else:
            fields[f.name] = KIND_STRATEGIES[kind]
    return st.builds(cls, **fields)


MESSAGE_STRATEGIES = {cls: strategy_for(cls)
                      for cls in MESSAGE_TYPES.values()}

ALL_CLASSES = sorted(MESSAGE_TYPES.values(), key=lambda c: c.MSG_TYPE)


def test_every_registered_type_has_a_strategy():
    # strategy_for raises KeyError on a wire kind without a strategy,
    # so building the table at import already covers every field.
    assert set(MESSAGE_STRATEGIES) == set(MESSAGE_TYPES.values())


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_roundtrip(cls, data):
    msg = data.draw(MESSAGE_STRATEGIES[cls])
    frame = encode(msg)
    assert encoded_size(msg) == len(frame)
    decoded = decode(frame)
    assert type(decoded) is cls
    assert decoded == msg


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.__name__)
def test_trailing_bytes_rejected(cls):
    """decode() must consume the whole frame (expect_end holds)."""
    frame = encode(cls())
    with pytest.raises(DecodeError):
        decode(frame + b"\x00")
