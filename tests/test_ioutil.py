"""``canonical_json`` is byte-for-byte the stdlib's indented, sorted JSON.

It must equal ``json.dumps(x, indent=2, sort_keys=True) + "\\n"`` on
every JSON-shaped payload, and raise the stdlib's exception on anything
the stdlib cannot encode.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.ioutil import canonical_json


def stdlib(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- strategies -------------------------------------------------------------

# Every code point, lone surrogates and control characters included, plus
# the characters the escaper treats specially.
characters = st.characters(exclude_categories=())
special_text = st.sampled_from(
    ["", "\x00", "\x1f", "\x7f", '"', "\\", "/", " ", "é", "😀", "\ud800", "\udfff"]
)
texts = st.one_of(st.text(characters, max_size=12), special_text)

special_floats = st.sampled_from(
    [0.0, -0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308]
    + [math.nan, math.inf, -math.inf]
)
special_ints = st.sampled_from([0, -1, 2**53 + 1, 2**63, -(2**64), 10**100])

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    special_ints,
    st.floats(),
    special_floats,
    texts,
)

json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400)
@given(json_values)
def test_matches_stdlib(payload):
    assert canonical_json(payload) == stdlib(payload)


@settings(max_examples=100)
@given(st.dictionaries(texts, json_values, max_size=6))
def test_matches_stdlib_for_tables(payload):
    assert canonical_json(payload) == stdlib(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": (), "d": [[], {}, [[]]]},
        ([(), ()], {"x": ([],)}),
        [True, 1, False, 0, 1.0, None],
        {"flag": True, "count": 1, "zero": False, "none": None},
        {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "neg0": -0.0},
        {"big": 10**100, "float": 1e16},
        {"ключ": "значение", "\ud800": "\udfff", "\x00": "\x1f"},
        "top-level string",
        42,
        None,
    ],
)
def test_edge_payloads(payload):
    assert canonical_json(payload) == stdlib(payload)


def self_referencing_list():
    items: list = [1]
    items.append(items)
    return items


def self_referencing_dict():
    table: dict = {}
    table["self"] = table
    return table


@pytest.mark.parametrize(
    "make",
    [
        lambda: {"a": 1, 2: 3},
        lambda: {"values": {1, 2}},
        lambda: [object()],
        lambda: [1, b"bytes"],
        self_referencing_list,
        self_referencing_dict,
        lambda: {"n": 10**5000},
    ],
    ids=[
        "unsortable-keys",
        "set",
        "object",
        "bytes",
        "cyclic-list",
        "cyclic-dict",
        "huge-int",
    ],
)
def test_errors_match_stdlib(make):
    with pytest.raises(Exception) as expected:
        stdlib(make())
    with pytest.raises(type(expected.value)) as raised:
        canonical_json(make())
    assert str(raised.value) == str(expected.value)
