"""The report writer cannot drift from the stdlib encoder.

``cli._dumps`` must equal ``json.dumps(obj, indent=2, sort_keys=True)``
byte for byte on every JSON value, including the spellings the encoder
owns (``1e-09``, ``NaN``, ``-0.0``, escaped non-ASCII) and the edge-list
shape that the writer renders through a template.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlanroute.cli import _dumps


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


strings = st.text() | st.sampled_from(["", "é", "☃", "\U0001d11e", "\ud800", '"', "\\",
                                       "\n\t\r\x00\x1f\x7f", "1.1", "2.10", "%s", "%%"])
floats = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e-9,
                                        1e16, 0.1, 5e-324])
ints = st.integers() | st.sampled_from([2**63, -(2**70), 10**30])
scalars = st.none() | st.booleans() | ints | floats | strings
# the edge lists of a trace, and shapes one step away from them
pairs = st.lists(st.lists(strings, min_size=2, max_size=2) | st.tuples(strings, strings), min_size=1)
near_pairs = st.lists(
    st.lists(strings, min_size=2, max_size=2)
    | st.tuples(strings, ints)
    | st.lists(strings, min_size=0, max_size=3)
    | st.lists(strings | ints, max_size=3),
    min_size=1,
)
flat_lists = st.lists(strings) | st.lists(ints) | st.lists(strings | ints | st.booleans())
keyed = (st.dictionaries(strings, scalars) | st.dictionaries(ints, scalars)
         | st.dictionaries(st.floats(), scalars) | st.dictionaries(st.booleans(), scalars)
         | st.dictionaries(st.none(), scalars))
values = st.recursive(
    scalars | pairs | near_pairs | flat_lists | keyed,
    lambda children: (st.lists(children) | st.tuples(children, children)
                      | st.dictionaries(strings, children)),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(values)
@example([["1.1", "2.1"], ["1.1", "2.2"]])
@example({"pre": {"edges": [["1.1", "2.1"]]}, "post": {"edges": []}, "step": 0})
@example([["a", 1]])
@example([["a", "b", "c"], ["a", "b"]])
@example([["a", "b"], ("c", "d"), []])
@example(["a", 1, "b", 2])
def test_writer_equals_the_encoder(obj):
    assert _dumps(obj) == reference(obj)


@pytest.mark.parametrize("depth", [1, 5, 60])
def test_writer_equals_the_encoder_on_deep_nesting(depth):
    obj = [["1.1", "2.1"]]
    for level in range(depth):
        obj = {"level": level, "inner": [obj, (), {}, 1e-9]}
    assert _dumps(obj) == reference(obj)


@pytest.mark.parametrize("obj", [{(1, 2): 0}, [object()], {"a": {1, 2}}])
def test_writer_rejects_what_the_encoder_rejects(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        _dumps(obj)
