"""jsonio.dumps against the text of json.dumps(x, sort_keys=True, indent=2) + "\\n"."""

import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padicdisc import jsonio


class _Str(str):
    def __str__(self):
        return "not the text"


class _Int(int):
    def __repr__(self):
        return "not the text"


class _Dict(dict):
    pass


def _stdlib(x) -> str:
    return json.dumps(x, sort_keys=True, indent=2) + "\n"


def _assert_same(x):
    """dumps(x) is the stdlib's text, or raises the stdlib's exception."""
    try:
        expected = _stdlib(x)
    except (TypeError, ValueError) as err:
        with pytest.raises(type(err), match=re.escape(str(err))):
            jsonio.dumps(x)
    else:
        assert jsonio.dumps(x) == expected


# quotes, backslashes, control characters and non-ASCII, escaped by the writer
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f ')),
               max_size=8)
FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300]))
INTS = st.one_of(st.integers(-99, 99), st.integers(-10 ** 400, 10 ** 400))
LEAVES = st.one_of(TEXT, TEXT.map(_Str), INTS, INTS.map(_Int), st.booleans(), st.none(), FLOATS)
# one key type per dict, as a mixed dict may not sort; int and bool keys sort together
KEYS = [TEXT, TEXT.map(_Str), st.one_of(st.integers(), st.booleans()), st.none(), FLOATS]


def _containers(children):
    dicts = st.one_of(*[st.dictionaries(keys, children, max_size=4) for keys in KEYS])
    return st.one_of(st.lists(children, max_size=4),
                     st.lists(children, max_size=4).map(tuple),
                     dicts, dicts.map(_Dict))


TREES = st.recursive(LEAVES, _containers, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(x=TREES)
def test_dumps_is_the_stdlib_text(x):
    _assert_same(x)


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(st.one_of(TEXT, st.integers(), st.none()), max_size=4), value=LEAVES)
def test_dumps_mixed_keys_like_the_stdlib(keys, value):
    # str with int or None keys cannot sort: both raise TypeError
    _assert_same({k: value for k in keys})


def _circular_list():
    x = [1, {"a": []}]
    x[1]["a"].append(x)
    return x


def _circular_dict():
    x = {"a": [{}]}
    x["a"][0]["b"] = x
    return x


@pytest.mark.parametrize("x, error", [
    ({1, 2}, TypeError),
    ([Fraction(1, 3)], TypeError),
    ({"a": {(1, 2): 0}}, TypeError),
    ([10 ** 5000], ValueError),          # past the interpreter's digit limit for str(int)
    (_circular_list(), ValueError),
    (_circular_dict(), ValueError),
])
def test_dumps_rejects_what_the_stdlib_rejects(x, error):
    with pytest.raises(error) as expected:
        _stdlib(x)
    with pytest.raises(error, match=re.escape(str(expected.value))):
        jsonio.dumps(x)


def test_dumps_writes_a_shared_container_each_time():
    shared = ["x"]
    x = {"a": shared, "b": [shared, shared]}
    assert jsonio.dumps(x) == _stdlib(x)
