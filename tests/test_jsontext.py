"""``jsontext.dumps``, the writer of every JSON artifact, against ``json.dumps``."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dofsim import cli, jsontext


def _reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_TEXT = st.one_of(
    st.text(),
    st.sampled_from(["", '"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é", " ",
                     "\U0001f600", "\ud800", "key: nan,"]),
)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 1e-5, 0.1]),
    st.floats().map(np.float64),
)
_INTS = st.one_of(st.integers(), st.sampled_from([0, -1, 2**70, -(2**70)]))
_LEAVES = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT)
_DOCS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_DOCS)
def test_dumps_equals_json_dumps(doc):
    assert jsontext.dumps(doc) == _reference(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), [[]], {"a": {}}, {"a": [{}, [], ()]}, "", 0, True, None, math.nan,
    np.float64(-0.0), {"é": [np.float64(math.inf), -math.inf]}, [2**70, -(2**70), 5e-324],
])
def test_dumps_equals_json_dumps_on_edge_documents(doc):
    assert jsontext.dumps(doc) == _reference(doc)


@pytest.mark.parametrize("value", [{1, 2}, b"x", np.int64(3)])
def test_dumps_rejects_what_json_rejects(value):
    for doc in (value, [value], {"k": value}):
        with pytest.raises(TypeError):
            _reference(doc)
        with pytest.raises(TypeError, match="not JSON serializable"):
            jsontext.dumps(doc)


@pytest.mark.parametrize("key", [1, 1.5, True, None])
def test_dumps_rejects_a_key_that_json_would_coerce(key):
    _reference({key: 0})
    with pytest.raises(TypeError):
        jsontext.dumps({key: 0})
    with pytest.raises(TypeError):
        jsontext.dumps([{"a": {key: 0}}])


@pytest.mark.parametrize("argv", [
    ["regions", "--format", "json"],
    ["simulate", "--scheme", "fdma", "--trials", "5"],
    ["sweep", "--step", "0.1", "--format", "json"],
])
def test_each_json_artifact_is_one_call_of_the_writer(argv, monkeypatch, tmp_path):
    real, written = jsontext.dumps, []

    def counted(doc):
        written.append(real(doc))
        return written[-1]

    monkeypatch.setattr(jsontext, "dumps", counted)
    out = tmp_path / "artifact.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert len(written) == 1
    assert out.read_text() == written[0]
