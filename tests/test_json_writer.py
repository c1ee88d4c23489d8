"""report.to_json against json.dumps(value, indent=2), which it replaces so
that a `verify` run does not import json: the same bytes for every value a
report can hold, and a TypeError for anything else."""

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from syzcover.report import render_json, run_verification, to_json

GOLDEN = Path(__file__).resolve().parent / "golden"

# Strings drawn from every Unicode plane, with the characters json escapes
# by name or as \uXXXX (quote, backslash, controls, DEL), non-ASCII and
# astral characters (written as surrogate pairs) mixed in.
TEXT = st.text(
    st.characters(codec="utf-8")
    | st.sampled_from('"\\\x00\x08\x0c\n\r\t\x1f\x7f\x80\xe9\u2028\uffff\U0001f600\U0010ffff')
)
VALUES = st.recursive(
    TEXT | st.integers(),
    lambda inner: st.lists(inner) | st.dictionaries(TEXT, inner),
    max_leaves=25,
)


def test_rewriting_every_report_golden_gives_its_bytes():
    """The 38 JSON reports of `verify`; the symbolic_p* goldens are
    bench/symbolic_op.py's output, which holds bools and is written by json."""
    paths = sorted(set(GOLDEN.glob("*.json")) - set(GOLDEN.glob("symbolic_*.json")))
    assert len(paths) == 38
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert to_json(json.loads(text)) + "\n" == text, path.name


@given(VALUES)
def test_writer_equals_json_dumps(value):
    assert to_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("text", ['"', "\\", "\x00", "\x1f", "\x7f", "é", "\U0001f600", "a\tb\n"])
def test_writer_escapes_as_json_does(text):
    for value in (text, [text], {text: text}):
        assert to_json(value) == json.dumps(value, indent=2)


def test_empty_containers_and_a_stats_only_report():
    assert (to_json([]), to_json({}), to_json({"a": [], "b": {}})) == (
        "[]", "{}", '{\n  "a": [],\n  "b": {}\n}')
    report = run_verification(5, checks=())
    text = render_json(report)
    assert '\n  "checks": [],\n' in text
    assert text == json.dumps(report.to_dict(), indent=2) + "\n"


@pytest.mark.parametrize("value", (True, 1.5, None, (1,), b"x", {1: "one"}, ["ok", {"k": False}]))
def test_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        to_json(value)
