"""The one writer of indented JSON: `schema.json_text` gives the text of
`json.dumps(value, indent=2, sort_keys=True, allow_nan=False)`, and every
JSON artifact of the CLI is that text of its own content plus a newline."""
import json
import math

import hypothesis.strategies as st
import pytest
from conftest import strict_json
from hypothesis import given, settings

from consdyn.cli import main
from consdyn.scenarios import builtin_scenarios
from consdyn.schema import json_text

TRICKY_TEXT = ["},\n  {", "},\n    {", '"', "\\", '\\"}', "\x00\x1f\x7f", "\n\t\r", "é✓𝄞", ""]
keys = st.text(max_size=6) | st.sampled_from(TRICKY_TEXT)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.text(max_size=8),
    st.sampled_from(TRICKY_TEXT),
)
flat_dicts = st.dictionaries(keys, scalars, min_size=1, max_size=5)


def _containers(children):
    odd = st.just({}) | st.dictionaries(keys, children, min_size=1, max_size=3)
    # a table of flat records, now and then with an empty or a nested dict among them
    tables = st.builds(
        lambda rows, extra, at: rows[:at] + extra + rows[at:],
        st.lists(flat_dicts, min_size=1, max_size=4),
        st.lists(odd, max_size=1),
        st.integers(0, 4),
    )
    lists = st.lists(children, max_size=4)
    return st.one_of(lists, lists.map(tuple), st.dictionaries(keys, children, max_size=4), tables)


trees = st.recursive(scalars, _containers, max_leaves=30)


def _stdlib(value):
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


@settings(max_examples=200)
@given(trees)
def test_json_text_is_the_stdlib_indented_text(tree):
    assert json_text(tree) == _stdlib(tree)


def _plant(tree, bad, rnd):
    """`tree` with `bad` in one of its containers, chosen at random; `bad`
    itself when the tree is a scalar."""
    if isinstance(tree, dict):
        if tree and rnd.random() < 0.7:
            key = rnd.choice(sorted(tree))
            return {**tree, key: _plant(tree[key], bad, rnd)}
        return {**tree, "planted": bad}
    if isinstance(tree, (list, tuple)):
        items = list(tree)
        if items and rnd.random() < 0.7:
            k = rnd.randrange(len(items))
            items[k] = _plant(items[k], bad, rnd)
        else:
            items.insert(rnd.randrange(len(items) + 1), bad)
        return type(tree)(items)
    return bad


@given(trees, st.sampled_from([math.nan, math.inf, -math.inf]), st.randoms(use_true_random=False))
def test_json_text_refuses_a_non_finite_number_anywhere(tree, bad, rnd):
    planted = _plant(tree, bad, rnd)
    with pytest.raises(ValueError):
        _stdlib(planted)
    with pytest.raises(ValueError):
        json_text(planted)


def test_json_text_writes_tables_of_records_as_the_stdlib_does():
    records = [{"b": 1, "a": "},\n    {"}, {"c": None}, {"d": [1.5]}, {}, {"e": -0.0}]
    for k in range(1, len(records) + 1):
        for table in (records[:k], tuple(records[:k]), {"records": records[:k]}, [[records[:k]]]):
            assert json_text(table) == _stdlib(table)


def test_json_artifacts_are_strict_sorted_and_indented(tmp_path, monkeypatch):
    """Every JSON artifact of every built-in scenario, of a matrix CSV and of
    a run at +-1e308 is the 2-space, key-sorted text of its own content."""
    monkeypatch.chdir(tmp_path)
    for name, scenario in builtin_scenarios().items():
        assert main(["run", scenario.mode, "--name", name, "--out", "out"]) in (0, 2)
    (tmp_path / "A.csv").write_text("0.5,0.5,0.0\n0.0,0.5,0.5\n0.5,0.0,0.5\n")
    assert main(["run", "matrix", "--file", "A.csv", "--out", "out"]) == 0
    (tmp_path / "huge.json").write_text(json.dumps({"scenarios": [{
        "name": "huge", "mode": "simulate", "maps": [{"kind": "midpoint"}],
        "initial": {"coords": [[-1e308, 1e308], [1e308, -1e308], [1e308, 1e308]]},
    }]}))
    assert main(["run", "simulate", "--name", "huge", "--file", "huge.json", "--out", "out"]) == 2
    paths = sorted((tmp_path / "out").glob("*.json"))
    assert len(paths) == len(builtin_scenarios()) + 2
    for path in paths:
        text = path.read_text()
        content = strict_json(path)
        assert text == json.dumps(content, indent=2, sort_keys=True) + "\n", path.name
    assert strict_json(tmp_path / "out" / "huge.summary.json")["final_diameter"] is None
