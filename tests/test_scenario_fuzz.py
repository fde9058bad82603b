"""Fuzz the scenario-file format from its own tables.

A hypothesis strategy walks the table of every level of a scenario file and
draws a valid document: required keys always, optional keys half the time,
values from small pools that keep each run to a few milliseconds.  It then
applies one mutation to one object of the level under test: a dropped key,
a misspelt key, a value of the wrong JSON type, null, NaN or an infinity,
or a wrong type nested inside the value.  Each document runs through
`cli.main`, which must exit 0, 1 or 2 with at most one `consdyn:` line on
stderr, and must not exit 0 on a misspelt key, a wrong type, a non-finite
number, a dropped required key or a null where the default is not null.
"""
import contextlib
import copy
import io
import json
import math
import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, event, given, settings

from consdyn.cli import main
from consdyn.geometry import COORDINATE_MAP
from consdyn.maps import KINDS, MAP, descriptor_from_dict, descriptor_to_dict
from consdyn.schema import REQUIRED
from consdyn.scenarios import FILE, INITIAL, MODES, RANDOM, SAMPLE, SCENARIO

NAME = "fuzz/doc"
TAU_HALF = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]

# Valid values of each kind's params, and the kinds that share a profile
# shape (n, d).  Simulate draws only maps that contract (or, for scale, fail
# at once), so a dropped step budget still ends within a few dozen steps.
PARAMS = {
    "linear": {"matrix": st.sampled_from([TAU_HALF, [[1 / 3] * 3] * 3])},
    "decaying_pair": {"rate": st.sampled_from(["quarter_power", "one_over_t"])},
    "vanishing_confidence": {"epsilon": st.sampled_from([0.5, 1.0])},
    "mean_selector": {"selectors": st.sampled_from([[2, 3, 2], [3, 2, 3], [2, 2, 2]])},
    "stripe": {},
    "midpoint": {},
    "scale": {"factor": st.just(0.5)},
    "deformed": {"deformation": st.just("log_exp")},  # "inner": a drawn linear map
}
SHAPES = {
    (3, 1): ["linear", "mean_selector", "midpoint", "scale", "deformed", "vanishing_confidence"],
    (2, 1): ["decaying_pair"],
    (3, 2): ["linear", "midpoint", "stripe"],
}
SIMULATE_KINDS = ["linear", "mean_selector", "midpoint", "scale", "deformed"]
assert set(PARAMS) == set(KINDS) == {k for kinds in SHAPES.values() for k in kinds}

LEVELS = ["file", "scenario", "map", "params", "coordinate_map", "initial", "random", "sample"]
WRONG = {  # values of every JSON type but the named one, null aside
    "integer": ["3", [3], {"n": 3}, True, 2.5],
    "number": ["0.5", [0.5], {"x": 0.5}, True],
    "string": [5, ["x"], {"x": 1}, True],
    "array": [5, "x", {"x": 1}, True],
    "object": [5, "x", [1], True],
}
MUTATIONS = ["drop", "misspell", "wrong_type", "null", "nan_inf", "nested"]


def pick(strategy):
    """A value pool; each draw is a fresh copy, free to mutate."""
    return lambda draw: copy.deepcopy(draw(strategy))


class Document:
    """Draws one valid document and keeps each of its objects with its
    level's name and table."""

    def __init__(self, draw, target: str):
        self.draw, self.target, self.nodes = draw, target, []

    def level(self, name, table, values, need=(), omit=()):
        """Every key of the table has a value pool (so a field added to a
        table must be added here too); required and `need` keys are always
        present, `omit` keys never, the others half the time."""
        assert set(values) == set(table), sorted(set(values) ^ set(table))
        obj = {}
        for key, row in table.items():
            if key in omit:
                continue
            if row.default is REQUIRED or key in need or self.draw(st.booleans()):
                obj[key] = values[key](self.draw)
        self.nodes.append((name, obj, table))
        return obj

    def map(self, kinds):
        kind = self.draw(st.sampled_from(kinds))
        table = KINDS[kind][1]
        values = {key: pick(s) for key, s in PARAMS[kind].items()}
        if kind == "deformed":
            values["inner"] = lambda _: self.map(["linear"])
        params = self.level("params", table, values)
        # the redundant fields, when drawn, state the canonical values
        canonical = descriptor_to_dict(descriptor_from_dict({"kind": kind, "params": params}))
        values = {key: pick(st.just(canonical[key])) for key in MAP}
        values["params"] = lambda _: params
        return self.level("map", MAP, values, need=["params"] if table else [])

    def initial(self, n: int, d: int):
        row = st.lists(st.floats(0.5, 4.0), min_size=d, max_size=d)
        given = "random" if self.target == "random" else self.draw(st.sampled_from(list(INITIAL)))
        box = {"n": n, "d": d, "low": 0.5, "high": 4.0}
        return self.level("initial", INITIAL, {
            "coords": pick(st.lists(row, min_size=n, max_size=n)),
            "random": lambda _: self.level(
                "random", RANDOM, {key: pick(st.just(v)) for key, v in box.items()}
            ),
        }, need=[given], omit=[key for key in INITIAL if key != given])

    def scenario(self, mode: str):
        draw = self.draw
        if mode == "simulate":
            (n, d), kinds = (3, 1), SIMULATE_KINDS
        else:
            (n, d), kinds = draw(st.sampled_from(list(SHAPES.items())))
        if mode == "rendezvous":
            n, d = draw(st.integers(2, 3)), 2
        if self.target == "params":
            kinds = [kind for kind in kinds if PARAMS[kind]] or ["linear"]
        policy = draw(st.sampled_from(["single", "cyclic", "random", "scripted"]))
        need = list(MODES[mode]) + (["script"] if policy == "scripted" else [])
        if self.target in ("map", "params"):
            need.append("maps")
        if self.target in ("coordinate_map", "initial", "random", "sample"):
            need.append("initial" if self.target == "random" else self.target)
        box = {"n": n, "d": d, "low": 0.5, "high": 4.0}
        sample = {key: pick(st.just(v)) for key, v in box.items()}
        sample["count"] = pick(st.integers(1, 3))
        return self.level("scenario", SCENARIO, {
            "name": pick(st.just(NAME)),
            "mode": pick(st.just(mode)),
            "seed": pick(st.integers(0, 2**32)),
            "maps": lambda _: [self.map(kinds) for _ in range(draw(st.integers(1, 2)))],
            "policy": pick(st.just(policy)),
            "script": pick(st.lists(st.just(0) | st.just([0, 0]), min_size=1, max_size=5)),
            "coordinate_map": lambda _: self.level("coordinate_map", COORDINATE_MAP, {
                "kind": pick(st.sampled_from(["identity", "interval"])),
                "directions": pick(st.none()),
            }),
            "initial": lambda _: self.initial(n, d),
            "tol": pick(st.sampled_from([1e-6, 1e-3])),
            "max_steps": pick(st.integers(1, 30)),
            "check": pick(st.sampled_from(["averaging", "equiproper"])),
            "sample": lambda _: self.level("sample", SAMPLE, sample, need=["low"]),
            "time_steps": pick(st.integers(1, 4)),
            "gap_floor": pick(st.sampled_from([0.0, 1e-9])),
            "consensus_tol": pick(st.sampled_from([1e-6, 1e-3])),
        }, need=need)


def misspell(draw, key: str, table) -> str:
    i = draw(st.integers(0, len(key) - 1))
    for typo in (key[:i] + key[i + 1:], key[:i] + key[i] + key[i:], key + "s", key + "_"):
        if typo and typo not in table:
            return typo
    raise AssertionError(key)


@st.composite
def mutated(draw, target: str):
    """A valid file with one mutation in an object of the target level,
    its mode, and whether the mutation alone must make it fail."""
    doc = Document(draw, target)
    mode = draw(st.sampled_from(list(MODES)))
    top = doc.level("file", FILE, {"scenarios": lambda _: [doc.scenario(mode)]})
    targets = [(obj, table) for name, obj, table in doc.nodes if name == target and obj]
    obj, table = draw(st.sampled_from(targets))
    key = draw(st.sampled_from(sorted(obj)))
    kind = draw(st.sampled_from(MUTATIONS))
    value, row = obj[key], table[key]
    fails = (
        kind in ("misspell", "wrong_type", "nan_inf")
        or (kind == "drop" and row.default is REQUIRED)
        or (kind == "null" and row.default is not None)
    )
    if kind == "drop":
        del obj[key]
    elif kind == "misspell":
        obj[misspell(draw, key, table)] = obj.pop(key)
    elif kind == "wrong_type":
        obj[key] = draw(st.sampled_from(WRONG[row.json]))
    elif kind == "null":
        obj[key] = None
    elif kind == "nan_inf":
        obj[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif isinstance(value, list) and value:
        i = draw(st.integers(0, len(value) - 1))
        value[i] = draw(st.sampled_from(["x", True, None, {}, [1, [2]]]))
    else:
        obj[key] = [value]
    event(f"{target}: {kind}")
    return top, mode, fails


@pytest.mark.parametrize("target", LEVELS)
@settings(
    max_examples=64,  # 512 over the eight levels
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_mutated_scenario_files_exit_cleanly(tmp_path_factory, target, data):
    top, mode, fails = data.draw(mutated(target))
    tmp = tmp_path_factory.getbasetemp() / "fuzz"
    tmp.mkdir(exist_ok=True)
    path = tmp / "doc.json"
    path.write_text(json.dumps(top))
    argv = ["run", mode, "--name", NAME, "--file", str(path), "--out", str(tmp / "out")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would reach stderr
            code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (code, top)
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("consdyn:")), lines
    assert code != 0 or not fails, top
