"""Named experiment scenarios and their JSON serialization.

A scenario bundles everything one CLI invocation needs: mode (simulate /
certify / rendezvous), the map family and switching policy, the coordinate
map to monitor under, the initial profile (explicit coordinates or a seeded
random box), tolerances, step budgets, and certification settings.  A
scenario file is a JSON object {"scenarios": [...]} with unique names; the
same schema round-trips through to_dict/from_dict bit for bit.

All randomness hangs off the single scenario seed through a spawned
SeedSequence tree, one child per purpose, so runs are reproducible and the
streams stay independent: child 0 draws the initial profile, child 1 drives
random switching, child 2 the rendezvous scheduler, child 3 certification
sampling.
"""
from __future__ import annotations

import json
import itertools
from dataclasses import dataclass
from functools import cache, partial
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .certify import DEFAULT_CONSENSUS_TOL, DEFAULT_GAP_FLOOR, DEFAULT_TIME_STEPS, SampleConfig
from .geometry import (
    CoordinateMapSpec,
    Profile,
    identity_spec,
    interval_spec,
    require_budget,
    require_seed,
    require_tolerance,
)
from .maps import (
    MapDescriptor,
    common_claim,
    deform,
    decaying_pair_family,
    descriptor_to_dict,
    linear_map,
    log_exp_deformation,
    mean_selector,
    midpoint_map,
    read_map,
    scale_map,
    stripe_map,
    vanishing_confidence,
)
from .schema import (
    Field,
    ScenarioError,
    check_keys,
    choice,
    entry,
    json_text,
    level,
    number_array,
    read,
    read_value,
    table_of,
)
from .simulate import POLICIES, SwitchingSequence

MODES = {  # each mode and the fields it needs
    "simulate": ("maps", "initial"),
    "certify": ("maps", "check", "sample"),
    "rendezvous": ("initial",),
}
CHECKS = ("averaging", "equiproper")
INDEX = Field("integer")
_positive = partial(require_budget, error=ScenarioError)
_tolerance = partial(require_tolerance, error=ScenarioError)


def _coords(value, where: str):
    Profile(number_array(value, where))
    return value


def _box(**box) -> dict:
    SampleConfig(seed=0, **{"count": 1, **box})  # positive sizes, finite low < high
    return box


def _initial(coords, random) -> dict:
    if (coords is None) == (random is None):
        raise ValueError("needs exactly one of 'coords' or 'random'")
    return {"coords": coords} if random is None else {"random": random}


def _maps(maps, where: str) -> tuple:
    return tuple(
        m if isinstance(m, MapDescriptor) else read_map(m, f"{where}[{k}]")
        for k, m in enumerate(maps)
    )


def _script(script, where: str) -> tuple:
    """Map indices, or [index, time_index] pairs, as ints."""
    return tuple(
        tuple(read_value(INDEX, v, f"{where}[{k}]") for v in e)
        if isinstance(e, (list, tuple)) and len(e) == 2
        else read_value(INDEX, e, f"{where}[{k}]")
        for k, e in enumerate(script)
    )


# the levels below a scenario: the initial profile (explicit coordinates or
# a seeded random box) and the certification sample
RANDOM = {
    "n": Field("integer"), "d": Field("integer"),
    "low": Field("number", 0.0), "high": Field("number", 1.0),
}
INITIAL = {
    "coords": Field("array", None, _coords),
    "random": Field("object", None, level(RANDOM, _box)),
}
SAMPLE = {
    "count": Field("integer"), "n": Field("integer"), "d": Field("integer"),
    "low": Field("number", SampleConfig.low), "high": Field("number", SampleConfig.high),
}


@dataclass(frozen=True)
class Scenario:
    """One scenario.  Each field is also a row of the scenario level of the
    file format, and every Scenario, read from a file or built in Python,
    passes its readers."""

    name: str = entry("string")
    mode: str = entry("string", read=choice(MODES))
    seed: int = entry("integer", 0, lambda seed, where: require_seed(seed, where, ScenarioError))
    maps: tuple[MapDescriptor, ...] = entry(
        "array", (), _maps, lambda maps: [descriptor_to_dict(m) for m in maps]
    )
    policy: str = entry("string", "single", choice(POLICIES))
    script: tuple | None = entry("array", None, _script)
    coordinate_map: CoordinateMapSpec | None = entry(
        "object", None, CoordinateMapSpec.from_dict, lambda c: c and c.to_dict(), CoordinateMapSpec
    )
    initial: dict | None = entry("object", None, level(INITIAL, _initial))
    tol: float = entry("number", 1e-9, _tolerance)
    max_steps: int = entry("integer", 100_000, _positive)
    check: str | None = entry("string", None, choice(CHECKS))
    sample: dict | None = entry("object", None, level(SAMPLE, _box))
    time_steps: int = entry("integer", DEFAULT_TIME_STEPS, _positive)
    gap_floor: float = entry("number", DEFAULT_GAP_FLOOR, _tolerance)
    consensus_tol: float = entry("number", DEFAULT_CONSENSUS_TOL, _tolerance)

    def __post_init__(self):
        where = self.name if isinstance(self.name, str) else "scenario"
        for key, row in SCENARIO.items():
            object.__setattr__(self, key, read_value(row, getattr(self, key), f"{where}: {key}"))
        for key in MODES[self.mode]:
            if not getattr(self, key):
                raise ScenarioError(f"{self.name}: {self.mode} needs {key!r}")

    def to_dict(self) -> dict:
        return {key: row.write(getattr(self, key)) for key, row in SCENARIO.items()}

    @staticmethod
    def from_dict(data: dict, where: str = "scenario") -> "Scenario":
        name = data.get("name") if isinstance(data, dict) else None
        check_keys(SCENARIO, data, name if isinstance(name, str) else where)
        return Scenario(**data)


SCENARIO = table_of(Scenario)


def derived_seeds(seed: int) -> dict:
    """Independent child streams for the scenario's sources of randomness."""
    kids = np.random.SeedSequence(seed).spawn(4)

    def as_int(s: np.random.SeedSequence) -> int:
        return int(s.generate_state(2, np.uint64)[0])

    return {
        "initial": kids[0],
        "switching": as_int(kids[1]),
        "scheduler": as_int(kids[2]),
        "sampling": as_int(kids[3]),
    }


def resolve_initial(scenario: Scenario) -> Profile:
    if "coords" in scenario.initial:
        return Profile(scenario.initial["coords"])
    box = SampleConfig(seed=0, count=1, **scenario.initial["random"])
    return Profile(box.stack(np.random.default_rng(derived_seeds(scenario.seed)["initial"]))[0])


def build_sequence(scenario: Scenario) -> SwitchingSequence:
    seed = derived_seeds(scenario.seed)["switching"] if scenario.policy == "random" else None
    return SwitchingSequence(scenario.maps, scenario.policy, seed, scenario.script)


def resolve_spec(scenario: Scenario) -> CoordinateMapSpec:
    return scenario.coordinate_map or common_claim(scenario.maps) or identity_spec()


def sample_config(scenario: Scenario) -> SampleConfig:
    return SampleConfig(seed=derived_seeds(scenario.seed)["sampling"], **scenario.sample)


FILE = {"scenarios": Field("array")}  # the top level of a scenario file


def load_scenarios(path) -> dict[str, Scenario]:
    with open(path) as fh:
        entries = read(FILE, json.load(fh), "scenario file")["scenarios"]
    out: dict[str, Scenario] = {}
    for k, entry in enumerate(entries):
        sc = Scenario.from_dict(entry, f"scenarios[{k}]")
        if sc.name in out:
            raise ScenarioError(f"duplicate scenario name {sc.name!r}")
        out[sc.name] = sc
    return out


def save_scenarios(scenarios: Sequence[Scenario], path) -> None:
    payload = {"scenarios": [s.to_dict() for s in scenarios]}
    with open(path, "w") as fh:
        fh.write(json_text(payload) + "\n")


TAU_HALF = ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5))


def valid_selector_triples() -> list[tuple[int, int, int]]:
    """All selector triples that avoid picking both max and min."""
    triples = itertools.product((1, 2, 3, 4), repeat=3)
    return [sel for sel in triples if not (1 in sel and 4 in sel)]


@cache
def builtin_scenarios() -> Mapping[str, Scenario]:
    scenarios = [
        Scenario(
            name="paper/quarter-power",
            mode="simulate",
            maps=(decaying_pair_family("quarter_power"),),
            initial={"coords": [[0.0], [1.0]]},
            max_steps=200,
        ),
        Scenario(
            name="paper/one-over-t",
            mode="simulate",
            maps=(decaying_pair_family("one_over_t"),),
            initial={"coords": [[0.0], [1.0]]},
            # 9999 applications from t=2 end at x(10001), gap exactly 1e-4
            max_steps=9_999,
        ),
        Scenario(
            name="paper/vanishing-confidence",
            mode="simulate",
            maps=(vanishing_confidence(1.0),),
            initial={"coords": [[0.0], [8.0]]},
            max_steps=60,
        ),
        Scenario(
            name="paper/krause-midpoint",
            mode="simulate",
            maps=(midpoint_map(),),
            initial={"coords": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
            max_steps=200,
        ),
        Scenario(
            name="paper/stripe",
            mode="simulate",
            maps=(stripe_map(),),
            initial={"coords": [[0.0, 0.0], [4.0, 0.0], [1.0, 2.0]]},
            tol=1e-7,
            max_steps=10_000,
        ),
        Scenario(
            name="paper/nonarithmetic-cycle",
            mode="simulate",
            maps=(mean_selector((2, 3, 2)), mean_selector((3, 2, 3))),
            policy="cyclic",
            coordinate_map=interval_spec(),
            initial={"coords": [[1.0], [4.0], [16.0]]},
            tol=1e-8,
            max_steps=10_000,
        ),
        Scenario(
            name="paper/geometric-mean",
            mode="simulate",
            maps=(deform(linear_map(TAU_HALF), log_exp_deformation()),),
            initial={"coords": [[1.0], [4.0], [16.0]]},
            max_steps=500,
        ),
        Scenario(
            name="paper/mean-selectors-valid",
            mode="certify",
            check="equiproper",
            maps=tuple(mean_selector(sel) for sel in valid_selector_triples()),
            coordinate_map=interval_spec(),
            sample={"count": 200, "n": 3, "d": 1, "low": 0.5, "high": 4.0},
            seed=7,
        ),
        Scenario(
            name="paper/quarter-power-family",
            mode="certify",
            check="equiproper",
            maps=(decaying_pair_family("quarter_power"),),
            time_steps=30,
            sample={"count": 100, "n": 2, "d": 1, "low": -1.0, "high": 1.0},
            seed=5,
        ),
        Scenario(
            name="paper/watergun-rendezvous",
            mode="rendezvous",
            initial={"random": {"n": 8, "d": 2, "low": 0.0, "high": 1.0}},
            tol=1e-6,
            max_steps=10_000,
            seed=2026,
        ),
        Scenario(
            name="paper/watergun-pair",
            mode="rendezvous",
            initial={"coords": [[0.0, 0.0], [4.0, 0.0]]},
            tol=1e-6,
            max_steps=100,
            seed=1,
        ),
        Scenario(
            name="fixture/scale-by-2",
            mode="certify",
            check="averaging",
            maps=(scale_map(2.0),),
            coordinate_map=identity_spec(),
            sample={"count": 100, "n": 4, "d": 2, "low": 0.5, "high": 1.5},
            seed=3,
        ),
    ]
    return MappingProxyType({s.name: s for s in scenarios})


def scenario_table(path=None) -> Mapping[str, Scenario]:
    """The scenarios in the file at `path` ("" is a path too), else the built-in catalog."""
    return load_scenarios(path) if path is not None else builtin_scenarios()


def get_scenario(name: str, path=None) -> Scenario:
    table = scenario_table(path)
    if name not in table:
        known = ", ".join(sorted(table))
        raise ScenarioError(f"unknown scenario {name!r}; known: {known}")
    return table[name]


@dataclass(frozen=True)
class LibraryEntry:
    """One shipped averaging map plus the sampling box it should be
    certified on."""

    label: str
    descriptor: MapDescriptor
    sample: dict
    time_steps: int = DEFAULT_TIME_STEPS


def averaging_map_library() -> list[LibraryEntry]:
    """Every shipped map that claims a coordinate-map spec, with an
    in-domain sampling box for certification sweeps."""

    def box(n: int, d: int, low: float, high: float) -> dict:
        return {"n": n, "d": d, "low": low, "high": high}

    cycle_mix = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]
    entries = [
        LibraryEntry("midpoint-d2", midpoint_map(), box(3, 2, -2.0, 2.0)),
        LibraryEntry("midpoint-d1", midpoint_map(), box(3, 1, -2.0, 2.0)),
        LibraryEntry("stripe", stripe_map(), box(3, 2, -2.0, 2.0)),
        LibraryEntry("linear-uniform", linear_map([[1 / 3] * 3] * 3), box(3, 2, -2.0, 2.0)),
        LibraryEntry("linear-cycle-mix", linear_map(cycle_mix), box(3, 2, -2.0, 2.0)),
        LibraryEntry("quarter-power", decaying_pair_family("quarter_power"), box(2, 1, -1.0, 1.0)),
        LibraryEntry("one-over-t", decaying_pair_family("one_over_t"), box(2, 1, -1.0, 1.0)),
        LibraryEntry("vanishing-confidence", vanishing_confidence(1.0), box(4, 1, -4.0, 4.0)),
        LibraryEntry(
            "geometric-mean",
            deform(linear_map(TAU_HALF), log_exp_deformation()),
            box(3, 1, 0.5, 4.0),
        ),
    ]
    for sel in ((2, 2, 2), (1, 2, 2), (2, 3, 2), (3, 2, 3), (1, 3, 1)):
        label = "mean-selector-" + "".join(map(str, sel))
        entries.append(LibraryEntry(label, mean_selector(sel), box(3, 1, 0.5, 4.0)))
    return entries
