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
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .certify import SampleConfig
from .geometry import (
    CoordinateMapSpec,
    Profile,
    identity_spec,
    interval_spec,
    require_budget,
    require_tolerance,
)
from .maps import (
    MapDescriptor,
    common_claim,
    deform,
    decaying_pair_family,
    descriptor_from_dict,
    descriptor_to_dict,
    linear_map,
    log_exp_deformation,
    mean_selector,
    midpoint_map,
    scale_map,
    stripe_map,
    vanishing_confidence,
)
from .simulate import POLICIES, SwitchingSequence

MODES = ("simulate", "certify", "rendezvous")
CHECKS = ("averaging", "equiproper")


class ScenarioError(ValueError):
    pass


def _real(value, what: str) -> float:
    """A JSON number as a float; null, strings and booleans are rejected,
    not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{what} must be a number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    """An integral JSON number as an int; null, fractions and infinities
    are rejected, not truncated."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _block(name: str, block, where: str) -> dict:
    if not isinstance(block, dict):
        raise ScenarioError(f"{name}: {where} must be an object, got {block!r}")
    return block


def _optional_block(name: str, data: dict, key: str) -> dict | None:
    block = data.get(key)
    return None if block is None else _block(name, block, key)


def _list(name: str, value, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{name}: {where} must be a list, got {value!r}")
    return value


def _script(name: str, value) -> list | None:
    """Script entries as map indices or [index, time_index] pairs of ints."""
    if value is None:
        return None
    out = []
    for k, entry in enumerate(_list(name, value, "script")):
        where = f"{name}: script[{k}]"
        if not isinstance(entry, list):
            out.append(_integer(entry, where))
        elif len(entry) == 2:
            out.append([_integer(v, where) for v in entry])
        else:
            raise ScenarioError(f"{where} must be an index or an [index, time] pair")
    return out


def _count(scenario: "Scenario", block: dict, key: str, where: str) -> int:
    if key not in block:
        raise ScenarioError(f"{scenario.name}: {where} needs {key!r}")
    return _integer(block[key], f"{scenario.name}: {where}.{key}")


@dataclass(frozen=True)
class Scenario:
    name: str
    mode: str
    seed: int = 0
    maps: tuple[MapDescriptor, ...] = ()
    policy: str = "single"
    script: tuple | None = None
    coordinate_map: CoordinateMapSpec | None = None
    initial: dict | None = None  # {"coords": [...]} or {"random": {n,d,low,high}}
    tol: float = 1e-9
    max_steps: int = 100_000
    check: str | None = None
    sample: dict | None = None  # {"count", "n", "d", "low", "high"}
    time_steps: int = 50
    gap_floor: float = 1e-9
    consensus_tol: float = 1e-6

    def __post_init__(self):
        if self.mode not in MODES:
            raise ScenarioError(f"unknown mode {self.mode!r}")
        if self.policy not in POLICIES:
            raise ScenarioError(
                f"{self.name}: policy must be one of {POLICIES}, got {self.policy!r}"
            )
        for key in ("tol", "gap_floor", "consensus_tol"):
            require_tolerance(f"{self.name}: {key}", getattr(self, key), ScenarioError)
        for key in ("max_steps", "time_steps"):
            require_budget(f"{self.name}: {key}", getattr(self, key), ScenarioError)
        object.__setattr__(self, "maps", tuple(self.maps))
        if self.script is not None:
            object.__setattr__(
                self,
                "script",
                tuple(
                    tuple(int(v) for v in e) if isinstance(e, (list, tuple)) else int(e)
                    for e in self.script
                ),
            )
        if self.mode == "simulate":
            if not self.maps:
                raise ScenarioError(f"{self.name}: simulate needs maps")
            if self.initial is None:
                raise ScenarioError(f"{self.name}: simulate needs an initial profile")
        elif self.mode == "certify":
            if not self.maps:
                raise ScenarioError(f"{self.name}: certify needs maps")
            if self.check not in CHECKS:
                raise ScenarioError(f"{self.name}: check must be one of {CHECKS}")
            if self.sample is None:
                raise ScenarioError(f"{self.name}: certify needs a sample block")
        else:
            if self.initial is None:
                raise ScenarioError(f"{self.name}: rendezvous needs an initial profile")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "seed": self.seed,
            "maps": [descriptor_to_dict(m) for m in self.maps],
            "policy": self.policy,
            "script": None if self.script is None else [
                list(e) if isinstance(e, tuple) else e for e in self.script
            ],
            "coordinate_map": None
            if self.coordinate_map is None
            else self.coordinate_map.to_dict(),
            "initial": self.initial,
            "tol": self.tol,
            "max_steps": self.max_steps,
            "check": self.check,
            "sample": self.sample,
            "time_steps": self.time_steps,
            "gap_floor": self.gap_floor,
            "consensus_tol": self.consensus_tol,
        }

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ScenarioError(f"a scenario must be an object, got {data!r}")
        try:
            name = data["name"]
            mode = data["mode"]
        except KeyError as exc:
            raise ScenarioError(f"scenario is missing field {exc}") from exc
        if not isinstance(name, str):
            raise ScenarioError(f"scenario name must be a string, got {name!r}")
        unknown = sorted(set(data) - {f.name for f in fields(Scenario)})
        if unknown:
            raise ScenarioError(f"{name}: unknown field {', '.join(map(repr, unknown))}")
        cmap = _optional_block(name, data, "coordinate_map")
        maps = _list(name, data.get("maps", []), "maps")

        def real(key: str, default: float) -> float:
            return _real(data.get(key, default), f"{name}: {key}")

        def integer(key: str, default: int) -> int:
            return _integer(data.get(key, default), f"{name}: {key}")

        return Scenario(
            name=name,
            mode=mode,
            seed=integer("seed", 0),
            maps=tuple(
                descriptor_from_dict(_block(name, m, f"maps[{k}]"))
                for k, m in enumerate(maps)
            ),
            policy=data.get("policy", "single"),
            script=_script(name, data.get("script")),
            coordinate_map=None if cmap is None else CoordinateMapSpec.from_dict(cmap),
            initial=_optional_block(name, data, "initial"),
            tol=real("tol", 1e-9),
            max_steps=integer("max_steps", 100_000),
            check=data.get("check"),
            sample=_optional_block(name, data, "sample"),
            time_steps=integer("time_steps", 50),
            gap_floor=real("gap_floor", 1e-9),
            consensus_tol=real("consensus_tol", 1e-6),
        )


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


def resolve_initial(scenario: Scenario, seeds: dict | None = None) -> Profile:
    seeds = seeds or derived_seeds(scenario.seed)
    init = scenario.initial
    if init is None:
        raise ScenarioError(f"{scenario.name}: no initial profile")
    if "coords" in init:
        return Profile(np.asarray(init["coords"], dtype=float))
    if "random" in init:
        box = _block(scenario.name, init["random"], "initial.random")
        where = f"{scenario.name}: initial.random"
        size = (
            _count(scenario, box, "n", "initial.random"),
            _count(scenario, box, "d", "initial.random"),
        )
        low = _real(box.get("low", 0.0), f"{where}.low")
        high = _real(box.get("high", 1.0), f"{where}.high")
        rng = np.random.default_rng(seeds["initial"])
        return Profile(rng.uniform(low, high, size=size))
    raise ScenarioError(f"{scenario.name}: initial needs 'coords' or 'random'")


def build_sequence(scenario: Scenario, seeds: dict | None = None) -> SwitchingSequence:
    seeds = seeds or derived_seeds(scenario.seed)
    if scenario.policy == "random":
        return SwitchingSequence(
            maps=scenario.maps, policy="random", seed=seeds["switching"]
        )
    return SwitchingSequence(
        maps=scenario.maps, policy=scenario.policy, script=scenario.script
    )


def resolve_spec(scenario: Scenario) -> CoordinateMapSpec:
    return scenario.coordinate_map or common_claim(scenario.maps) or identity_spec()


def sample_config(scenario: Scenario) -> SampleConfig:
    if scenario.sample is None:
        raise ScenarioError(f"{scenario.name}: no sample block")
    seeds = derived_seeds(scenario.seed)
    s = _block(scenario.name, scenario.sample, "sample")
    return SampleConfig(
        seed=seeds["sampling"],
        count=_count(scenario, s, "count", "sample"),
        n=_count(scenario, s, "n", "sample"),
        d=_count(scenario, s, "d", "sample"),
        low=_real(s.get("low", -1.0), f"{scenario.name}: sample.low"),
        high=_real(s.get("high", 1.0), f"{scenario.name}: sample.high"),
    )


def load_scenarios(path) -> dict[str, Scenario]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "scenarios" not in data:
        raise ScenarioError("scenario file must be an object with a 'scenarios' list")
    entries = data["scenarios"]
    if not isinstance(entries, list):
        raise ScenarioError(f"'scenarios' must be a list of objects, got {entries!r}")
    out: dict[str, Scenario] = {}
    for entry in entries:
        sc = Scenario.from_dict(entry)
        if sc.name in out:
            raise ScenarioError(f"duplicate scenario name {sc.name!r}")
        out[sc.name] = sc
    return out


def save_scenarios(scenarios: Sequence[Scenario], path) -> None:
    payload = {"scenarios": [s.to_dict() for s in scenarios]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _tau_half_matrix() -> list[list[float]]:
    return [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]


def valid_selector_triples() -> list[tuple[int, int, int]]:
    """All selector triples that avoid picking both max and min."""
    out = []
    for a in (1, 2, 3, 4):
        for b in (1, 2, 3, 4):
            for c in (1, 2, 3, 4):
                sel = (a, b, c)
                if not (1 in sel and 4 in sel):
                    out.append(sel)
    return out


def builtin_scenarios() -> dict[str, Scenario]:
    scenarios = [
        Scenario(
            name="paper/quarter-power",
            mode="simulate",
            maps=(decaying_pair_family("quarter_power"),),
            initial={"coords": [[0.0], [1.0]]},
            tol=1e-9,
            max_steps=200,
        ),
        Scenario(
            name="paper/one-over-t",
            mode="simulate",
            maps=(decaying_pair_family("one_over_t"),),
            initial={"coords": [[0.0], [1.0]]},
            tol=1e-9,
            # 9999 applications from t=2 end at x(10001), gap exactly 1e-4
            max_steps=9_999,
        ),
        Scenario(
            name="paper/vanishing-confidence",
            mode="simulate",
            maps=(vanishing_confidence(1.0),),
            initial={"coords": [[0.0], [8.0]]},
            tol=1e-9,
            max_steps=60,
        ),
        Scenario(
            name="paper/krause-midpoint",
            mode="simulate",
            maps=(midpoint_map(),),
            initial={"coords": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
            tol=1e-9,
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
            maps=(deform(linear_map(_tau_half_matrix()), log_exp_deformation()),),
            initial={"coords": [[1.0], [4.0], [16.0]]},
            tol=1e-9,
            max_steps=500,
        ),
        Scenario(
            name="paper/mean-selectors-valid",
            mode="certify",
            check="equiproper",
            maps=tuple(mean_selector(sel) for sel in valid_selector_triples()),
            coordinate_map=interval_spec(),
            sample={"count": 200, "n": 3, "d": 1, "low": 0.5, "high": 4.0},
            gap_floor=1e-9,
            consensus_tol=1e-6,
            seed=7,
        ),
        Scenario(
            name="paper/quarter-power-family",
            mode="certify",
            check="equiproper",
            maps=(decaying_pair_family("quarter_power"),),
            time_steps=30,
            sample={"count": 100, "n": 2, "d": 1, "low": -1.0, "high": 1.0},
            gap_floor=1e-9,
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
    return {s.name: s for s in scenarios}


def get_scenario(name: str, path=None) -> Scenario:
    table = load_scenarios(path) if path is not None else builtin_scenarios()
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
    time_steps: int = 50


def averaging_map_library() -> list[LibraryEntry]:
    """Every shipped map that claims a coordinate-map spec, with an
    in-domain sampling box for certification sweeps."""
    box = {"n": 3, "d": 2, "low": -2.0, "high": 2.0}
    entries = [
        LibraryEntry("midpoint-d2", midpoint_map(), dict(box)),
        LibraryEntry("midpoint-d1", midpoint_map(), {"n": 3, "d": 1, "low": -2.0, "high": 2.0}),
        LibraryEntry("stripe", stripe_map(), dict(box)),
        LibraryEntry(
            "linear-uniform",
            linear_map([[1 / 3] * 3] * 3),
            dict(box),
        ),
        LibraryEntry(
            "linear-cycle-mix",
            linear_map([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]),
            dict(box),
        ),
        LibraryEntry(
            "quarter-power",
            decaying_pair_family("quarter_power"),
            {"n": 2, "d": 1, "low": -1.0, "high": 1.0},
        ),
        LibraryEntry(
            "one-over-t",
            decaying_pair_family("one_over_t"),
            {"n": 2, "d": 1, "low": -1.0, "high": 1.0},
        ),
        LibraryEntry(
            "vanishing-confidence",
            vanishing_confidence(1.0),
            {"n": 4, "d": 1, "low": -4.0, "high": 4.0},
        ),
        LibraryEntry(
            "geometric-mean",
            deform(linear_map(_tau_half_matrix()), log_exp_deformation()),
            {"n": 3, "d": 1, "low": 0.5, "high": 4.0},
        ),
    ]
    for sel in ((2, 2, 2), (1, 2, 2), (2, 3, 2), (3, 2, 3), (1, 3, 1)):
        entries.append(
            LibraryEntry(
                f"mean-selector-{sel[0]}{sel[1]}{sel[2]}",
                mean_selector(sel),
                {"n": 3, "d": 1, "low": 0.5, "high": 4.0},
            )
        )
    return entries
