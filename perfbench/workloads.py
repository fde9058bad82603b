"""Seeded workloads of the consdyn benchmark.

A workload turns a workload seed into scenario files and a list of CLI
invocations, each the argv a user would give `consdyn` (without `--out`),
with the exit code it must return, a check of its outputs and the number
of hull transitions it performs.  A hull transition is one update map
applied and its new hull compared with the old one: one `properness_gap`
in certify, one step of `simulate.run`, one grouped rendezvous step.

The program only ever sees the scenario files; everything random in them
comes from the workload seed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from consdyn.maps import descriptor_to_dict, mean_selector
from consdyn.scenarios import averaging_map_library, builtin_scenarios

CERTIFY_PROFILES = 200
RING_AGENTS = 500
RING_STEPS = 100


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: tuple[str, ...]
    expect_exit: int
    # (artifact dir, captured stdout) -> list of problems, empty when correct
    check: Callable[[Path, str], list[str]]
    # artifact dir -> hull transitions the invocation performed
    transitions: Callable[[Path], int]


def _slug(name: str) -> str:
    return name.replace("/", "-")


def _read_json(out: Path, name: str, suffix: str):
    return json.loads((out / f"{_slug(name)}.{suffix}").read_text())


def _child_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _write_scenarios(path: Path, scenarios: list[dict]) -> None:
    path.write_text(json.dumps({"scenarios": scenarios}) + "\n")


def _times_per_profile(desc, time_steps: int) -> int:
    return time_steps if desc.time_dependent else 1


def _fixed(count: int) -> Callable[[Path], int]:
    return lambda out: count


def _summary_steps(name: str) -> Callable[[Path], int]:
    return lambda out: int(_read_json(out, name, "summary.json")["steps"])


# --- certify-sweep ---------------------------------------------------------


def _check_averaging_ok(name: str, profiles: int):
    def check(out: Path, stdout: str) -> list[str]:
        (report,) = _read_json(out, name, "certify.json")
        problems = []
        if report["witness"] is not None:
            problems.append(f"{name}: unexpected witness {report['witness']}")
        records = report["records"]
        if len(records) != profiles or not all(r["included"] for r in records):
            problems.append(f"{name}: expected {profiles} included profiles")
        if "VIOLATION" in stdout:
            problems.append(f"{name}: stdout reports a violation")
        return problems

    return check


def _check_equiproper(name: str, profiles: int, verdict: bool):
    word = "yes" if verdict else "NO"

    def check(out: Path, stdout: str) -> list[str]:
        report = _read_json(out, name, "certify.json")
        problems = []
        if report["witness"] is not None or report["equiproper"] is not verdict:
            problems.append(f"{name}: expected equiproper={verdict}, no witness")
        if len(report["records"]) != profiles:
            problems.append(f"{name}: expected {profiles} profiles")
        if not stdout.rstrip().endswith(f": {word}"):
            problems.append(f"{name}: stdout does not end with verdict {word!r}")
        return problems

    return check


def _check_first_witness(name: str):
    def check(out: Path, stdout: str) -> list[str]:
        (report,) = _read_json(out, name, "certify.json")
        records = report["records"]
        if report["witness"] is None or len(records) != 1 or records[0]["included"]:
            return [f"{name}: expected a witness at the first profile"]
        if "witness:" not in stdout:
            return [f"{name}: stdout shows no witness"]
        return []

    return check


def certify_sweep(seed: int, inputs: Path) -> list[Invocation]:
    path = inputs / "certify-library.json"
    scenarios, invocations = [], []
    for i, entry in enumerate(averaging_map_library()):
        name = f"bench/library/{entry.label}"
        scenarios.append(
            {
                "name": name,
                "mode": "certify",
                "check": "averaging",
                "seed": _child_seed(seed, 0, i),
                "maps": [descriptor_to_dict(entry.descriptor)],
                "sample": dict(entry.sample, count=CERTIFY_PROFILES),
                "time_steps": entry.time_steps,
            }
        )
        per_profile = _times_per_profile(entry.descriptor, entry.time_steps)
        invocations.append(
            Invocation(
                name,
                ("run", "certify", "--file", str(path), "--name", name),
                0,
                _check_averaging_ok(name, CERTIFY_PROFILES),
                _fixed(CERTIFY_PROFILES * per_profile),
            )
        )
    _write_scenarios(path, scenarios)

    builtins = builtin_scenarios()
    for k, (name, verdict) in enumerate(
        (("paper/mean-selectors-valid", True), ("paper/quarter-power-family", False))
    ):
        sc = builtins[name]
        count = sc.sample["count"]
        per_profile = sum(_times_per_profile(m, sc.time_steps) for m in sc.maps)
        invocations.append(
            Invocation(
                name,
                ("run", "certify", "--name", name, "--seed", str(_child_seed(seed, 1, k))),
                0,
                _check_equiproper(name, count, verdict),
                _fixed(count * per_profile),
            )
        )
    name = "fixture/scale-by-2"
    invocations.append(
        Invocation(
            name,
            ("run", "certify", "--name", name, "--seed", str(_child_seed(seed, 2))),
            2,
            _check_first_witness(name),
            _fixed(1),
        )
    )
    return invocations


# --- simulate-long ---------------------------------------------------------

# the paper's claims fix how each stored scenario ends
PAPER_STOPS = {
    "paper/quarter-power": "max_steps",
    "paper/one-over-t": "max_steps",
    "paper/vanishing-confidence": "max_steps",
    "paper/krause-midpoint": "consensus",
    "paper/stripe": "consensus",
    "paper/nonarithmetic-cycle": "consensus",
    "paper/geometric-mean": "consensus",
}


def _check_stop(name: str, stop_reason: str, extra=None):
    def check(out: Path, stdout: str) -> list[str]:
        summary = _read_json(out, name, "summary.json")
        if summary["stop_reason"] != stop_reason:
            return [f"{name}: stopped on {summary['stop_reason']}, expected {stop_reason}"]
        return extra(out) if extra else []

    return check


def _read_csv(out: Path, name: str) -> np.ndarray:
    return np.loadtxt(
        out / f"{_slug(name)}.trajectory.csv", delimiter=",", skiprows=1, ndmin=2
    )


def _one_over_t_closed_form(out: Path) -> list[str]:
    """x(t) = ((t-2)/(t-1), 1) and gap(t) * (t-1) = 1, with the run
    starting at x(2)."""
    rows = _read_csv(out, "paper/one-over-t")
    t = rows[0::2, 0] + 2.0
    first, second, diameter = rows[0::2, 2], rows[1::2, 2], rows[0::2, 3]
    worst = max(
        float(np.abs(diameter * (t - 1.0) - 1.0).max()),
        float(np.abs(first - (t - 2.0) / (t - 1.0)).max()),
        float(np.abs(second - 1.0).max()),
    )
    if len(t) != 10_000 or worst > 1e-12:
        return [f"paper/one-over-t: closed form off by {worst:.3e} over {len(t)} states"]
    return []


def simulate_long(seed: int, inputs: Path) -> list[Invocation]:
    invocations = [
        Invocation(
            name,
            ("run", "simulate", "--name", name),
            0,
            _check_stop(
                name, stop, _one_over_t_closed_form if name == "paper/one-over-t" else None
            ),
            _summary_steps(name),
        )
        for name, stop in PAPER_STOPS.items()
    ]
    rng = np.random.default_rng(_child_seed(seed, 0))
    name = "bench/random-mean-selectors"
    path = inputs / "random-switching.json"
    _write_scenarios(
        path,
        [
            {
                "name": name,
                "mode": "simulate",
                "seed": _child_seed(seed, 1),
                "maps": [
                    descriptor_to_dict(mean_selector(sel)) for sel in ((2, 3, 2), (3, 2, 3))
                ],
                "policy": "random",
                "coordinate_map": {"kind": "interval"},
                "initial": {"coords": rng.uniform(0.5, 16.0, size=(3, 1)).tolist()},
                "tol": 1e-8,
                "max_steps": 10_000,
            }
        ],
    )
    invocations.append(
        Invocation(
            name,
            ("run", "simulate", "--file", str(path), "--name", name),
            0,
            _check_stop(name, "consensus"),
            _summary_steps(name),
        )
    )
    return invocations


# --- simulate-wide ---------------------------------------------------------


def _lazy_ring(n: int) -> np.ndarray:
    a = 0.5 * np.eye(n)
    idx = np.arange(n)
    a[idx, (idx + 1) % n] = 0.25
    a[idx, (idx - 1) % n] = 0.25
    return a


def _check_ring(name: str, a: np.ndarray, x0: np.ndarray):
    expected = np.linalg.matrix_power(a, RING_STEPS) @ x0

    def check(out: Path) -> list[str]:
        rows = _read_csv(out, name)
        n = x0.shape[0]
        final = rows[-n:, 2:4]
        problems = []
        if rows.shape[0] != (RING_STEPS + 1) * n or rows[-1, 0] != RING_STEPS:
            problems.append(f"{name}: expected {RING_STEPS} steps of {n} agents")
        elif not np.abs(final - expected).max() <= 1e-9:
            problems.append(f"{name}: final profile differs from A^{RING_STEPS} x0")
        if not (np.diff(rows[0::n, 4]) <= 0.0).all():
            problems.append(f"{name}: diameter increased")
        return problems

    return check


# The hulls along the run have 18 to 30 vertices on average for different
# random layouts, and inclusion and Hausdorff checks cost the product of two
# hull sizes, so over ten seeded layouts the geometry work of a pass varied
# 2.7-fold.  The layout is therefore one fixed draw, and the workload seed
# moves each agent by at most JITTER: the numbers change, the hull sizes do
# not.
JITTER = 1e-3


def simulate_wide(seed: int, inputs: Path) -> list[Invocation]:
    name = "bench/lazy-ring-500"
    path = inputs / "lazy-ring.json"
    a = _lazy_ring(RING_AGENTS)
    shape = (RING_AGENTS, 2)
    base = np.random.default_rng(_child_seed(0, 0)).uniform(JITTER, 1.0 - JITTER, size=shape)
    x0 = base + np.random.default_rng(_child_seed(seed, 0)).uniform(-JITTER, JITTER, size=shape)
    scenario = {
        "name": name,
        "mode": "simulate",
        "seed": _child_seed(seed, 1),
        "maps": [{"kind": "linear", "params": {"matrix": "MATRIX"}}],
        "initial": {"coords": x0.tolist()},
        "tol": 1e-9,
        "max_steps": RING_STEPS,
    }
    # the matrix is written row by row so that building the input does not
    # raise the benchmark process's peak memory above the program's own
    head, tail = json.dumps({"scenarios": [scenario]}).split('"MATRIX"')
    with open(path, "w") as fh:
        fh.write(head + "[")
        for i, row in enumerate(a):
            fh.write(("," if i else "") + json.dumps(row.tolist()))
        fh.write("]" + tail + "\n")
    return [
        Invocation(
            name,
            ("run", "simulate", "--file", str(path), "--name", name),
            0,
            _check_stop(name, "max_steps", _check_ring(name, a, x0)),
            _summary_steps(name),
        )
    ]


# --- rendezvous ------------------------------------------------------------


def _check_gathered(name: str, tol: float):
    def check(out: Path, stdout: str) -> list[str]:
        summary = _read_json(out, name, "summary.json")
        if (
            summary["stop_reason"] != "consensus"
            or summary["checks_ok"] is not True
            or not summary["final_diameter"] <= tol
        ):
            return [f"{name}: did not gather cleanly: {summary}"]
        return []

    return check


def _event_count(name: str) -> Callable[[Path], int]:
    def count(out: Path) -> int:
        text = (out / f"{_slug(name)}.events.jsonl").read_text()
        return len(text.splitlines())

    return count


# The work of a rendezvous run depends on its layout and on the scheduler's
# draws, which also set how many scans each grouped step takes.  Over 30
# random n=16 layouts the grouped steps vary with a coefficient of variation
# of 18%, over scheduler seeds for one layout by 4-8%; with seeded schedulers
# on fixed n=16 layouts the time of a pass still spread by 14% between
# workload seeds.  So the n=16 runs are fixed (layouts and scheduler seeds drawn once from constant
# seeds), and the workload seed draws the layout and scheduler of one n=8
# run; four seeded n=8 runs still spread transitions_per_s by 6%.
FIXED_N16 = 3
SEEDED_N8 = 1


def rendezvous(seed: int, inputs: Path) -> list[Invocation]:
    path = inputs / "rendezvous.json"
    tol = 1e-6
    scenarios, invocations = [], []
    for k in range(FIXED_N16 + SEEDED_N8):
        n, stream = (16, (0, k)) if k < FIXED_N16 else (8, (seed, k))
        name = f"bench/rendezvous-n{n}-{k}"
        coords = np.random.default_rng(_child_seed(*stream, 0)).uniform(0.0, 1.0, size=(n, 2))
        scenarios.append(
            {
                "name": name,
                "mode": "rendezvous",
                "seed": _child_seed(*stream, 1),
                "initial": {"coords": coords.tolist()},
                "tol": tol,
                "max_steps": 10_000,
            }
        )
        invocations.append(
            Invocation(
                name,
                ("run", "rendezvous", "--file", str(path), "--name", name),
                0,
                _check_gathered(name, tol),
                _event_count(name),
            )
        )
    _write_scenarios(path, scenarios)
    return invocations


# why each workload is in the benchmark: see BENCHMARK.json
WORKLOADS = {
    "certify-sweep": certify_sweep,
    "simulate-long": simulate_long,
    "simulate-wide": simulate_wide,
    "rendezvous": rendezvous,
}
