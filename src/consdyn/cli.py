"""Command line runner.

    consdyn run simulate   --name paper/krause-midpoint [--out DIR]
    consdyn run certify    --name fixture/scale-by-2
    consdyn run rendezvous --name paper/watergun-rendezvous --seed 7
    consdyn run matrix     --file A.csv
    consdyn list [--file scenarios.json]

Scenarios come from the built-in catalog or from a --file in the JSON format
that README.md lists level by level, checked in full at load.
--seed/--max-steps/--tol override the scenario's own values.
Artifacts (trajectory CSV, summary JSON, certification report, event log)
land in --out (default: current directory) under the scenario's slug;
matrix mode writes its analysis JSON only when --out is given.
Exit codes: 0 success, 1 usage or configuration error, 2 certification
failure, hull violation, or a protocol run that did not gather.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .certify import (
    CertifyError,
    analyze_matrix,
    check_averaging,
    check_equiproper,
)
from .maps import validate_row_stochastic
from .rendezvous import RendezvousError, events_to_jsonl, run_protocol
from .schema import json_text
from .scenarios import (
    Scenario,
    ScenarioError,
    build_sequence,
    derived_seeds,
    get_scenario,
    resolve_initial,
    resolve_spec,
    sample_config,
    scenario_table,
)
from .simulate import (
    STOP_VIOLATION,
    SimulationError,
    run,
    summary_dict,
    write_trajectory_csv,
)

USAGE_ERROR = 1
CHECK_FAILED = 2


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="consdyn", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a scenario", parents=[])
    runp.add_argument(
        "mode", choices=["simulate", "certify", "rendezvous", "matrix"]
    )
    runp.add_argument("--file", help="scenario file (or matrix file for matrix mode)")
    runp.add_argument("--name", help="scenario name (built-in or from --file)")
    runp.add_argument("--out", help="artifact directory (default: .; matrix mode: no artifact)")
    runp.add_argument("--seed", type=int, help="override scenario seed")
    runp.add_argument("--max-steps", type=int, help="override step budget")
    runp.add_argument("--tol", type=float, help="override tolerance")

    listp = sub.add_parser("list", help="list known scenarios")
    listp.add_argument("--file", help="scenario file")
    return parser


def _slug(name: str) -> str:
    return name.replace("/", "-")


def _write_json(path: Path, payload) -> None:
    """Strict JSON (RFC 8259): a number that overflowed to a non-finite
    float is written as null."""
    try:
        text = json_text(payload)
    except ValueError:
        text = json_text(json.loads(json.dumps(payload), parse_constant=lambda _: None))
    path.write_text(text + "\n")


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    updates = {"seed": args.seed, "max_steps": args.max_steps, "tol": args.tol}
    updates = {key: value for key, value in updates.items() if value is not None}
    return dataclasses.replace(scenario, **updates) if updates else scenario


def cmd_simulate(scenario: Scenario, out: Path) -> int:
    seq = build_sequence(scenario)
    x0 = resolve_initial(scenario)
    spec = resolve_spec(scenario)
    slug = _slug(scenario.name)
    traj = run(
        seq,
        x0,
        spec,
        tol=scenario.tol,
        max_steps=scenario.max_steps,
        csv_path=out / f"{slug}.trajectory.csv",
        seed=scenario.seed,
    )
    summary = summary_dict(traj, scenario.tol)
    _write_json(out / f"{slug}.summary.json", summary)
    print(
        f"{scenario.name}: {traj.stop_reason} after {traj.steps} steps, "
        f"final diameter {traj.final_diameter:.6e}"
    )
    if traj.stop_reason == STOP_VIOLATION:
        print(f"violation: {json.dumps(traj.violation, sort_keys=True)}")
        return CHECK_FAILED
    return 0


def cmd_certify(scenario: Scenario, out: Path) -> int:
    spec = resolve_spec(scenario)
    cfg = sample_config(scenario)
    slug = _slug(scenario.name)
    if scenario.check == "averaging":
        reports = [
            check_averaging(
                m, spec, samples=cfg, tol=scenario.tol, time_steps=scenario.time_steps
            )
            for m in scenario.maps
        ]
        _write_json(out / f"{slug}.certify.json", [r.to_dict() for r in reports])
        failed = False
        for rep in reports:
            status = "ok" if rep.ok else "VIOLATION"
            gap = "n/a" if rep.family_min_gap is None else f"{rep.family_min_gap:.3e}"
            print(f"{rep.labels[0]:<40} inclusion {status:<9} min gap {gap}")
            if rep.witness is not None:
                failed = True
                print(f"  witness: {json.dumps(rep.witness.to_dict(), sort_keys=True)}")
        return CHECK_FAILED if failed else 0
    rep = check_equiproper(
        scenario.maps,
        spec,
        samples=cfg,
        tol=scenario.tol,
        gap_floor=scenario.gap_floor,
        consensus_tol=scenario.consensus_tol,
        time_steps=scenario.time_steps,
    )
    _write_json(out / f"{slug}.certify.json", rep.to_dict())
    print(f"{'profile':>8} {'min gap':>14} verdict")
    for rec in rep.records:
        gap = "n/a" if rec.min_gap is None else f"{rec.min_gap:.6e}"
        verdict = "ok" if rec.included else "VIOLATION"
        print(f"{rec.profile_id:>8} {gap:>14} {verdict}")
    if rep.witness is not None:
        print(f"witness: {json.dumps(rep.witness.to_dict(), sort_keys=True)}")
        return CHECK_FAILED
    floor = rep.gap_floor
    print(
        f"family min gap {rep.family_min_gap:.6e} over {len(rep.records)} profiles; "
        f"equiproper at floor {floor:.1e}: {'yes' if rep.equiproper else 'NO'}"
    )
    return 0


def cmd_rendezvous(scenario: Scenario, out: Path) -> int:
    x0 = resolve_initial(scenario)
    if x0.d != 2:
        raise ScenarioError(f"{scenario.name}: rendezvous agents live in the plane")
    if x0.n < 2:
        raise ScenarioError(
            f"{scenario.name}: rendezvous needs at least two agents, initial has {x0.n}"
        )
    slug = _slug(scenario.name)
    result = run_protocol(
        x0.coords,
        tol=scenario.tol,
        max_grouped_steps=scenario.max_steps,
        seed=derived_seeds(scenario.seed)["scheduler"],
    )
    (out / f"{slug}.events.jsonl").write_text(events_to_jsonl(result.events))
    write_trajectory_csv(result.trajectory, out / f"{slug}.trajectory.csv")
    summary = summary_dict(result.trajectory, scenario.tol)
    summary["seed"], summary["checks_ok"] = scenario.seed, result.all_checks_ok
    _write_json(out / f"{slug}.summary.json", summary)
    traj = result.trajectory
    print(
        f"{scenario.name}: {traj.stop_reason} after {traj.steps} grouped steps, "
        f"final diameter {traj.final_diameter:.6e}"
    )
    if result.events and result.events[-1].consensus:
        print("consensus found!" if result.verdict.reached else "tied farther apart than tol")
    if not result.verdict.reached or not result.all_checks_ok:
        return CHECK_FAILED
    return 0


def _load_matrix(path: Path, name: str | None):
    if path.suffix.lower() == ".csv":
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, delimiter=",", ndmin=2)
        if not rows.size:
            raise ScenarioError("matrix file holds no numbers")
        return rows
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, list):
        return data
    if isinstance(data, dict):
        table = data.get("matrices", data)
        if not isinstance(table, dict):
            raise ScenarioError("matrix table must be an object of name -> matrix")
        if name is None:
            raise ScenarioError("matrix file holds several matrices; pass --name")
        if name not in table:
            raise ScenarioError(f"no matrix named {name!r} in file")
        return table[name]
    raise ScenarioError("matrix file must hold a matrix or a name->matrix table")


def cmd_matrix(args) -> int:
    if args.file is None:
        raise ScenarioError("matrix mode needs --file")
    a = validate_row_stochastic(_load_matrix(Path(args.file), args.name))
    analysis = analyze_matrix(a)
    print(f"tau (ergodicity coefficient): {analysis.tau!r}")
    print(f"scrambling: {'yes' if analysis.scrambling else 'no'}")
    print(
        "scrambling index: "
        + ("none up to cap" if analysis.scrambling_index is None else str(analysis.scrambling_index))
    )
    print(
        "regularity index: "
        + ("none up to cap" if analysis.regularity_index is None else str(analysis.regularity_index))
    )
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "matrix.analysis.json", analysis.to_dict())
    return 0


def cmd_list(args) -> int:
    table = scenario_table(args.file)
    for name in sorted(table):
        print(f"{name:<32} {table[name].mode}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list(args)
        if args.mode == "matrix":
            return cmd_matrix(args)
        if args.name is None:
            parser.error("run needs --name")
        scenario = get_scenario(args.name, args.file)
        scenario = _apply_overrides(scenario, args)
        if scenario.mode != args.mode:
            raise ScenarioError(
                f"scenario {scenario.name!r} is a {scenario.mode} scenario, "
                f"not {args.mode}"
            )
        out = Path(args.out or ".")
        out.mkdir(parents=True, exist_ok=True)
        if args.mode == "simulate":
            return cmd_simulate(scenario, out)
        if args.mode == "certify":
            return cmd_certify(scenario, out)
        return cmd_rendezvous(scenario, out)
    except json.JSONDecodeError as exc:
        print(
            f"consdyn: error: malformed JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}",
            file=sys.stderr,
        )
        return USAGE_ERROR
    except (ValueError, CertifyError, SimulationError, OSError) as exc:
        print(f"consdyn: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:  # an input too large to hold, such as numpy's "Unable to allocate ..."
        print(f"consdyn: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return USAGE_ERROR
    except RendezvousError as exc:
        print(f"consdyn: protocol failure: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
