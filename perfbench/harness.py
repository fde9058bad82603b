"""Passes over a workload, their checks, digests and metrics.

A pass runs every invocation of a workload once through `consdyn.cli.main`,
in this process, the way `consdyn run ...` would.  Only the loop of
invocations is timed, under a speed probe (see speed.py), and its times are
reported at the reference speed; the output checks and sha256 digests of
each invocation's artifacts follow it.  An invocation fails on an unexpected exit
code, a failed check, or a digest that differs from the first pass's.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import consdyn.cli

from speed import SpeedProbe
from tracer import Tracer, write_spans
from workloads import WORKLOADS, Invocation


@dataclass
class Pass:
    wall_s: float  # at the reference speed
    raw_wall_s: float
    speed: float  # machine speed during the pass, relative to the reference
    digests: list[str]
    problems: list[list[str]]  # per invocation, empty when it succeeded
    transitions: int
    artifact_bytes: int
    csv_rows: int
    trace: dict | None = None


def _digest(code, stdout: str, out: Path) -> str:
    h = hashlib.sha256(f"exit {code}\n{stdout}".encode())
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(f"\0{path.relative_to(out)}\0".encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _invoke(argv: list[str]) -> tuple[object, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = consdyn.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed invocation, not a crash of the run
            code = "traceback"
            buf.write(traceback.format_exc())
    return code, buf.getvalue()


def run_pass(invocations: list[Invocation], where: Path, tracer: Tracer | None) -> Pass:
    outs = [where / f"{k:02d}" for k in range(len(invocations))]
    results = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            for inv, out in zip(invocations, outs):
                results.append(_invoke([*inv.argv, "--out", str(out)]))
            raw_wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()

    digests, problems = [], []
    transitions = artifact_bytes = csv_rows = 0
    for inv, out, (code, stdout) in zip(invocations, outs, results):
        digests.append(_digest(code, stdout, out))
        if code != inv.expect_exit:
            problems.append([f"{inv.name}: exit {code}, expected {inv.expect_exit}\n{stdout}"])
            continue
        try:
            found = inv.check(out, stdout)
            transitions += inv.transitions(out)
            for path in out.iterdir():
                artifact_bytes += path.stat().st_size
                if path.name.endswith(".trajectory.csv"):
                    with open(path, "rb") as fh:
                        csv_rows += sum(1 for _ in fh) - 1
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found = [f"{inv.name}: unreadable artifacts: {exc!r}"]
        problems.append(found)
    shutil.rmtree(where, ignore_errors=True)
    wall = probe.scale(raw_wall)
    return Pass(
        wall_s=wall,
        raw_wall_s=raw_wall,
        speed=wall / raw_wall,
        digests=digests,
        problems=problems,
        transitions=transitions,
        artifact_bytes=artifact_bytes,
        csv_rows=csv_rows,
        trace=tracer.summary() if tracer is not None else None,
    )


@dataclass
class Run:
    invocations: int
    untraced: list[Pass] = field(default_factory=list)
    traced: list[Pass] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return self.invocations * (len(self.untraced) + len(self.traced))

    @property
    def first(self) -> Pass:
        return (self.untraced or self.traced)[0]

    def digest(self) -> str:
        return hashlib.sha256("".join(self.first.digests).encode()).hexdigest()


def prepare(workload: str, seed: int, workdir: Path) -> list[Invocation]:
    """Write the scenario files of a workload under workdir/inputs."""
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    return WORKLOADS[workload](seed, inputs)


def measure(
    invocations: list[Invocation],
    seconds: float,
    workdir: Path,
    trace: bool = False,
    trace_path: Path | None = None,
) -> Run:
    """Run passes of the invocations for about `seconds`, at least two
    untraced ones; traced runs alternate untraced and traced passes, at
    least two of each, so the tracing overhead is measured alongside."""
    run = Run(len(invocations))
    tracer = Tracer() if trace else None
    minimum = 4 if trace else 2
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        p = run_pass(invocations, workdir / f"pass{k}", tracer if traced else None)
        (run.traced if traced else run.untraced).append(p)
        for inv, dig, found, ref in zip(invocations, p.digests, p.problems, run.first.digests):
            if dig != ref:
                found.append(f"{inv.name}: artifacts differ from the first pass")
            if found:
                run.failed += 1
                run.failures.extend(found)
        k += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(q.raw_wall_s for q in run.untraced + run.traced)
        if k >= minimum and elapsed + typical > seconds:
            break
    if tracer is not None:
        counts = [_exact_counts(p) for p in run.traced]
        if any(c != counts[0] for c in counts[1:]):
            run.failures.append("traced passes disagree on exact counts")
            run.failed += run.invocations
        if trace_path is not None:
            write_spans(trace_path, tracer)
    return run


def _exact_counts(p: Pass) -> dict:
    calls = {label: v["calls"] for label, v in p.trace.items() if label != "counters"}
    return {**calls, **p.trace["counters"], "bytes": p.artifact_bytes, "rows": p.csv_rows}


def end_to_end(run: Run) -> dict[str, float]:
    wall = statistics.median(p.wall_s for p in run.untraced)
    return {"transitions_per_s": run.first.transitions / wall, "wall_s": wall}


def per_layer(run: Run) -> dict[str, float]:
    """Exact counts from the last traced pass, times at the reference speed
    as medians over the traced passes.  Span times include the speed probes
    that fired inside them, about 2% of the pass."""
    last = run.traced[-1]

    def med(label: str, key: str) -> float:
        return statistics.median(p.trace[label][key] * p.speed for p in run.traced)

    def calls(label: str) -> int:
        return last.trace[label]["calls"]

    def mean_us(label: str) -> float:
        n = calls(label)
        return 1e6 * med(label, "s") / n if n else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    counters = last.trace["counters"]
    transitions = last.transitions
    m: dict[str, float] = {
        "workload.transitions": transitions,
        "cli.main.calls": calls("cli.main"),
        "cli.main.s": med("cli.main", "s"),
        "cli.artifact_bytes": last.artifact_bytes,
        "scenarios.get_scenario.s": med("scenarios.get_scenario", "s"),
        "scenarios.resolve_initial.s": med("scenarios.resolve_initial", "s"),
        "maps.apply_map.calls": calls("maps.apply_map"),
        "maps.apply_map.self_s": med("maps.apply_map", "self_s"),
        "maps.apply_map.mean_us": mean_us("maps.apply_map"),
    }
    for fn in ("build_hull", "inclusion_excess", "hausdorff", "hull_diameter",
               "point_to_hull_distance", "Profile.diameter"):
        m[f"geometry.{fn}.calls"] = calls(f"geometry.{fn}")
        m[f"geometry.{fn}.self_s"] = med(f"geometry.{fn}", "self_s")
    m["geometry.build_hull.mean_us"] = mean_us("geometry.build_hull")
    m["geometry.hull_vertices"] = counters.get("geometry.hull_vertices", 0)
    m["geometry.distance_queries_per_transition"] = ratio(
        calls("geometry.point_to_hull_distance"), transitions
    )
    m["certify.properness_gap.calls"] = calls("certify.properness_gap")
    m["certify.properness_gap.self_s"] = med("certify.properness_gap", "self_s")
    m["certify.check_averaging.s"] = med("certify.check_averaging", "s")
    m["certify.check_equiproper.s"] = med("certify.check_equiproper", "s")
    m["certify.build_hull_per_transition"] = ratio(
        counters["certify.build_hull_in_checks"], calls("certify.properness_gap")
    )
    m["simulate.run.calls"] = calls("simulate.run")
    m["simulate.run.self_s"] = med("simulate.run", "self_s")
    m["simulate.write_trajectory_csv.s"] = med("simulate.write_trajectory_csv", "s")
    m["simulate.csv_rows"] = last.csv_rows
    for fn in ("run_protocol", "protocol_step", "scan", "move_rule_star", "tie_groups"):
        m[f"rendezvous.{fn}.calls"] = calls(f"rendezvous.{fn}")
        m[f"rendezvous.{fn}.self_s"] = med(f"rendezvous.{fn}", "self_s")
    m["rendezvous.events_to_jsonl.s"] = med("rendezvous.events_to_jsonl", "s")
    m["rendezvous.moves_per_activation"] = ratio(
        counters.get("rendezvous.movers", 0), calls("rendezvous.scan")
    )
    m["trace.overhead_ratio"] = statistics.median(
        p.wall_s for p in run.traced
    ) / statistics.median(p.wall_s for p in run.untraced)
    return m
