"""Trajectory engine for switching map sequences.

x(t+1) = f_t(x(t)) where f_t is drawn from a finite family by a switching
policy (single map, cyclic, seeded random, or a fully scripted sequence).
Time dependent maps keep their own internal clocks: a map's time index is
its start index plus the number of times it has been applied so far, unless
the script pins an explicit index.  Every run monitors the hull sequence
(inclusion of each hull in its predecessor, Hausdorff gap, diameter), a
block of steps at a time, and stops on consensus, on a violated inclusion,
on a domain error, or at the step cap.  A run either stores every profile
or streams its CSV to disk and keeps only the initial and final profiles.
"""
from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    CoordinateMapSpec,
    GeometryError,
    Profile,
    StackError,
    consecutive_steps,
    identity_spec,
    profile_diameters,
    profile_hull_diameter,
    require_budget,
    require_integer,
    require_seed,
    require_tolerance,
)
from .maps import DomainError, MapDescriptor, apply_map, check_call

STOP_CONSENSUS = "consensus"
STOP_MAX_STEPS = "max_steps"
STOP_VIOLATION = "violation"

POLICIES = ("single", "cyclic", "random", "scripted")
BLOCK_FIRST, BLOCK_LAST = 16, 256  # a run's audit blocks double from 16 steps to 256


class SimulationError(RuntimeError):
    pass


_integer = partial(require_integer, error=SimulationError)


@dataclass(frozen=True)
class SwitchingSequence:
    """Switching policy over a finite family of maps.

    policy "single" repeats maps[0]; "cyclic" walks the family round robin;
    "random" draws uniformly with the mandatory seed; "scripted" follows
    `script`, whose entries are map indices or (index, time_index) pairs
    that override the map's internal clock, never below its start_index.
    """

    maps: tuple[MapDescriptor, ...]
    policy: str = "single"
    seed: int | None = None
    script: tuple | None = None

    def __post_init__(self):
        if not self.maps:
            raise SimulationError("need at least one map")
        if self.policy not in POLICIES:
            raise SimulationError(f"unknown policy {self.policy!r}")
        if self.policy == "random" and self.seed is None:
            raise SimulationError("random switching needs a seed")
        if self.seed is not None:
            object.__setattr__(self, "seed", require_seed(self.seed, "seed", SimulationError))
        if self.script is not None:
            object.__setattr__(self, "script", tuple(map(_script_entry, self.script)))
        if self.policy == "scripted":
            if not self.script:
                raise SimulationError("scripted switching needs a script")
            for entry in self.script:
                idx, t = entry if isinstance(entry, tuple) else (entry, None)
                if not 0 <= idx < len(self.maps):
                    raise SimulationError(f"script index {idx} out of range")
                if t is not None and t < (start := self.maps[idx].start_index):
                    raise SimulationError(f"script entry {entry!r}: time index below start index {start}")
        shapes = {(m.n, m.d) for m in self.maps}
        ns = {s[0] for s in shapes if s[0] is not None}
        ds = {s[1] for s in shapes if s[1] is not None}
        if len(ns) > 1 or len(ds) > 1:
            raise SimulationError("family members disagree on profile shape")
        object.__setattr__(self, "maps", tuple(self.maps))


def _script_entry(entry):
    """A script entry as an int index or an (index, time_index) pair of ints."""
    if not isinstance(entry, (tuple, list)):
        return _integer(entry, "script entry")
    if len(entry) != 2:
        raise SimulationError(f"script entry must be an index or an (index, time) pair, got {entry!r}")
    return tuple(_integer(v, "script entry") for v in entry)


def single(desc: MapDescriptor) -> SwitchingSequence:
    return SwitchingSequence(maps=(desc,), policy="single")


def cyclic(descs: Sequence[MapDescriptor]) -> SwitchingSequence:
    return SwitchingSequence(maps=tuple(descs), policy="cyclic")


def random_policy(descs: Sequence[MapDescriptor], seed: int) -> SwitchingSequence:
    return SwitchingSequence(maps=tuple(descs), policy="random", seed=seed)


def scripted(descs: Sequence[MapDescriptor], script) -> SwitchingSequence:
    return SwitchingSequence(maps=tuple(descs), policy="scripted", script=tuple(script))


def _walk(seq: SwitchingSequence):
    """Yield (map, time index, map index) per step of a switching sequence;
    a scripted sequence ends where its script ends.  Each family member
    advances its internal clock only when it actually fires."""
    uses = [0] * len(seq.maps)
    if seq.policy == "scripted":
        entries = seq.script
    elif seq.policy == "random":
        rng = np.random.default_rng(seq.seed)
        entries = (int(rng.integers(len(seq.maps))) for _ in itertools.count())
    elif seq.policy == "cyclic":
        entries = itertools.cycle(range(len(seq.maps)))
    else:
        entries = itertools.repeat(0)
    for entry in entries:
        idx, override = entry if isinstance(entry, tuple) else (entry, None)
        desc = seq.maps[idx]
        t = desc.start_index + uses[idx] if override is None else override
        uses[idx] += 1
        yield desc, t, idx


def realize(seq: SwitchingSequence, steps: int) -> SwitchingSequence:
    """Freeze the next `steps` choices of a sequence (fewer if its script
    ends first) into a scripted one with explicit time indices, e.g. to
    replay one random realization."""
    script = tuple((idx, t) for _, t, idx in itertools.islice(_walk(seq), steps))
    return SwitchingSequence(maps=seq.maps, policy="scripted", script=script)


@dataclass
class Trajectory:
    """Recorded run.  diameters, gaps and included have length steps + 1,
    map_indices and time_indices length steps (a rendezvous record leaves
    both empty); entry 0 is the initial state (gap 0, included True).
    `profiles` holds every state of a stored run but only the initial one
    of a run that streamed its CSV; `final` is always the last state."""

    spec: CoordinateMapSpec
    profiles: list[Profile]
    diameters: list[float]
    gaps: list[float]
    included: list[bool]
    map_indices: list[int]
    time_indices: list[int]
    stop_reason: str
    final: Profile
    violation: dict | None = None
    seed: int | None = None

    @classmethod
    def start(cls, spec: CoordinateMapSpec, initial: Profile, diameter: float, seed) -> "Trajectory":
        """The record of a run still at its initial state."""
        return cls(
            spec=spec, profiles=[initial], diameters=[diameter], gaps=[0.0], included=[True],
            map_indices=[], time_indices=[], stop_reason=STOP_MAX_STEPS, final=initial, seed=seed,
        )

    @property
    def profiles_truncated(self) -> bool:
        """True when the run streamed states it did not keep."""
        return len(self.profiles) < len(self.diameters)

    @property
    def steps(self) -> int:
        return len(self.diameters) - 1

    @property
    def final_diameter(self) -> float:
        return self.diameters[-1]


@dataclass(frozen=True)
class ConsensusVerdict:
    reached: bool
    gamma: tuple[float, ...] | None  # centroid of the final profile
    final_diameter: float
    steps: int

    def to_dict(self) -> dict:
        return {
            "reached": self.reached,
            "gamma": None if self.gamma is None else list(self.gamma),
            "final_diameter": self.final_diameter,
            "steps": self.steps,
        }


def consensus_verdict(traj: Trajectory, tol: float = 1e-9) -> ConsensusVerdict:
    reached = traj.final_diameter <= tol
    gamma = tuple(float(c) for c in traj.final.centroid()) if reached else None
    return ConsensusVerdict(reached, gamma, traj.final_diameter, traj.steps)


def _csv_header(d: int) -> str:
    cols = ",".join(f"c{i + 1}" for i in range(d))
    return f"t,agent,{cols},diameter,gap"


def _cells(d: int) -> str:
    """The format of an agent's d coordinates: each one's repr."""
    return ",".join(["%r"] * d)


@lru_cache(maxsize=1)  # a run has one shape; a larger cache would keep huge templates
def _row_template(n: int, d: int) -> str:
    r"""The format of a step's n rows; \0 stands for its head, \1 for its tail."""
    cells = _cells(d)
    return "".join([f"\0{i},{cells}\1" for i in range(n)])


def _csv_rows(t: int, profile, diameter: float, gap: float) -> str:
    """The CSV lines of one step, a Profile or its (n, d) coordinates,
    each ending in a newline: one % format of the shape's row template."""
    coords = profile.coords if isinstance(profile, Profile) else profile
    tail = f",{float(diameter)!r},{float(gap)!r}\n"
    rows = _row_template(*coords.shape).replace("\0", f"{t},").replace("\1", tail)
    return rows % tuple(coords.ravel().tolist())


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the full per-agent trajectory table, the lines of _csv_rows.
    Requires a stored run; a streamed run already wrote its CSV and kept
    no profile past the initial one.

    Each agent's cells are formatted again only when its coordinates'
    bits change (-0.0 and 0.0 print differently), found by one comparison
    per block of BLOCK_LAST states and the state before them (NaN rows,
    unequal to every finite one, before the first)."""
    if traj.profiles_truncated:
        raise SimulationError("the run streamed its profiles; use the streamed CSV")
    last, cells = np.full_like(traj.profiles[0].coords, np.nan), [""] * traj.profiles[0].n
    moved_row = "%d," + _cells(last.shape[1])
    with open(path, "w") as fh:
        fh.write(_csv_header(last.shape[1]) + "\n")
        for start in range(0, len(traj.profiles), BLOCK_LAST):
            block = np.stack([last] + [x.coords for x in traj.profiles[start : start + BLOCK_LAST]])
            bits = block.view(np.uint64)
            step, row = np.nonzero((bits[1:] != bits[:-1]).any(axis=2))
            moved = zip(row.tolist(), block[step + 1, row].tolist())
            for t, count in enumerate(np.bincount(step, minlength=len(block) - 1).tolist(), start):
                for i, coords in itertools.islice(moved, count):
                    cells[i] = moved_row % (i, *coords)
                head, tail = f"{t},", f",{float(traj.diameters[t])!r},{float(traj.gaps[t])!r}\n"
                fh.write(head + (tail + head).join(cells) + tail)
            last = block[-1]


# overflow, in a map's image or in its hull, ends the run as a domain
# violation, not as a warning; the steps after it are dropped silently
@np.errstate(all="ignore")
def run(
    seq: SwitchingSequence,
    initial: Profile,
    spec: CoordinateMapSpec | None = None,
    *,
    tol: float = 1e-9,
    max_steps: int = 100_000,
    csv_path=None,
    seed: int | None = None,
) -> Trajectory:
    """Iterate the switching sequence from `initial` until the hull diameter
    drops to tol (consensus), an inclusion or domain violation occurs (a
    state without a hull is a domain violation), or max_steps or the script
    is exhausted.  With csv_path the per-step rows stream to disk and the
    record keeps only the initial profile and `final`; without it the
    record keeps every profile.  Hulls never steer a run, they only stop
    it, so it runs in blocks of up to BLOCK_LAST steps, each audited by one
    consecutive_steps call.  A block also ends after a step whose every
    coordinate spans at most 2 * tol (the first is tested on floats, the
    rest only if it passes): the extremes of each are hull vertices, so
    only such a step can reach consensus.  A block's images stay bare
    arrays, checked once by that call: the first state without a hull (a
    non-finite image or a failed direction hull) is held as the
    GeometryError its build_hull raises, and the steps computed after it
    are dropped, whatever they raised.  An exception from a map is held
    too; either is dropped if a step before it stops the run."""
    require_tolerance(tol, "tol", SimulationError)
    max_steps = require_budget(max_steps, "max_steps", SimulationError)
    for desc in seq.maps:  # a map that cannot take the profile fails before the CSV opens
        check_call(desc, desc.start_index, initial.coords.shape)
    spec = spec or identity_spec()
    dia = profile_hull_diameter(initial, spec)

    traj = Trajectory.start(spec, initial, dia, seed if seed is not None else seq.seed)
    with open(csv_path, "w") if csv_path is not None else nullcontext() as sink:
        if sink:
            sink.write(_csv_header(initial.d) + "\n")
            sink.write(_csv_rows(0, initial, dia, 0.0))
        if dia <= tol:
            traj.stop_reason = STOP_CONSENSUS
            return traj
        walk, size = itertools.islice(_walk(seq), max_steps), BLOCK_FIRST
        while _run_block(traj, walk, size, spec, tol, sink):
            size = min(2 * size, BLOCK_LAST)
        return traj


def _run_block(traj: Trajectory, walk, size: int, spec: CoordinateMapSpec, tol: float, sink) -> bool:
    """Apply, audit, record and write one block of up to `size` steps of
    a run (see run); False once the run has ended."""
    taken, ys, held = [], [traj.final.coords], None
    for step in itertools.islice(walk, size):
        taken.append(step)
        try:
            x = apply_map(step[0], step[1], ys[-1])
        except Exception as exc:  # held until the steps before it are audited
            held = exc
            break
        ys.append(x)
        col = x[:, 0].tolist()
        if max(col) - min(col) <= 2 * tol and (x.max(axis=0) - x.min(axis=0)).max() <= 2 * tol:
            break
    if not taken:
        return False
    try:
        (excess, vertex, gap), (verts, count) = consecutive_steps(np.array(ys), spec)
    except StackError as exc:  # the first state without a hull ends the block
        ((excess, vertex, gap), (verts, count)), held = exc.head, exc.error
    m = len(excess)
    dia, ok = profile_diameters(verts[1 : m + 1]), excess[:m] <= DEFAULT_TOL
    stop = np.flatnonzero(~ok | (dia <= tol))
    m = int(stop[0]) + 1 if len(stop) else m
    dias, gaps = dia[:m].tolist(), gap[:m].tolist()
    if sink:
        for k, y in enumerate(ys[1 : m + 1]):
            sink.write(_csv_rows(traj.steps + 1 + k, y, dias[k], gaps[k]))
        if m:
            traj.final = Profile(ys[m])
    elif m:
        traj.profiles += [Profile(y) for y in ys[1 : m + 1]]
        traj.final = traj.profiles[-1]
    traj.map_indices += [idx for _, _, idx in taken[:m]]
    traj.time_indices += [t_int for _, t_int, _ in taken[:m]]
    traj.diameters += dias
    traj.gaps += gaps
    traj.included += ok[:m].tolist()

    if len(stop) and ok[m - 1]:
        traj.stop_reason = STOP_CONSENSUS
    elif len(stop):
        desc, t, _ = taken[m - 1]
        traj.stop_reason = STOP_VIOLATION  # at the last step recorded
        traj.violation = {"step": traj.steps, "kind": "inclusion", "map": desc.label(), "time_index": t,
                          "vertex": vertex[m - 1].tolist(), "excess": float(excess[m - 1])}
    elif held is None:
        return True
    elif isinstance(held, (DomainError, GeometryError)):  # at the step after those recorded
        traj.stop_reason = STOP_VIOLATION
        traj.violation = {"step": traj.steps + 1, "kind": "domain", "detail": str(held)}
    else:
        raise held
    return False


def summary_dict(traj: Trajectory, tol: float = 1e-9) -> dict:
    verdict = consensus_verdict(traj, tol)
    return {
        "stop_reason": traj.stop_reason,
        "steps": traj.steps,
        "gamma": None if verdict.gamma is None else list(verdict.gamma),
        "final_diameter": traj.final_diameter,
        "seed": traj.seed,
    }


@dataclass(frozen=True)
class ProbeRecord:
    initial_distance: float
    limit_distance: float | None
    converged: bool

    def to_dict(self) -> dict:
        return {
            "initial_distance": self.initial_distance,
            "limit_distance": self.limit_distance,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class RadiusEntry:
    radius: float
    max_limit_distance: float | None
    probes: tuple[ProbeRecord, ...]

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "max_limit_distance": self.max_limit_distance,
            "probes": [p.to_dict() for p in self.probes],
        }


@dataclass(frozen=True)
class ContinuityReport:
    base: ConsensusVerdict
    entries: tuple[RadiusEntry, ...]

    def to_dict(self) -> dict:
        return {
            "base": self.base.to_dict(),
            "entries": [e.to_dict() for e in self.entries],
        }


def continuity_experiment(
    seq: SwitchingSequence,
    initial: Profile,
    radii: Sequence[float],
    probes_per_radius: int = 10,
    *,
    spec: CoordinateMapSpec | None = None,
    tol: float = 1e-9,
    max_steps: int = 10_000,
    seed: int = 0,
) -> ContinuityReport:
    """Sensitivity of the consensus value to the initial profile under one
    fixed realization of the switching sequence.

    The sequence is frozen first, so every probe sees the same maps in the
    same order with the same time indices.  Each probe perturbs the initial
    profile inside a sup-norm ball and records the distance between its
    consensus value and the base one; probes that fail to reach consensus
    within max_steps are flagged."""
    frozen = realize(seq, max_steps)
    base_traj = run(frozen, initial, spec, tol=tol, max_steps=max_steps)
    base = consensus_verdict(base_traj, tol)
    rng = np.random.default_rng(seed)
    entries = []
    for radius in radii:
        probes = []
        for _ in range(probes_per_radius):
            delta = rng.uniform(-radius, radius, size=initial.coords.shape)
            probe0 = Profile(initial.coords + delta)
            init_dist = float(np.abs(delta).max())
            ptraj = run(frozen, probe0, spec, tol=tol, max_steps=max_steps)
            pv = consensus_verdict(ptraj, tol)
            if base.reached and pv.reached:
                limit = float(
                    np.abs(np.asarray(pv.gamma) - np.asarray(base.gamma)).max()
                )
            else:
                limit = None
            probes.append(ProbeRecord(init_dist, limit, pv.reached))
        limits = [p.limit_distance for p in probes if p.limit_distance is not None]
        entries.append(
            RadiusEntry(
                radius=float(radius),
                max_limit_distance=max(limits) if limits else None,
                probes=tuple(probes),
            )
        )
    return ContinuityReport(base=base, entries=tuple(entries))
