"""Numeric certification of averaging behavior, plus stochastic matrix
analysis.

A map is averaging for a coordinate-map spec when the hull of the updated
profile sits inside the hull of the current one; it is proper at a profile
when the inclusion is strict, measured by the Hausdorff gap between the two
hulls.  A family is equiproper when at every sampled non-consensus profile
the gap stays positive uniformly over the family members.  These are
sampling certificates, not proofs: they scan seeded random profiles (and a
time range for time dependent maps) and report minima and witnesses.  The
scans map and score all profiles of a sample together, one stack call per
family member and time index, with the outcome of the profile-by-profile
loop: the same records, minima and first failure.

The linear theory lives here too: coefficient of ergodicity, scrambling
tests, and the first matrix powers that become scrambling / strictly
positive.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import (
    CoordinateMapSpec,
    Profile,
    StackError,
    finite_number,
    hull_step_stack,
    profile_diameters,
    require_budget,
    require_seed,
    require_tolerance,
)
from .maps import MapDescriptor, apply_map, common_claim, validate_row_stochastic

SUPPORT_TOL = 1e-12
DEFAULT_GAP_FLOOR = 1e-9
DEFAULT_CONSENSUS_TOL = 1e-6
DEFAULT_TIME_STEPS = 50
MAX_TIME_STEPS = 10**6  # a scan's time indices stay a few tens of MB


class CertifyError(RuntimeError):
    pass


class InclusionViolationError(CertifyError):
    """Raised when a claimed-averaging map leaves its hull."""

    def __init__(self, witness: "Witness"):
        self.witness = witness
        super().__init__(
            f"hull inclusion fails for {witness.map_label} at t={witness.time_index}: "
            f"vertex {witness.vertex} exceeds the outer hull by {witness.excess:.3e}"
        )


@dataclass(frozen=True)
class SampleConfig:
    """Seeded uniform-box profile sampler."""

    seed: int
    count: int
    n: int
    d: int
    low: float = -1.0
    high: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "seed", require_seed(self.seed, "seed", ValueError))
        for key in ("count", "n", "d"):
            object.__setattr__(self, key, require_budget(getattr(self, key), key, ValueError))
        for key in ("low", "high"):
            value = getattr(self, key)
            if not (isinstance(value, numbers.Real) and finite_number(value)):
                raise ValueError(f"{key} must be a finite real number, got {value!r}")
        if not self.low < self.high:
            raise ValueError("need low < high")
        if not math.isfinite(float(self.high) - float(self.low)):
            raise ValueError(f"high - low must be finite, got low={self.low!r}, high={self.high!r}")

    def stack(
        self, rng: np.random.Generator | None = None, count: int | None = None
    ) -> np.ndarray:
        """count (default: self.count) profiles as one (count, n, d) array:
        the same numbers as count successive (n, d) draws from rng."""
        rng = rng or np.random.default_rng(self.seed)
        count = self.count if count is None else count
        return rng.uniform(self.low, self.high, size=(count, self.n, self.d))

    def draw(self, rng: np.random.Generator | None = None) -> list[Profile]:
        return [Profile(x) for x in self.stack(rng)]

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class Witness:
    """Reproducible pointer to a failed hull inclusion."""

    map_label: str
    profile_id: int
    time_index: int
    vertex: tuple[float, ...]
    excess: float
    profile: tuple[tuple[float, ...], ...]

    def to_dict(self) -> dict:
        out = {**vars(self), "vertex": list(self.vertex), "profile": [list(row) for row in self.profile]}
        out["map"] = out.pop("map_label")
        return out


@dataclass(frozen=True)
class ProfileRecord:
    profile_id: int
    included: bool
    min_gap: float | None  # over the maps/times checked at this profile
    worst_excess: float

    def to_dict(self) -> dict:
        # a shallow copy: a deep one per record cost certify-sweep ~10% wall time
        return dict(vars(self))


@dataclass(frozen=True)
class CertReport:
    """Outcome of an averaging / equiproperness scan."""

    check: str  # averaging | equiproper
    labels: tuple[str, ...]
    spec: CoordinateMapSpec
    records: tuple[ProfileRecord, ...]
    family_min_gap: float | None
    witness: Witness | None
    tol: float
    sample: SampleConfig | None = None
    gap_floor: float | None = None
    equiproper: bool | None = None
    consensus_tol: float | None = None

    @property
    def ok(self) -> bool:
        return self.witness is None

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "maps": list(self.labels),
            "coordinate_map": self.spec.to_dict(),
            "tol": self.tol,
            "sample": None if self.sample is None else self.sample.to_dict(),
            "profiles": len(self.records),
            "family_min_gap": self.family_min_gap,
            "gap_floor": self.gap_floor,
            "equiproper": self.equiproper,
            "consensus_tol": self.consensus_tol,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "records": [r.to_dict() for r in self.records],
        }


def default_time_range(desc: MapDescriptor, time_steps: int = DEFAULT_TIME_STEPS) -> tuple[int, ...]:
    """The first time_steps indices of a time dependent map, else its start
    index alone; a time dependent map refuses time_steps above
    MAX_TIME_STEPS."""
    if desc.time_dependent:
        if time_steps > MAX_TIME_STEPS:
            raise CertifyError(f"time_steps must be at most {MAX_TIME_STEPS}, got {time_steps}")
        return tuple(range(desc.start_index, desc.start_index + time_steps))
    return (desc.start_index,)


def _check_sampler(descs: Sequence[MapDescriptor], samples: SampleConfig) -> None:
    for desc in descs:
        if desc.n is not None and desc.n != samples.n:
            raise CertifyError(
                f"{desc.label()} needs n={desc.n}, sampler draws n={samples.n}"
            )
        if desc.d is not None and desc.d != samples.d:
            raise CertifyError(
                f"{desc.label()} needs d={desc.d}, sampler draws d={samples.d}"
            )
        if desc.domain == "positive" and samples.low <= 0:
            raise CertifyError(
                f"{desc.label()} lives on positive profiles; sampler box "
                f"starts at {samples.low}"
            )


def _witness(desc: MapDescriptor, pid: int, t: int, vertex, excess, coords) -> Witness:
    return Witness(
        map_label=desc.label(),
        profile_id=pid,
        time_index=t,
        vertex=tuple(float(v) for v in vertex),
        excess=float(excess),
        profile=tuple(tuple(float(c) for c in row) for row in coords),
    )


def _transitions(desc: MapDescriptor, t: int, spec: CoordinateMapSpec, xs: np.ndarray):
    """properness_gap at time t for each profile of a (B, n, d) stack, up to
    the first profile it raises for: (excess, vertex, gap) arrays over the
    profiles before that one, and (its index, the error) or None."""
    fail = None
    try:
        ys = apply_map(desc, t, xs)
    except StackError as exc:
        ys, fail = exc.head, (exc.index, exc.error)
    xs = xs[: len(ys)]
    # floating-point warnings are silenced: a profile the loop would not
    # reach must not warn either, and a non-finite result is an item error
    with np.errstate(all="ignore"):
        if desc.kind == "deformed":
            # deformed maps are certified in the flattened coordinates where
            # the inner map lives
            ys, xs = desc.deformation.forward(ys), desc.deformation.forward(xs)
        try:
            excess, vertex, gap = hull_step_stack(ys, xs, spec)
        except StackError as exc:
            (excess, vertex, gap), fail = exc.head, (exc.index, exc.error)
    return excess, vertex, gap, fail


def properness_gap(
    desc: MapDescriptor,
    t: int,
    spec: CoordinateMapSpec,
    profile: Profile,
    tol: float = 1e-9,
    profile_id: int = -1,
) -> float:
    """Hausdorff gap between the pre and post hulls at one profile and time.

    Raises InclusionViolationError if the post hull is not inside the pre
    hull up to tol; a zero return means the map did not shrink the hull.
    The certification scans run the same routine on stacks of profiles.
    """
    require_tolerance(tol, "tol", CertifyError)
    excess, vertex, gap, fail = _transitions(desc, t, spec, profile.coords[None])
    if fail is not None:
        raise fail[1]
    if excess[0] > tol:
        raise InclusionViolationError(
            _witness(desc, profile_id, t, vertex[0], excess[0], profile.coords)
        )
    return float(gap[0])


def _runs(profiles: Sequence[Profile]) -> list[tuple[int, np.ndarray]]:
    """Consecutive profiles of one shape as (first profile id, stack)."""
    runs, first = [], 0
    for _, group in itertools.groupby(profiles, key=lambda x: x.coords.shape):
        coords = [x.coords for x in group]
        runs.append((first, np.stack(coords)))
        first += len(coords)
    return runs


def _scan(runs, steps, spec: CoordinateMapSpec, tol: float):
    """properness_gap over every profile and every (desc, t) step, with the
    outcome of the loop that takes the profiles one by one and each through
    all steps, stopping at the first failure.

    Runs one stack call per step and run of profiles, over the profiles
    before the first failure found so far; a failure found later can only
    be at an earlier profile, and at that profile no earlier step has
    failed.  Per-profile minima are kept as running minima, so only one
    step's results are held at a time.  Returns (stop, low, failure, step):
    profiles before `stop` passed every step with minimum gap `low[pid]`;
    `failure`, a Witness, hit profile `stop` at steps[step], or is None.
    An exception the loop would meet first is raised instead."""
    total = sum(len(stack) for _, stack in runs)
    stop, failure, failed_step = total, None, None
    low = np.zeros(total)
    for j, (desc, t) in enumerate(steps):
        for first, stack in runs:
            if first >= stop:
                break
            live = stack[: stop - first]
            excess, vertex, gap, fail = _transitions(desc, t, spec, live)
            over = np.flatnonzero(excess > tol)
            if len(over):  # a witness before the failing profile is met first
                i = int(over[0])
                stop, failed_step = first + i, j
                failure = _witness(desc, stop, t, vertex[i], excess[i], live[i])
            elif fail is not None:
                stop, failed_step = first + fail[0], j
                failure = fail[1]
            m = min(len(live), stop - first)
            g, held = gap[:m], low[first : first + m]
            # min() keeps the first of equal values
            low[first : first + m] = g if j == 0 else np.where(g < held, g, held)
    if failure is not None and not isinstance(failure, Witness):
        raise failure
    return stop, low, failure, failed_step


def _spread_sample(samples: SampleConfig, consensus_tol: float) -> np.ndarray:
    """The first samples.count draws of diameter > consensus_tol, as one
    stack: what a loop that draws one profile at a time and rejects
    consensus keeps.  Draws come in blocks of the number still missing,
    which that loop draws in full before it can stop."""
    rng = np.random.default_rng(samples.seed)
    blocks, kept, drawn = [], 0, 0
    while kept < samples.count:
        need = samples.count - kept
        if drawn + need > 100 * samples.count:
            raise CertifyError("sampler cannot avoid consensus profiles")
        block = samples.stack(rng, need)
        drawn += need
        blocks.append(block[profile_diameters(block) > consensus_tol])
        kept += len(blocks[-1])
    return np.concatenate(blocks)


def _certify(
    check: str, family, spec: CoordinateMapSpec | None, samples: SampleConfig | None,
    profiles: Iterable[Profile] | None, tol: float, time_steps: int,
    consensus_tol: float | None = None, gap_floor: float | None = None,
) -> CertReport:
    """The scan behind both checks: each profile through every (member,
    time) step, stopping at the first failure.  family entries are
    MapDescriptors or (MapDescriptor, time_range) pairs.  With a
    consensus_tol, profiles of diameter <= consensus_tol are left out
    (sampled ones redrawn), and a failing profile records no gap;
    otherwise it records its minimum over the steps before the failure.
    With a gap_floor, a scan without failure states whether the family
    minimum clears it."""
    members = [
        (entry, default_time_range(entry, time_steps))
        if isinstance(entry, MapDescriptor) else (entry[0], tuple(entry[1]))
        for entry in family
    ]
    if not members:
        raise CertifyError("empty family")
    steps = [(desc, t) for desc, times in members for t in times]
    if not steps:
        raise CertifyError("no time index to check")
    descs = [desc for desc, _ in members]
    spec = spec or common_claim(descs)
    if spec is None:
        raise CertifyError("no common claimed coordinate map; pass spec= explicitly")
    if profiles is None:
        if samples is None:
            raise CertifyError("pass either samples= or profiles=")
        _check_sampler(descs, samples)
        spread = consensus_tol is not None
        runs = [(0, _spread_sample(samples, consensus_tol) if spread else samples.stack())]
    else:
        kept = [x for x in profiles if consensus_tol is None or x.diameter() > consensus_tol]
        if not kept:
            raise CertifyError(
                "no profile to check" if consensus_tol is None
                else "all supplied profiles are at consensus"
            )
        runs = _runs(kept)
    stop, low, failure, failed_step = _scan(runs, steps, spec, tol)
    records = [ProfileRecord(pid, True, float(low[pid]), 0.0) for pid in range(stop)]
    if failure is not None:
        # without a consensus filter the gap is the minimum over the earlier steps
        gap = float(low[stop]) if consensus_tol is None and failed_step else None
        records.append(ProfileRecord(stop, False, gap, failure.excess))
    gaps = [r.min_gap for r in records if r.included]
    family_min_gap = min(gaps, default=None)
    equiproper = None
    if gap_floor is not None and failure is None:
        equiproper = family_min_gap is not None and family_min_gap >= gap_floor
    return CertReport(
        check=check,
        labels=tuple(desc.label() for desc in descs),
        spec=spec,
        records=tuple(records),
        family_min_gap=family_min_gap,
        witness=failure,
        tol=tol,
        sample=samples,
        gap_floor=gap_floor,
        equiproper=equiproper,
        consensus_tol=consensus_tol,
    )


def check_averaging(
    desc: MapDescriptor,
    spec: CoordinateMapSpec | None = None,
    samples: SampleConfig | None = None,
    profiles: Iterable[Profile] | None = None,
    tol: float = 1e-9,
    time_range: Sequence[int] | None = None,
    time_steps: int = DEFAULT_TIME_STEPS,
) -> CertReport:
    """Scan profiles (sampled or given) and all times in range; record hull
    inclusion and gaps.  Stops at the first violation and returns the
    witness in the report."""
    require_tolerance(tol, "tol", CertifyError)
    member = desc if time_range is None else (desc, time_range)
    return _certify("averaging", [member], spec, samples, profiles, tol, time_steps)


def check_equiproper(
    family,
    spec: CoordinateMapSpec | None = None,
    samples: SampleConfig | None = None,
    profiles: Iterable[Profile] | None = None,
    tol: float = 1e-9,
    gap_floor: float = DEFAULT_GAP_FLOOR,
    consensus_tol: float = DEFAULT_CONSENSUS_TOL,
    time_steps: int = DEFAULT_TIME_STEPS,
) -> CertReport:
    """Equiproperness scan of a map family.

    family entries are MapDescriptors or (MapDescriptor, time_range) pairs.
    Sampled profiles with diameter <= consensus_tol are rejected and
    redrawn: properness is only meaningful away from consensus.  For each
    kept profile the minimum gap over every family member and time index is
    recorded; the report states the family-wide minimum and whether it
    clears gap_floor.  An inclusion violation aborts the scan with its
    witness in the report."""
    for name, value in (
        ("tol", tol), ("gap_floor", gap_floor), ("consensus_tol", consensus_tol)
    ):
        require_tolerance(value, name, CertifyError)
    return _certify(
        "equiproper", family, spec, samples, profiles, tol, time_steps, consensus_tol, gap_floor
    )


# ---------------------------------------------------------------------------
# row-stochastic matrix analysis


def scrambling_coefficient(matrix) -> float:
    """Coefficient of ergodicity tau(A) = max over row pairs of half the L1
    distance between the rows.  tau < 1 exactly when every pair of rows
    shares support, and hull diameters contract by tau under x -> Ax."""
    pairs = itertools.combinations(validate_row_stochastic(matrix), 2)
    return max((0.5 * float(np.abs(p - q).sum()) for p, q in pairs), default=0.0)


def is_scrambling(matrix) -> bool:
    """True when any two rows put weight > SUPPORT_TOL on a common column."""
    pos = validate_row_stochastic(matrix) > SUPPORT_TOL
    return all(bool((p & q).any()) for p, q in itertools.combinations(pos, 2))


def _first_power(matrix, cap: int, holds) -> int | None:
    """Smallest k <= cap with holds(A^k), else None."""
    a = p = validate_row_stochastic(matrix)
    for k in range(1, cap + 1):
        if holds(p):
            return k
        p = p @ a
    return None


def scrambling_index(matrix, cap: int = 64) -> int | None:
    """Smallest k <= cap with A^k scrambling, else None."""
    return _first_power(matrix, cap, is_scrambling)


def regularity_index(matrix, cap: int = 64) -> int | None:
    """Smallest k <= cap with A^k entrywise > SUPPORT_TOL, else None."""
    return _first_power(matrix, cap, lambda p: (p > SUPPORT_TOL).all())


@dataclass(frozen=True)
class MatrixAnalysis:
    tau: float
    scrambling: bool
    scrambling_index: int | None
    regularity_index: int | None
    cap: int

    def to_dict(self) -> dict:
        return dict(vars(self))


def analyze_matrix(matrix, cap: int = 64) -> MatrixAnalysis:
    a = validate_row_stochastic(matrix)
    return MatrixAnalysis(
        tau=scrambling_coefficient(a),
        scrambling=is_scrambling(a),
        scrambling_index=scrambling_index(a, cap),
        regularity_index=regularity_index(a, cap),
        cap=cap,
    )
