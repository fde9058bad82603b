"""Decentralized rendezvous for planar agents with bearing-only sensing.

Agents sit in the plane and can only measure directions to the other
agents, not distances.  A scheduler activates one agent at a time, uniformly
at random.  The activated agent looks at the set of directions toward the
others and finds the widest empty sector between consecutive directions; if
that sector's half-width gamma reaches pi/2 + pi/n, every other agent is
confined to a narrow frontal cone, and the agent may safely advance into
the crowd: it walks opposite the empty sector's bisector until it either
reaches another agent's position or some agent appears exactly at a right
angle to its heading.  The agents within TIE_TOL of the activated agent
share its position and move with it; an agent that sees no agent elsewhere
announces consensus.  Repeating activated moves gathers everyone at one point.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    Profile,
    consecutive_steps,
    identity_spec,
    require_budget,
    require_seed,
    require_tolerance,
)
from .simulate import (
    STOP_CONSENSUS,
    ConsensusVerdict,
    Trajectory,
    consensus_verdict,
)

TIE_TOL = 1e-12
ANGLE_TOL = 1e-9
TWO_PI = 2.0 * math.pi
ACTIVATION_CAP = 10  # activations per agent before protocol_step gives up


class RendezvousError(RuntimeError):
    pass


class ConsensusReachedError(RendezvousError):
    """Scan found no agent at a distinct position: already gathered."""


class ActivationCapError(RendezvousError):
    """No qualifying mover within the activation budget (diagnostic)."""


class PairTable(NamedTuple):
    """Relative positions p_j - p_a as planes dx[a, j], dy[a, j], and their lengths dist[a, j]."""

    dx: np.ndarray
    dy: np.ndarray
    dist: np.ndarray


@dataclass(frozen=True)
class RendezvousState:
    """Positions (n, 2), read-only, plus the scheduler's random stream.
    States returned by protocol_step share the stream with their
    predecessor."""

    positions: np.ndarray
    rng: np.random.Generator

    def __post_init__(self):
        arr = np.asarray(self.positions, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise RendezvousError("positions must be an (n, 2) array")
        if arr.shape[0] < 2:
            raise RendezvousError("need at least two agents")
        if not np.isfinite(arr).all():
            raise RendezvousError("positions must be finite")
        # read-only, so the cached pair table cannot go stale; a view, so
        # the caller's own array keeps its flags
        arr = arr.view()
        arr.setflags(write=False)
        object.__setattr__(self, "positions", arr)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def pairs(self) -> PairTable:
        """The pair table every reader of this state shares: each scan, the
        move rule, a step's movers, the diameter and the tie_groups report."""
        x, y = self.positions.T
        dx, dy = x[None] - x[:, None], y[None] - y[:, None]
        table = PairTable(dx, dy, np.sqrt(dx * dx + dy * dy))  # (rel * rel).sum(-1), bit for bit
        for plane in table:
            plane.setflags(write=False)
        return table

    def diameter(self) -> float:
        """Profile.diameter of the positions, bit for bit."""
        return float(self.pairs.dist.max())


def _others(state: RendezvousState, agent: int) -> np.ndarray:
    """Indices of the agents at a position distinct from `agent`'s (not its own: dist 0)."""
    others = np.flatnonzero(state.pairs.dist[agent] > TIE_TOL)
    if not others.size:
        raise ConsensusReachedError("no agent at a distinct position")
    return others


def tie_groups(state: RendezvousState) -> list[list[int]]:
    """Partition agents into groups of coinciding positions (<= TIE_TOL, the
    scan's rule): each agent joins the first group whose first member is
    that close.  A report only; the protocol reads the activated agent's
    row of the pair table, which differs on chains of near ties."""
    close = (state.pairs.dist <= TIE_TOL).tolist()
    groups: list[list[int]] = []
    for i, near in enumerate(close):
        for g in groups:
            if near[g[0]]:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


@dataclass(frozen=True)
class ScanResult:
    """Largest empty direction sector seen from one agent: bisector alpha,
    half-width gamma, and the deduplicated sorted directions themselves."""

    directions: tuple[float, ...]
    alpha: float
    gamma: float


def scan(state: RendezvousState, agent: int) -> ScanResult:
    dx, dy, dist = state.pairs
    # one row of bearings, kept as _others keeps agents, on floats (% is np.mod bit for bit)
    bearings = zip(np.arctan2(dy[agent], dx[agent]).tolist(), dist[agent].tolist())
    angles = sorted(a % TWO_PI for a, r in bearings if r > TIE_TOL)
    if not angles:
        raise ConsensusReachedError("no agent at a distinct position")
    dedup = [angles[0]]
    for a in angles[1:]:
        if a - dedup[-1] > TIE_TOL:
            dedup.append(a)
    if len(dedup) > 1 and dedup[0] + TWO_PI - dedup[-1] <= TIE_TOL:
        dedup.pop()
    if len(dedup) == 1:
        # a single occupied direction: the empty sector is everything else
        alpha = math.fmod(dedup[0] + math.pi, TWO_PI)
        return ScanResult(tuple(dedup), alpha, math.pi)
    gaps = [(b - a) % TWO_PI for a, b in zip(dedup, dedup[1:] + dedup[:1])]
    best = gaps.index(max(gaps))  # the first widest gap
    alpha = math.fmod(dedup[best] + gaps[best] / 2.0, TWO_PI)
    return ScanResult(tuple(dedup), alpha, gaps[best] / 2.0)


def movement_threshold(n: int) -> float:
    return math.pi / 2.0 + math.pi / n


def should_move(sr: ScanResult, n: int) -> bool:
    """Wide enough empty sector?  n is the total agent count of the system,
    not the number of distinct positions."""
    return sr.gamma >= movement_threshold(n) - ANGLE_TOL


@dataclass(frozen=True)
class MoveOutcome:
    position: np.ndarray
    stopped_by: str  # reached | perpendicular
    distance: float


def move_rule_star(state: RendezvousState, agent: int, beta: float) -> MoveOutcome:
    """Advance along heading beta until the first stop event: either the ray
    passes through another agent's position (walk exactly onto it) or,
    before that, some agent's bearing becomes perpendicular to the heading
    (walk min_q (q - p) . u).  Agents behind the heading would make that
    minimum non-positive; callers only move when the scan rules that out."""
    p = state.positions[agent]
    u = np.array([math.cos(beta), math.sin(beta)])
    others = _others(state, agent)
    rel = state.positions[others] - p  # the mover's row of the pair table, contiguous for the matmul
    proj = rel @ u
    smin = float(proj.min())
    if smin <= 0.0:
        raise RendezvousError(
            f"move rule stalls for agent {agent}: an agent projects at {smin!r}"
        )
    perp = rel[:, 0] * u[1] - rel[:, 1] * u[0]
    onray = np.flatnonzero((np.abs(perp) <= TIE_TOL) & (proj <= smin + TIE_TOL))
    if onray.size:
        k = onray[np.argmin(proj[onray])]  # the first nearest agent on the ray
        return MoveOutcome(
            state.positions[others[k]].copy(), "reached", float(proj[k])
        )
    return MoveOutcome(p + smin * u, "perpendicular", smin)


@dataclass
class GroupEvent:
    """One grouped protocol step: activations up to and including the first
    agent that moved (or the activation that discovered consensus)."""

    step: int
    activations: tuple[int, ...]
    mover: int | None = None
    alpha: float | None = None
    gamma: float | None = None
    beta: float | None = None
    distance: float | None = None
    stopped_by: str | None = None
    consensus: bool = False


def events_to_jsonl(events) -> str:
    """One JSON line per event; no events, no lines."""
    return "".join(
        json.dumps(
            {
                "step": ev.step,
                "activations": list(ev.activations),
                "mover": ev.mover,
                "alpha": ev.alpha,
                "gamma": ev.gamma,
                "beta": ev.beta,
                "distance": ev.distance,
            }
        )
        + "\n"
        for ev in events
    )


def protocol_step(
    state: RendezvousState, *, chooser: Callable[[], int] | None = None
) -> tuple[RendezvousState, GroupEvent]:
    """Activate agents until one moves; return the new state and the grouped
    event.  The agents the mover's scan left out as its own position (within
    TIE_TOL) translate with it; an activated agent that sees no agent
    elsewhere returns the state unchanged with a consensus event.  `chooser`
    overrides the scheduler, which draws from state.rng by default."""
    n = state.n
    draw = chooser or (lambda: int(state.rng.integers(n)))
    activations: list[int] = []
    for _ in range(ACTIVATION_CAP * n):
        agent = draw()
        activations.append(agent)
        try:
            sr = scan(state, agent)
        except ConsensusReachedError:
            return state, GroupEvent(step=0, activations=tuple(activations), consensus=True)
        if not should_move(sr, n):
            continue
        beta = math.fmod(sr.alpha + math.pi, TWO_PI)
        outcome = move_rule_star(state, agent, beta)
        # the successor skips __post_init__: only the moved position is new
        if not np.isfinite(outcome.position).all():
            raise RendezvousError("positions must be finite")
        new_positions = state.positions.copy()
        new_positions[state.pairs.dist[agent] <= TIE_TOL] = outcome.position
        new_positions.setflags(write=False)
        new_state = object.__new__(RendezvousState)
        new_state.__dict__.update(positions=new_positions, rng=state.rng)
        return new_state, GroupEvent(
            step=0,
            activations=tuple(activations),
            mover=agent,
            alpha=sr.alpha,
            gamma=sr.gamma,
            beta=beta,
            distance=outcome.distance,
            stopped_by=outcome.stopped_by,
        )
    raise ActivationCapError(f"no agent qualified to move within {ACTIVATION_CAP * n} activations")


@dataclass(frozen=True)
class StepCheck:
    """Per grouped step audit: hull nesting, mover extremality, threshold
    margin, and movement distance."""

    step: int
    included: bool
    mover_is_vertex: bool
    gamma_margin: float
    distance: float

    @property
    def ok(self) -> bool:
        return (
            self.included
            and self.mover_is_vertex
            and self.gamma_margin >= -ANGLE_TOL
            and self.distance > 0.0
        )

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "included": self.included,
            "mover_is_vertex": self.mover_is_vertex,
            "gamma_margin": self.gamma_margin,
            "distance": self.distance,
            "ok": self.ok,
        }


@dataclass
class RendezvousResult:
    trajectory: Trajectory
    events: tuple[GroupEvent, ...]
    verdict: ConsensusVerdict
    checks: tuple[StepCheck, ...]

    @property
    def all_checks_ok(self) -> bool:
        return all(c.ok for c in self.checks)


# overflow of huge positions ends the run as "positions must be finite", not as a warning
@np.errstate(over="ignore", invalid="ignore")
def run_protocol(
    initial,
    *,
    tol: float = 1e-6,
    max_grouped_steps: int = 10_000,
    seed: int = 0,
    chooser: Callable[[], int] | None = None,
) -> RendezvousResult:
    """Run grouped protocol steps until the agent set has diameter <= tol.

    Returns the grouped-step trajectory (one profile per move), the event
    log, the consensus verdict, and the per-step audit checks.  A consensus
    event (mover null) ends the run; the verdict still needs the diameter
    within tol.  A diameter within tol but above TIE_TOL stops the run
    without an activation.  Hulls never steer the protocol, so the audit
    runs after it, over the whole run."""
    require_tolerance(tol, "tol", RendezvousError)
    max_grouped_steps = require_budget(max_grouped_steps, "max_grouped_steps", RendezvousError)
    seed = require_seed(seed, "seed", RendezvousError)
    state = RendezvousState(np.array(initial, dtype=float), np.random.default_rng(seed))
    traj = Trajectory.start(identity_spec(), Profile(state.positions), state.diameter(), seed)
    events: list[GroupEvent] = []
    for step in range(1, max_grouped_steps + 1):
        if TIE_TOL < traj.diameters[-1] <= tol:
            break  # gathered within tol, but not all tied: no activation
        state, ev = protocol_step(state, chooser=chooser)
        ev.step = step
        events.append(ev)
        if ev.consensus:
            traj.stop_reason = STOP_CONSENSUS
            break
        traj.profiles.append(Profile(state.positions))
        traj.diameters.append(state.diameter())
        traj.final = traj.profiles[-1]
    if traj.diameters[-1] <= tol:
        traj.stop_reason = STOP_CONSENSUS
    return RendezvousResult(
        trajectory=traj,
        events=tuple(events),
        verdict=consensus_verdict(traj, tol),
        checks=_audit(traj, events, movement_threshold(state.n)),
    )


def _audit(traj: Trajectory, events: list[GroupEvent], threshold: float) -> tuple[StepCheck, ...]:
    """The step checks of a run, and its gaps and inclusion flags, from one
    consecutive_steps call over its profiles: event t moved the agents from
    profile t - 1 to profile t."""
    mover = np.array([x.coords[ev.mover] for x, ev in zip(traj.profiles[:-1], events)])
    (excess, _, gap), (verts, count) = consecutive_steps(
        np.stack([x.coords for x in traj.profiles]), traj.spec
    )
    offset = verts[:-1] - mover.reshape(-1, 1, 2)
    near = np.sqrt(np.vecdot(offset, offset)) <= DEFAULT_TOL
    at_vertex = (near & (np.arange(verts.shape[1]) < count[:-1, None])).any(axis=1)
    included = (excess <= DEFAULT_TOL).tolist()
    traj.gaps += gap.tolist()
    traj.included += included
    return tuple(
        StepCheck(
            step=ev.step,
            included=ok,
            mover_is_vertex=vertex,
            gamma_margin=float(ev.gamma - threshold),
            distance=float(ev.distance),
        )
        for ev, ok, vertex in zip(events, included, at_vertex.tolist())
    )
