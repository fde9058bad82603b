import dataclasses
import itertools
import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from consdyn import rendezvous
from consdyn.geometry import Profile
from consdyn.rendezvous import (
    ACTIVATION_CAP,
    TIE_TOL,
    TWO_PI,
    ActivationCapError,
    ConsensusReachedError,
    MoveOutcome,
    RendezvousError,
    RendezvousState,
    ScanResult,
    StepCheck,
    events_to_jsonl,
    move_rule_star,
    movement_threshold,
    protocol_step,
    run_protocol,
    scan,
    should_move,
    tie_groups,
)


def state_of(points, seed=0):
    return RendezvousState(np.array(points, dtype=float), np.random.default_rng(seed))


def test_state_validation():
    with pytest.raises(RendezvousError):
        state_of([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(RendezvousError):
        RendezvousState(np.zeros((1, 2)), np.random.default_rng(0))
    with pytest.raises(RendezvousError):
        state_of([[0.0, 0.0], [np.nan, 1.0]])


def test_tie_groups_clusters():
    s = state_of([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 5e-13]])
    assert tie_groups(s) == [[0, 1], [2, 3]]


def test_scan_pair_gamma_is_pi_exactly():
    s = state_of([[0.0, 0.0], [4.0, 0.0]])
    sr = scan(s, 0)
    assert sr.directions == (0.0,)
    assert sr.gamma == math.pi
    assert sr.alpha == math.pi
    back = scan(s, 1)
    assert back.gamma == math.pi
    assert abs(back.alpha - 0.0) <= 1e-15


def test_scan_equilateral_corner():
    h = math.sqrt(3.0) / 2.0
    s = state_of([[0.0, 0.0], [1.0, 0.0], [0.5, h]])
    sr = scan(s, 0)
    assert sr.gamma == pytest.approx(5.0 * math.pi / 6.0, abs=1e-12)
    # bisector of the empty sector points away from the triangle
    assert sr.alpha == pytest.approx(math.pi / 6.0 + math.pi, abs=1e-12)


def test_scan_square_corner_sits_at_threshold():
    s = state_of([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    sr = scan(s, 0)
    assert sr.gamma == pytest.approx(0.75 * math.pi, abs=1e-12)
    assert should_move(sr, 4)


def test_scan_collinear_dedup():
    s = state_of([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    end = scan(s, 0)
    assert end.directions == (0.0,)  # both others share one bearing
    assert end.gamma == math.pi
    mid = scan(s, 1)
    assert mid.gamma == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert not should_move(mid, 3)


def test_scan_wraparound_dedup():
    s = state_of([[0.0, 0.0], [1.0, 0.0], [1.0, -1e-15]])
    sr = scan(s, 0)
    assert len(sr.directions) == 1
    assert sr.gamma == math.pi


def test_scan_requires_distinct_other():
    s = state_of([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ConsensusReachedError):
        scan(s, 0)


def test_should_move_threshold_edges():
    thr = movement_threshold(4)
    assert thr == pytest.approx(0.75 * math.pi, abs=0)
    assert should_move(ScanResult((0.0,), 0.0, thr), 4)
    assert should_move(ScanResult((0.0,), 0.0, thr - 0.5e-9), 4)
    assert not should_move(ScanResult((0.0,), 0.0, thr - 2e-9), 4)


def test_move_rule_snaps_exactly():
    s = state_of([[0.0, 0.0], [4.0, 0.0]])
    out = move_rule_star(s, 0, 0.0)
    assert out.stopped_by == "reached"
    assert out.distance == 4.0
    assert (out.position == s.positions[1]).all()  # bitwise, not approx


def test_move_rule_perpendicular_stop():
    s = state_of([[0.0, 0.0], [3.0, 4.0], [5.0, 0.0]])
    out = move_rule_star(s, 0, 0.0)
    # the agent at (3, 4) turns perpendicular after 3 units, before (5, 0)
    assert out.stopped_by == "perpendicular"
    assert out.distance == pytest.approx(3.0, abs=0)
    assert np.allclose(out.position, [3.0, 0.0], atol=1e-15)


def test_move_rule_stalls_on_agent_behind():
    s = state_of([[0.0, 0.0], [-1.0, 0.0], [5.0, 0.0]])
    with pytest.raises(RendezvousError, match="stall"):
        move_rule_star(s, 0, 0.0)


def test_protocol_step_moves_whole_tie_group():
    s = state_of([[0.0, 0.0], [0.0, 0.0], [4.0, 0.0]])
    new, ev = protocol_step(s, chooser=lambda: 0)
    assert ev.mover == 0
    assert ev.stopped_by == "reached"
    assert ev.distance == 4.0
    for row in new.positions:
        assert (row == np.array([4.0, 0.0])).all()


def test_protocol_step_on_consensus_state():
    s = state_of([[1.0, 2.0], [1.0, 2.0]])
    new, ev = protocol_step(s, chooser=lambda: 1)
    assert new is s
    assert ev.consensus
    assert ev.mover is None
    assert ev.activations == (1,)


def test_activation_cap_diagnostic():
    s = state_of([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    calls = []

    def middle():
        calls.append(1)
        return 1

    with pytest.raises(ActivationCapError):
        protocol_step(s, chooser=middle)
    assert len(calls) == ACTIVATION_CAP * 3


def test_step_check_ok_logic():
    good = StepCheck(1, True, True, 0.1, 1.0)
    assert good.ok
    assert not StepCheck(1, False, True, 0.1, 1.0).ok
    assert not StepCheck(1, True, True, -1e-6, 1.0).ok
    assert not StepCheck(1, True, True, 0.1, 0.0).ok
    assert set(good.to_dict()) == {
        "step", "included", "mover_is_vertex", "gamma_margin", "distance", "ok",
    }


def test_pair_gathers_in_one_move():
    res = run_protocol([[0.0, 0.0], [4.0, 0.0]], seed=5)
    moves = [e for e in res.events if e.mover is not None]
    assert len(moves) == 1
    assert moves[0].distance == 4.0
    assert res.events[-1].consensus
    assert res.verdict.reached
    assert res.trajectory.final_diameter == 0.0
    assert res.all_checks_ok
    assert res.trajectory.gaps[1] == 4.0  # point hull vs original segment


def test_gathering_across_sizes_and_seeds():
    for n in range(2, 7):
        for seed in (0, 1):
            rng = np.random.default_rng(100 * n + seed)
            initial = rng.uniform(0.0, 1.0, size=(n, 2))
            res = run_protocol(initial, seed=seed)
            assert res.verdict.reached, (n, seed)
            assert res.all_checks_ok, (n, seed)
            assert res.trajectory.final_diameter <= 1e-6
            if len(tie_groups(state_of(res.trajectory.final.coords))) == 1:
                # exact gathering is announced by a discovery activation
                assert res.events[-1].consensus


def test_ties_only_merge():
    rng = np.random.default_rng(3)
    initial = rng.uniform(0.0, 2.0, size=(6, 2))
    res = run_protocol(initial, seed=3)
    assert res.verdict.reached
    profiles = res.trajectory.profiles
    for before, after in zip(profiles, profiles[1:]):
        a = before.coords
        b = after.coords
        for i in range(a.shape[0]):
            for j in range(i + 1, a.shape[0]):
                if np.linalg.norm(a[i] - a[j]) <= 1e-12:
                    assert np.linalg.norm(b[i] - b[j]) <= 1e-12


def test_run_protocol_bitwise_deterministic():
    rng = np.random.default_rng(11)
    initial = rng.uniform(0.0, 1.0, size=(5, 2))
    r1 = run_protocol(initial, seed=11)
    r2 = run_protocol(initial, seed=11)
    assert (r1.trajectory.final.coords == r2.trajectory.final.coords).all()
    assert events_to_jsonl(r1.events) == events_to_jsonl(r2.events)


def test_permutation_equivariance():
    rng = np.random.default_rng(17)
    x = rng.uniform(0.0, 1.0, size=(5, 2))
    sigma = [2, 0, 4, 1, 3]  # relabeled agent k sits where agent sigma[k] was
    inv = [0] * 5
    for k, j in enumerate(sigma):
        inv[j] = k
    base = run_protocol(x, seed=9)
    assert base.verdict.reached
    replay = iter(inv[j] for ev in base.events for j in ev.activations)
    permuted = run_protocol(x[sigma], seed=9, chooser=lambda: next(replay))
    assert len(permuted.events) == len(base.events)
    for ea, eb in zip(base.events, permuted.events):
        assert (eb.mover is None) == (ea.mover is None)
        if ea.mover is not None:
            assert eb.mover == inv[ea.mover]
            assert eb.gamma == ea.gamma
            assert eb.distance == ea.distance
    final_a = base.trajectory.final.coords
    final_b = permuted.trajectory.final.coords
    for k in range(5):
        assert (final_b[k] == final_a[sigma[k]]).all()


def test_budget_exhaustion():
    res = run_protocol([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]], max_grouped_steps=1)
    assert not res.verdict.reached
    assert res.trajectory.stop_reason == "max_steps"


def test_events_jsonl_schema():
    res = run_protocol([[0.0, 0.0], [4.0, 0.0]], seed=5)
    lines = events_to_jsonl(res.events).splitlines()
    assert len(lines) == len(res.events)
    keys = ["step", "activations", "mover", "alpha", "gamma", "beta", "distance"]
    for line in lines:
        rec = json.loads(line)
        assert list(rec) == keys
    last = json.loads(lines[-1])
    assert last["mover"] is None
    assert last["distance"] is None
    first = json.loads(lines[0])
    assert first["distance"] == 4.0
    assert first["step"] == 1
    assert events_to_jsonl(res.events) == "".join(line + "\n" for line in lines)
    assert events_to_jsonl(()) == ""


def test_state_positions_are_a_read_only_view():
    points = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    s = RendezvousState(points, np.random.default_rng(0))
    assert points.flags.writeable  # the caller's array keeps its flags
    with pytest.raises(ValueError):
        s.positions[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.positions = points
    assert s.pairs is s.pairs  # built once per state
    assert s.diameter() == 5.0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12, None])
def test_run_protocol_rejects_bad_tolerance(tol):
    with pytest.raises(RendezvousError, match="tol"):
        run_protocol([[0.0, 0.0], [4.0, 0.0]], tol=tol)


@pytest.mark.parametrize("budget", [0, -1, 2.5, 10.0, True, None])
def test_run_protocol_rejects_bad_budget(budget):
    with pytest.raises(RendezvousError, match="max_grouped_steps"):
        run_protocol([[0.0, 0.0], [4.0, 0.0]], max_grouped_steps=budget)


def test_run_protocol_accepts_zero_tolerance():
    res = run_protocol([[0.0, 0.0], [4.0, 0.0]], tol=0.0, seed=5)
    assert res.verdict.reached and res.events[-1].consensus


# --- the per-call geometry as it was before the shared pair table: the
# reference the pair-table readers must match bit for bit


def _ref_tie_groups(state):
    pos = state.positions
    diff = pos[:, None, :] - pos[None, :, :]
    close = (np.sqrt((diff * diff).sum(-1)) <= TIE_TOL).tolist()
    groups = []
    for i, near in enumerate(close):
        for g in groups:
            if near[g[0]]:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


def _ref_scan(state, agent):
    p = state.positions[agent]
    rel = state.positions - p
    dist = np.linalg.norm(rel, axis=1)
    others = [j for j in range(state.n) if j != agent and dist[j] > TIE_TOL]
    if not others:
        raise ConsensusReachedError("no agent at a distinct position")
    angles = np.sort(np.mod(np.arctan2(rel[others, 1], rel[others, 0]), TWO_PI))
    dedup = [float(angles[0])]
    for a in angles[1:]:
        if a - dedup[-1] > TIE_TOL:
            dedup.append(float(a))
    if len(dedup) > 1 and dedup[0] + TWO_PI - dedup[-1] <= TIE_TOL:
        dedup.pop()
    if len(dedup) == 1:
        alpha = math.fmod(dedup[0] + math.pi, TWO_PI)
        return ScanResult(tuple(dedup), alpha, math.pi)
    gaps = [
        (dedup[(i + 1) % len(dedup)] - dedup[i]) % TWO_PI for i in range(len(dedup))
    ]
    best = int(np.argmax(gaps))
    alpha = math.fmod(dedup[best] + gaps[best] / 2.0, TWO_PI)
    return ScanResult(tuple(dedup), alpha, gaps[best] / 2.0)


def _ref_move_rule_star(state, agent, beta):
    p = state.positions[agent]
    u = np.array([math.cos(beta), math.sin(beta)])
    rel = state.positions - p
    dist = np.linalg.norm(rel, axis=1)
    others = [j for j in range(state.n) if j != agent and dist[j] > TIE_TOL]
    if not others:
        raise ConsensusReachedError("no agent at a distinct position")
    proj = rel[others] @ u
    smin = float(proj.min())
    if smin <= 0.0:
        raise RendezvousError(
            f"move rule stalls for agent {agent}: an agent projects at {smin!r}"
        )
    perp = rel[others, 0] * u[1] - rel[others, 1] * u[0]
    onray = [
        k
        for k in range(len(others))
        if abs(perp[k]) <= TIE_TOL and proj[k] <= smin + TIE_TOL
    ]
    if onray:
        k = min(onray, key=lambda k: proj[k])
        target = others[k]
        return MoveOutcome(state.positions[target].copy(), "reached", float(proj[k]))
    return MoveOutcome(p + smin * u, "perpendicular", smin)


def _ref_diameter(state):
    return Profile(state.positions).diameter()


def _outcome(fn, *args):
    """A comparable record of a call: its result's bits, or its error."""
    try:
        out = fn(*args)
    except RendezvousError as exc:
        return ("raises", type(exc).__name__, str(exc))
    if isinstance(out, MoveOutcome):
        return (out.position.tobytes(), out.stopped_by, repr(out.distance))
    return (out, repr(out))


# spacings below, around and above TIE_TOL: runs of three or more bearings
# within TIE_TOL of each other exercise the dedup rule, which compares each
# angle with the last one kept, not with its neighbour
_SPACINGS = (2e-13, 4e-13, 6e-13, 9e-13, 1e-12, 1.1e-12, 3e-12, 1e-6)


@st.composite
def layouts(draw, max_n=7, min_n=2):
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(["grid", "uniform", "collinear", "fan", "wrap"]))
    if kind == "grid":
        # small integer coordinates: exact ties and collinear triples
        pts = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                            min_size=n, max_size=n))
        pts = np.array(pts, dtype=float)
    elif kind == "uniform":
        seed = draw(st.integers(0, 2**32 - 1))
        pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 2))
    elif kind == "collinear":
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        origin, direction = rng.uniform(-1.0, 1.0, size=(2, 2))
        pts = origin + np.outer(rng.uniform(-2.0, 2.0, size=n), direction)
        if draw(st.booleans()):
            pts = np.vstack([pts, origin + [direction[1], -direction[0]]])
    else:
        # a fan of bearings from agent 0; "wrap" straddles angle 0 == 2 pi
        step = draw(st.sampled_from(_SPACINGS))
        first = -(n // 2) if kind == "wrap" else 0
        radii = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=n - 1,
                              max_size=n - 1))
        pts = [(0.0, 0.0)] + [(r, r * (first + k) * step) for k, r in enumerate(radii)]
        pts = np.array(pts) + draw(st.sampled_from([0.0, 0.25, -7.5]))
    for i, j in draw(st.lists(st.tuples(st.integers(0, len(pts) - 1),
                                        st.integers(0, len(pts) - 1)), max_size=3)):
        pts[j] = pts[i]  # exact ties, as the "reached" move makes them
    return pts


@settings(max_examples=400, deadline=None)
@given(pts=layouts(), betas=st.lists(st.floats(0.0, TWO_PI), min_size=1, max_size=3))
def test_pair_table_readers_match_the_per_call_reference(pts, betas):
    s = state_of(pts)
    assert tie_groups(s) == _ref_tie_groups(s)
    assert repr(s.diameter()) == repr(_ref_diameter(s))
    for agent in range(s.n):
        got, ref = _outcome(scan, s, agent), _outcome(_ref_scan, s, agent)
        assert got == ref
        if ref[0] != "raises":
            betas = [math.fmod(ref[0].alpha + math.pi, TWO_PI), *betas]
        for beta in betas:
            assert _outcome(move_rule_star, s, agent, beta) == _outcome(
                _ref_move_rule_star, s, agent, beta
            )


@pytest.mark.parametrize(
    "offset",
    [(1.6936316510032243e-13, 9.855537115282967e-13),
     (7.484188688624972e-13, 6.632263540681872e-13)],
)
def test_tie_groups_keep_their_own_rounding(offset):
    """At these offsets the sum of squares puts the pair within TIE_TOL and
    np.vecdot does not; the tie groups round as the pair table does, so
    the scan and the groups see one position."""
    s = state_of([[0.0, 0.0], list(offset), [1.0, 0.0]])
    assert s.pairs.dist[0, 1] <= TIE_TOL
    rel = np.stack((s.pairs.dx, s.pairs.dy), axis=-1)
    assert np.sqrt(np.vecdot(rel, rel))[0, 1] > TIE_TOL
    assert tie_groups(s) == _ref_tie_groups(s) == [[0, 1], [2]]


# agents 0 and 1 lie within TIE_TOL by the pair table's sum of squares but
# not by np.vecdot's rounding
TWINS = [[0.0, 0.0], [1.6936316510032243e-13, 9.855537115282967e-13], [1.0, 0.0]]


@st.composite
def near_twins(draw):
    """Pairs of twins 1e-13 to 2e-12 apart in random directions, plus a few
    lone agents, all far from each other: no chain of ties."""
    pairs, lone = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    turn = draw(st.floats(0.0, TWO_PI))
    pts = []
    for k in range(pairs + lone):
        angle = turn + TWO_PI * k / (pairs + lone)
        center = [3.0 * math.cos(angle), 3.0 * math.sin(angle)]
        pts.append(center)
        if k < pairs:
            r = draw(st.floats(1e-13, 2e-12))
            phi = draw(st.floats(0.0, TWO_PI))
            pts.append([center[0] + r * math.cos(phi), center[1] + r * math.sin(phi)])
    return np.array(pts)


@settings(max_examples=200, deadline=None)
@given(pts=near_twins())
@example(pts=np.array(TWINS))
@example(pts=np.array([[0.0, 0.0], [7.484188688624972e-13, 6.632263540681872e-13],
                       [1.0, 0.0]]))
def test_near_twins_share_one_tie_rule(pts):
    s = state_of(pts)
    assert tie_groups(s) == _ref_tie_groups(s)
    for first in range(s.n):
        draws = itertools.chain([first], itertools.cycle(range(s.n)))
        new, ev = protocol_step(s, chooser=draws.__next__)
        if ev.consensus:
            continue
        near = s.pairs.dist[ev.mover] <= TIE_TOL
        assert (new.positions[near] == new.positions[ev.mover]).all()


def test_a_twin_moves_with_its_mover():
    res = run_protocol(TWINS, seed=0, chooser=iter([0, 1, 2] * 4).__next__)
    assert [ev.mover for ev in res.events] == [0, None]
    assert res.verdict.reached and res.trajectory.final.coords.tolist() == [[1.0, 0.0]] * 3


def test_tied_agents_beyond_tol_stop_without_a_move():
    res = run_protocol([[0.0, 0.0], [5e-13, 0.0]], tol=1e-13, seed=0)
    assert [(ev.mover, ev.consensus) for ev in res.events] == [(None, True)]
    assert res.trajectory.stop_reason == "consensus" and res.checks == ()
    assert not res.verdict.reached and res.verdict.gamma is None


# a chain of near ties: agent 1 is within TIE_TOL of agents 0 and 2, which
# are 1.8e-12 apart
CHAIN = [[0.0, 0.0], [9e-13, 0.0], [1.8e-12, 0.0], [0.0, 1.0]]


def test_the_activated_agent_takes_its_whole_ball_along():
    new, ev = protocol_step(state_of(CHAIN), chooser=iter([1]).__next__)
    assert ev.mover == 1 and ev.stopped_by == "reached"
    assert new.positions.tolist() == [[0.0, 1.0]] * 4


@st.composite
def tie_chains(draw):
    """A chain of agents, each 4e-13 to 9e-13 from the last in a random
    direction, plus up to three far agents."""
    pts = [[0.0, 0.0]]
    for _ in range(draw(st.integers(1, 4))):
        step, phi = draw(st.sampled_from((4e-13, 6e-13, 9e-13))), draw(st.floats(0.0, TWO_PI))
        pts.append([pts[-1][0] + step * math.cos(phi), pts[-1][1] + step * math.sin(phi)])
    for _ in range(draw(st.integers(0, 3))):
        r, phi = draw(st.floats(0.5, 3.0)), draw(st.floats(0.0, TWO_PI))
        pts.append([r * math.cos(phi), r * math.sin(phi)])
    return np.array(pts)


@settings(max_examples=200, deadline=None)
@given(pts=tie_chains())
@example(pts=np.array(CHAIN))
@example(pts=np.array([[-9e-13, 0.0], [0.0, 0.0], [9e-13, 0.0]]))
def test_movers_are_the_activated_agents_ball(pts):
    s = state_of(pts)
    for first in range(s.n):
        draws = itertools.chain([first], itertools.cycle(range(s.n)))
        new, ev = protocol_step(s, chooser=draws.__next__)
        if (s.pairs.dist[first] <= TIE_TOL).all():
            assert ev.consensus and ev.activations == (first,) and new is s
            continue
        if ev.consensus:
            assert (s.pairs.dist[ev.activations[-1]] <= TIE_TOL).all() and new is s
            continue
        ball = s.pairs.dist[ev.mover] <= TIE_TOL
        assert (new.positions[ball] == new.positions[ev.mover]).all()
        assert (new.positions[~ball] == s.positions[~ball]).all()


def test_gathered_within_tol_but_untied_stops_without_an_activation():
    res = run_protocol([[0.0, 0.0], [-9e-13, 0.0], [9e-13, 0.0]], tol=1e-6, seed=0)
    assert res.events == () and res.checks == ()
    assert res.trajectory.stop_reason == "consensus" and res.verdict.reached


def _run_record(pts, seed):
    try:
        res = run_protocol(pts, seed=seed, max_grouped_steps=200)
    except RendezvousError as exc:
        return ("raises", type(exc).__name__, str(exc))
    traj = res.trajectory
    record = {
        "events": [dataclasses.asdict(ev) for ev in res.events],
        "checks": [c.to_dict() for c in res.checks],
        "profiles": [x.coords.tolist() for x in traj.profiles],
        "diameters": traj.diameters,
        "gaps": traj.gaps,
        "included": traj.included,
        "stop_reason": traj.stop_reason,
        "verdict": res.verdict.to_dict(),
    }
    return json.dumps(record, default=lambda v: v.item())


@settings(max_examples=60, deadline=None)
@given(pts=layouts(max_n=6), seed=st.integers(0, 2**16))
def test_run_protocol_matches_the_per_call_reference(pts, seed):
    got = _run_record(pts, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rendezvous, "tie_groups", _ref_tie_groups)
        mp.setattr(rendezvous, "scan", _ref_scan)
        mp.setattr(rendezvous, "move_rule_star", _ref_move_rule_star)
        mp.setattr(RendezvousState, "diameter", _ref_diameter)
        ref = _run_record(pts, seed)
    assert got == ref


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_run_protocol_rejects_bad_seeds(seed):
    with pytest.raises(RendezvousError, match="seed must be an integer"):
        run_protocol([[0.0, 0.0], [4.0, 0.0]], seed=seed)


# --- the movers and the stop rule, from positions alone


def _assert_movers_and_stop_rule(pts, seed, tol, max_grouped_steps=200):
    """Replay a run from its profiles: each mover's ball (np.linalg.norm
    within TIE_TOL, before the step) moves to one point and nobody else
    moves; a consensus event's activated agent sees nobody elsewhere; the
    run stops without an activation exactly when TIE_TOL < diameter <= tol
    by _ref_diameter."""
    res = run_protocol(pts, seed=seed, tol=tol, max_grouped_steps=max_grouped_steps)
    profiles, events = res.trajectory.profiles, res.events
    for before, ev in zip(profiles, events):
        diameter = _ref_diameter(state_of(before.coords))
        assert not TIE_TOL < diameter <= tol
        agent = ev.mover if ev.mover is not None else ev.activations[-1]
        ball = np.linalg.norm(before.coords - before.coords[agent], axis=1) <= TIE_TOL
        if ev.consensus:
            assert ball.all()
            continue
        after = profiles[ev.step].coords
        assert (after[ball] == after[agent]).all()
        assert (after[~ball] == before.coords[~ball]).all()
    final = _ref_diameter(state_of(res.trajectory.final.coords))
    if not (events and events[-1].consensus) and len(events) < max_grouped_steps:
        assert TIE_TOL < final <= tol  # the stop rule ended the run
    assert repr(res.trajectory.diameters) == repr(
        [_ref_diameter(state_of(x.coords)) for x in profiles]
    )


@settings(max_examples=100, deadline=None)
@given(
    pts=st.one_of(layouts(max_n=6), tie_chains()),
    seed=st.integers(0, 2**16),
    tol=st.sampled_from([0.0, 1e-13, 1e-6, 0.05, 0.5]),
)
@example(pts=np.array(CHAIN), seed=0, tol=1e-6)
@example(pts=np.array([[0.0, 0.0], [-9e-13, 0.0], [9e-13, 0.0]]), seed=0, tol=1e-6)
def test_movers_and_stop_rule_match_a_positions_only_reference(pts, seed, tol):
    _assert_movers_and_stop_rule(pts, seed, tol)


# --- n = 9..40, around the benchmark's n = 16 and 32: rows of whole 8-double vectors


@settings(max_examples=60, deadline=None)
@given(pts=layouts(min_n=9, max_n=40), beta=st.floats(0.0, TWO_PI))
def test_pair_table_readers_match_the_reference_at_benchmark_sizes(pts, beta):
    s = state_of(pts)
    assert repr(s.diameter()) == repr(_ref_diameter(s))
    for agent in range(s.n):
        got, ref = _outcome(scan, s, agent), _outcome(_ref_scan, s, agent)
        assert got == ref
        betas = [beta] if ref[0] == "raises" else [math.fmod(ref[0].alpha + math.pi, TWO_PI), beta]
        for b in betas:
            assert _outcome(move_rule_star, s, agent, b) == _outcome(
                _ref_move_rule_star, s, agent, b
            )


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_records_match_the_reference_at_benchmark_sizes(n, seed):
    pts = np.random.default_rng(1000 * n + seed).uniform(0.0, 1.0, size=(n, 2))
    got = _run_record(pts, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rendezvous, "scan", _ref_scan)
        mp.setattr(rendezvous, "move_rule_star", _ref_move_rule_star)
        mp.setattr(RendezvousState, "diameter", _ref_diameter)
        assert _run_record(pts, seed) == got
    _assert_movers_and_stop_rule(pts, seed, 1e-6)


def test_pair_table_planes_give_rel_and_dist():
    s = state_of(np.random.default_rng(4).uniform(-1.0, 1.0, size=(16, 2)))
    rel = s.positions[None, :, :] - s.positions[:, None, :]
    assert (np.stack((s.pairs.dx, s.pairs.dy), axis=-1) == rel).all()
    assert s.pairs.dist.tobytes() == np.sqrt((rel * rel).sum(axis=-1)).tobytes()
    assert not any(plane.flags.writeable for plane in s.pairs)


def test_successor_states_are_read_only_and_finite():
    s = state_of([[0.0, 0.0], [4.0, 0.0], [4.0, 1.0]])
    new, ev = protocol_step(s, chooser=lambda: 0)
    assert ev.mover == 0 and new.rng is s.rng
    with pytest.raises(ValueError):
        new.positions[0, 0] = 1.0
    huge = state_of([[-1e308, -1e308], [1e308, -1e308], [1e308, 1e308]])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        RendezvousError, match="positions must be finite"
    ):
        protocol_step(huge, chooser=lambda: 0)
