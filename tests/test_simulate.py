import dataclasses
import json
import math
import warnings
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from consdyn import simulate
from consdyn.cli import main
from consdyn.geometry import (
    DEFAULT_TOL,
    GeometryError,
    Profile,
    axis_direction_spec,
    build_hull,
    consecutive_steps,
    direction_spec,
    hull_diameter,
    hull_step,
    identity_spec,
    interval_spec,
)
from consdyn.maps import (
    DomainError,
    apply_map,
    decaying_pair_family,
    deform,
    linear_map,
    log_exp_deformation,
    mean_selector,
    midpoint_map,
    scale_map,
    stripe_map,
)
from consdyn.scenarios import (
    averaging_map_library,
    build_sequence,
    builtin_scenarios,
    resolve_initial,
    resolve_spec,
)
from consdyn.simulate import (
    STOP_CONSENSUS,
    STOP_MAX_STEPS,
    STOP_VIOLATION,
    ConsensusVerdict,
    ContinuityReport,
    ProbeRecord,
    RadiusEntry,
    SimulationError,
    SwitchingSequence,
    Trajectory,
    consensus_verdict,
    continuity_experiment,
    cyclic,
    random_policy,
    realize,
    run,
    scripted,
    single,
    summary_dict,
    write_trajectory_csv,
    _csv_rows,
)

A_TAU_HALF = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]


def test_sequence_validation():
    with pytest.raises(SimulationError):
        SwitchingSequence(maps=())
    with pytest.raises(SimulationError):
        SwitchingSequence(maps=(midpoint_map(),), policy="zigzag")
    with pytest.raises(SimulationError):
        random_policy([midpoint_map()], seed=None)
    with pytest.raises(SimulationError):
        scripted([midpoint_map()], [0, 1])  # index out of range
    with pytest.raises(SimulationError):
        # shape disagreement inside one family
        SwitchingSequence(maps=(midpoint_map(), decaying_pair_family("one_over_t")))


@pytest.mark.parametrize(
    "make",
    [
        lambda maps: scripted(maps, [1.5, 0.9]),
        lambda maps: scripted(maps, [(0, 2.5)]),
        lambda maps: scripted(maps, [True, 0]),
        lambda maps: random_policy(maps, 2.7),
        lambda maps: random_policy(maps, True),
    ],
    ids=["script-floats", "script-time-float", "script-bool", "seed-float", "seed-bool"],
)
def test_sequences_reject_non_integers_instead_of_truncating(make):
    with pytest.raises(SimulationError, match="must be an integer"):
        make([midpoint_map(), midpoint_map()])


def test_sequences_take_numpy_integers():
    maps = [midpoint_map(), midpoint_map()]
    assert scripted(maps, [np.int64(1), (np.int32(0), np.uint8(4))]).script == (1, (0, 4))
    assert random_policy(maps, np.int64(7)).seed == 7


def test_single_policy_advances_internal_clock():
    q = decaying_pair_family("quarter_power")
    traj = run(single(q), Profile([[0.0], [1.0]]), max_steps=5)
    assert traj.time_indices == [1, 2, 3, 4, 5]
    assert traj.map_indices == [0, 0, 0, 0, 0]


def test_cyclic_policy_per_map_clocks():
    q = decaying_pair_family("quarter_power")
    o = decaying_pair_family("one_over_t")
    traj = run(cyclic([q, o]), Profile([[0.0], [1.0]]), max_steps=6)
    assert traj.map_indices == [0, 1, 0, 1, 0, 1]
    # each family member advances its own clock only when it fires
    assert traj.time_indices == [1, 2, 2, 3, 3, 4]


def test_random_policy_reproducible():
    maps = [midpoint_map(), linear_map(A_TAU_HALF)]
    x0 = Profile([[0.0], [1.0], [4.0]])
    t1 = run(random_policy(maps, seed=7), x0, max_steps=30, tol=0.0)
    t2 = run(random_policy(maps, seed=7), x0, max_steps=30, tol=0.0)
    assert t1.map_indices == t2.map_indices
    assert (t1.final.coords == t2.final.coords).all()


def test_scripted_policy_and_exhaustion():
    q = decaying_pair_family("quarter_power")
    seq = scripted([q], [(0, 5), (0, 1), 0])
    traj = run(seq, Profile([[0.0], [1.0]]), max_steps=50)
    # pinned entries still count as uses, so the clock reads start + 2 here
    assert traj.time_indices == [5, 1, 3]
    assert traj.stop_reason == STOP_MAX_STEPS
    assert traj.steps == 3


def test_realize_replays_random_run():
    maps = [midpoint_map(), linear_map(A_TAU_HALF)]
    x0 = Profile([[0.0], [2.0], [5.0]])
    seq = random_policy(maps, seed=13)
    frozen = realize(seq, 40)
    t1 = run(seq, x0, max_steps=40, tol=0.0)
    t2 = run(frozen, x0, max_steps=40, tol=0.0)
    assert t1.map_indices == t2.map_indices
    assert t1.time_indices == t2.time_indices
    assert (t1.final.coords == t2.final.coords).all()


def test_realize_and_continuity_stop_where_a_script_ends():
    seq = scripted([midpoint_map()], [0, 0, 0])
    assert realize(seq, 5).script == ((0, 0), (0, 1), (0, 2))
    report = continuity_experiment(
        seq, Profile([[0.0], [1.0], [4.0]]), radii=(0.1,), probes_per_radius=2, max_steps=5
    )
    assert report.base.steps == 3
    assert [p.converged for p in report.entries[0].probes] == [False, False]


def test_consensus_stop_and_verdict():
    uniform = linear_map([[1 / 3] * 3] * 3)
    x0 = Profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    traj = run(single(uniform), x0, tol=1e-9)
    assert traj.stop_reason == STOP_CONSENSUS
    assert traj.steps == 1
    v = consensus_verdict(traj, 1e-9)
    assert v.reached
    assert np.allclose(v.gamma, [1 / 3, 1 / 3], atol=1e-12)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 12: past about 1e154 the planar hull kernels square coordinate "
    "differences into inf, so step 1 reads as an inclusion violation with excess inf",
)
def test_midpoint_consensus_at_1e200_takes_the_unit_scale_steps():
    # the unit triangle reaches consensus in 30 steps; averaging commutes with scaling
    x0 = Profile(np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.7]]) * 1e200)
    traj = run(single(midpoint_map()), x0, tol=1e-9 * 1e200)
    assert traj.violation is None
    assert (traj.stop_reason, traj.steps) == (STOP_CONSENSUS, 30)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 12: near 1e308 the hull's edge vectors overflow, so the step kernel "
    "measures NaN, not 0, between a hull and itself and step 1 reads as an inclusion violation",
)
def test_the_identity_map_keeps_a_hull_near_the_float_limit():
    x0 = Profile([[-1e308, -1e308], [1e308, -1e308], [0.0, 1e308]])
    traj = run(single(scale_map(1.0)), x0, max_steps=3)
    assert traj.violation is None
    assert (traj.stop_reason, traj.steps) == (STOP_MAX_STEPS, 3)


def test_immediate_consensus():
    traj = run(single(midpoint_map()), Profile([[1.0, 1.0]] * 3), tol=1e-9)
    assert traj.steps == 0
    assert traj.stop_reason == STOP_CONSENSUS


def test_violation_stop_inclusion():
    traj = run(
        single(scale_map(2.0)), Profile([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]),
        spec=identity_spec(), max_steps=10,
    )
    assert traj.stop_reason == STOP_VIOLATION
    assert traj.violation["kind"] == "inclusion"
    assert traj.violation["step"] == 1
    assert not traj.included[-1]


def test_violation_stop_domain():
    g = deform(linear_map([[1 / 3] * 3] * 3), log_exp_deformation())
    traj = run(single(g), Profile([[1.0], [2.0], [-3.0]]), max_steps=10)
    assert traj.stop_reason == STOP_VIOLATION
    assert traj.violation["kind"] == "domain"


def test_monitor_recompute_matches_recorded():
    x0 = Profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    traj = run(single(midpoint_map()), x0, tol=1e-9)
    (excess, _, gaps), _ = consecutive_steps(np.array([x.coords for x in traj.profiles]), traj.spec)
    assert len(gaps) == traj.steps
    for ok, gap, rec_ok, rec_gap in zip(
        excess <= DEFAULT_TOL, gaps.tolist(), traj.included[1:], traj.gaps[1:]
    ):
        assert ok == rec_ok
        assert gap == rec_gap


def test_interval_spec_monitoring():
    sel = mean_selector((2, 3, 2))
    x0 = Profile([[1.0], [4.0], [16.0]])
    traj = run(single(sel), x0, spec=interval_spec(), tol=1e-8, max_steps=100)
    assert traj.stop_reason == STOP_CONSENSUS
    assert all(traj.included)
    assert all(b <= a + 1e-12 for a, b in zip(traj.diameters, traj.diameters[1:]))


def test_gap_zero_at_start_and_positive_after():
    x0 = Profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    traj = run(single(midpoint_map()), x0, tol=1e-9, max_steps=3)
    assert traj.gaps[0] == 0.0
    assert all(g > 0 for g in traj.gaps[1:])


def test_csv_export_and_streaming_agree(tmp_path):
    q = decaying_pair_family("quarter_power")
    x0 = Profile([[0.0], [1.0]])
    streamed = tmp_path / "streamed.csv"
    run(single(q), x0, max_steps=40, csv_path=streamed)
    traj = run(single(q), x0, max_steps=40)
    written = tmp_path / "written.csv"
    write_trajectory_csv(traj, written)
    assert streamed.read_bytes() == written.read_bytes()
    header = streamed.read_text().splitlines()[0]
    assert header == "t,agent,c1,diameter,gap"
    rows = streamed.read_text().splitlines()[1:]
    assert len(rows) == (traj.steps + 1) * 2


def test_csv_header_d2():
    x0 = Profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    traj = run(single(midpoint_map()), x0, max_steps=2, tol=0.0)
    import io, tempfile, os

    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "t.csv")
        write_trajectory_csv(traj, p)
        with open(p) as fh:
            assert fh.readline().strip() == "t,agent,c1,c2,diameter,gap"


def _ref_csv_rows(t, profile, diameter, gap) -> list[str]:
    """The row formatter as it was before bulk formatting: the reference."""
    rows = []
    for i in range(profile.n):
        coords = ",".join(repr(float(c)) for c in profile.coords[i])
        rows.append(f"{t},{i},{coords},{repr(float(diameter))},{repr(float(gap))}")
    return rows


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 3.0, -7.0, 1e16]),
    st.integers(-(2**53), 2**53).map(float),
)


@st.composite
def _csv_steps(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    coords = draw(st.lists(st.lists(_FLOATS, min_size=d, max_size=d), min_size=n, max_size=n))
    return coords, draw(_FLOATS), draw(_FLOATS)


@settings(max_examples=300)
@given(t=st.integers(0, 10**6), step=_csv_steps(), numpy_scalars=st.booleans())
@example(t=0, step=([[-0.0], [5e-324], [1e308], [2.0]], 1e308, -0.0), numpy_scalars=False)
@example(t=7, step=([[1.0, -0.0, 5e-324], [-1e308, 3.0, 0.5]], 0.0, 3.0), numpy_scalars=True)
def test_csv_rows_match_the_row_by_row_formatter(t, step, numpy_scalars):
    coords, diameter, gap = step
    if numpy_scalars:
        diameter, gap = np.float64(diameter), np.float64(gap)
    profile = Profile(np.array(coords, dtype=float))
    expected = "".join(row + "\n" for row in _ref_csv_rows(t, profile, diameter, gap))
    assert _csv_rows(t, profile, diameter, gap) == expected


@st.composite
def _csv_trajectories(draw):
    """A hand-made trajectory whose agents, step to step, keep their row,
    flip the sign of its zeros, or take a new one."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    row = st.lists(_FLOATS, min_size=d, max_size=d)
    profiles = [draw(st.lists(row, min_size=n, max_size=n))]
    for _ in range(draw(st.integers(0, 6))):
        step = []
        for coords in profiles[-1]:
            how = draw(st.sampled_from(("keep", "flip", "new")))
            if how == "flip":
                coords = [-c if c == 0.0 else c for c in coords]
            step.append(draw(row) if how == "new" else coords)
        profiles.append(step)
    scalars = st.lists(_FLOATS, min_size=len(profiles), max_size=len(profiles))
    profiles = [Profile(np.array(x, dtype=float)) for x in profiles]
    return Trajectory(
        spec=identity_spec(), profiles=profiles, diameters=draw(scalars), gaps=draw(scalars),
        included=[True] * len(profiles), map_indices=[], time_indices=[],
        stop_reason=STOP_MAX_STEPS, final=profiles[-1],
    )


@settings(max_examples=150)
@given(_csv_trajectories())
@example(Trajectory(
    spec=identity_spec(),
    profiles=[Profile([[0.0, 1.0], [2.0, -0.0]]), Profile([[-0.0, 1.0], [2.0, -0.0]]),
              Profile([[-0.0, 1.0], [2.0, -0.0]]), Profile([[0.0, 1.0], [2.0, 0.0]])],
    diameters=[1.0, 1.0, 0.5, -0.0], gaps=[0.0, 0.0, 0.25, 0.0], included=[True] * 4,
    map_indices=[], time_indices=[], stop_reason=STOP_MAX_STEPS, final=Profile([[0.0, 1.0], [2.0, 0.0]]),
))
def test_written_csv_is_the_rows_of_every_step(tmp_path_factory, traj):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_trajectory_csv(traj, path)
    rows = "".join(_csv_rows(t, x, traj.diameters[t], traj.gaps[t]) for t, x in enumerate(traj.profiles))
    header = ",".join(["t", "agent"] + [f"c{i + 1}" for i in range(traj.profiles[0].d)] + ["diameter", "gap"])
    assert path.read_bytes() == (header + "\n" + rows).encode()


@pytest.mark.parametrize("d", (1, 2))
def test_written_csv_of_a_long_stored_run_is_the_rows_of_every_step(tmp_path, d):
    """A stored run of more than 2 * BLOCK_LAST states, whose steps move one
    agent, negate every agent (0.0 and -0.0 trade places) or keep every
    bit: the writer's blocks give the rows of _csv_rows, byte for byte."""
    x0 = Profile(np.array([[1.0, -0.0], [0.0, 1.0], [-1.0, -1.0]])[:, :d])
    seq = random_policy([mean_selector((1, 2, 4)), scale_map(-1.0), scale_map(1.0)], seed=3)
    traj = run(seq, x0, interval_spec(), max_steps=2 * simulate.BLOCK_LAST + 7)
    assert traj.stop_reason == STOP_MAX_STEPS and not traj.profiles_truncated
    xs = np.array([x.coords for x in traj.profiles])
    changed = (xs[1:].view(np.uint64) != xs[:-1].view(np.uint64)).any(axis=2)
    assert (~changed).all(axis=1).any()  # a step that keeps every bit
    assert (changed & (xs[1:] == xs[:-1]).all(axis=2)).any()  # a zero that changes sign only
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)
    rows = "".join(_csv_rows(t, x, traj.diameters[t], traj.gaps[t]) for t, x in enumerate(traj.profiles))
    assert path.read_bytes() == (simulate._csv_header(d) + "\n" + rows).encode()


_EDGE_FLOATS = st.one_of(_FLOATS, st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5]))


@st.composite
def _wide_csv_steps(draw):
    """(t, state, diameter, gap) of a step of up to 600 agents in d = 1..4:
    seeded coordinates of every magnitude with drawn edge values written
    over some, as a Profile (finite only) or a bare array in C order, as a
    column slice or in Fortran order; float or numpy tails."""
    d = draw(st.integers(1, 4))
    n = draw(st.one_of(st.integers(1, 8), st.integers(9, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, d - 1), _EDGE_FLOATS)
    for i, j, value in draw(st.lists(cell, max_size=12)):
        coords[i, j] = value
    layout = draw(st.sampled_from(("profile", "array", "column slice", "fortran")))
    if layout == "profile":
        state = Profile(np.where(np.isfinite(coords), coords, -0.0))
    elif layout == "column slice":
        state = np.zeros((n, d + 2))
        state[:, 1 : d + 1] = coords
        state = state[:, 1 : d + 1]
    else:
        state = np.asfortranarray(coords) if layout == "fortran" else coords
    diameter, gap = draw(_EDGE_FLOATS), draw(_EDGE_FLOATS)
    if draw(st.booleans()):
        diameter, gap = np.float64(diameter), np.float64(gap)
    return draw(st.integers(0, 10**12)), state, diameter, gap


@settings(max_examples=100)
@given(st.lists(_wide_csv_steps(), min_size=2, max_size=3))
@example([
    (10**12, np.array([[math.nan, -0.0, 5e-324, 1e16], [math.inf, -math.inf, 1e-5, 0.0]]), np.float64(math.nan), -0.0),
    (0, Profile(np.arange(1200.0).reshape(600, 2) * 1e-5), math.inf, np.float64(5e-324)),
])
def test_csv_rows_match_the_reference_at_the_template_scale(steps):
    """Consecutive steps of alternating shapes, then the first again, each
    give the reference rows byte for byte."""
    for t, state, diameter, gap in steps + steps[:1]:
        view = state if isinstance(state, Profile) else SimpleNamespace(n=len(state), coords=state)
        expected = "".join(row + "\n" for row in _ref_csv_rows(t, view, diameter, gap))
        assert _csv_rows(t, state, diameter, gap) == expected


@pytest.mark.parametrize("name", [k for k, v in builtin_scenarios().items() if v.mode == "simulate"])
def test_streamed_cli_csv_is_the_reference_rows_of_the_stored_run(tmp_path, capsys, name):
    """The trajectory CSV the CLI streams for a built-in simulate scenario
    is the header and the reference rows of the same run stored."""
    scenario = builtin_scenarios()[name]
    traj = run(build_sequence(scenario), resolve_initial(scenario), resolve_spec(scenario),
               tol=scenario.tol, max_steps=scenario.max_steps, seed=scenario.seed)
    assert not traj.profiles_truncated
    assert main(["run", "simulate", "--name", name, "--out", str(tmp_path)]) == (
        2 if traj.stop_reason == STOP_VIOLATION else 0)
    capsys.readouterr()
    d = traj.profiles[0].d
    rows = [row for t, x in enumerate(traj.profiles) for row in _ref_csv_rows(t, x, traj.diameters[t], traj.gaps[t])]
    header = ",".join(["t", "agent"] + [f"c{i + 1}" for i in range(d)] + ["diameter", "gap"])
    expected = "".join(line + "\n" for line in [header] + rows)
    assert (tmp_path / f"{name.replace('/', '-')}.trajectory.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9, None, "1e-9", True])
def test_run_rejects_bad_tolerance(tol):
    x0 = Profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SimulationError, match="tol"):
        run(single(midpoint_map()), x0, tol=tol, max_steps=5)


@pytest.mark.parametrize("max_steps", [0, -3, 2.5, 10.0, True, None])
def test_run_rejects_bad_budget(max_steps):
    x0 = Profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SimulationError, match="max_steps"):
        run(single(midpoint_map()), x0, max_steps=max_steps)


def test_run_takes_a_budget_beyond_sys_maxsize():
    sc = builtin_scenarios()["paper/krause-midpoint"]
    runs = [run(build_sequence(sc), resolve_initial(sc), resolve_spec(sc), tol=sc.tol, max_steps=budget)
            for budget in (10**30, 1000)]
    assert runs[0].stop_reason == STOP_CONSENSUS
    assert runs[0] == runs[1]


def test_cli_budget_beyond_sys_maxsize_writes_what_a_small_one_does(tmp_path, capsys):
    outs = (tmp_path / "big", tmp_path / "small")
    for budget, out in zip(("100000000000000000000000", "1000"), outs):
        assert main(["run", "simulate", "--name", "paper/krause-midpoint", "--max-steps", budget,
                     "--out", str(out)]) == 0
    big, small = ({p.name: p.read_bytes() for p in out.iterdir()} for out in outs)
    assert big == small and len(big) == 2


def test_continuity_report_to_dict_is_nested_lists_and_dicts():
    probes = (ProbeRecord(0.1, 0.0, True), ProbeRecord(0.2, None, False))
    report = ContinuityReport(ConsensusVerdict(True, (0.5, 1.5), 0.0, 7), (RadiusEntry(0.25, None, probes),))
    assert report.to_dict() == {
        "base": {"reached": True, "gamma": [0.5, 1.5], "final_diameter": 0.0, "steps": 7},
        "entries": [{"radius": 0.25, "max_limit_distance": None, "probes": [
            {"initial_distance": 0.1, "limit_distance": 0.0, "converged": True},
            {"initial_distance": 0.2, "limit_distance": None, "converged": False},
        ]}],
    }
    assert ConsensusVerdict(False, None, 1.0, 3).to_dict()["gamma"] is None


def test_run_accepts_zero_tolerance():
    x0 = Profile([[0.0], [1.0]])
    traj = run(single(decaying_pair_family("quarter_power")), x0, tol=0.0, max_steps=3)
    assert traj.steps == 3 and traj.stop_reason == STOP_MAX_STEPS


def test_streaming_truncates_profiles(tmp_path):
    q = decaying_pair_family("quarter_power")
    x0 = Profile([[0.0], [1.0]])
    traj = run(single(q), x0, max_steps=30, csv_path=tmp_path / "s.csv")
    assert traj.profiles_truncated
    assert len(traj.profiles) <= 6
    assert traj.final is not None
    assert len(traj.diameters) == 31  # scalars are always recorded
    with pytest.raises(SimulationError):
        write_trajectory_csv(traj, tmp_path / "again.csv")
    assert len(traj.gaps) == len(traj.included) == 31


def test_streamed_run_keeps_only_its_initial_and_final_profiles(tmp_path):
    seq = cyclic([midpoint_map(), linear_map(A_TAU_HALF)])
    x0 = Profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    stored = run(seq, x0, tol=1e-6, max_steps=12)
    streamed = run(seq, x0, tol=1e-6, max_steps=12, csv_path=tmp_path / "s.csv")
    assert stored.steps == streamed.steps == 12
    assert streamed.profiles == [x0]
    assert streamed.final is not x0
    assert np.array_equal(streamed.final.coords, stored.final.coords)
    assert streamed.profiles_truncated
    for key in ("diameters", "gaps", "included", "map_indices", "time_indices"):
        assert getattr(streamed, key) == getattr(stored, key)
    assert len(streamed.diameters) == len(streamed.included) == 13
    assert len(streamed.map_indices) == len(streamed.time_indices) == 12
    with pytest.raises(SimulationError, match="streamed"):
        write_trajectory_csv(streamed, tmp_path / "again.csv")
    assert not stored.profiles_truncated
    assert len(stored.profiles) == 13 and stored.profiles[-1] is stored.final


def test_streamed_run_at_consensus_is_not_truncated(tmp_path):
    x0 = Profile([[0.5], [0.5], [0.5]])
    traj = run(single(midpoint_map()), x0, max_steps=5, csv_path=tmp_path / "s.csv")
    assert traj.stop_reason == STOP_CONSENSUS and traj.steps == 0
    assert traj.profiles == [x0] and traj.final is x0
    assert not traj.profiles_truncated
    write_trajectory_csv(traj, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()


def test_run_determinism_bitwise(tmp_path):
    maps = [midpoint_map(), linear_map(A_TAU_HALF)]
    x0 = Profile([[0.5], [2.5], [9.0]])
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(random_policy(maps, seed=3), x0, tol=1e-11, max_steps=500, csv_path=a)
    run(random_policy(maps, seed=3), x0, tol=1e-11, max_steps=500, csv_path=b)
    assert a.read_bytes() == b.read_bytes()


def test_summary_dict_shape():
    x0 = Profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    traj = run(single(midpoint_map()), x0, tol=1e-9, seed=42)
    s = summary_dict(traj, 1e-9)
    assert list(sorted(s)) == ["final_diameter", "gamma", "seed", "steps", "stop_reason"]
    assert s["stop_reason"] == "consensus"
    assert s["seed"] == 42
    json.dumps(s)  # serializable


def test_continuity_under_fixed_realization():
    maps = [linear_map(A_TAU_HALF), linear_map([[1 / 3] * 3] * 3)]
    x0 = Profile([[0.0], [1.0], [4.0]])
    report = continuity_experiment(
        random_policy(maps, seed=5), x0, radii=(0.0, 0.05, 0.5),
        probes_per_radius=8, tol=1e-12, max_steps=400, seed=11,
    )
    assert report.base.reached
    zero_entry = report.entries[0]
    assert zero_entry.max_limit_distance == 0.0
    for entry in report.entries:
        for probe in entry.probes:
            assert probe.converged
            # row-stochastic updates are sup-norm nonexpansive
            assert probe.limit_distance <= probe.initial_distance + 1e-9
    d = report.to_dict()
    json.dumps(d)


@pytest.mark.parametrize(
    "make",
    [
        lambda maps: random_policy(maps, -1),
        lambda maps: SwitchingSequence(tuple(maps), "cyclic", seed=-5),
        lambda maps: random_policy(maps, np.int64(-2)),
    ],
    ids=["random", "cyclic", "numpy"],
)
def test_sequences_reject_negative_seeds(make):
    with pytest.raises(SimulationError, match="seed must be an integer >= 0"):
        make([midpoint_map(), midpoint_map()])


@pytest.mark.parametrize("entry", [(0, 5, 7), (0,), [], [0, 1, 2]])
def test_scripts_reject_entries_that_are_not_an_index_or_a_pair(entry):
    with pytest.raises(SimulationError, match="script entry"):
        scripted([midpoint_map()], [0, entry])


def test_scripts_reject_a_pinned_time_below_the_map_start():
    q = decaying_pair_family("quarter_power")  # starts at index 1
    with pytest.raises(SimulationError, match=r"script entry \(0, 0\): time index below start index 1"):
        scripted([q], [(0, 3), (0, 0)])
    assert scripted([q], [(0, 3), (0, 1), 0]).script == ((0, 3), (0, 1), 0)


def test_budgets_take_numpy_integers():
    x0 = Profile([[0.0], [1.0]])
    traj = run(single(decaying_pair_family("quarter_power")), x0, tol=0.0, max_steps=np.int64(3))
    assert traj.steps == 3
    with pytest.raises(SimulationError, match="max_steps must be a positive integer"):
        run(single(midpoint_map()), Profile([[0.0], [1.0], [2.0]]), max_steps=np.int64(0))
    with pytest.raises(SimulationError, match="tol"):
        run(single(midpoint_map()), Profile([[0.0], [1.0], [2.0]]), tol=np.True_)


# ---------------------------------------------------------------------------
# block audit against the step-by-step loop


@np.errstate(over="ignore", invalid="ignore")
def _ref_run(seq, initial, spec, tol, max_steps):
    """The loop that `run` replaced, kept as the reference: one build_hull,
    hull_step and hull_diameter per step, every profile stored.  Returns
    the record and the exception the loop raised, if one did; the record
    then ends at the step before it."""
    hull = build_hull(initial, spec)
    traj = Trajectory.start(spec, initial, hull_diameter(hull), seq.seed)
    if traj.diameters[0] <= tol:
        traj.stop_reason = STOP_CONSENSUS
        return traj, None
    x = initial
    for k, (idx, t) in enumerate(realize(seq, max_steps).script, start=1):
        desc = seq.maps[idx]
        try:
            y = apply_map(desc, t, x)
        except (DomainError, GeometryError) as exc:
            traj.stop_reason = STOP_VIOLATION
            traj.violation = {"step": k, "kind": "domain", "detail": str(exc)}
            return traj, None
        except Exception as exc:
            return traj, exc
        try:
            new_hull = build_hull(y, spec)
        except GeometryError as exc:
            traj.stop_reason = STOP_VIOLATION
            traj.violation = {"step": k, "kind": "domain", "detail": str(exc)}
            return traj, None
        excess, vertex, gap = hull_step(new_hull, hull)
        ok = excess <= DEFAULT_TOL
        dia = hull_diameter(new_hull)
        traj.map_indices.append(idx)
        traj.time_indices.append(t)
        traj.diameters.append(dia)
        traj.gaps.append(gap)
        traj.included.append(ok)
        traj.profiles.append(y)
        traj.final = y
        if not ok:
            traj.stop_reason = STOP_VIOLATION
            traj.violation = {
                "step": k, "kind": "inclusion", "map": desc.label(), "time_index": t,
                "vertex": [float(v) for v in vertex], "excess": float(excess),
            }
            return traj, None
        if dia <= tol:
            traj.stop_reason = STOP_CONSENSUS
            return traj, None
        x, hull = y, new_hull
    return traj, None


_RECORD = ("diameters", "gaps", "included", "map_indices", "time_indices", "stop_reason", "violation", "seed")


def _assert_same_run(seq, initial, spec, tol, max_steps, tmp):
    """run, stored and streamed, gives the reference loop's record, or
    raises its exception after writing the same rows: reprs and bytes tell
    -0.0 from 0.0."""
    ref, ref_exc = _ref_run(seq, initial, spec, tol, max_steps)
    write_trajectory_csv(ref, tmp / "ref.csv")
    for csv_path in (None, tmp / "run.csv"):
        try:
            traj = run(seq, initial, spec, tol=tol, max_steps=max_steps, csv_path=csv_path)
        except Exception as exc:
            assert ref_exc is not None, exc
            assert (type(exc), str(exc)) == (type(ref_exc), str(ref_exc))
            continue
        assert ref_exc is None, ref_exc
        for key in _RECORD:
            assert repr(getattr(traj, key)) == repr(getattr(ref, key)), key
        assert traj.final.coords.tobytes() == ref.final.coords.tobytes()
        if csv_path is None:
            assert [x.coords.tobytes() for x in traj.profiles] == [x.coords.tobytes() for x in ref.profiles]
    assert (tmp / "run.csv").read_bytes() == (tmp / "ref.csv").read_bytes()
    return ref, ref_exc


# the shipped maps with their sampling boxes, and those that take any
# dimension again in d = 3, where only interval hulls exist
_LIBRARY = averaging_map_library()
_LIBRARY += [
    dataclasses.replace(e, sample={**e.sample, "d": 3}) for e in _LIBRARY if e.descriptor.d is None
]
_SHAPES = sorted({(e.sample["n"], e.sample["d"]) for e in _LIBRARY})
OCTAGON = direction_spec([(math.cos(a), math.sin(a)) for a in np.arange(8) * math.pi / 4])
# steps at and around the block edges (blocks of 16, 32, 64, 128 and 256 steps)
EDGE_STEPS = (1, 15, 16, 17, 48, 49, 304)


@st.composite
def _library_runs(draw):
    """A switching sequence over one to three shipped maps of one shape,
    under every policy, with a hull spec, an initial profile from the maps'
    common sampling box, a tolerance and a step budget."""
    n, d = draw(st.sampled_from(_SHAPES))
    entries = draw(st.lists(
        st.sampled_from([e for e in _LIBRARY if (e.sample["n"], e.sample["d"]) == (n, d)]),
        min_size=1, max_size=3,
    ))
    maps = [e.descriptor for e in entries]
    policy = draw(st.sampled_from(("single", "cyclic", "random", "scripted")))
    if policy == "scripted":
        index = st.integers(0, len(maps) - 1)
        entry = st.one_of(index, index.flatmap(
            lambda i: st.tuples(st.just(i), st.integers(maps[i].start_index, maps[i].start_index + 9))
        ))
        seq = scripted(maps, draw(st.lists(entry, min_size=1, max_size=60)))
    elif policy == "random":
        seq = random_policy(maps, draw(st.integers(0, 2**32)))
    else:
        seq = single(maps[0]) if policy == "single" else cyclic(maps)
    specs = [interval_spec()] + [identity_spec()] * (d < 3) + [axis_direction_spec(), OCTAGON] * (d == 2)
    low = max(e.sample["low"] for e in entries)
    high = min(e.sample["high"] for e in entries)
    coord = st.one_of(
        st.floats(low, high, allow_nan=False), st.sampled_from([low, high, (low + high) / 2])
    )
    initial = Profile(np.array(draw(st.lists(
        st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n
    ))))
    tol = draw(st.sampled_from((0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5)))
    max_steps = draw(st.one_of(st.sampled_from(EDGE_STEPS), st.integers(1, 320)))
    return seq, initial, draw(st.sampled_from(specs)), tol, max_steps


@settings(max_examples=80)
@given(_library_runs())
def test_block_run_matches_the_step_loop(tmp_path_factory, case):
    _assert_same_run(*case, tmp_path_factory.mktemp("run"))


STILL = linear_map(np.eye(3))  # every hull stays put: gap 0, included
UNIFORM = linear_map([[1 / 3] * 3] * 3)  # consensus in one step
DOUBLE = scale_map(2.0)  # an inclusion violation


def _refuse_width(l):
    raise ValueError(f"no width for {l!r}")


RAISING = stripe_map(_refuse_width)  # raises from inside apply_map
OFF_DOMAIN = deform(STILL, log_exp_deformation())  # a DomainError on coordinates <= 0

# the maps at steps k, k + 1, ... after k - 1 steps of STILL, and the
# outcome: the stop reason (or the exception raised), the steps recorded
# before it, less k, and the kind of violation
EVENTS = {
    "consensus": ((UNIFORM,), STOP_CONSENSUS, 0, None),
    "inclusion": ((DOUBLE,), STOP_VIOLATION, 0, "inclusion"),
    "inclusion-then-moves": ((DOUBLE, UNIFORM), STOP_VIOLATION, 0, "inclusion"),
    "collapse-outside": ((scale_map(0.0),), STOP_VIOLATION, 0, "inclusion"),  # and within tol
    "domain": ((OFF_DOMAIN,), STOP_VIOLATION, -1, "domain"),
    "raise": ((RAISING,), ValueError, -1, None),
    "raise-after-inclusion": ((DOUBLE, RAISING), STOP_VIOLATION, 0, "inclusion"),
    "raise-after-consensus": ((UNIFORM, RAISING), STOP_CONSENSUS, 0, None),
    "domain-after-inclusion": ((DOUBLE, OFF_DOMAIN), STOP_VIOLATION, 0, "inclusion"),
    "inclusion-after-domain": ((OFF_DOMAIN, DOUBLE), STOP_VIOLATION, -1, "domain"),
}


def _event_run(k, tail):
    maps = [STILL, *tail]
    return scripted(maps, [0] * (k - 1) + list(range(1, len(maps))) + [0] * 5)


@pytest.mark.parametrize("event", EVENTS)
@pytest.mark.parametrize("k", EDGE_STEPS)
def test_block_run_stops_where_the_step_loop_does(tmp_path, k, event):
    tail, outcome, delta, kind = EVENTS[event]
    x0 = Profile([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    ref, exc = _assert_same_run(_event_run(k, tail), x0, identity_spec(), 1e-9, 400, tmp_path)
    assert ref.steps == k + delta
    if isinstance(outcome, str):
        assert exc is None and ref.stop_reason == outcome
        assert (ref.violation or {}).get("kind") == kind
    else:
        assert isinstance(exc, outcome)


@pytest.mark.parametrize(
    ("coords", "message"),
    [
        # the scaled profile's corners overflow
        ([[1.78, 1.721], [0.664, 0.539], [0.675, -0.398]], "coordinates must be finite"),
        # its support values overflow: no corner is feasible
        ([[-1.591, -1.012], [-1.589, -1.079], [-1.603, -0.969]], "direction hull has no feasible corner"),
    ],
)
@pytest.mark.parametrize("k", EDGE_STEPS)
def test_block_run_stops_where_a_direction_hull_fails(tmp_path, k, coords, message):
    seq = _event_run(k, (scale_map(1e308),))
    ref, exc = _assert_same_run(seq, Profile(coords), OCTAGON, 1e-9, 400, tmp_path)
    assert exc is None and ref.steps == k - 1 and ref.stop_reason == STOP_VIOLATION
    assert ref.violation == {"step": k, "kind": "domain", "detail": message}


# a non-finite image at step k, then maps that raise, leave their domain or
# move on from it: the first non-finite image ends the run at step k,
# whatever the steps after it do
OVERFLOWS = {
    "alone": (scale_map(1e308),),
    "then-raise": (scale_map(1e308), RAISING),
    "then-domain": (scale_map(1e308), OFF_DOMAIN),
    "then-moves": (scale_map(1e308), UNIFORM, DOUBLE),
}


@pytest.mark.parametrize("tail", OVERFLOWS)
@pytest.mark.parametrize("k", EDGE_STEPS)
def test_block_run_ends_at_its_first_non_finite_image(tmp_path, k, tail):
    x0 = Profile([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref, exc = _assert_same_run(_event_run(k, OVERFLOWS[tail]), x0, identity_spec(), 1e-9, 400, tmp_path)
    assert exc is None and ref.steps == k - 1 and ref.stop_reason == STOP_VIOLATION
    assert ref.violation == {"step": k, "kind": "domain", "detail": "coordinates must be finite"}


@pytest.mark.parametrize("k", EDGE_STEPS)
def test_block_run_stops_where_a_deformed_inner_image_overflows(tmp_path, k):
    # the inner image of the log_exp-deformed scaling is -inf, its outer
    # image is finite: the deformed map refuses it, a domain violation at k
    seq = _event_run(k, (deform(scale_map(1e308), log_exp_deformation()),))
    x0 = Profile([[0.1, 1.0], [1.0, 1.0], [1.0, 0.5]])
    with np.errstate(all="ignore"):
        ref, exc = _assert_same_run(seq, x0, identity_spec(), 1e-9, 400, tmp_path)
    assert exc is None and ref.steps == k - 1 and ref.stop_reason == STOP_VIOLATION
    assert ref.violation == {"step": k, "kind": "domain", "detail": "coordinates must be finite"}


def _counted_map_calls(monkeypatch):
    calls = []

    def counted(desc, t, x):
        calls.append(t)
        return apply_map(desc, t, x)

    monkeypatch.setattr(simulate, "apply_map", counted)
    return calls


def test_runs_apply_one_map_per_step_taken(monkeypatch, tmp_path):
    calls = _counted_map_calls(monkeypatch)
    paper = [s for name, s in builtin_scenarios().items() if name.startswith("paper/") and s.mode == "simulate"]
    assert len(paper) == 7
    runs = [
        (build_sequence(s), resolve_initial(s), resolve_spec(s), s.tol, s.max_steps) for s in paper
    ]
    rng = np.random.default_rng(3)
    runs.append((
        random_policy([mean_selector((2, 3, 2)), mean_selector((3, 2, 3))], seed=11),
        Profile(rng.uniform(0.5, 16.0, size=(3, 1))), interval_spec(), 1e-8, 10_000,
    ))
    for seq, initial, spec, tol, max_steps in runs:
        calls.clear()
        traj = run(seq, initial, spec, tol=tol, max_steps=max_steps, csv_path=tmp_path / "t.csv")
        assert len(calls) == traj.steps > 0
    assert traj.stop_reason == STOP_CONSENSUS


def test_agents_on_a_vertical_line_are_audited_in_blocks(monkeypatch):
    """Their first coordinate spans 0 <= 2 * tol at every step; a block
    ends early only once every coordinate does."""
    blocks = []
    monkeypatch.setattr(simulate, "consecutive_steps", lambda *args: blocks.append(1) or consecutive_steps(*args))
    x0 = Profile([[0.0, 0.0], [0.0, 1.0], [0.0, 3.0]])
    traj = run(single(linear_map(A_TAU_HALF)), x0, tol=1e-12, max_steps=200)
    assert traj.stop_reason == STOP_CONSENSUS and traj.steps == 42
    assert len(blocks) == 3  # 16 steps, 25 of 32 up to a step within 2 * tol but not tol, then 1
