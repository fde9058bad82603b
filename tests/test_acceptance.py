"""Acceptance gate.

One test per stated criterion, at the stated tolerances and runtime budgets.
Each test prints a single "[criterion NN] PASS/FAIL" line (visible under
pytest -s; pytest -v shows the same verdict through the test outcome).
"""
import time
from contextlib import contextmanager

import numpy as np

from consdyn.certify import (
    SampleConfig,
    check_averaging,
    check_equiproper,
    default_time_range,
    properness_gap,
    regularity_index,
    scrambling_coefficient,
    scrambling_index,
)
from consdyn.cli import main
from consdyn.geometry import Profile, identity_spec, interval_spec
from consdyn.maps import (
    apply_map,
    decaying_pair_family,
    deform,
    linear_map,
    log_exp_deformation,
    mean_selector,
    midpoint_map,
    stripe_map,
    vanishing_confidence,
)
from consdyn.rendezvous import run_protocol
from consdyn.scenarios import (
    averaging_map_library,
    builtin_scenarios,
    sample_config,
)
from consdyn.simulate import (
    STOP_CONSENSUS,
    continuity_experiment,
    random_policy,
    run,
    single,
)

A_CYCLE_MIX = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]
A_TAU_HALF = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {label}")
        raise
    print(f"[criterion {num:2d}] PASS  {label}")


def test_criterion_01_quarter_power_never_crosses():
    with criterion(1, "quarter-power pair stays outside the middle third"):
        t0 = time.perf_counter()
        traj = run(
            single(decaying_pair_family("quarter_power")),
            Profile([[0.0], [1.0]]),
            tol=0.0,
            max_steps=200,
        )
        assert traj.steps == 200
        for x in traj.profiles[:200]:  # states x(1) .. x(200)
            assert x.coords[0, 0] < 1.0 / 3.0
            assert x.coords[1, 0] > 2.0 / 3.0
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_one_over_t_closed_form():
    with criterion(2, "one-over-t pair follows the closed form, gap*(t-1)=1"):
        t0 = time.perf_counter()
        traj = run(
            single(decaying_pair_family("one_over_t")),
            Profile([[0.0], [1.0]]),
            tol=0.0,
            max_steps=9_999,
        )
        assert not traj.profiles_truncated
        for k, x in enumerate(traj.profiles):
            t = k + 2  # the run starts at x(2)
            if t > 10_000:
                break
            assert abs(x.coords[0, 0] - (t - 2.0) / (t - 1.0)) <= 1e-12
            assert abs(x.coords[1, 0] - 1.0) <= 1e-12
            gap = traj.diameters[k]
            assert abs(gap * (t - 1.0) - 1.0) <= 1e-12
        assert time.perf_counter() - t0 < 1.0


def test_criterion_03_vanishing_confidence_freezes():
    with criterion(3, "vanishing confidence keeps the pair at least 4 apart"):
        t0 = time.perf_counter()
        traj = run(
            single(vanishing_confidence(1.0)),
            Profile([[0.0], [8.0]]),
            tol=0.0,
            max_steps=100,
        )
        assert traj.steps == 100
        x = traj.final.coords
        assert abs(x[0, 0] - x[1, 0]) >= 4.0
        assert time.perf_counter() - t0 < 1.0


def test_criterion_04_library_inclusion_sweep():
    with criterion(4, "hull inclusion on 500 profiles per shipped map"):
        t0 = time.perf_counter()
        for i, entry in enumerate(averaging_map_library()):
            box = entry.sample
            cfg = SampleConfig(
                seed=900 + i,
                count=500,
                n=box["n"],
                d=box["d"],
                low=box["low"],
                high=box["high"],
            )
            rep = check_averaging(
                entry.descriptor,
                entry.descriptor.claim,
                samples=cfg,
                tol=1e-9,
                time_steps=entry.time_steps,
            )
            assert rep.witness is None, entry.label
            assert rep.ok, entry.label
            assert len(rep.records) == 500
        assert time.perf_counter() - t0 < 30.0


def _dense_hausdorff_oracle(outer_pts, inner_pts, samples=200_001):
    """Brute-force one-sided vertex distance for nested convex polygons:
    max over outer vertices of the min distance to densely sampled inner
    edges.  Independent of the library's projection formulas."""
    inner = np.asarray(inner_pts, dtype=float)
    ts = np.linspace(0.0, 1.0, samples)[:, None]
    edges = []
    m = inner.shape[0]
    for j in range(m):
        a, b = inner[j], inner[(j + 1) % m]
        edges.append(a + ts * (b - a))
    cloud = np.vstack(edges)
    worst = 0.0
    for v in np.asarray(outer_pts, dtype=float):
        worst = max(worst, float(np.linalg.norm(cloud - v, axis=1).min(initial=np.inf)))
    return worst


def test_criterion_05_midpoint_gap_matches_oracle():
    with criterion(5, "midpoint gap on the unit right triangle is 1/2"):
        tri = Profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        gap = properness_gap(midpoint_map(), 1, identity_spec(), tri)
        assert abs(gap - 0.5) <= 1e-9
        image = apply_map(midpoint_map(), 1, tri)
        oracle = _dense_hausdorff_oracle(tri.coords, image.coords)
        assert abs(gap - oracle) <= 1e-5


def test_criterion_06_equiproper_verdicts():
    with criterion(6, "selector family equiproper, quarter-power family not"):
        table = builtin_scenarios()
        good = table["paper/mean-selectors-valid"]
        family = [(m, default_time_range(m, good.time_steps)) for m in good.maps]
        rep = check_equiproper(
            family,
            good.coordinate_map,
            samples=sample_config(good),
            gap_floor=good.gap_floor,
            consensus_tol=good.consensus_tol,
        )
        assert rep.witness is None
        assert rep.equiproper is True
        assert rep.family_min_gap >= 1e-9

        bad = table["paper/quarter-power-family"]
        family = [(m, default_time_range(m, bad.time_steps)) for m in bad.maps]
        rep = check_equiproper(
            family,
            samples=sample_config(bad),
            gap_floor=bad.gap_floor,
            consensus_tol=bad.consensus_tol,
        )
        assert rep.witness is None  # inclusion always holds
        assert rep.equiproper is False  # but the shared floor does not
        assert rep.family_min_gap < 1e-9


def _boolean_index_oracle(matrix, scrambling: bool, cap: int = 64):
    """Smallest power whose support pattern is scrambling (or positive),
    via boolean matrix powers."""
    b = np.asarray(matrix) > 0.0
    p = b.copy()
    for k in range(1, cap + 1):
        if scrambling:
            hit = all(
                (p[i] & p[j]).any()
                for i in range(p.shape[0])
                for j in range(i + 1, p.shape[0])
            )
        else:
            hit = p.all()
        if hit:
            return k
        p = (p.astype(int) @ b.astype(int)) > 0
    return None


def test_criterion_07_linear_theory():
    with criterion(7, "tau contraction and boolean-power indices"):
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 3))
            a = rng.dirichlet(np.ones(n), size=n)
            x = Profile(rng.uniform(-10.0, 10.0, size=(n, d)))
            y = Profile(a @ x.coords)
            tau = scrambling_coefficient(a)
            assert y.diameter() <= tau * x.diameter() + 1e-9
        want = (
            _boolean_index_oracle(A_CYCLE_MIX, scrambling=True),
            _boolean_index_oracle(A_CYCLE_MIX, scrambling=False),
        )
        got = (scrambling_index(A_CYCLE_MIX), regularity_index(A_CYCLE_MIX))
        assert got == want == (3, 5)


def test_criterion_08_switched_consensus():
    with criterion(8, "random switching over the mixed family gathers"):
        t0 = time.perf_counter()
        family = [
            midpoint_map(),
            stripe_map(),
            mean_selector((2, 3, 2)),
            mean_selector((3, 2, 3)),
            linear_map(A_TAU_HALF),
        ]
        for i in range(50):
            rng = np.random.default_rng(6000 + i)
            x0 = Profile(rng.uniform(0.5, 4.0, size=(3, 2)))
            traj = run(
                random_policy(family, seed=5000 + i),
                x0,
                interval_spec(),
                tol=1e-7,
                max_steps=10_000,
            )
            assert traj.stop_reason == STOP_CONSENSUS, i
            assert all(traj.included)
            for a, b in zip(traj.diameters, traj.diameters[1:]):
                assert b <= a + 1e-9
        assert time.perf_counter() - t0 < 60.0


def test_criterion_09_deformed_geometric_mean():
    with criterion(9, "log/exp deformation lands on the geometric mean"):
        phi = log_exp_deformation()
        uniform = deform(linear_map([[1 / 3] * 3] * 3), phi)
        rng = np.random.default_rng(99)
        x0 = Profile(rng.uniform(0.5, 8.0, size=(3, 2)))
        y = apply_map(uniform, 1, x0)
        target = np.exp(np.log(x0.coords).mean(axis=0))
        assert np.abs(y.coords - target[None, :]).max() <= 1e-9

        inner = linear_map(A_TAU_HALF)
        g = deform(inner, phi)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            x = Profile(rng.uniform(0.25, 16.0, size=(3, d)))
            lhs = phi.forward(apply_map(g, 1, x).coords)
            rhs = apply_map(inner, 1, Profile(phi.forward(x.coords))).coords
            assert np.abs(lhs - rhs).max() <= 1e-9


def test_criterion_10_limit_continuity():
    with criterion(10, "limits move no farther than the initial conditions"):
        rng = np.random.default_rng(55)
        family = [linear_map(rng.dirichlet(np.ones(3), size=3)) for _ in range(3)]
        family.append(linear_map(A_TAU_HALF))
        report = continuity_experiment(
            random_policy(family, seed=77),
            Profile([[0.0], [1.0], [4.0]]),
            radii=(0.1, 1.0),
            probes_per_radius=25,
            tol=1e-12,
            max_steps=2_000,
            seed=21,
        )
        assert report.base.reached
        probes = [p for entry in report.entries for p in entry.probes]
        assert len(probes) == 50
        for p in probes:
            assert p.converged
            assert p.limit_distance <= p.initial_distance + 1e-9


def test_criterion_11_rendezvous_sizes():
    with criterion(11, "watergun protocol gathers for n = 2..8"):
        t0 = time.perf_counter()
        for n in range(2, 9):
            rng = np.random.default_rng(300 + n)
            initial = rng.uniform(0.0, 1.0, size=(n, 2))
            res = run_protocol(initial, tol=1e-6, seed=n)
            assert res.verdict.reached, n
            assert res.all_checks_ok, n
            if n == 2:
                assert res.trajectory.steps == 1
        assert time.perf_counter() - t0 < 10.0


def test_criterion_12_bit_identical_reruns(tmp_path):
    with criterion(12, "same seed, byte-identical artifacts"):
        jobs = [
            ("simulate", "paper/krause-midpoint"),
            ("certify", "fixture/scale-by-2"),
            ("rendezvous", "paper/watergun-rendezvous"),
        ]
        for mode, name in jobs:
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{name.replace('/', '-')}-{tag}"
                code = main(["run", mode, "--name", name, "--out", str(out)])
                assert code in (0, 2)
                outs.append(out)
            first = sorted(p.name for p in outs[0].iterdir())
            second = sorted(p.name for p in outs[1].iterdir())
            assert first == second and first
            for fname in first:
                assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
