"""Self-test of the benchmark: tracer coverage and the exact counts.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload once traced (about two minutes on a 2-core machine).
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import consdyn  # noqa: E402
import harness  # noqa: E402
from consdyn.certify import properness_gap  # noqa: E402
from consdyn.geometry import Profile, identity_spec  # noqa: E402
from consdyn.maps import midpoint_map  # noqa: E402
from tracer import LABELS, TARGETS, Tracer, _package_modules, _resolve  # noqa: E402
from run import listed_units as _listed_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _originals() -> dict:
    return {label: _resolve(module, path)[2] for label, module, path, _ in TARGETS}


def test_install_replaces_every_binding_and_uninstall_restores_them():
    originals = _originals()
    tracer = Tracer()
    tracer.install()
    try:
        for mod in _package_modules():
            for key, value in vars(mod).items():
                assert not any(value is fn for fn in originals.values()), (
                    f"{mod.__name__}.{key} is still the untraced function"
                )
        assert Profile.diameter is not originals["geometry.Profile.diameter"]
        # some function is bound in more than one module, as the package is
        # written today, so the check above covers re-bound names
        holders = Counter(id(original) for _, _, original in tracer._patches)
        assert max(holders.values()) > 1
    finally:
        tracer.uninstall()
    assert _originals() == originals


def test_spans_nest_and_self_times_add_up():
    tracer = Tracer()
    tracer.install()
    try:
        x = Profile([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        consdyn.certify.properness_gap(midpoint_map(), 0, identity_spec(), x)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["certify.properness_gap"]["calls"] == 1
    spans = tracer.spans()
    parent, start, end = spans["parent"], spans["start"], spans["end"]
    assert len(parent) > 1, "no call below properness_gap was traced"
    assert parent[0] == -1 and (parent[1:] >= 0).all()
    inner = np.arange(1, len(parent))
    assert (parent[inner] < inner).all()
    assert (start[parent[inner]] <= start[inner]).all()
    assert (end[inner] <= end[parent[inner]]).all()
    for label in LABELS:
        assert summary[label]["s"] >= summary[label]["self_s"] >= 0.0
    total_self = sum(summary[label]["self_s"] for label in LABELS)
    assert total_self == pytest.approx(summary["certify.properness_gap"]["s"], rel=1e-9)
    # untraced again: the same call records nothing
    properness_gap(midpoint_map(), 0, identity_spec(), x)
    assert len(tracer.spans()["name"]) == len(spans["name"])


def _traced_run(workload: str, seed: int, workdir: Path) -> harness.Run:
    return harness.measure(harness.prepare(workload, seed, workdir), 0.0, workdir, trace=True)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_and_match_the_scenarios(workload, tmp_path):
    run = _traced_run(workload, 1, tmp_path / "work")
    assert run.failed == 0, run.failures
    assert len(run.traced) >= 2
    counts = [harness._exact_counts(p) for p in run.traced]
    assert all(c == counts[0] for c in counts[1:])
    m = harness.per_layer(run)
    transitions = m["workload.transitions"]
    assert m["cli.main.calls"] == run.invocations
    if workload == "certify-sweep":
        assert transitions == 44_401
        assert m["certify.properness_gap.calls"] == 44_401
    elif workload.startswith("simulate"):
        # transitions are the summed `steps` of the simulate summaries
        assert m["maps.apply_map.calls"] == transitions
    else:
        # transitions are the grouped steps logged in the event files
        assert m["rendezvous.protocol_step.calls"] == transitions
        assert 0.0 < m["rendezvous.moves_per_activation"] <= 1.0
    assert m["trace.overhead_ratio"] > 0.0


def test_two_traced_runs_agree_on_counts_and_ratios(tmp_path):
    first = _traced_run("simulate-long", 3, tmp_path / "a")
    second = _traced_run("simulate-long", 3, tmp_path / "b")
    assert first.failed == second.failed == 0
    assert harness._exact_counts(first.traced[-1]) == harness._exact_counts(second.traced[-1])
    exact = [name for name, unit in _listed_units(trace=True).items()
             if unit in ("count", "bytes", "ratio") and name != "trace.overhead_ratio"]
    m1, m2 = harness.per_layer(first), harness.per_layer(second)
    assert {n: m1[n] for n in exact} == {n: m2[n] for n in exact}
    assert first.digest() == second.digest()


def test_every_listed_metric_is_computed(tmp_path):
    run = _traced_run("simulate-long", 1, tmp_path / "work")
    assert harness.per_layer(run).keys() == _listed_units(trace=True).keys()
    assert {*harness.end_to_end(run), "setup_s", "peak_rss_mb"} == _listed_units(trace=False).keys()


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "simulate-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
