import dataclasses
import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import consdyn
from conftest import strict_json
from consdyn.certify import MAX_TIME_STEPS
from consdyn.cli import main
from consdyn.geometry import interval_spec
from consdyn.maps import mean_selector, midpoint_map, scale_map
from consdyn.scenarios import (
    Scenario,
    ScenarioError,
    averaging_map_library,
    build_sequence,
    builtin_scenarios,
    derived_seeds,
    get_scenario,
    load_scenarios,
    resolve_initial,
    resolve_spec,
    save_scenarios,
    valid_selector_triples,
)


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        Scenario(name="x", mode="explode")
    with pytest.raises(ScenarioError):
        Scenario(name="x", mode="simulate", initial={"coords": [[0.0]]})  # no maps
    with pytest.raises(ScenarioError):
        Scenario(name="x", mode="simulate", maps=(midpoint_map(),))  # no initial
    with pytest.raises(ScenarioError):
        Scenario(name="x", mode="certify", maps=(midpoint_map(),), sample={"count": 1, "n": 2, "d": 1})
    with pytest.raises(ScenarioError):
        Scenario(name="x", mode="certify", maps=(midpoint_map(),), check="averaging")
    with pytest.raises(ScenarioError):
        Scenario(name="x", mode="rendezvous")
    sim = dict(name="x", mode="simulate", maps=(midpoint_map(),), initial={"coords": [[0.0]]})
    for bad in (
        {"gap_floor": float("nan")},
        {"consensus_tol": -1e-9},
        {"time_steps": 0},
        {"max_steps": 2.5},
    ):
        with pytest.raises(ScenarioError):
            Scenario(**sim, **bad)
    assert Scenario(**sim, tol=0.0).tol == 0.0


def test_builtins_round_trip_through_json():
    table = builtin_scenarios()
    assert len(table) == 12
    for name, sc in table.items():
        d1 = sc.to_dict()
        wire = json.loads(json.dumps(d1))
        d2 = Scenario.from_dict(wire).to_dict()
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True), name


def test_save_and_load_files(tmp_path):
    path = tmp_path / "scenarios.json"
    table = builtin_scenarios()
    save_scenarios(list(table.values()), path)
    loaded = load_scenarios(path)
    assert sorted(loaded) == sorted(table)
    for name in table:
        assert loaded[name].to_dict() == table[name].to_dict()


def test_load_rejects_duplicates_and_bad_shape(tmp_path):
    sc = builtin_scenarios()["paper/krause-midpoint"]
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"scenarios": [sc.to_dict(), sc.to_dict()]}))
    with pytest.raises(ScenarioError, match="duplicate"):
        load_scenarios(dup)
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps([sc.to_dict()]))
    with pytest.raises(ScenarioError, match="scenarios"):
        load_scenarios(bare)


def test_get_scenario_unknown_lists_names():
    with pytest.raises(ScenarioError, match="paper/krause-midpoint"):
        get_scenario("nope/never")


def test_derived_seeds_reproducible_and_distinct():
    a = derived_seeds(42)
    b = derived_seeds(42)
    assert a["switching"] == b["switching"]
    assert a["scheduler"] == b["scheduler"]
    assert a["sampling"] == b["sampling"]
    r1 = np.random.default_rng(a["initial"]).uniform(size=4)
    r2 = np.random.default_rng(b["initial"]).uniform(size=4)
    assert (r1 == r2).all()
    assert len({a["switching"], a["scheduler"], a["sampling"]}) == 3
    c = derived_seeds(43)
    assert c["switching"] != a["switching"]


def test_resolve_initial_explicit_and_random():
    sc = builtin_scenarios()["paper/krause-midpoint"]
    x0 = resolve_initial(sc)
    assert (x0.coords == np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])).all()
    rnd = builtin_scenarios()["paper/watergun-rendezvous"]
    p1 = resolve_initial(rnd)
    p2 = resolve_initial(rnd)
    assert (p1.coords == p2.coords).all()
    assert p1.n == 8 and p1.d == 2
    assert p1.coords.min() >= 0.0 and p1.coords.max() <= 1.0
    with pytest.raises(ScenarioError):
        resolve_initial(
            Scenario(name="x", mode="simulate", maps=(midpoint_map(),), initial={"nope": 1})
        )


def test_resolve_spec_precedence():
    explicit = Scenario(
        name="x", mode="simulate", maps=(midpoint_map(),),
        coordinate_map=interval_spec(), initial={"coords": [[0.0, 0.0], [1.0, 1.0]]},
    )
    assert resolve_spec(explicit).kind == "interval"
    claimed = Scenario(
        name="x", mode="simulate", maps=(mean_selector((2, 3, 2)),),
        initial={"coords": [[0.0], [1.0], [2.0]]},
    )
    assert resolve_spec(claimed).kind == "interval"
    unclaimed = Scenario(
        name="x", mode="simulate", maps=(scale_map(2.0),),
        initial={"coords": [[0.0], [1.0]]},
    )
    assert resolve_spec(unclaimed).kind == "identity"


def test_build_sequence_uses_derived_switching_seed():
    sc = Scenario(
        name="x", mode="simulate", maps=(midpoint_map(), midpoint_map()),
        policy="random", seed=5, initial={"coords": [[0.0, 0.0], [1.0, 1.0]]},
    )
    s1 = build_sequence(sc)
    s2 = build_sequence(sc)
    assert s1.seed == s2.seed == derived_seeds(5)["switching"]


def test_selector_triples_and_library():
    triples = valid_selector_triples()
    assert len(triples) == 46
    assert all(not (1 in t and 4 in t) for t in triples)
    lib = averaging_map_library()
    assert len(lib) == 14
    assert len({e.label for e in lib}) == 14
    for entry in lib:
        assert entry.descriptor.claim is not None, entry.label


# ---------------------------------------------------------------- CLI


def test_cli_simulate_artifacts(tmp_path, capsys):
    code = main([
        "run", "simulate", "--name", "paper/krause-midpoint", "--out", str(tmp_path)
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "consensus" in out
    assert out.startswith("paper/krause-midpoint: consensus after 31 steps,")  # audited in blocks, same stop
    csv_path = tmp_path / "paper-krause-midpoint.trajectory.csv"
    summary_path = tmp_path / "paper-krause-midpoint.summary.json"
    assert csv_path.exists() and summary_path.exists()
    summary = json.loads(summary_path.read_text())
    assert summary["stop_reason"] == "consensus"
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,agent,c1,c2,diameter,gap"


def test_cli_artifacts_bit_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main([
            "run", "simulate", "--name", "paper/krause-midpoint", "--out", str(out)
        ]) == 0
    for fname in ("paper-krause-midpoint.trajectory.csv", "paper-krause-midpoint.summary.json"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()


def test_cli_max_steps_override(tmp_path):
    assert main([
        "run", "simulate", "--name", "paper/quarter-power",
        "--max-steps", "5", "--out", str(tmp_path),
    ]) == 0
    summary = json.loads((tmp_path / "paper-quarter-power.summary.json").read_text())
    assert summary["steps"] == 5
    assert summary["stop_reason"] == "max_steps"


def test_cli_certify_violation_exits_2(tmp_path, capsys):
    code = main([
        "run", "certify", "--name", "fixture/scale-by-2", "--out", str(tmp_path)
    ])
    assert code == 2
    assert "witness" in capsys.readouterr().out
    report = json.loads((tmp_path / "fixture-scale-by-2.certify.json").read_text())
    assert report[0]["witness"] is not None


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "certify", "--name", "fixture/scale-by-2", "--tol", "nan"],
        ["run", "certify", "--name", "fixture/scale-by-2", "--tol", "inf"],
        ["run", "certify", "--name", "fixture/scale-by-2", "--tol", "-1"],
        ["run", "simulate", "--name", "paper/quarter-power", "--max-steps", "-5"],
        ["run", "simulate", "--name", "paper/quarter-power", "--max-steps", "0"],
        ["run", "rendezvous", "--name", "paper/watergun-pair", "--tol", "nan"],
    ],
)
def test_cli_rejects_bad_tolerance_and_budget(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("consdyn: error:") and "\n" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "mode, name, field, literal",
    [
        ("simulate", "paper/krause-midpoint", "tol", "null"),
        ("simulate", "paper/krause-midpoint", "gap_floor", "null"),
        ("simulate", "paper/krause-midpoint", "max_steps", "2.5"),
        ("simulate", "paper/krause-midpoint", "max_steps", "1e400"),
        ("simulate", "paper/krause-midpoint", "seed", "null"),
        ("simulate", "paper/krause-midpoint", "initial", '{"random": {"d": 1}}'),
        ("simulate", "paper/krause-midpoint", "initial", '{"random": {"n": 3, "d": 1.5}}'),
        ("certify", "fixture/scale-by-2", "sample",
         '{"count": 5, "n": 4, "low": 0.5, "high": 1.5}'),
        ("certify", "fixture/scale-by-2", "sample",
         '{"count": 5, "n": 4, "d": 2, "low": null, "high": 1.5}'),
        ("simulate", "paper/krause-midpoint", "polcy", '"random"'),
        ("certify", "fixture/scale-by-2", "policy", '"bogus"'),
        ("rendezvous", "paper/watergun-pair", "initial", '{"coords": [[0.0, 0.0]]}'),
        ("simulate", "paper/krause-midpoint", "name", "5"),
        ("simulate", "paper/krause-midpoint", "initial", "5"),
        ("rendezvous", "paper/watergun-pair", "initial", "[[0.0, 0.0], [4.0, 0.0]]"),
        ("simulate", "paper/krause-midpoint", "script", "5"),
        ("simulate", "paper/krause-midpoint", "script", '["0"]'),
        ("simulate", "paper/krause-midpoint", "script", "[[0, 1, 2]]"),
        ("certify", "fixture/scale-by-2", "sample", "5"),
        ("simulate", "paper/krause-midpoint", "maps", "5"),
        ("simulate", "paper/krause-midpoint", "maps", "[5]"),
        ("simulate", "paper/krause-midpoint", "coordinate_map", "5"),
        # misspelt nested keys
        ("simulate", "paper/krause-midpoint", "maps",
         '[{"kind": "scale", "params": {"factor": 0.5, "facter": 9}}]'),
        ("simulate", "paper/krause-midpoint", "maps",
         '[{"kind": "midpoint", "params": {}, "start_indx": 7}]'),
        ("simulate", "paper/krause-midpoint", "initial",
         '{"coords": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "cords": [[5.0]]}'),
        ("certify", "fixture/scale-by-2", "sample", '{"count": 5, "n": 4, "d": 2, "lwo": -100}'),
        # both initial forms, and booleans as coordinates
        ("simulate", "paper/krause-midpoint", "initial",
         '{"coords": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "random": {"n": 3, "d": 2}}'),
        ("simulate", "paper/quarter-power", "initial", '{"coords": [[true], [false]]}'),
        ("simulate", "paper/krause-midpoint", "initial",
         '{"coords": [[0.5, 0.0], [true, 1.0], [2.0, 0.0]]}'),
        ("simulate", "paper/krause-midpoint", "maps",
         '[{"kind": "linear", "params": {"matrix": [[0.5, 0.5, 0.0], [true, 0.0, 0.0], [0.0, 0.0, 1.0]]}}]'),
        # wrong nested types
        ("simulate", "paper/krause-midpoint", "maps", '[{"kind": "midpoint", "params": 5}]'),
        ("simulate", "paper/krause-midpoint", "coordinate_map",
         '{"kind": "direction", "directions": 5}'),
        ("simulate", "paper/krause-midpoint", "maps",
         '[{"kind": "midpoint", "params": {}, "coordinate_map": 5}]'),
        ("simulate", "paper/geometric-mean", "maps",
         '[{"kind": "deformed", "params": {"deformation": "log_exp", "inner": 5}}]'),
        ("simulate", "paper/geometric-mean", "maps",
         '[{"kind": "deformed", "params": {"deformation": [1], "inner": {"kind": "midpoint"}}}]'),
        # infinite sampling bounds
        ("simulate", "paper/krause-midpoint", "initial", '{"random": {"n": 3, "d": 2, "low": -1e400}}'),
        ("simulate", "paper/krause-midpoint", "initial", '{"random": {"n": 3, "d": 2, "high": 1e400}}'),
        ("certify", "fixture/scale-by-2", "sample", '{"count": 5, "n": 4, "d": 2, "low": -1e400}'),
        ("certify", "fixture/scale-by-2", "sample", '{"count": 5, "n": 4, "d": 2, "high": 1e400}'),
        # map parameters the constructors used to coerce or trip over
        ("simulate", "paper/nonarithmetic-cycle", "maps",
         '[{"kind": "mean_selector", "params": {"selectors": [2.7, 2, 2]}}]'),
        ("simulate", "paper/nonarithmetic-cycle", "maps",
         '[{"kind": "mean_selector", "params": {"selectors": 5}}]'),
        ("simulate", "paper/vanishing-confidence", "maps",
         '[{"kind": "vanishing_confidence", "params": {"epsilon": true}}]'),
        ("simulate", "paper/vanishing-confidence", "maps",
         '[{"kind": "vanishing_confidence", "params": {"epsilon": "x"}}]'),
        ("simulate", "paper/vanishing-confidence", "maps",
         '[{"kind": "vanishing_confidence", "params": {"epsilon": null}}]'),
        ("certify", "fixture/scale-by-2", "maps", '[{"kind": "scale", "params": {"factor": "2"}}]'),
        ("certify", "fixture/scale-by-2", "maps", '[{"kind": "scale", "params": {"factor": 1e400}}]'),
        ("certify", "fixture/scale-by-2", "maps", '[{"kind": "scale", "params": {"factor": null}}]'),
    ],
)
def test_cli_rejects_bad_scenario_fields(tmp_path, capsys, mode, name, field, literal):
    """Each value sits in the file as the given JSON literal; each file
    exits 1 with one line and no traceback."""
    entry = builtin_scenarios()[name].to_dict()
    entry[field] = "<literal>"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenarios": [entry]}).replace('"<literal>"', literal))
    out = tmp_path / "out"
    assert main(["run", mode, "--name", name, "--file", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("consdyn: error:") and "\n" not in err
    assert field.split("_")[0] in err


def test_cli_certify_rejects_convex_hulls_above_the_plane(tmp_path, capsys):
    """Convex hulls stop at d = 2: d = 3 samples exit 1 with build_hull's
    message on one line."""
    entry = builtin_scenarios()["fixture/scale-by-2"].to_dict()
    entry["sample"] = {"count": 5, "n": 4, "d": 3}
    path = tmp_path / "d3.json"
    path.write_text(json.dumps({"scenarios": [entry]}))
    argv = ["run", "certify", "--name", "fixture/scale-by-2", "--file", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "consdyn: error: convex hulls are implemented for d <= 2"


@pytest.mark.parametrize(
    "text",
    ['{"scenarios": 5}', '{"scenarios": [[1, 2]]}', '{"scenarios": [5]}'],
)
@pytest.mark.parametrize("command", ["list", "run"])
def test_cli_rejects_bad_scenario_file_structure(tmp_path, capsys, text, command):
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = ["list", "--file", str(path)]
    if command == "run":
        argv = ["run", "simulate", "--name", "x", "--file", str(path), "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("consdyn: error:") and "\n" not in err
    assert "scenario" in err


def test_cli_overflowing_map_is_a_domain_violation(tmp_path, capsys):
    sc = Scenario(
        name="local/overflow",
        mode="simulate",
        maps=(scale_map(1e300),),
        initial={"coords": [[1e10], [2e10]]},
        max_steps=10,
    )
    path = tmp_path / "overflow.json"
    save_scenarios([sc], path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach stderr
        code = main([
            "run", "simulate", "--name", "local/overflow",
            "--file", str(path), "--out", str(tmp_path),
        ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert '"kind": "domain"' in captured.out
    summary = json.loads((tmp_path / "local-overflow.summary.json").read_text())
    assert summary["stop_reason"] == "violation" and summary["steps"] == 0


def test_cli_sampler_box_too_wide_for_floats_is_one_line(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"scenarios": [{
        "name": "wide", "mode": "certify", "check": "averaging", "maps": [{"kind": "midpoint"}],
        "sample": {"count": 5, "n": 3, "d": 1, "low": -1e308, "high": 1e308},
    }]}))
    assert main(["run", "certify", "--name", "wide", "--file", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("consdyn: error:") and err.count("\n") == 1
    assert "high - low" in err


def test_cli_huge_coordinates_exit_2_without_warnings(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"scenarios": [{
        "name": "huge", "mode": "simulate", "maps": [{"kind": "midpoint"}],
        "initial": {"coords": [[-1e308, 1e308], [1e308, -1e308], [1e308, 1e308]]},
    }]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "simulate", "--name", "huge", "--file", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


def _cli_in_4gb(tmp_path, mode, entry):
    """`python -m consdyn.cli run` on a one-entry scenario file in a child
    process limited to 4 GB of address space, as `ulimit -v 4000000`
    does: its exit code and stderr."""
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"scenarios": [entry]}))
    src = str(Path(consdyn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    limit = 4_000_000 * 1024
    proc = subprocess.run(
        [sys.executable, "-m", "consdyn.cli", "run", mode, "--name", entry["name"], "--file", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    return proc.returncode, proc.stderr


def test_cli_interval_simulate_at_d40_runs_in_4gb(tmp_path):
    """A box hull is its two corners: 3 agents in d = 40 need no 2^40 of them."""
    entry = {"name": "box40", "mode": "simulate", "maps": [{"kind": "midpoint"}],
             "coordinate_map": {"kind": "interval"}, "initial": {"random": {"n": 3, "d": 40}}}
    assert _cli_in_4gb(tmp_path, "simulate", entry) == (0, "")


def test_cli_interval_equiproper_at_d20_runs_in_4gb(tmp_path):
    entry = {"name": "eq20", "mode": "certify", "check": "equiproper",
             "maps": [{"kind": "mean_selector", "params": {"selectors": sel}} for sel in ([2, 3, 2], [3, 2, 3])],
             "coordinate_map": {"kind": "interval"},
             "sample": {"count": 200, "n": 3, "d": 20, "low": 0.5, "high": 4.0}}
    assert _cli_in_4gb(tmp_path, "certify", entry) == (0, "")


def test_cli_certify_refuses_a_huge_time_range_in_4gb(tmp_path):
    """10**12 time indices are refused in one line, not built."""
    entry = {"name": "long", "mode": "certify", "check": "averaging",
             "maps": [{"kind": "decaying_pair", "params": {"rate": "one_over_t"}}],
             "time_steps": 10**12, "sample": {"count": 5, "n": 2, "d": 1}}
    code, err = _cli_in_4gb(tmp_path, "certify", entry)
    assert code == 1
    assert err == f"consdyn: error: time_steps must be at most {MAX_TIME_STEPS}, got {10**12}\n"


@pytest.mark.parametrize(
    "entry",
    [
        # 224 GiB of samples
        {"name": "big", "mode": "certify", "check": "averaging", "maps": [{"kind": "midpoint"}],
         "sample": {"count": 10**10, "n": 3, "d": 1}},
        {"name": "big", "mode": "simulate", "maps": [{"kind": "scale", "params": {"factor": 0.5}}],
         "initial": {"random": {"n": 10**10, "d": 2}}},
        # a 74.5 GiB pair table
        {"name": "big", "mode": "rendezvous", "initial": {"random": {"n": 100_000, "d": 2}}},
    ],
    ids=["certify", "simulate", "rendezvous"],
)
def test_cli_oversized_inputs_are_one_line_in_4gb(tmp_path, entry):
    """An input too large to hold exits 1 with one line, not a MemoryError
    traceback.  Run only under the 4 GB limit."""
    code, err = _cli_in_4gb(tmp_path, entry["mode"], entry)
    assert code == 1
    assert err.startswith("consdyn: error:") and err.count("\n") == 1, err


def test_cli_certify_clean_from_file(tmp_path, capsys):
    sc = Scenario(
        name="local/midpoint-ok",
        mode="certify",
        check="averaging",
        maps=(midpoint_map(),),
        sample={"count": 20, "n": 3, "d": 2, "low": -1.0, "high": 1.0},
    )
    path = tmp_path / "custom.json"
    save_scenarios([sc], path)
    code = main([
        "run", "certify", "--name", "local/midpoint-ok",
        "--file", str(path), "--out", str(tmp_path),
    ])
    assert code == 0
    assert "inclusion ok" in capsys.readouterr().out


def test_cli_rendezvous_pair(tmp_path, capsys):
    code = main([
        "run", "rendezvous", "--name", "paper/watergun-pair", "--out", str(tmp_path)
    ])
    assert code == 0
    assert "consensus found!" in capsys.readouterr().out
    events = (tmp_path / "paper-watergun-pair.events.jsonl").read_text().splitlines()
    assert len(events) == 2
    summary = json.loads((tmp_path / "paper-watergun-pair.summary.json").read_text())
    assert summary["checks_ok"] is True


def test_cli_rendezvous_summary_seed_reruns_the_run(tmp_path):
    """The summary reports the scenario's seed, and --seed with it repeats every artifact."""
    name, slug = "paper/watergun-rendezvous", "paper-watergun-rendezvous"
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["run", "rendezvous", "--name", name, "--out", str(first)]) == 0
    seed = json.loads((first / f"{slug}.summary.json").read_text())["seed"]
    assert seed == 2026
    assert main(["run", "rendezvous", "--name", name, "--seed", str(seed), "--out", str(again)]) == 0
    for suffix in ("summary.json", "events.jsonl", "trajectory.csv"):
        assert (first / f"{slug}.{suffix}").read_bytes() == (again / f"{slug}.{suffix}").read_bytes()


@pytest.mark.parametrize(
    "tol, coords",
    [
        # within TIE_TOL by the pair table, not by np.vecdot
        (0.0, [[0.0, 0.0], [1.6936316510032243e-13, 9.855537115282967e-13]]),
        # tol 1e-13 with agents 5e-13 apart is the "tied" probe of tests/test_cli_probes.py
    ],
)
def test_cli_tied_agents_beyond_tol_exit_2(tmp_path, capsys, tol, coords):
    entry = {"name": "tied", "mode": "rendezvous", "tol": tol, "initial": {"coords": coords}}
    path = tmp_path / "tied.json"
    path.write_text(json.dumps({"scenarios": [entry]}))
    argv = ["run", "rendezvous", "--name", "tied", "--file", str(path), "--out", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "" and "tied farther apart than tol" in captured.out
    summary = json.loads((tmp_path / "tied.summary.json").read_text())
    assert summary["gamma"] is None and summary["steps"] == 0
    (event,) = (tmp_path / "tied.events.jsonl").read_text().splitlines()
    assert json.loads(event)["mover"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["list", "--file", "{dir}"],
        ["run", "simulate", "--name", "x", "--file", "{dir}"],
        ["run", "matrix", "--file", "{dir}"],
        ["run", "simulate", "--name", "paper/krause-midpoint", "--out", "{file}"],
        ["run", "matrix", "--file", "{table}", "--name", "a"],
    ],
)
def test_cli_file_errors_are_one_line(tmp_path, capsys, argv):
    paths = {"dir": tmp_path / "dir", "file": tmp_path / "taken", "table": tmp_path / "m.json"}
    paths["dir"].mkdir()
    paths["file"].write_text("")
    paths["table"].write_text('{"matrices": 5}')
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("consdyn: error:") and err.count("\n") == 1


def test_cli_unknown_scenario(tmp_path, capsys):
    code = main(["run", "simulate", "--name", "no/such", "--out", str(tmp_path)])
    assert code == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_mode_mismatch(tmp_path, capsys):
    code = main([
        "run", "certify", "--name", "paper/krause-midpoint", "--out", str(tmp_path)
    ])
    assert code == 1
    assert "simulate scenario" in capsys.readouterr().err


def test_cli_missing_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "simulate"])
    assert exc.value.code == 1


def test_cli_bad_mode_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "launch"])
    assert exc.value.code == 1


def test_cli_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenarios": [}')
    code = main(["run", "simulate", "--name", "x", "--file", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "malformed JSON" in err and "line" in err


def test_cli_scenario_file_end_to_end(tmp_path):
    sc = Scenario(
        name="local/pair",
        mode="simulate",
        maps=(midpoint_map(),),
        initial={"coords": [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]},
        tol=1e-6,
        max_steps=100,
    )
    path = tmp_path / "mine.json"
    save_scenarios([sc], path)
    code = main([
        "run", "simulate", "--name", "local/pair",
        "--file", str(path), "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "local-pair.summary.json").exists()


def test_cli_matrix_csv(tmp_path, capsys):
    mat = tmp_path / "A.csv"
    mat.write_text("0.5,0.5,0.0\n0.0,0.5,0.5\n0.5,0.0,0.5\n")
    code = main(["run", "matrix", "--file", str(mat), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "tau" in out and "0.5" in out
    assert "scrambling: yes" in out
    analysis = json.loads((tmp_path / "matrix.analysis.json").read_text())
    assert analysis["tau"] == 0.5


def test_cli_matrix_writes_its_analysis_only_with_out(tmp_path, monkeypatch, capsys):
    """`--out .` is an explicit directory like any other; without --out
    matrix mode writes nothing."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "A.csv").write_text("0.5,0.5\n0.25,0.75\n")
    assert main(["run", "matrix", "--file", "A.csv"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["A.csv"]
    assert main(["run", "matrix", "--file", "A.csv", "--out", "."]) == 0
    assert json.loads((tmp_path / "matrix.analysis.json").read_text())["scrambling"] is True


def test_cli_matrix_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,0.2\n0.0,1.0\n")
    assert main(["run", "matrix", "--file", str(bad)]) == 1
    assert "row" in capsys.readouterr().err
    assert main(["run", "matrix"]) == 1
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"matrices": {"half": [[0.5, 0.5], [0.5, 0.5]]}}))
    assert main(["run", "matrix", "--file", str(table)]) == 1
    assert main(["run", "matrix", "--file", str(table), "--name", "half"]) == 0
    assert main(["run", "matrix", "--file", str(table), "--name", "absent"]) == 1


@pytest.mark.parametrize(
    "file, text, code, out, err",
    [
        ("list.json", "[[0.5, 0.5], [0.5, 0.5]]", 0, "tau (ergodicity coefficient): 0.0", ""),
        ("scalar.json", "5", 1, "", "consdyn: error: matrix file must hold a matrix or a name->matrix table\n"),
        ("nan.csv", "0.5,nan\n0.5,0.5\n", 1, "", "consdyn: error: matrix entries must be finite\n"),
        ("huge.csv", "1e308,1e308\n0.5,0.5\n", 1, "", "consdyn: error: row 0 sums to np.float64(inf), not 1\n"),
    ],
    ids=["bare-list", "scalar", "nan", "huge"],
)
def test_cli_matrix_file_shapes(tmp_path, capsys, file, text, code, out, err):
    """A bare JSON matrix is analysed; a JSON scalar and a non-finite entry are one error line."""
    path = tmp_path / file
    path.write_text(text)
    assert main(["run", "matrix", "--file", str(path)]) == code
    captured = capsys.readouterr()
    assert out in captured.out and captured.err == err


@pytest.mark.parametrize("text", ["", "# no rows\n"])
def test_cli_matrix_without_numbers_is_one_line(tmp_path, capsys, text):
    empty = tmp_path / "empty.csv"
    empty.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "matrix", "--file", str(empty), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "consdyn: error: matrix file holds no numbers\n"


def test_cli_list(tmp_path, capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(builtin_scenarios())
    assert any("paper/watergun-rendezvous" in line for line in out)
    sc = builtin_scenarios()["paper/stripe"]
    path = tmp_path / "one.json"
    save_scenarios([sc], path)
    assert main(["list", "--file", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["paper/stripe                     simulate"]


@pytest.mark.parametrize(
    "argv", [["list", "--file", ""], ["run", "simulate", "--name", "paper/stripe", "--file", "", "--out", "{out}"]]
)
def test_cli_empty_file_is_a_file_name_for_list_and_run(tmp_path, capsys, argv):
    assert main([arg.format(out=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("consdyn: error:") and captured.err.count("\n") == 1


def test_builtin_catalog_is_built_once_and_read_only():
    table = builtin_scenarios()
    assert builtin_scenarios() is table
    with pytest.raises(TypeError):
        table["paper/stripe"] = table["paper/krause-midpoint"]
    assert table["paper/stripe"].name == "paper/stripe"


def test_a_scenario_is_read_only_all_the_way_down(tmp_path):
    stripe, sweep = get_scenario("paper/stripe"), get_scenario("paper/mean-selectors-valid")
    written = {name: sc.to_dict() for name, sc in builtin_scenarios().items()}
    with pytest.raises(TypeError):
        stripe.initial["coords"][0][0] = 99.0
    with pytest.raises(TypeError):
        stripe.initial["coords"] = [[99.0, 0.0]]
    with pytest.raises(TypeError):
        sweep.sample["count"] = 1
    with pytest.raises(TypeError):
        get_scenario("paper/watergun-rendezvous").initial["random"]["n"] = 3
    # what the caller built the scenario from stays the caller's
    coords, box = [[0.0, 0.0], [1.0, 0.0]], {"n": 2, "d": 2}
    own = Scenario(name="own", mode="rendezvous", initial={"coords": coords})
    cert = Scenario(name="cert", mode="certify", maps=(midpoint_map(),), check="averaging",
                    sample={"count": 5, **box})
    coords[0][0], box["n"] = 99.0, 9
    assert own.to_dict()["initial"] == {"coords": [[0.0, 0.0], [1.0, 0.0]]}
    assert cert.to_dict()["sample"] == {"count": 5, "n": 2, "d": 2, "low": -1.0, "high": 1.0}
    # the frozen values read, write and override as the plain ones did
    assert get_scenario("paper/stripe").to_dict() == written["paper/stripe"]
    assert resolve_initial(stripe).coords.tolist() == [[0.0, 0.0], [4.0, 0.0], [1.0, 2.0]]
    assert dataclasses.replace(sweep, seed=8).to_dict() == {**written[sweep.name], "seed": 8}
    assert Scenario.from_dict(written["paper/watergun-rendezvous"]) == get_scenario("paper/watergun-rendezvous")
    path = tmp_path / "all.json"
    save_scenarios(list(builtin_scenarios().values()), path)
    assert {name: sc.to_dict() for name, sc in load_scenarios(path).items()} == written
    assert path.read_text() == json.dumps({"scenarios": list(written.values())}, indent=2, sort_keys=True) + "\n"


def test_readme_scenario_example_runs(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    path = tmp_path / "readme.json"
    path.write_text(readme.read_text().split("```json\n")[1].split("```")[0])
    ((name, scenario),) = load_scenarios(path).items()
    argv = ["run", scenario.mode, "--name", name, "--file", str(path), "--out", str(tmp_path)]
    assert main(argv) == 0


def test_scenario_rejects_a_negative_seed():
    with pytest.raises(ScenarioError, match="x: seed must be an integer >= 0, got -3"):
        Scenario(name="x", mode="rendezvous", seed=-3, initial={"coords": [[0.0, 0.0], [1.0, 0.0]]})


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "simulate", "--name", "paper/krause-midpoint", "--seed", "-1"],
        ["run", "rendezvous", "--name", "paper/watergun-pair", "--seed", "-7"],
        ["run", "simulate", "--name", "neg", "--file", "{file}"],
    ],
    ids=["simulate", "rendezvous", "file"],
)
def test_cli_negative_seed_is_one_line_naming_it(tmp_path, capsys, argv):
    scenario = {"name": "neg", "mode": "simulate", "seed": -2, "maps": [{"kind": "midpoint"}],
                "initial": {"coords": [[0.0], [1.0], [2.0]]}}
    (tmp_path / "neg.json").write_text(json.dumps({"scenarios": [scenario]}))
    argv = [arg.format(file=tmp_path / "neg.json") for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("consdyn: error:") and err.count("\n") == 1
    assert "seed must be an integer >= 0" in err
    assert not (tmp_path / "out").exists()


def test_cli_artifacts_write_overflowed_numbers_as_null(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"scenarios": [
        {"name": "huge", "mode": "simulate", "maps": [{"kind": "midpoint"}],
         "initial": {"coords": [[-1e308, 1e308], [1e308, -1e308], [1e308, 1e308]]}},
        {"name": "halve", "mode": "certify", "check": "averaging",
         "maps": [{"kind": "scale", "params": {"factor": 0.5}}],
         "sample": {"count": 5, "n": 3, "d": 2, "low": -8e307, "high": 8e307}},
    ]}))
    for mode, name in (("simulate", "huge"), ("certify", "halve")):
        assert main(["run", mode, "--name", name, "--file", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ""
    assert strict_json(tmp_path / "huge.summary.json")["final_diameter"] is None
    (report,) = strict_json(tmp_path / "halve.certify.json")
    assert report["witness"]["excess"] is None and report["records"][-1]["worst_excess"] is None
    # an artifact without overflow is written as before
    assert main(["run", "simulate", "--name", "paper/krause-midpoint", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "paper-krause-midpoint.summary.json").read_text()
    assert text == json.dumps(strict_json(tmp_path / "paper-krause-midpoint.summary.json"),
                              indent=2, sort_keys=True) + "\n"


def test_cli_shape_mismatch_writes_no_trajectory(tmp_path, capsys):
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps({"scenarios": [{
        "name": "mismatch", "mode": "simulate", "maps": [{"kind": "midpoint"}],
        "initial": {"random": {"n": 200, "d": 2}},
    }]}))
    out = tmp_path / "out"
    assert main(["run", "simulate", "--name", "mismatch", "--file", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "consdyn: error: midpoint expects 3 agents, got 200\n"
    assert list(out.iterdir()) == []


def test_cli_pinned_time_below_the_map_start_writes_no_trajectory(tmp_path, capsys):
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps({"scenarios": [{
        "name": "pinned", "mode": "simulate", "policy": "scripted", "script": [[0, 3], [0, 0]],
        "maps": [{"kind": "decaying_pair", "params": {"rate": "quarter_power"}}],
        "initial": {"coords": [[0.0], [1.0]]},
    }]}))
    out = tmp_path / "out"
    assert main(["run", "simulate", "--name", "pinned", "--file", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("consdyn: error: script entry (0, 0)")
    assert not list(out.glob("*.trajectory.csv"))
