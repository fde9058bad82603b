"""CLI probes: a one-entry scenario file, or a built-in scenario, run
in-process through `consdyn.cli.main`, with the exit code, the exact
stderr, no warning, and each probe's own checks of stdout and the
artifacts."""
import json
import warnings

import pytest
from conftest import strict_json

from consdyn.cli import main
from consdyn.scenarios import builtin_scenarios


def _tied(out, stdout):
    assert "tied farther apart than tol" in stdout
    summary = json.loads((out / "tied.summary.json").read_text())
    assert summary["gamma"] is None and summary["steps"] == 0
    (event,) = (out / "tied.events.jsonl").read_text().splitlines()
    assert json.loads(event)["mover"] is None


def _near(out, stdout):
    assert "consensus after 0 grouped steps" in stdout
    assert (out / "near.events.jsonl").read_bytes() == b""


def _corners(out, stdout):
    violation = 'violation: {"detail": "coordinates must be finite", "kind": "domain", "step": 1}'
    assert violation in stdout.splitlines()
    summary = strict_json(out / "corners.summary.json")
    assert (summary["stop_reason"], summary["steps"]) == ("violation", 0), summary
    assert len((out / "corners.trajectory.csv").read_text().splitlines()) == 4


def _double(out, stdout):
    summary = strict_json(out / "double.summary.json")
    assert (summary["stop_reason"], summary["steps"]) == ("violation", 1), summary
    rows = (out / "double.trajectory.csv").read_text().splitlines()[1:]
    assert len({row.split(",")[0] for row in rows}) == 2


def _overflow(out, stdout):
    violation = 'violation: {"detail": "coordinates must be finite", "kind": "domain", "step": 1}'
    assert violation in stdout.splitlines()


def _witness(out, stdout):
    assert any(line.startswith("witness: ") for line in stdout.splitlines())
    assert strict_json(out / "witness.certify.json")["witness"] is not None


OCTAGON = [[1.0, 0.0], [0.7071067811865476, 0.7071067811865475], [6.123233995736766e-17, 1.0],
           [-0.7071067811865475, 0.7071067811865476], [-1.0, 1.2246467991473532e-16],
           [-0.7071067811865477, -0.7071067811865475], [-1.8369701987210297e-16, -1.0],
           [0.7071067811865474, -0.7071067811865477]]
PLANAR_SAMPLE = {"count": 50, "n": 3, "d": 2}

# name: (scenario entry, exit code, stderr, further checks of (out dir, stdout))
PROBES = {
    # agents tied farther apart than tol do not gather: exit 2, nothing on stderr
    "tied": ({"mode": "rendezvous", "tol": 1e-13, "initial": {"coords": [[0.0, 0.0], [5e-13, 0.0]]}},
             2, "", _tied),
    # rendezvous near +-1e308 overflows: exit 2 and exactly the one protocol failure line
    "huge-rv": ({"mode": "rendezvous",
                 "initial": {"coords": [[-1e308, -1e308], [1e308, -1e308], [1e308, 1e308]]}},
                2, "consdyn: protocol failure: positions must be finite\n", None),
    # agents within tol before any activation: exit 0 and an empty event log
    "near": ({"mode": "rendezvous", "tol": 1e-6, "initial": {"coords": [[0.0, 0.0], [1e-9, 0.0]]}},
             0, "", _near),
    # an octagon direction hull whose corners overflow at step 1: a domain violation, exit 2,
    # nothing on stderr, a strict summary and the CSV of the initial state alone
    "corners": ({"mode": "simulate", "maps": [{"kind": "scale", "params": {"factor": 1e308}}],
                 "coordinate_map": {"kind": "direction", "directions": OCTAGON},
                 "initial": {"coords": [[1.78, 1.721], [0.664, 0.539], [0.675, -0.398]]}},
                2, "", _corners),
    # a map that doubles the profile leaves its hull at step 1: exit 2, a violation after
    # 1 step in the summary, and 2 states in the trajectory CSV
    "double": ({"mode": "simulate", "maps": [{"kind": "scale", "params": {"factor": 2.0}}],
                "initial": {"coords": [[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]}},
               2, "", _double),
    # an equiproper sample box up to 1e300: diameters overflow silently, exit 0
    "eq-huge": ({"mode": "certify", "check": "equiproper", "maps": [{"kind": "midpoint"}],
                 "sample": {"count": 5, "n": 3, "d": 1, "low": 0.0, "high": 1e300}},
                0, "", None),
    # planar certification under box hulls and under axis-direction hulls: exit 0
    "box": ({"mode": "certify", "check": "averaging", "maps": [{"kind": "midpoint"}],
             "coordinate_map": {"kind": "interval"}, "sample": PLANAR_SAMPLE},
            0, "", None),
    "axes": ({"mode": "certify", "check": "averaging", "maps": [{"kind": "midpoint"}],
              "coordinate_map": {"kind": "direction", "directions": [[1, 0], [0, 1], [-1, 0], [0, -1]]},
              "sample": PLANAR_SAMPLE},
             0, "", None),
    # a first image that overflows, then a map off its domain: the overflow is the domain
    # violation at step 1, exit 2, nothing on stderr
    "overflow": ({"mode": "simulate", "policy": "scripted", "script": [0, 1, 1],
                  "maps": [{"kind": "scale", "params": {"factor": 1e308}},
                           {"kind": "mean_selector", "params": {"selectors": [3, 3, 3]}}],
                  "initial": {"coords": [[2.0], [-2.0], [1.0]]}},
                 2, "", _overflow),
    # 300 planar agents: hulls built through the extreme-point filter, exit 0
    "many": ({"mode": "simulate", "maps": [{"kind": "scale", "params": {"factor": 0.5}}],
              "initial": {"random": {"n": 300, "d": 2, "low": -1, "high": 1}}},
             0, "", None),
    # an expanding map is not equiproper: exit 2, nothing on stderr, and the witness printed and saved
    "witness": ({"mode": "certify", "check": "equiproper", "maps": [{"kind": "scale", "params": {"factor": 2.0}}],
                 "coordinate_map": {"kind": "identity"},
                 "sample": {"count": 5, "n": 3, "d": 2, "low": 0.5, "high": 1.5}},
                2, "", _witness),
    # rendezvous agents in space: exit 1 and the one scenario error line
    "spatial-rv": ({"mode": "rendezvous", "initial": {"coords": [[0, 0, 0], [1, 0, 0]]}},
                   1, "consdyn: error: spatial-rv: rendezvous agents live in the plane\n", None),
    # scripted switching without a script: exit 1 and the one scenario error line
    "no-script": ({"mode": "simulate", "policy": "scripted", "maps": [{"kind": "scale", "params": {"factor": 0.5}}],
                   "initial": {"coords": [[1.0], [2.0]]}},
                  1, "consdyn: error: scripted switching needs a script\n", None),
    # a direction vector whose norm overflows: exit 1 and the one spec error line, no numpy warning
    "huge-dir": ({"mode": "simulate", "maps": [{"kind": "midpoint"}],
                  "coordinate_map": {"kind": "direction", "directions": [[1e308, 1e308], [0, 1], [-1, 0], [0, -1]]},
                  "initial": {"coords": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}},
                 1, "consdyn: error: huge-dir: coordinate_map: directions must be unit vectors\n", None),
    # a linear map whose row sum overflows: exit 1 and the one row error line, no numpy warning
    "huge-row": ({"mode": "simulate", "maps": [{"kind": "linear", "params": {"matrix": [[1e308, 1e308], [0.5, 0.5]]}}],
                  "initial": {"coords": [[0.0], [1.0]]}},
                 1, "consdyn: error: huge-row: maps[0].params: row 0 sums to np.float64(inf), not 1\n", None),
    # an integer beyond the floats where a number goes: exit 1 and the one field error line
    "big-tol": ({"mode": "simulate", "tol": 10**400, "maps": [{"kind": "midpoint"}],
                 "initial": {"coords": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}},
                1, "consdyn: error: big-tol: tol must be a number, got 100000000000000000...0000000000000000000\n",
                None),
}


@pytest.mark.parametrize("name", PROBES)
def test_cli_probe(tmp_path, capsys, name):
    entry, code, err, check = PROBES[name]
    path, out = tmp_path / f"{name}.json", tmp_path / "out"
    path.write_text(json.dumps({"scenarios": [{"name": name, **entry}]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", entry["mode"], "--name", name, "--file", str(path), "--out", str(out)]) == code
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.err == err
    if check:
        check(out, captured.out)


def _one_over_t(out, stdout):
    # a streamed run keeps no profile yet writes every state: a header plus 2 agents x 10,000 states
    assert len((out / "paper-one-over-t.trajectory.csv").read_text().splitlines()) == 20001


# built-in scenarios through the entry point: exit 0, nothing on stderr, no warning, and
# name: further checks of (out dir, stdout)
BUILTINS = {"paper/one-over-t": _one_over_t, "paper/mean-selectors-valid": None, "paper/watergun-rendezvous": None}


@pytest.mark.parametrize("name", BUILTINS)
def test_cli_builtin(tmp_path, capsys, name):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", builtin_scenarios()[name].mode, "--name", name, "--out", str(tmp_path)]) == 0
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.err == ""
    if BUILTINS[name]:
        BUILTINS[name](tmp_path, captured.out)
