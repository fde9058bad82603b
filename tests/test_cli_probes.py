"""CLI probes: a one-entry scenario file run in-process through
`consdyn.cli.main`, with the exit code, the exact stderr, no warning, and
each probe's own checks of stdout and the artifacts."""
import json
import warnings

import pytest

from consdyn.cli import main


def _tied(out, stdout):
    assert "tied farther apart than tol" in stdout
    summary = json.loads((out / "tied.summary.json").read_text())
    assert summary["gamma"] is None and summary["steps"] == 0
    (event,) = (out / "tied.events.jsonl").read_text().splitlines()
    assert json.loads(event)["mover"] is None


def _near(out, stdout):
    assert "consensus after 0 grouped steps" in stdout
    assert (out / "near.events.jsonl").read_bytes() == b""


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
