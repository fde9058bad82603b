"""Every function that perfbench/tracer.py traces resolves under its name, so a
change that renames or removes one fails here, not at the next traced
benchmark run."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("module, path", [target[1:3] for target in tracer.TARGETS], ids=tracer.LABELS)
def test_every_traced_target_resolves(module, path):
    owner, attr, original = tracer._resolve(module, path)
    assert callable(original) and getattr(owner, attr) is original
