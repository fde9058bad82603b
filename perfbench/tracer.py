"""Span tracer that wraps consdyn's public functions from outside the package.

The package binds names at import (`from .geometry import build_hull`), so a
wrapper installed on `consdyn.geometry` alone would miss every call made
through `consdyn.simulate.build_hull`, `consdyn.certify.build_hull` and the
rest.  `Tracer.install` therefore replaces every binding of each target
function in every loaded `consdyn` module (and the method on its class for
`Profile.diameter`), and `uninstall` puts the originals back.

Spans live in flat arrays (name id, start, end, parent index) so a pass of
several hundred thousand calls stays a few tens of megabytes.  A function
that calls itself (a deformed map's `apply_map` applies its inner map) is
one span: the inner call runs inside the outer one without a new record.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "consdyn"


def _count_vertices(counters: Counter, hull) -> None:
    counters["geometry.hull_vertices"] += len(hull.vertices)


def _count_mover(counters: Counter, result) -> None:
    _, event = result
    if event.mover is not None:
        counters["rendezvous.movers"] += 1


# (label, defining module, attribute path, return hook)
TARGETS = (
    ("cli.main", "consdyn.cli", "main", None),
    ("scenarios.get_scenario", "consdyn.scenarios", "get_scenario", None),
    ("scenarios.resolve_initial", "consdyn.scenarios", "resolve_initial", None),
    ("maps.apply_map", "consdyn.maps", "apply_map", None),
    ("geometry.build_hull", "consdyn.geometry", "build_hull", _count_vertices),
    ("geometry.inclusion_excess", "consdyn.geometry", "inclusion_excess", None),
    ("geometry.hausdorff", "consdyn.geometry", "hausdorff", None),
    ("geometry.hull_diameter", "consdyn.geometry", "hull_diameter", None),
    ("geometry.point_to_hull_distance", "consdyn.geometry", "point_to_hull_distance", None),
    ("geometry.Profile.diameter", "consdyn.geometry", "Profile.diameter", None),
    ("certify.properness_gap", "consdyn.certify", "properness_gap", None),
    ("certify.check_averaging", "consdyn.certify", "check_averaging", None),
    ("certify.check_equiproper", "consdyn.certify", "check_equiproper", None),
    ("simulate.run", "consdyn.simulate", "run", None),
    ("simulate.write_trajectory_csv", "consdyn.simulate", "write_trajectory_csv", None),
    ("rendezvous.run_protocol", "consdyn.rendezvous", "run_protocol", None),
    ("rendezvous.protocol_step", "consdyn.rendezvous", "protocol_step", _count_mover),
    ("rendezvous.scan", "consdyn.rendezvous", "scan", None),
    ("rendezvous.move_rule_star", "consdyn.rendezvous", "move_rule_star", None),
    ("rendezvous.tie_groups", "consdyn.rendezvous", "tie_groups", None),
    ("rendezvous.events_to_jsonl", "consdyn.rendezvous", "events_to_jsonl", None),
)
LABELS = tuple(t[0] for t in TARGETS)


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self):
        self.reset()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name_id: int, fn, on_return):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if stack and self.names[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            idx = len(self.starts)
            self.names.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(0.0)
            stack.append(idx)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self.counters, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for name_id, (_, module, path, on_return) in enumerate(TARGETS):
            owner, attr, original = _resolve(module, path)
            wrapper = self._wrap(name_id, original, on_return)
            if owner in modules:
                holders = [
                    (mod, key)
                    for mod in modules
                    for key, value in vars(mod).items()
                    if value is original
                ]
            else:  # a method: its class is the only binding
                holders = [(owner, attr)]
            for holder, key in holders:
                self._patches.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.names, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
        }

    def summary(self) -> dict:
        """Per label: calls, inclusive seconds, self seconds; plus counters
        and the build_hull calls made under a certify check."""
        sp = self.spans()
        names, parents = sp["name"], sp["parent"]
        dur = sp["end"] - sp["start"]
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child_time
        k = len(LABELS)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        out = {
            label: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, label in enumerate(LABELS)
        }
        checks = np.isin(
            names,
            [LABELS.index("certify.check_averaging"), LABELS.index("certify.check_equiproper")],
        )
        under_check = _has_ancestor(checks, parents)
        hulls = names == LABELS.index("geometry.build_hull")
        counters = dict(self.counters)
        counters["certify.build_hull_in_checks"] = int((hulls & under_check).sum())
        out["counters"] = counters
        return out


def _has_ancestor(flag: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """True where some strict ancestor span has `flag` set."""
    found = np.zeros(len(flag), dtype=bool)
    hop = parents.copy()
    while (hop >= 0).any():
        live = hop >= 0
        found[live] |= flag[hop[live]]
        hop[live] = parents[hop[live]]
    return found


def write_spans(path, tracer: Tracer) -> None:
    """Spans of the tracer's current record, times relative to the first."""
    sp = tracer.spans()
    origin = sp["start"][0] if len(sp["start"]) else 0.0
    np.savez_compressed(
        path,
        labels=np.array(LABELS),
        name=sp["name"],
        start=sp["start"] - origin,
        end=sp["end"] - origin,
        parent=sp["parent"],
    )
