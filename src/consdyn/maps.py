"""Agent update maps.

Each map is described by a frozen MapDescriptor carrying its kind, numeric
parameters, shape constraints, domain, and the coordinate-map spec under
which it claims to be averaging (new hull inside old hull).  Time dependent
families are a single descriptor applied with an explicit time index; the
descriptor records the first valid index.

Shipped kinds: row-stochastic linear maps, two decaying two-agent pairs,
vanishing-confidence weighted averaging, componentwise mean selection over
three agents, a stripe-coupling planar map, the midpoint exchange map, a
plain scaling fixture, and deformed wrappers that conjugate an inner map by
a componentwise change of coordinates (e.g. log/exp turns arithmetic
averaging into geometric averaging).

Every kernel works on any leading axes, so `apply_map` maps one Profile,
its bare (n, d) coordinates or a whole (B, n, d) stack of profiles with
the same arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import Callable

import numpy as np

from .geometry import (
    CoordinateMapSpec,
    Profile,
    _as_points,
    finite_number,
    first_failure,
    identity_spec,
    interval_spec,
    invalid_profiles,
)
from .schema import Field, ScenarioError, choice, number_array, read

POSITIVE_FLOOR = 1e-300
ROW_SUM_TOL = 1e-12  # how far a stochastic matrix row may sum from 1


class MapError(ValueError):
    pass


class MapSpecError(MapError):
    """Bad construction parameters."""


class DomainError(MapError):
    """Profile outside the map's domain."""


@dataclass(frozen=True)
class Deformation:
    """Componentwise change of coordinates used to conjugate a map:
    forward/inverse act on scalars or arrays elementwise and invert each
    other on `domain`."""

    name: str
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    domain: str = "reals"


def identity_deformation() -> Deformation:
    return Deformation("identity", lambda x: x, lambda x: x, "reals")


def log_exp_deformation() -> Deformation:
    return Deformation("log_exp", np.log, np.exp, "positive")


DEFORMATIONS: dict[str, Callable[[], Deformation]] = {
    "identity": identity_deformation,
    "log_exp": log_exp_deformation,
}


@dataclass(frozen=True)
class MapDescriptor:
    """Immutable description of one update map (or time family of maps)."""

    kind: str
    params: dict = field(default_factory=dict)
    n: int | None = None  # None: any agent count
    d: int | None = None  # None: any dimension
    domain: str = "reals"  # reals | positive
    start_index: int = 0
    time_dependent: bool = False
    claim: CoordinateMapSpec | None = None
    inner: "MapDescriptor | None" = None
    deformation: Deformation | None = None
    width_profile: Callable[[float], float] | None = None

    def label(self) -> str:
        if self.kind == "deformed":
            return f"deformed[{self.deformation.name}]({self.inner.label()})"
        if self.kind == "decaying_pair":
            return f"decaying_pair[{self.params['rate']}]"
        if self.kind == "mean_selector":
            return f"mean_selector{tuple(self.params['selectors'])}"
        return self.kind

    def __eq__(self, other):
        if not isinstance(other, MapDescriptor):
            return NotImplemented
        if self.width_profile is not None or other.width_profile is not None:
            return self is other
        return descriptor_to_dict(self) == descriptor_to_dict(other)

    def __hash__(self):
        return hash(self.label())


def common_claim(descs) -> CoordinateMapSpec | None:
    """The coordinate-map spec every map claims, or None when some map
    claims none or two maps claim different specs."""
    claims = {d.claim for d in descs}
    if len(claims) == 1 and None not in claims:
        return next(iter(claims))
    return None


@np.errstate(all="ignore")
def validate_row_stochastic(matrix) -> np.ndarray:
    """Return the matrix as a float array, or raise naming the first bad row."""
    a = number_array(matrix, "matrix", MapSpecError)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MapSpecError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise MapSpecError("matrix entries must be finite")
    negative, sums = (a < 0).any(axis=1), a.sum(axis=1)
    bad = np.flatnonzero(negative | (np.abs(sums - 1.0) > ROW_SUM_TOL))
    if len(bad):  # a negative entry is named before the row's sum
        i = bad[0]
        if negative[i]:
            raise MapSpecError(f"row {i} has a negative entry")
        raise MapSpecError(f"row {i} sums to {sums[i]!r}, not 1")
    return a


def linear_map(matrix) -> MapDescriptor:
    """x(t+1) = A x(t) with a row-stochastic A; averaging for the convex hull.
    A is kept as a read-only array of its own."""
    a = validate_row_stochastic(matrix).copy()
    a.setflags(write=False)
    return MapDescriptor(
        kind="linear",
        params={"matrix": a},
        n=a.shape[0],
        claim=identity_spec(),
    )


def decaying_pair_family(rate: str) -> MapDescriptor:
    """Two-agent time families with weights decaying toward the identity.

    rate "quarter_power": symmetric cross weights 4^-t from t = 1; both
    agents keep moving but total motion stays summable, so the limit
    positions disagree.  rate "one_over_t": agent 1 moves weight 1/t toward
    a fixed agent 2 from t = 2; motion is non-summable yet the gap decays
    like 1/(t-1), again without consensus in finite time.
    """
    if rate not in ("quarter_power", "one_over_t"):
        raise MapSpecError(f"unknown decay rate {rate!r}")
    return MapDescriptor(
        kind="decaying_pair",
        params={"rate": rate},
        n=2,
        start_index=1 if rate == "quarter_power" else 2,
        time_dependent=True,
        claim=identity_spec(),
    )


def vanishing_confidence(epsilon: float) -> MapDescriptor:
    """Weighted averaging with weights exp(-(|x_i - x_j|/epsilon)^t).

    As t grows the kernel sharpens, so far-away agents lose influence and
    well separated clusters freeze instead of merging.
    """
    if not (isinstance(epsilon, Real) and finite_number(epsilon) and epsilon > 0):
        raise MapSpecError(f"epsilon must be a positive finite number, got {epsilon!r}")
    return MapDescriptor(
        kind="vanishing_confidence",
        params={"epsilon": float(epsilon)},
        d=1,
        start_index=1,
        time_dependent=True,
        claim=identity_spec(),
    )


VALID_SELECTORS = (1, 2, 3, 4)  # max, arithmetic mean, geometric mean, min


def mean_selector(selectors) -> MapDescriptor:
    """Componentwise mean selection for three agents.

    Agent i is sent to the selector sigma_i applied over the current agent
    values in each coordinate: 1 max, 2 arithmetic mean, 3 geometric mean,
    4 min.  The family is interval-averaging, and proper exactly when max
    and min are not both selected (otherwise the box never shrinks).
    Geometric means restrict the domain to positive values.
    """
    sel = tuple(selectors) if isinstance(selectors, (list, tuple)) else ()
    if len(sel) != 3 or not all(type(s) is int and s in VALID_SELECTORS for s in sel):
        raise MapSpecError(f"selectors must be three integers in 1..4, got {selectors!r}")
    proper = not (1 in sel and 4 in sel)
    return MapDescriptor(
        kind="mean_selector",
        params={"selectors": list(sel)},
        n=3,
        domain="positive" if 3 in sel else "reals",
        claim=interval_spec() if proper else None,
    )


def default_stripe_width(l):
    return (1.0 - np.minimum(l, 1.0)) / 2.0


def stripe_map(width_profile: Callable[[float], float] | None = None) -> MapDescriptor:
    """Three planar agents: agent 1 anchors, agent 2 slides along the 1-2
    chord by a weight depending on agent 3's distance to that line, agent 3
    drifts toward agent 2.  width_profile maps that line distance to the
    weight on agent 1; None uses (1 - min(l, 1))/2.  Custom profiles are not
    serializable."""
    if width_profile is not None and not callable(width_profile):
        raise MapSpecError("width_profile must be callable")
    return MapDescriptor(
        kind="stripe",
        n=3,
        d=2,
        claim=identity_spec(),
        width_profile=width_profile,
    )


def midpoint_map() -> MapDescriptor:
    """Each of three agents jumps to the midpoint of the other two."""
    return MapDescriptor(kind="midpoint", n=3, claim=identity_spec())


def scale_map(factor: float) -> MapDescriptor:
    """x -> factor * x; a non-averaging fixture for factor > 1 since doubling
    escapes any hull not containing the origin."""
    if not (isinstance(factor, Real) and finite_number(factor)):
        raise MapSpecError(f"factor must be a finite number, got {factor!r}")
    return MapDescriptor(kind="scale", params={"factor": float(factor)})


def deform(inner: MapDescriptor, phi: Deformation) -> MapDescriptor:
    """Conjugate `inner` by the componentwise change of coordinates `phi`:
    the deformed map is inverse o inner o forward.  Requires inner to accept
    everything in the forward image of phi's domain."""
    if inner.kind == "deformed":
        raise MapSpecError("nesting deformations is not supported")
    return MapDescriptor(
        kind="deformed",
        params={"deformation": phi.name},
        n=inner.n,
        d=inner.d,
        domain=phi.domain,
        start_index=inner.start_index,
        time_dependent=inner.time_dependent,
        claim=inner.claim,
        inner=inner,
        deformation=phi,
    )


def check_call(desc: MapDescriptor, t: int, shape: tuple[int, ...]) -> None:
    """The checks of apply_map that depend on t and the profile's shape alone."""
    if t < desc.start_index:
        raise MapError(
            f"{desc.label()} starts at index {desc.start_index}, got t={t}"
        )
    if desc.n is not None and shape[-2] != desc.n:
        raise MapError(f"{desc.label()} expects {desc.n} agents, got {shape[-2]}")
    if desc.d is not None and shape[-1] != desc.d:
        raise MapError(f"{desc.label()} expects dimension {desc.d}, got {shape[-1]}")


def _check_domain(desc: MapDescriptor, coords: np.ndarray) -> None:
    if desc.domain == "positive" and not (coords > POSITIVE_FLOOR).all():
        raise DomainError(f"{desc.label()} requires strictly positive coordinates")


# Kernels take (..., n, d) coordinates.  Agent i is coords[..., i, :];
# reductions over agents run along axis -2.


def _apply_linear(desc, t, coords):
    return desc.params["matrix"] @ coords


def _apply_decaying_pair(desc, t, coords):
    x1, x2 = coords[..., 0, :], coords[..., 1, :]
    out = coords.copy()
    if desc.params["rate"] == "quarter_power":
        q = 0.25**t
        out[..., 0, :] = (1.0 - q) * x1 + q * x2
        out[..., 1, :] = q * x1 + (1.0 - q) * x2
    else:
        # ((t-1)*x1 + x2)/t keeps integer-valued canonical runs exact to the last ulp
        out[..., 0, :] = ((t - 1.0) * x1 + x2) / t
    return out


def _apply_vanishing(desc, t, coords):
    eps = desc.params["epsilon"]
    x = coords[..., 0]
    r = np.abs(x[..., :, None] - x[..., None, :]) / eps
    with np.errstate(over="ignore", under="ignore"):
        w = np.exp(-(r**t))
    return (w @ x[..., None]) / w.sum(axis=-1, keepdims=True)


def _apply_mean_selector(desc, t, coords):
    out = np.empty_like(coords)
    for i, s in enumerate(desc.params["selectors"]):
        if s == 1:
            out[..., i, :] = coords.max(axis=-2)
        elif s == 2:
            out[..., i, :] = coords.mean(axis=-2)
        elif s == 3:
            out[..., i, :] = np.exp(np.log(coords).mean(axis=-2))
        else:
            out[..., i, :] = coords.min(axis=-2)
    return out


def _apply_stripe(desc, t, coords):
    x1, x2, x3 = coords[..., 0, :], coords[..., 1, :], coords[..., 2, :]
    e = x2 - x1
    v = x3 - x1
    den = np.sqrt(np.vecdot(e, e))
    cross = np.abs(e[..., 0] * v[..., 1] - e[..., 1] * v[..., 0])
    degenerate = den <= POSITIVE_FLOOR
    if degenerate.any():  # a degenerate chord: plain distance
        l = np.where(degenerate, np.sqrt(np.vecdot(v, v)), cross / np.where(degenerate, 1.0, den))
    else:
        l = cross / den
    if desc.width_profile is None:
        a = default_stripe_width(l)
    else:  # a custom profile takes one float at a time
        a = np.array([float(desc.width_profile(float(v))) for v in l.ravel()])
    a = np.reshape(a, l.shape)[..., None]
    out = np.empty_like(coords)
    out[..., 0, :] = x1
    out[..., 1, :] = a * x1 + (1.0 - a) * x2
    out[..., 2, :] = 0.2 * x2 + 0.8 * x3
    return out


def _apply_midpoint(desc, t, coords):
    total = coords.sum(axis=-2, keepdims=True)
    return (total - coords) / 2.0


def _apply_scale(desc, t, coords):
    return desc.params["factor"] * coords


def _apply_deformed(desc, t, coords):
    # inverse o inner o forward, with the inner map's own checks: the
    # forward points and the inner image must be finite, as Profiles of
    # them would be
    inner = apply_map(desc.inner, t, _as_points(desc.deformation.forward(coords)))
    return desc.deformation.inverse(_as_points(inner))


_APPLY = {
    "linear": _apply_linear,
    "decaying_pair": _apply_decaying_pair,
    "vanishing_confidence": _apply_vanishing,
    "mean_selector": _apply_mean_selector,
    "stripe": _apply_stripe,
    "midpoint": _apply_midpoint,
    "scale": _apply_scale,
    "deformed": _apply_deformed,
}


def apply_map(desc: MapDescriptor, t: int, profile):
    """Apply descriptor at time index t.

    A Profile maps to a Profile; DomainError is raised off-domain and
    MapError on shape or index misuse.  An (n, d) array takes the same
    checks and maps to the kernel's image as a plain array, finite or not
    (a deformed map still raises GeometryError for a non-finite inner
    image): apply_map(desc, t, x) is Profile(apply_map(desc, t, x.coords)).  A
    (B, n, d) array is a stack of profiles and maps to the (B, n, d) stack
    of their images, computed together; if some item fails, StackError
    reports the first one with the error its one-profile call raises and
    the images of the items before it.  Floating-point warnings are
    silenced for stacks: a non-finite image is an item error."""
    if isinstance(profile, Profile):
        return Profile(apply_map(desc, t, profile.coords))
    xs = np.asarray(profile, dtype=float)
    if xs.ndim == 2:
        check_call(desc, t, xs.shape)
        _check_domain(desc, xs)
        return _APPLY[desc.kind](desc, t, xs)
    if xs.ndim != 3:
        raise MapError(f"expected a Profile, an (n, d) array or a (B, n, d) stack, got shape {xs.shape}")
    with np.errstate(all="ignore"):
        ys, flags = _images(desc, t, xs)
        first_failure(flags, lambda i: apply_map(desc, t, Profile(xs[i])), lambda i: ys[:i])
    return ys


def _images(desc: MapDescriptor, t: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The images of every item of a stack under desc, and flags over the
    items the one-profile apply_map may raise for: a bad profile, a t or
    shape desc does not take (all items), a domain breach, a bad image."""
    flags = invalid_profiles(xs)
    try:
        check_call(desc, t, xs.shape)
    except MapError:
        return xs, np.ones(len(xs), dtype=bool)
    if desc.domain == "positive":
        flags |= ~(xs > POSITIVE_FLOOR).all(axis=(1, 2))
    if desc.kind == "deformed":
        inner, inner_flags = _images(desc.inner, t, desc.deformation.forward(xs))
        ys, flags = desc.deformation.inverse(inner), flags | inner_flags
    elif desc.width_profile is not None:
        # a user callable, one item at a time: an item it raises for keeps
        # a NaN image, so its one-profile call raises the same error
        ys = np.full(xs.shape, np.nan)
        for i, x in enumerate(xs):
            try:
                ys[i] = _apply_stripe(desc, t, x)
            except Exception:
                pass
    else:
        ys = _APPLY[desc.kind](desc, t, xs)
    return ys, flags | invalid_profiles(ys)


def descriptor_to_dict(desc: MapDescriptor) -> dict:
    """Serializable form: kind, params, domain, start_index, coordinate_map."""
    if desc.kind == "stripe" and desc.width_profile is not None:
        raise MapSpecError("custom stripe width profiles are not serializable")
    params = {
        k: v.tolist() if isinstance(v, np.ndarray) else v
        for k, v in desc.params.items()
    }
    if desc.kind == "deformed":
        params["inner"] = descriptor_to_dict(desc.inner)
    return {
        "kind": desc.kind,
        "params": params,
        "domain": desc.domain,
        "start_index": desc.start_index,
        "coordinate_map": None if desc.claim is None else desc.claim.to_dict(),
    }


def read_map(data: dict, where: str) -> MapDescriptor:
    """One map of a scenario file, built by its kind's canonical
    constructor; the redundant fields, when given, must agree with it."""
    stated = read(MAP, data, where)
    make, params = KINDS[stated["kind"]]
    desc = read(params, stated["params"], f"{where}.params", make)
    for key in ("domain", "start_index", "coordinate_map"):
        canonical = desc.claim if key == "coordinate_map" else getattr(desc, key)
        if stated[key] is not None and stated[key] != canonical:
            raise ScenarioError(
                f"{where}.{key}: {stated[key]!r} conflicts with the canonical "
                f"{canonical!r} of {desc.label()}"
            )
    return desc


def descriptor_from_dict(data: dict) -> MapDescriptor:
    """Rebuild a descriptor from its serialized form (see read_map)."""
    try:
        return read_map(data, "map")
    except ScenarioError as exc:
        raise MapSpecError(str(exc)) from None


# the map level of a scenario file: each kind's constructor and params, and
# the fields every map has
KINDS = {
    "linear": (linear_map, {"matrix": Field("array")}),
    "decaying_pair": (decaying_pair_family, {"rate": Field("string")}),
    "vanishing_confidence": (vanishing_confidence, {"epsilon": Field("number")}),
    "mean_selector": (mean_selector, {"selectors": Field("array")}),
    "stripe": (stripe_map, {}),
    "midpoint": (midpoint_map, {}),
    "scale": (scale_map, {"factor": Field("number")}),
    "deformed": (
        lambda deformation, inner: deform(inner, DEFORMATIONS[deformation]()),
        {
            "deformation": Field("string", read=choice(DEFORMATIONS)),
            "inner": Field("object", read=read_map),
        },
    ),
}
MAP = {
    "kind": Field("string", read=choice(KINDS)),
    "params": Field("object", {}),
    "domain": Field("string", None),
    "start_index": Field("integer", None),
    "coordinate_map": Field("object", None, CoordinateMapSpec.from_dict),
}
