"""Hull geometry for agent profiles.

A profile is the joint state of n agents in R^d, stored as an (n, d) array.
Profiles get summarized by generalized hulls: the convex hull of the agent
points, the componentwise interval box, or a polytope whose faces are normal
to a fixed positively spanning set of directions.  Everything downstream
(certification, trajectory monitoring, consensus detection) is phrased in
terms of containment, inclusion gaps, and Hausdorff distances between these
hulls, so this module is deliberately self contained.

Convex and direction hulls are supported in d = 1 and d = 2; interval hulls
work in any dimension.

Certification scores many profiles at once: `hull_step_stack` runs the hull
transition of `hull_step` over (B, n, d) stacks of profiles.  Stack routines
stop where the item-by-item loop would raise and report that item through
`StackError`.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .schema import Field, number_array, read

DEFAULT_TOL = 1e-9
# a hull vertex within this fraction of its neighbors' span counts as collinear
COLLINEAR_TOL = 1e-12

HULL_KINDS = ("convex", "interval", "direction")


class GeometryError(ValueError):
    """Base class for geometry failures."""


class DimensionMismatchError(GeometryError):
    pass


class UnsupportedDimensionError(GeometryError):
    pass


class EmptyProfileError(GeometryError):
    pass


class StackError(Exception):
    """The first item of a profile stack that the one-profile call fails on.

    `index` is the item's position, `error` the exception the one-profile
    call raises for it, and `head` the results of the items before it."""

    def __init__(self, index: int, error: Exception, head):
        super().__init__(f"stack item {index}: {error}")
        self.index = index
        self.error = error
        self.head = head


def require_tolerance(value, name: str, error: type[Exception]):
    """value, if a finite number >= 0, else raise `error`: a NaN, infinite
    or negative tolerance would quietly switch off the check it gates."""
    try:
        ok = math.isfinite(value) and value >= 0
    except TypeError:
        ok = False
    if not ok:
        raise error(f"{name} must be a finite number >= 0, got {value!r}")
    return value


def require_budget(value, name: str, error: type[Exception]):
    """value, if it is a positive int (a bool is not), else raise `error`."""
    if isinstance(value, bool) or not (isinstance(value, int) and value > 0):
        raise error(f"{name} must be a positive integer, got {value!r}")
    return value


def require_integer(value, name: str, error: type[Exception]) -> int:
    """value as an int: Python and numpy integers pass; floats, bools and
    the rest raise `error` instead of being truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def first_failure(flags: np.ndarray, check) -> tuple[int, ValueError] | None:
    """(i, error) for the first flagged position i at which check(i) raises
    a ValueError (as every geometry and map error is), else None.

    Stack routines flag suspect items with one array test and let the
    one-item check raise the exact error, so a stack fails where, and as,
    the item-by-item loop would."""
    for i in np.flatnonzero(flags):
        try:
            check(int(i))
        except ValueError as exc:
            return int(i), exc
    return None


def invalid_profiles(stack: np.ndarray) -> np.ndarray:
    """Flags the items of a (B, n, d) stack that Profile would reject."""
    if stack.shape[1] == 0 or stack.shape[2] == 0:
        return np.ones(len(stack), dtype=bool)
    return ~np.isfinite(stack).all(axis=(1, 2))


def _as_points(coords) -> np.ndarray:
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 2:
        raise GeometryError(f"expected an (n, d) array, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise EmptyProfileError("profile has no agents")
    if arr.shape[1] == 0:
        raise GeometryError("points need at least one coordinate")
    if not np.isfinite(arr).all():
        raise GeometryError("coordinates must be finite")
    return arr


@dataclass(frozen=True)
class Profile:
    """Joint state of n agents: one row per agent."""

    coords: np.ndarray

    def __post_init__(self):
        arr = _as_points(self.coords).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    def agent(self, i: int) -> np.ndarray:
        return self.coords[i]

    def centroid(self) -> np.ndarray:
        return self.coords.mean(axis=0)

    def diameter(self) -> float:
        return float(_pairwise_diameter(self.coords))

    def __eq__(self, other):
        if not isinstance(other, Profile):
            return NotImplemented
        return self.coords.shape == other.coords.shape and bool(
            (self.coords == other.coords).all()
        )

    def __hash__(self):
        return hash(self.coords.tobytes())


def _pairwise_diameter(pts: np.ndarray) -> np.ndarray:
    """Largest distance between two rows of an (n, d) array, per item of
    any leading axes."""
    if pts.shape[-2] < 2:
        return np.zeros(pts.shape[:-2])
    diff = pts[..., :, None, :] - pts[..., None, :, :]
    return np.sqrt((diff**2).sum(axis=-1)).max(axis=(-2, -1))


def profile_diameters(stack: np.ndarray) -> np.ndarray:
    """Profile.diameter of each item of a (B, n, d) stack, taken in chunks
    of about a million coordinate differences."""
    b, n, d = stack.shape
    step = max(1, 2**20 // max(1, n * n * d))
    return np.concatenate(
        [np.zeros(0)]
        + [_pairwise_diameter(stack[i : i + step]) for i in range(0, b, step)]
    )


@dataclass(frozen=True)
class CoordinateMapSpec:
    """Recipe for turning a profile into hull generators.

    kind "identity" uses the agent points themselves (convex hull),
    "interval" uses componentwise extrema (box hull), and "direction"
    uses support values along a fixed positively spanning family of unit
    directions in the plane.
    """

    kind: str
    directions: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "interval", "direction"):
            raise GeometryError(f"unknown coordinate map kind {self.kind!r}")
        if self.kind != "direction":
            if self.directions is not None:
                raise GeometryError("directions are only meaningful for kind 'direction'")
            return
        dirs = number_array(self.directions, "directions", GeometryError)
        if dirs.ndim != 2 or dirs.shape[1] != 2:
            raise GeometryError("directions must be 2-vectors")
        if len(dirs) < 3:
            raise GeometryError("a direction spec needs at least three directions")
        norms = np.linalg.norm(dirs, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise GeometryError("directions must be unit vectors")
        dirs = dirs / norms[:, None]
        angles = np.sort(np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2 * np.pi))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        # positive span of the plane <=> no open half plane free of directions
        if gaps.max() >= np.pi - 1e-12:
            raise GeometryError("directions do not positively span the plane")
        object.__setattr__(
            self, "directions", tuple(tuple(map(float, row)) for row in dirs)
        )

    def generator_count(self, n: int, d: int) -> int:
        if self.kind == "identity":
            return n
        if self.kind == "interval":
            return 2**d
        return len(self.directions)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "direction":
            out["directions"] = [list(u) for u in self.directions]
        return out

    @staticmethod
    def from_dict(data: dict, where: str = "coordinate_map") -> "CoordinateMapSpec":
        return read(COORDINATE_MAP, data, where, CoordinateMapSpec)


COORDINATE_MAP = {"kind": Field("string"), "directions": Field("array", None)}  # its file level


def identity_spec() -> CoordinateMapSpec:
    return CoordinateMapSpec("identity")


def interval_spec() -> CoordinateMapSpec:
    return CoordinateMapSpec("interval")


def direction_spec(directions: Iterable[Sequence[float]]) -> CoordinateMapSpec:
    return CoordinateMapSpec("direction", tuple(tuple(u) for u in directions))


def axis_direction_spec() -> CoordinateMapSpec:
    """Direction spec along +/- coordinate axes; its hulls coincide with boxes."""
    return direction_spec([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])


@dataclass(frozen=True)
class Hull:
    """Compact convex region stored as its extreme points.

    Vertices are in counterclockwise order for d = 2 and ascending for
    d = 1.  Degenerate regions are fine: a single vertex is a point, two
    vertices a segment.
    """

    vertices: np.ndarray
    kind: str
    dimension: int

    def __post_init__(self):
        arr = _as_points(self.vertices).copy()
        if self.kind not in HULL_KINDS:
            raise GeometryError(f"unknown hull kind {self.kind!r}")
        if arr.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"vertices are {arr.shape[1]}-dimensional, hull says {self.dimension}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "vertices", arr)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dimension": self.dimension,
            "vertices": [[float(c) for c in v] for v in self.vertices],
        }


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def monotone_chain(points: np.ndarray) -> np.ndarray:
    """Planar convex hull, counterclockwise, starting at the lexicographic
    minimum.

    Two phases: an exact-predicate chain (pops on cross <= 0, so true
    extreme points are never lost, whatever the lexicographic order does on
    near-degenerate input), then a pruning pass that removes any vertex
    lying within the collinearity tolerance of its neighbors' segment,
    relative to that segment's length.  The relative form keeps tiny but
    honest triangles alive while still collapsing collinear and
    near-collinear profiles to their two extreme points (one when all
    points coincide).  Of rows that compare equal, the first one given is
    kept."""
    pts = np.asarray(points, dtype=float)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    fresh = np.ones(len(pts), dtype=bool)
    fresh[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[fresh]
    if pts.shape[0] == 1:
        return pts

    def half(seq):
        chain: list = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    rows = pts.tolist()
    hull = half(rows)[:-1] + half(rows[::-1])[:-1]
    while len(hull) > 2:
        verts = np.array(hull)
        prev = np.concatenate((verts[-1:], verts[:-1]))
        succ = np.concatenate((verts[1:], verts[:1]))
        chord = succ - prev
        base = np.sqrt(np.vecdot(chord, chord))
        flat = _segment_distances(verts, prev, succ) <= COLLINEAR_TOL * base
        if not flat.any():
            break
        hull.pop(int(flat.argmax()))
    return np.array(hull)


def _dedup_rows(rows: list) -> np.ndarray:
    kept: list = []
    for r in rows:
        if not any(np.array_equal(r, k) for k in kept):
            kept.append(np.asarray(r, dtype=float))
    return np.array(kept)


def _direction_hull_vertices(pts: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    support = (pts @ dirs.T).max(axis=0)  # h_j = max_i x_i . u_j
    scale = max(1.0, float(np.abs(support).max()))
    feas_tol = 1e-9 * scale
    cand: list[np.ndarray] = []
    m = dirs.shape[0]
    for i in range(m):
        for j in range(i + 1, m):
            det = dirs[i, 0] * dirs[j, 1] - dirs[i, 1] * dirs[j, 0]
            if abs(det) <= 1e-12:
                continue
            z = np.linalg.solve(dirs[[i, j]], support[[i, j]])
            if np.all(dirs @ z <= support + feas_tol):
                cand.append(z)
    if not cand:
        raise GeometryError("direction hull has no feasible corner")
    return monotone_chain(np.array(cand))


def build_hull(profile: Profile, spec: CoordinateMapSpec) -> Hull:
    """Generalized hull of a profile under a coordinate map spec."""
    pts = profile.coords
    d = profile.d
    if spec.kind == "identity":
        if d == 1:
            lo, hi = float(pts.min()), float(pts.max())
            verts = np.array([[lo]]) if lo == hi else np.array([[lo], [hi]])
        elif d == 2:
            verts = monotone_chain(pts)
        else:
            raise UnsupportedDimensionError("convex hulls are implemented for d <= 2")
        return Hull(verts, "convex", d)
    if spec.kind == "interval":
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        if d == 1:
            rows = [[lo[0]], [hi[0]]]
        elif d == 2:
            # counterclockwise box corners, degeneracies collapse on dedup
            rows = [
                [lo[0], lo[1]],
                [hi[0], lo[1]],
                [hi[0], hi[1]],
                [lo[0], hi[1]],
            ]
        else:
            rows = [list(c) for c in itertools.product(*zip(lo, hi))]
        return Hull(_dedup_rows(rows), "interval", d)
    # direction
    if d != 2:
        raise UnsupportedDimensionError("direction hulls are planar only")
    dirs = np.asarray(spec.directions, dtype=float)
    return Hull(_direction_hull_vertices(pts, dirs), "direction", 2)


# Dot products go through np.vecdot, which rounds exactly like the scalar
# `a @ b` of two vectors (tests/test_geometry.py keeps that scalar form as
# the reference); np.linalg.norm(..., axis=1) and elementwise sums round
# differently in some cases.


def _segment_distances(p, a, b) -> np.ndarray:
    """Distance from p to the segment [a, b], broadcast over the leading
    axes: project onto the segment's line, clamp to the segment, measure.
    A zero-length segment projects every point onto a."""
    ab = b - a
    denom = np.vecdot(ab, ab)
    s = np.vecdot(p - a, ab) / np.where(denom == 0.0, np.inf, denom)
    # min(1.0, max(0.0, s)) with the same pick on ties
    s = np.where(s > 0.0, np.where(s < 1.0, s, 1.0), 0.0)
    off = p - (a + s[..., None] * ab)
    return np.sqrt(np.vecdot(off, off))


def _interval_distances(x, lo, hi) -> np.ndarray:
    """Distance from x to the interval [lo, hi], broadcast:
    max(lo - x, x - hi, 0.0), keeping the first of equal values."""
    out = lo - x
    above = x - hi
    out = np.where(above > out, above, out)
    return np.where(0.0 > out, 0.0, out)


def _hull_distances(points: np.ndarray, hull: Hull) -> np.ndarray:
    """Distance from each row of a (k, d) array to the hull, 0 inside.

    In the plane every point is scored against every hull edge at once: a
    point is inside when it lies left of (or on) every edge, else its
    distance is the nearest edge's."""
    verts = hull.vertices
    if hull.dimension == 1:
        return _interval_distances(points[:, 0], float(verts.min()), float(verts.max()))
    if hull.dimension == 2:
        k = verts.shape[0]
        if k <= 2:
            return _segment_distances(points, verts[0], verts[-1])
        succ = np.concatenate((verts[1:], verts[:1]))
        ab = succ - verts
        p = points[:, None, :]
        ap = p - verts
        cross = ab[..., 0] * ap[..., 1] - ab[..., 1] * ap[..., 0]
        inside = (cross >= 0.0).all(axis=1)
        if inside.all():  # the usual case for a new hull inside its predecessor
            return np.zeros(len(points))
        edge = _segment_distances(p, verts, succ).min(axis=1)
        return np.where(inside, 0.0, edge)
    if hull.kind != "interval":
        raise UnsupportedDimensionError(
            "only interval hulls support dimensions above two"
        )
    return _box_distances(points, verts.min(axis=0), verts.max(axis=0))


def _box_distances(points, lo, hi) -> np.ndarray:
    """Distance from points to the box [lo, hi], broadcast over the leading
    axes."""
    off = np.clip(points, lo, hi) - points
    return np.sqrt(np.vecdot(off, off))


def _farthest(src: Hull, dst: Hull) -> tuple[int, float]:
    """Index and distance of the src vertex farthest from dst (the first
    one on ties)."""
    dists = _hull_distances(src.vertices, dst)
    worst = int(dists.argmax())
    return worst, float(dists[worst])


def _check_same_dimension(a: Hull, b: Hull) -> None:
    if a.dimension != b.dimension:
        raise DimensionMismatchError("hulls live in different dimensions")


def point_to_hull_distance(point, hull: Hull) -> float:
    """Euclidean distance from a point to a hull, 0 inside."""
    p = np.asarray(point, dtype=float).reshape(1, -1)
    if p.shape[1] != hull.dimension:
        raise DimensionMismatchError(
            f"point is {p.shape[1]}-dimensional, hull is {hull.dimension}"
        )
    return float(_hull_distances(p, hull)[0])


def hull_contains(hull: Hull, point, tol: float = DEFAULT_TOL) -> bool:
    return point_to_hull_distance(point, hull) <= tol


def inclusion_excess(inner: Hull, outer: Hull) -> tuple[float, np.ndarray]:
    """How far the inner hull pokes out of the outer one.

    Returns the largest vertex-to-outer distance together with the offending
    vertex; (0.0, vertex) certifies inclusion for convex regions because the
    maximum over a polytope of a convex function sits at a vertex.
    """
    _check_same_dimension(inner, outer)
    worst, excess = _farthest(inner, outer)
    return excess, inner.vertices[worst].copy()


def hull_included(inner: Hull, outer: Hull, tol: float = DEFAULT_TOL) -> bool:
    excess, _ = inclusion_excess(inner, outer)
    return excess <= tol


def hausdorff(a: Hull, b: Hull) -> float:
    """Hausdorff distance between two hulls.

    Symmetric two-sided form; each directed part is a maximum of a convex
    function over a polytope, hence attained at a vertex, so scanning
    vertices is exact.  For nested hulls the inner-to-outer part vanishes
    and the distance reduces to the maximal outer-vertex distance to the
    inner hull.
    """
    _check_same_dimension(a, b)
    return max(_farthest(a, b)[1], _farthest(b, a)[1])


def hull_step(new: Hull, prev: Hull) -> tuple[float, np.ndarray, float]:
    """One hull transition: (inclusion excess of new in prev, the new vertex
    attaining it, Hausdorff gap between the two).

    Equal to inclusion_excess(new, prev) and hausdorff(new, prev), with the
    new-to-prev distances scored once and shared by both."""
    _check_same_dimension(new, prev)
    worst, excess = _farthest(new, prev)
    gap = max(excess, _farthest(prev, new)[1])
    return excess, new.vertices[worst].copy(), gap


def hull_step_stack(
    new: np.ndarray, prev: np.ndarray, spec: CoordinateMapSpec, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """hull_step(build_hull(new[i], spec), build_hull(prev[i], spec)) for
    each item of two (B, n, d) stacks of profiles: the excesses, vertices
    and gaps as arrays of shapes (B,), (B, d) and (B,), equal to the
    one-item results.

    In d = 1, and for interval hulls above the plane, both hulls are boxes
    and every item is scored at once in closed form, with the arithmetic of
    the one-item kernel.  Other hulls are built and stepped item by item;
    that loop ends after the first item whose excess exceeds tol, so the
    arrays can be shorter than the stacks, and an item whose hull cannot be
    built raises StackError."""
    d = new.shape[-1]
    if (spec.kind == "identity" and d == 1) or (spec.kind == "interval" and d != 2):
        return _box_steps(new, prev)
    steps = []
    for x, p in zip(new, prev):
        try:
            step = hull_step(build_hull(Profile(x), spec), build_hull(Profile(p), spec))
        except GeometryError as exc:
            raise StackError(len(steps), exc, _stacked(steps, d)) from exc
        steps.append(step)
        if step[0] > tol:
            break
    return _stacked(steps, d)


def _stacked(steps: list, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    excess, vertex, gap = zip(*steps) if steps else ((), np.zeros((0, d)), ())
    return np.array(excess, dtype=float), np.array(vertex, dtype=float), np.array(gap, dtype=float)


def _box_bounds(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-item lower and upper corners of the box hull.  Where the two
    bounds compare equal the hull keeps one vertex, the first one built."""
    lo, hi = stack.min(axis=1), stack.max(axis=1)
    return lo, np.where(hi == lo, lo, hi)


def _corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(B, 2^d, d) box corners in the order of build_hull's interval rows
    (itertools.product, first coordinate slowest)."""
    d = lo.shape[-1]
    high = ((np.arange(2**d)[:, None] >> np.arange(d - 1, -1, -1)) & 1).astype(bool)
    return np.where(high, hi[:, None, :], lo[:, None, :])


def _box_steps(new: np.ndarray, prev: np.ndarray):
    lo, hi = _box_bounds(new)
    plo, phi = _box_bounds(prev)
    if new.shape[-1] == 1:
        lo, hi, plo, phi = lo[:, 0], hi[:, 0], plo[:, 0], phi[:, 0]
        # vertices [lo, hi]: the farthest one from the other hull, first on ties
        d_lo, d_hi = _interval_distances(lo, plo, phi), _interval_distances(hi, plo, phi)
        far = d_hi > d_lo
        excess = np.where(far, d_hi, d_lo)
        vertex = np.where(far, hi, lo)[:, None]
        b_lo, b_hi = _interval_distances(plo, lo, hi), _interval_distances(phi, lo, hi)
        back = np.where(b_hi > b_lo, b_hi, b_lo)
    else:
        corners = _corners(lo, hi)
        dists = _box_distances(corners, plo[:, None, :], phi[:, None, :])
        rows, worst = np.arange(len(dists)), dists.argmax(axis=1)
        excess, vertex = dists[rows, worst], corners[rows, worst]
        back = _box_distances(_corners(plo, phi), lo[:, None, :], hi[:, None, :]).max(axis=1)
    # max(excess, back), keeping the first of equal values
    return excess, vertex, np.where(back > excess, back, excess)


def hull_diameter(hull: Hull) -> float:
    return float(_pairwise_diameter(hull.vertices))


def profile_diameter(profile: Profile) -> float:
    return profile.diameter()
