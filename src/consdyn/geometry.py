"""Hull geometry for agent profiles.

A profile is the joint state of n agents in R^d, stored as an (n, d) array.
Profiles get summarized by generalized hulls: the convex hull of the agent
points, the componentwise interval box, or a polytope whose faces are normal
to a fixed positively spanning set of directions.  Everything downstream
(certification, trajectory monitoring, consensus detection) is phrased in
terms of containment, inclusion gaps, and Hausdorff distances between these
hulls, so this module is deliberately self contained.

Convex and direction hulls are supported in d = 1 and d = 2; interval hulls
work in any dimension.  A box (an interval hull off the plane, or any hull
in d = 1) is its two corners lo and hi on every stack path and is scored in
O(d); only the one-item `Hull` lists its distinct corners, up to 2^d of
them, so it is meant for modest d.

Certification scores many profiles at once: `hull_step_stack` runs the hull
transition of `hull_step` over (B, n, d) stacks of profiles, and runs score
theirs along one stack with `consecutive_steps`.  Both score planar hulls
with one kernel, which measures only the vertices the two hulls of a step
do not share.  Stack routines compute every item, flag the items that may
fail with array tests, and let `first_failure` ask the one-item call for
the exact error, so a stack fails where, and as, the item-by-item loop
would: it alone raises the `StackError` that reports that item.

An overflow in a hull call is an infinite or NaN value, never a warning:
each public call enters the shared arithmetic through a function that
ignores floating-point errors.
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


_BOOLS = (bool, np.bool_)  # to require_*, True is no tolerance, budget or seed of 1


def finite_number(value) -> bool:
    """math.isfinite(value), but False for a bool, a non-number or an int beyond the floats."""
    try:
        return not isinstance(value, _BOOLS) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def require_tolerance(value, name: str, error: type[Exception]):
    """value, if a finite number >= 0, else raise `error`: a NaN, infinite
    or negative tolerance would quietly switch off the check it gates."""
    if not (finite_number(value) and value >= 0):
        raise error(f"{name} must be a finite number >= 0, got {value!r}")
    return value


def require_budget(value, name: str, error: type[Exception]) -> int:
    """value as an int > 0 (see require_integer), else raise `error`."""
    budget = require_integer(value, name, error)
    if budget <= 0:
        raise error(f"{name} must be a positive integer, got {value!r}")
    return budget


def require_integer(value, name: str, error: type[Exception]) -> int:
    """value as an int: Python and numpy integers pass; floats, bools and
    the rest raise `error` instead of being truncated."""
    if not isinstance(value, _BOOLS):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def require_seed(value, name: str, error: type[Exception]) -> int:
    """value as an int >= 0, the seeds numpy takes; else raise `error`."""
    seed = require_integer(value, name, error)
    if seed < 0:
        raise error(f"{name} must be an integer >= 0, got {seed!r}")
    return seed


def first_failure(flags: np.ndarray, check, head) -> None:
    """Raise StackError(i, error, head(i)) for the first flagged position i
    at which the one-item call check(i) raises error; return if none does.

    Stack routines compute every item and flag the suspect ones with array
    tests; flags may overreach (an item flagged only because a stack-wide
    intermediate overflowed passes its one-item call and is skipped), but
    must cover every item the one-item call raises for."""
    for i in map(int, np.flatnonzero(flags)):
        try:
            check(i)
            continue
        except Exception as exc:
            error = exc
        raise StackError(i, error, head(i))  # outside the except: no __context__


def invalid_profiles(stack: np.ndarray) -> np.ndarray:
    """Flags the items of a (B, n, d) stack that Profile would reject."""
    if stack.shape[1] == 0 or stack.shape[2] == 0:
        return np.ones(len(stack), dtype=bool)
    return ~np.isfinite(stack).all(axis=(1, 2))


def _as_points(coords) -> np.ndarray:
    try:
        arr = np.asarray(coords, dtype=float)
    except OverflowError:  # an integer beyond the floats
        raise GeometryError("coordinates must be finite") from None
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

    def centroid(self) -> np.ndarray:
        return self.coords.mean(axis=0)

    def diameter(self) -> float:
        return float(_pairwise_diameter(self.coords))

    def __eq__(self, other):
        if not isinstance(other, Profile):
            return NotImplemented
        return _values_key(self.coords) == _values_key(other.coords)

    def __hash__(self):
        return hash(_values_key(self.coords))


def _values_key(arr: np.ndarray) -> tuple:
    """Shape and bytes of a finite array with -0.0 read as 0.0: two keys
    are equal exactly when the arrays compare equal, and hash alike."""
    return arr.shape, (arr + 0.0).tobytes()


@np.errstate(all="ignore")
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

    @np.errstate(all="ignore")
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

    Vertices are in counterclockwise order for d = 2, ascending for d = 1
    and, for a box above the plane, in itertools.product order.
    Degenerate regions are fine: a single vertex is a point, two vertices
    a segment.
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

    def _key(self) -> tuple:
        return self.kind, self.dimension, _values_key(self.vertices)

    def __eq__(self, other):
        if not isinstance(other, Hull):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def to_dict(self) -> dict:
        return {**vars(self), "vertices": [[float(c) for c in v] for v in self.vertices]}


def _chain(rows: list) -> list:
    """Andrew's monotone chain over distinct points in lexicographic order,
    as Python lists: the hull counterclockwise from the first point.  It
    pops on cross <= 0, so true extreme points are never lost, whatever the
    lexicographic order does on near-degenerate input."""
    if len(rows) < 2:
        return rows

    def half(seq):
        chain: list = []
        for p in seq:
            px, py = p
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:  # NaN: no pop
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    return half(rows)[:-1] + half(rows[::-1])[:-1]


HULL_POINTS = 2**10  # points built at one time: bounds the chain's Python lists
# The octagon filter runs before the chain on items of at least FILTER_POINTS
# points (below that it costs more than the chain steps it saves) whose
# nonzero |coordinates| lie within 2^+-FILTER_RANGE.
FILTER_POINTS = 2**7
FILTER_RANGE = 400


@np.errstate(all="ignore")
def planar_hulls(
    points: np.ndarray, valid: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Convex hulls of the items of a (B, n, 2) stack, of the points where
    the (B, n) mask `valid` holds if one is given: (B, K, 2) vertices,
    counterclockwise from each item's lexicographic minimum and padded with
    copies of it (zeros for an item without points), and the (B,) vertex
    counts.

    About HULL_POINTS points at a time, in three stages: one sort
    (np.lexsort), keeping the first one given of rows that compare equal;
    the chain, item by item; then pruning rounds over the stack.  Unmasked
    items of FILTER_POINTS points or more leave out of the sort the points
    strictly inside the octagon of their extreme points (_octagon_interior)."""
    size = max(1, HULL_POINTS // max(1, points.shape[1]))
    blocks = [
        _hull_block(points[i : i + size], None if valid is None else valid[i : i + size])
        for i in range(0, max(1, len(points)), size)
    ]
    if len(blocks) == 1:
        return blocks[0]
    width = max(verts.shape[1] for verts, _ in blocks)
    return np.concatenate([
        np.concatenate((verts, verts[:, :1].repeat(width - verts.shape[1], axis=1)), axis=1)
        for verts, _ in blocks
    ]), np.concatenate([count for _, count in blocks])


def _hull_block(points: np.ndarray, valid: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    if valid is None and points.shape[1] >= FILTER_POINTS:
        valid = ~_octagon_interior(points)
    item = np.arange(len(points))[:, None]
    order = np.lexsort((points[..., 1], points[..., 0]) + (() if valid is None else (~valid,)))
    pts = points[item, order]
    keep = np.ones(order.shape, dtype=bool)
    keep[:, 1:] = (pts[:, 1:] != pts[:, :-1]).any(axis=2)
    if valid is not None:
        keep &= valid[item, order]
    rows, start, hulls = pts[keep].tolist(), 0, []
    for end in itertools.accumulate(keep.sum(axis=1).tolist()):
        hulls.append(_chain(rows[start:end]))
        start = end
    count = [len(h) for h in hulls]
    width = max(count, default=0) or 1  # up to 2n - 2 when cross products overflow
    verts = np.array([h + (h or [[0.0, 0.0]])[:1] * (width - len(h)) for h in hulls])
    return _prune(verts.reshape(len(points), width, 2), np.array(count, dtype=int))


_OCTAGON = np.array([(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)], dtype=float)
_TINY = np.finfo(float).tiny  # far above the rounding of products that underflow


def _octagon_interior(points: np.ndarray) -> np.ndarray:
    """Flags the points of a (B, n, 2) stack strictly inside the octagon of
    their item's extreme points in the directions +-x, +-(x + y), +-y and
    +-(x - y) (Akl and Toussaint, IPL 1978), counterclockwise, the first
    point on ties: none of them is a hull vertex.

    A point is flagged when it lies left of every octagon edge of nonzero
    length by more than 1e-9 of the edge's L1 length, in units of the power
    of two just above the item's largest |coordinate|.  That scaling is
    exact, so the margin stays far above rounding at every magnitude.

    An item keeps every point when its octagon has no nonzero edge, or when
    a nonzero |coordinate| of it is not finite or lies outside
    2^+-FILTER_RANGE: there the chain's own cross products may overflow or
    lose precision to underflow, and which of its points are interior
    would change its output."""
    with np.errstate(all="ignore"):
        size = np.abs(points)
        top = size.max(axis=(1, 2))
        least = np.where(size > 0.0, size, np.inf).min(axis=(1, 2))
        pts = np.ldexp(points, -np.frexp(top)[1][:, None, None])
        corner = pts[np.arange(len(pts))[:, None], (pts @ _OCTAGON.T).argmax(axis=1)]
        edge = corner[:, [1, 2, 3, 4, 5, 6, 7, 0]] - corner
        normal = edge @ ((0.0, 1.0), (-1.0, 0.0))  # (-ey, ex): positive to the left
        height = normal @ pts.transpose(0, 2, 1) - np.vecdot(normal, corner)[..., None]
        side = edge.any(axis=2)
        margin = np.where(side, 1e-9 * np.abs(edge).sum(axis=2) + _TINY, -1.0)
        inner = (height > margin[..., None]).all(axis=1)
    ok = side.any(axis=1) & (top <= 2.0**FILTER_RANGE) & (least >= 2.0**-FILTER_RANGE)
    return inner & ok[:, None]


def _prune(verts: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rounds over a stack of padded hulls that each drop per item the
    first vertex lying within COLLINEAR_TOL of its neighbors' segment,
    relative to that segment's length, until no item has one.  The
    relative form keeps tiny but honest triangles alive while still
    collapsing collinear and near-collinear profiles to their two extreme
    points."""
    width = verts.shape[1]
    k = np.arange(width)
    live = (count > 2).nonzero()[0]
    while live.size:
        v, c = (verts, count) if len(live) == len(verts) else (verts[live], count[live])
        succ = np.concatenate((v[:, 1:], v[:, :1]), axis=1)
        prev = np.concatenate((v[:, -1:], v[:, :-1]), axis=1)
        padded = c < width
        padding = padded.any()
        if padding:  # vertex 0 follows the last real vertex, not the padding
            prev[padded, 0] = v[padded, c[padded] - 1]
        chord = succ - prev
        base = np.sqrt(np.vecdot(chord, chord))
        flat = _segment_distances(v, prev, succ) <= COLLINEAR_TOL * base
        if padding:
            flat &= k < c[:, None]
        if not flat.any():
            break
        hit = flat.any(axis=1)
        live, v, flat = live[hit], v[hit], flat[hit]
        # close the gap left by each item's first flat vertex, pad again
        shift = np.minimum(k + (k >= flat.argmax(axis=1)[:, None]), width - 1)
        v = v[np.arange(len(live))[:, None], shift]
        count[live] -= 1
        verts[live] = np.where((k < count[live, None])[..., None], v, v[:, :1])
        live = live[count[live] > 2]
    return verts[:, : max(1, count.max(initial=0))], count


def monotone_chain(points: np.ndarray) -> np.ndarray:
    """Planar convex hull, counterclockwise, starting at the lexicographic
    minimum: planar_hulls of one item."""
    verts, count = planar_hulls(np.asarray(points, dtype=float)[None])
    return verts[0, : count[0]]


@np.errstate(all="ignore")
def _direction_hulls(stack: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """planar_hulls of the corners of each item's direction polytope: one
    2x2 solve per pair of non-parallel directions, over the stack, with the
    corners that violate a support constraint masked out."""
    support = (stack @ dirs.T).max(axis=1)  # h_j = max_i x_i . u_j
    scale = np.abs(support).max(axis=1)
    feas_tol = 1e-9 * np.where(scale > 1.0, scale, 1.0)
    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(len(dirs)), 2)
        if abs(dirs[i, 0] * dirs[j, 1] - dirs[i, 1] * dirs[j, 0]) > 1e-12
    ]
    z = np.linalg.solve(dirs[pairs], support[:, pairs, None])[..., 0]
    feasible = ((dirs @ z[..., None])[..., 0] <= (support + feas_tol[:, None])[:, None]).all(axis=-1)
    return planar_hulls(z, feasible)


_SQUARE = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=bool)  # a planar box's high ends, counterclockwise


def hull_stack(stack: np.ndarray, spec: CoordinateMapSpec) -> tuple[np.ndarray, np.ndarray]:
    """The hulls of the items of a (B, n, d) stack, as (B, K, d) vertices
    and the (B,) vertex counts.  A box (see _boxes) is its corners lo and
    hi of _box_bounds, count 2.  Other hulls are build_hull's vertices, and
    past its count each item holds copies of its own vertices: of its first
    one for planar chains, of kept corners for planar boxes (which are then
    segments or points).  A direction hull without a feasible corner counts
    0 vertices."""
    d = stack.shape[-1]
    if _boxes(spec, d):
        return np.stack(_box_bounds(stack), axis=1), np.full(len(stack), 2)
    if spec.kind == "interval":  # the plane: the corners counterclockwise, the first of equal ones kept
        corners = np.where(_SQUARE, stack.max(axis=1)[:, None], stack.min(axis=1)[:, None])
        same = (corners[:, :, None] == corners[:, None, :]).all(axis=-1)
        dropped = np.tril(same, -1).any(axis=-1)
        first = np.argsort(dropped, axis=1, kind="stable")
        return corners[np.arange(len(stack))[:, None], first], 4 - dropped.sum(axis=1)
    if spec.kind == "identity":
        if d != 2:
            raise UnsupportedDimensionError("convex hulls are implemented for d <= 2")
        return planar_hulls(stack)
    if d != 2:
        raise UnsupportedDimensionError("direction hulls are planar only")
    return _direction_hulls(stack, np.asarray(spec.directions, dtype=float))


def build_hull(profile: Profile, spec: CoordinateMapSpec) -> Hull:
    """Generalized hull of a profile under a coordinate map spec.  A box
    (see _boxes) lists its distinct corners in itertools.product order,
    first coordinate slowest: up to 2^d of them, so it is meant for modest
    d; stack routines keep a box as its two corners."""
    pts = profile.coords
    kind = "convex" if spec.kind == "identity" else spec.kind
    if _boxes(spec, profile.d):
        ends = zip(pts.min(axis=0).tolist(), pts.max(axis=0).tolist())
        corners = itertools.product(*((a,) if a == b else (a, b) for a, b in ends))
        return Hull(np.array(list(corners)), kind, profile.d)
    verts, count = hull_stack(pts[None], spec)
    if not count[0]:
        raise GeometryError("direction hull has no feasible corner")
    return Hull(verts[0, : count[0]], kind, profile.d)


# Dot products go through np.vecdot, which rounds exactly like the scalar
# `a @ b` of two vectors (tests/test_geometry.py keeps that scalar form as
# the reference); np.linalg.norm(..., axis=1) and elementwise sums round
# differently in some cases.


def _segment_distances(p, a, b) -> np.ndarray:
    """Distance from p to the segment [a, b], broadcast over the leading
    axes: project onto the segment's line, clamp to the segment, measure.
    A zero-length segment projects every point onto a."""
    ab = b - a
    return _edge_distances(p, a, ab, np.vecdot(ab, ab))


def _edge_distances(p, a, ab, denom) -> np.ndarray:
    """_segment_distances given the segment's vector ab = b - a and its squared length."""
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


@np.errstate(all="ignore")
def _hull_distances(points: np.ndarray, hull: Hull) -> np.ndarray:
    """Distance from each row of a (k, d) array to a hull, 0 inside."""
    verts = hull.vertices
    if hull.dimension == 2:
        return _planar_distances(points[None], verts[None], np.array([len(verts)]))[0]
    if hull.kind != "interval" and hull.dimension != 1:
        raise UnsupportedDimensionError(
            "only interval hulls support dimensions above two"
        )
    return _box_distances(points, verts.min(axis=0), verts.max(axis=0))


def _planar_distances(points: np.ndarray, verts: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Distance from each point of a (B, m, 2) stack to its item's hull,
    given as (B, K, 2) vertices and (B,) counts as hull_stack gives them;
    0 inside.

    A hull of at most two vertices is the segment from its first vertex to
    its last.  In a polygon every point is scored against every edge at
    once (the one into the padding is the closing edge): a point is inside
    when it lies left of (or on) every edge, else its distance is the
    nearest edge's."""
    seg = count <= 2
    if not seg.any():
        return _polygon_distances(points, verts, count)
    out, poly = np.empty(points.shape[:2]), ~seg
    v, c = verts[seg], count[seg]
    last = v[np.arange(len(c)), c - 1]
    out[seg] = _segment_distances(points[seg], v[:, None, 0], last[:, None])
    if poly.any():
        out[poly] = _polygon_distances(points[poly], verts[poly], count[poly])
    return out


def _polygon_distances(points, verts, count=None) -> np.ndarray:
    """_planar_distances of polygons; count None: no padding.  Only the points outside
    are measured, with their item's edge vectors and squared lengths, found once per item."""
    ab = np.concatenate((verts[:, 1:], verts[:, :1]), axis=1) - verts
    ap = points[:, :, None, :] - verts[:, None]
    inside = ab[:, None, :, 0] * ap[..., 1] - ab[:, None, :, 1] * ap[..., 0] >= 0.0
    padded = count is not None and (count < verts.shape[1]).any()
    if padded:  # the edges past each count take no part
        edges = np.arange(verts.shape[1]) < count[:, None]
        inside |= ~edges[:, None]
    out = np.zeros(points.shape[:2])
    item, point = np.nonzero(~inside.all(axis=2))
    if len(item):  # none, usually, for a new hull inside its predecessor
        sq = np.vecdot(ab, ab)
        edge = _edge_distances(points[item, point, None], verts[item], ab[item], sq[item])
        if padded:
            edge = np.where(edges[item], edge, np.inf)
        out[item, point] = edge.min(axis=1)
    return out


def _box_distances(points, lo, hi) -> np.ndarray:
    """Distance from points to the box [lo, hi], broadcast over the leading
    axes."""
    return _norms(_interval_distances(points, lo, hi))


def _norms(t: np.ndarray) -> np.ndarray:
    """Lengths of the rows of per-coordinate distances t: in d = 1 the
    distance itself, with its sign of zero and its overflow."""
    return t[..., 0] if t.shape[-1] == 1 else np.sqrt(np.vecdot(t, t))


def _farthest(src: Hull, dst: Hull) -> tuple[int, float]:
    """Index and distance of the src vertex farthest from dst (the first
    one on ties)."""
    dists = _hull_distances(src.vertices, dst)
    worst = int(dists.argmax())
    return worst, float(dists[worst])


def point_to_hull_distance(point, hull: Hull) -> float:
    """Euclidean distance from a point to a hull, 0 inside."""
    p = np.asarray(point, dtype=float).reshape(1, -1)
    if p.shape[1] != hull.dimension:
        raise DimensionMismatchError(
            f"point is {p.shape[1]}-dimensional, hull is {hull.dimension}"
        )
    return float(_hull_distances(p, hull)[0])


def inclusion_excess(inner: Hull, outer: Hull) -> tuple[float, np.ndarray]:
    """How far the inner hull pokes out of the outer one.

    Returns the largest vertex-to-outer distance together with the offending
    vertex; (0.0, vertex) certifies inclusion for convex regions because the
    maximum over a polytope of a convex function sits at a vertex.
    """
    return hull_step(inner, outer)[:2]


def hausdorff(a: Hull, b: Hull) -> float:
    """Hausdorff distance between two hulls.

    Symmetric two-sided form; each directed part is a maximum of a convex
    function over a polytope, hence attained at a vertex, so scanning
    vertices is exact.  For nested hulls the inner-to-outer part vanishes
    and the distance reduces to the maximal outer-vertex distance to the
    inner hull.
    """
    return hull_step(a, b)[2]


def hull_step(new: Hull, prev: Hull) -> tuple[float, np.ndarray, float]:
    """One hull transition: (inclusion excess of new in prev, the new vertex
    attaining it, Hausdorff gap between the two).  The new-to-prev
    distances are scored once and serve both."""
    if new.dimension != prev.dimension:
        raise DimensionMismatchError("hulls live in different dimensions")
    worst, excess = _farthest(new, prev)
    gap = max(excess, _farthest(prev, new)[1])
    return excess, new.vertices[worst].copy(), gap


def hull_step_stack(
    new: np.ndarray, prev: np.ndarray, spec: CoordinateMapSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """hull_step(build_hull(new[i], spec), build_hull(prev[i], spec)) for
    each item of two (B, n, d) stacks of profiles: the excesses, vertices
    and gaps as arrays of shapes (B,), (B, d) and (B,), equal to the
    one-item results.

    In d = 1, and for interval hulls above the plane, both hulls are boxes
    and every item is scored at once in O(d) from its corners lo and hi,
    with the arithmetic of the one-item kernel.  Planar hulls are built
    with hull_stack and scored with _planar_steps.  The first item whose
    one-item step raises is reported as StackError.  A box step raises only
    where a Profile of it does, so a box item is flagged when a span of its
    box is not finite (a NaN or infinite coordinate makes one so, or a
    finite one overflows, which its one-item step survives), and of a
    flagged box item only the Profiles are built.  Floating-point warnings
    are silenced."""
    d = new.shape[-1]
    boxes = _boxes(spec, d)
    with np.errstate(all="ignore"):
        if not (new.shape[1] and prev.shape[1] and d and (boxes or d == 2)):
            # no hull can be built: every item's one-item step raises
            steps, flags = (np.zeros(0), np.zeros((0, d)), np.zeros(0)), np.ones(len(new), dtype=bool)
        elif boxes:
            (lo, hi), (plo, phi) = _box_bounds(new), _box_bounds(prev)
            flags = ~np.isfinite((hi - lo) + (phi - plo)).all(axis=1)
            steps = _box_steps(lo, hi, plo, phi)
        else:
            (nv, nc), (pv, pc) = hull_stack(new, spec), hull_stack(prev, spec)
            steps, flags = _planar_steps(nv, nc, pv, pc), _hull_flags(new, nv, nc) | _hull_flags(prev, pv, pc)
        # a box's probe builds Profiles; the hull_step of two hulls of one shape cannot raise
        probe = Profile if boxes else (lambda x: build_hull(Profile(x), spec))
        first_failure(flags, lambda i: (probe(new[i]), probe(prev[i])), lambda i: tuple(a[:i] for a in steps))
    return steps


def _hull_flags(stack: np.ndarray, verts: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Flags the items of a stack, with their hulls as hull_stack gives
    them, on which build_hull may raise: a bad profile, a direction hull
    without a corner and one whose corners overflow."""
    return invalid_profiles(stack) | (count == 0) | ~np.isfinite(verts).all(axis=(1, 2))


def _boxes(spec: CoordinateMapSpec, d: int) -> bool:
    """Whether hulls under spec in dimension d are boxes, kept as their two
    corners and scored in O(d) (the plane's boxes are planar hulls)."""
    return (spec.kind == "identity" and d == 1) or (spec.kind == "interval" and d != 2)


STEP_PAIRS = 2**12  # (vertex, edge) pairs scored at once: bounds the kernel's arrays


def _planar_steps(nv, nc, pv, pc):
    """hull_step for each item of two planar hull stacks, new (nv, nc) and
    old (pv, pc), as hull_stack gives them, each at its own padded width:
    bit for bit the scan over every vertex, scoring only the vertices the
    two hulls of an item do not share.  A vertex equal to one of the other
    hull's (as a complex number: -0.0 equals 0.0) measures exactly 0.0 from
    the edge that starts there, and no edge measures NaN while edge vectors
    are finite: so it enters as 0.0 between polygons within 2^1022.  An
    item with a segment (whose far end need not measure 0) or larger
    coordinates is scored whole."""
    hulls = (nv, nc), (pv, pc)
    real = [np.arange(v.shape[1]) < c[:, None] for v, c in hulls]
    plain = [(c > 2) & (np.abs(v).max(axis=(1, 2)) <= 2.0**1022) for v, c in hulls]
    fresh = [r & ~(plain[0] & plain[1])[:, None] for r in real]
    zn, zp = nv.view(np.complex128)[..., 0], pv.view(np.complex128)[..., 0]
    size = max(1, STEP_PAIRS // (nv.shape[1] * pv.shape[1]))
    for i in range(0, len(nc), size):  # padding repeats a hull's own vertices
        j = slice(i, i + size)
        same = zn[j, :, None] == zp[j, None]
        fresh[0][j] |= real[0][j] & ~same.any(axis=2)
        fresh[1][j] |= real[1][j] & ~same.any(axis=1)
    # fwd: the new vertices against the old hulls, back: the old against the new; 0.0 where
    # shared, -1.0 (never the farthest) in the padding
    fwd, back = scores = [np.where(r, 0.0, -1.0) for r in real]
    for score, f, (v, _), (dv, dc) in zip(scores, fresh, hulls, hulls[::-1]):
        item, k = np.nonzero(f)  # scored as (item, vertex) pairs, STEP_PAIRS edges at a time
        size = max(1, STEP_PAIRS // dv.shape[1])
        for i in range(0, len(k), size):
            h, j = item[i : i + size], k[i : i + size]
            score[h, j] = _planar_distances(v[h, j, None], dv[h], dc[h])[:, 0]
    item, worst = np.arange(len(nc)), fwd.argmax(axis=1)
    excess, back = fwd[item, worst], back.max(axis=1)
    # max(excess, back), keeping the first of equal values
    return excess, nv[item, worst], np.where(back > excess, back, excess)


@np.errstate(all="ignore")
def consecutive_steps(stack: np.ndarray, spec: CoordinateMapSpec):
    """hull_step(hull of stack[t], hull of stack[t - 1]) for t = 1..T of a
    (T + 1, n, d) stack of profiles, each hull built once: the excesses,
    vertices and gaps as arrays of shapes (T,), (T, d) and (T,), and the
    hulls as hull_stack gives them, whose vertices give each hull_diameter
    through profile_diameters.  The first profile whose build_hull raises
    is StackError, with the steps into the profiles before it and their
    hulls in head.  Floating-point warnings are silenced."""
    verts, count = hull_stack(stack, spec)
    if _boxes(spec, stack.shape[-1]):
        lo, hi = verts[:, 0], verts[:, 1]
        steps = _box_steps(lo[1:], hi[1:], lo[:-1], hi[:-1])
    else:
        steps = _planar_steps(verts[1:], count[1:], verts[:-1], count[:-1])
    first_failure(_hull_flags(stack, verts, count), lambda i: build_hull(Profile(stack[i]), spec),
                  lambda i: (tuple(a[: max(i - 1, 0)] for a in steps), (verts[:i], count[:i])))
    return steps, (verts, count)


def _box_bounds(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-item lower and upper corners of the box hull.  Where the two
    bounds compare equal the hull keeps one vertex, the first one built."""
    lo, hi = stack.min(axis=1), stack.max(axis=1)
    return lo, np.where(hi == lo, lo, hi)


def _box_steps(lo, hi, plo, phi):
    """hull_step between the boxes [lo, hi] and [plo, phi] of _box_bounds,
    per item, in O(d) coordinates: bit for bit the scan over the corners
    of [lo, hi] in itertools.product order that build_hull lists.

    Each end of each box is measured against the other box coordinate by
    coordinate.  Rounding is monotone, so the corner made of the ends
    farther from the other box attains the largest distance; of the
    corners whose distances round to that value, the first in product
    order takes the low end of each coordinate, in order, wherever the
    largest distance survives it."""
    d = lo.shape[-1]
    t = _interval_distances(*(np.concatenate(a, axis=1) for a in (
        (lo, hi, plo, phi), (plo, plo, lo, lo), (phi, phi, hi, hi))))
    low, high, back_low, back_high = t[:, :d], t[:, d : 2 * d], t[:, 2 * d : 3 * d], t[:, 3 * d :]
    up = high > low  # the far end, the first of equal values
    far = np.where(up, high, low)
    excess = _norms(far)
    for k in range(d) if d > 1 else ():  # in d = 1 the low end never survives
        trial = far.copy()
        trial[:, k] = low[:, k]
        down = up[:, k] & (_norms(trial) == excess)
        far[down, k], up[down, k] = low[down, k], False
    back = _norms(np.where(back_high > back_low, back_high, back_low))
    # max(excess, back), keeping the first of equal values
    return excess, np.where(up, hi, lo), np.where(back > excess, back, excess)


def hull_diameter(hull: Hull) -> float:
    return float(_pairwise_diameter(hull.vertices))


@np.errstate(all="ignore")
def profile_hull_diameter(profile: Profile, spec: CoordinateMapSpec) -> float:
    """hull_diameter(build_hull(profile, spec)); a box's from its corners
    lo and hi alone, as the diameter of that pair."""
    if not _boxes(spec, profile.d):
        return hull_diameter(build_hull(profile, spec))
    x = profile.coords
    return float(np.sqrt(((x.max(axis=0) - x.min(axis=0)) ** 2).sum()))
