"""The padded planar hull builder and step kernel against the one-item
routines they replaced, kept here as the reference: `monotone_chain`,
`build_hull` and `hull_step` as they were when planar hulls were built and
scored one profile at a time.  Results are compared as bytes."""
import contextlib
import dataclasses
import itertools
import json
import math

import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from consdyn import geometry, rendezvous
from consdyn.geometry import (
    COLLINEAR_TOL,
    FILTER_POINTS,
    GeometryError,
    Profile,
    StackError,
    axis_direction_spec,
    build_hull,
    consecutive_steps,
    direction_spec,
    hull_diameter,
    hull_step,
    hull_step_stack,
    identity_spec,
    interval_spec,
    monotone_chain,
    planar_hulls,
    profile_hull_diameter,
)
from consdyn.rendezvous import run_protocol
from consdyn.simulate import BLOCK_LAST, run, single
from consdyn.maps import midpoint_map

# ---------------------------------------------------------------------------
# the one-item reference


def _ref_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _ref_segment_distances(p, a, b):
    ab = b - a
    denom = np.vecdot(ab, ab)
    s = np.vecdot(p - a, ab) / np.where(denom == 0.0, np.inf, denom)
    s = np.where(s > 0.0, np.where(s < 1.0, s, 1.0), 0.0)
    off = p - (a + s[..., None] * ab)
    return np.sqrt(np.vecdot(off, off))


def ref_monotone_chain(points):
    pts = np.asarray(points, dtype=float)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    fresh = np.ones(len(pts), dtype=bool)
    fresh[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[fresh]
    if pts.shape[0] == 1:
        return pts

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and _ref_cross(chain[-2], chain[-1], p) <= 0.0:
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
        flat = _ref_segment_distances(verts, prev, succ) <= COLLINEAR_TOL * base
        if not flat.any():
            break
        hull.pop(int(flat.argmax()))
    return np.array(hull)


def _ref_dedup_rows(rows):
    kept = []
    for r in rows:
        if not any(np.array_equal(r, k) for k in kept):
            kept.append(np.asarray(r, dtype=float))
    return np.array(kept)


def _ref_direction_vertices(pts, dirs):
    support = (pts @ dirs.T).max(axis=0)
    scale = max(1.0, float(np.abs(support).max()))
    feas_tol = 1e-9 * scale
    cand = []
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
    return ref_monotone_chain(np.array(cand))


def ref_build_hull(pts, spec):
    """The vertices build_hull gave, for an (n, d) array."""
    d = pts.shape[1]
    if spec.kind == "identity":
        if d == 1:
            lo, hi = float(pts.min()), float(pts.max())
            return np.array([[lo]]) if lo == hi else np.array([[lo], [hi]])
        return ref_monotone_chain(pts)
    if spec.kind == "interval":
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        if d == 1:
            rows = [[lo[0]], [hi[0]]]
        elif d == 2:
            rows = [[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]]
        else:
            rows = [list(c) for c in itertools.product(*zip(lo, hi))]
        return _ref_dedup_rows(rows)
    return _ref_direction_vertices(pts, np.asarray(spec.directions, dtype=float))


def _ref_hull_distances(points, verts):
    if verts.shape[1] == 1:
        lo, hi = float(verts.min()), float(verts.max())
        out = lo - points[:, 0]
        above = points[:, 0] - hi
        out = np.where(above > out, above, out)
        return np.where(0.0 > out, 0.0, out)
    if verts.shape[1] == 2:
        k = verts.shape[0]
        if k <= 2:
            return _ref_segment_distances(points, verts[0], verts[-1])
        succ = np.concatenate((verts[1:], verts[:1]))
        ab = succ - verts
        p = points[:, None, :]
        ap = p - verts
        cross = ab[..., 0] * ap[..., 1] - ab[..., 1] * ap[..., 0]
        inside = (cross >= 0.0).all(axis=1)
        if inside.all():
            return np.zeros(len(points))
        edge = _ref_segment_distances(p, verts, succ).min(axis=1)
        return np.where(inside, 0.0, edge)
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    off = np.clip(points, lo, hi) - points
    return np.sqrt(np.vecdot(off, off))


def _ref_farthest(src, dst):
    dists = _ref_hull_distances(src, dst)
    worst = int(dists.argmax())
    return worst, float(dists[worst])


def ref_hull_step(new, prev):
    worst, excess = _ref_farthest(new, prev)
    gap = max(excess, _ref_farthest(prev, new)[1])
    return excess, new[worst].copy(), gap


# ---------------------------------------------------------------------------
# inputs: mixed hull sizes in one stack

OCTAGON = direction_spec(
    [(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)) for k in range(8)]
)
HEXAGON = direction_spec(
    [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
)
PLANAR_SPECS = (identity_spec(), interval_spec(), axis_direction_spec(), OCTAGON, HEXAGON)
SHAPES = ("free", "grid", "duplicates", "collinear", "near_collinear", "point", "segment")


@st.composite
def planar_items(draw, n: int) -> np.ndarray:
    """One (n, 2) profile of a drawn shape: free or on a small grid (exact
    ties, collinear triples, +-0.0), with repeated rows, on a line or within
    a few collinearity tolerances of it, one point, or two."""
    shape = draw(st.sampled_from(SHAPES))
    coord = st.floats(-50, 50, allow_nan=False, width=64)
    if shape == "grid":
        pts = np.array(draw(st.lists(st.tuples(*[st.sampled_from((-1.0, -0.0, 0.0, 1.0, 2.0))] * 2),
                                     min_size=n, max_size=n)))
    elif shape in ("collinear", "near_collinear"):
        a = np.array(draw(st.tuples(coord, coord)))
        b = np.array(draw(st.tuples(coord, coord)))
        ts = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
        pts = a + ts[:, None] * (b - a)
        if shape == "near_collinear":
            wiggle = draw(st.lists(st.sampled_from((-4.0, -1.0, -0.25, 0.25, 1.0, 4.0)),
                                   min_size=n, max_size=n))
            pts = pts + COLLINEAR_TOL * np.array(wiggle)[:, None] * np.array([a[1] - b[1], b[0] - a[0]])
    else:
        pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
        if shape == "duplicates":
            picks = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
            pts = pts[picks]
        elif shape == "point":
            pts = np.repeat(pts[:1], n, axis=0)
        elif shape == "segment":
            pts = pts[[draw(st.sampled_from((0, min(1, n - 1)))) for _ in range(n)]]
    return pts


@st.composite
def planar_stacks(draw, max_items: int = 6) -> np.ndarray:
    n = draw(st.integers(1, 9))
    return np.array([draw(planar_items(n)) for _ in range(draw(st.integers(1, max_items)))])


# ---------------------------------------------------------------------------
# the builder


@settings(max_examples=300)
@given(planar_stacks(), st.data())
def test_planar_hulls_match_the_one_item_chain(stack, data):
    masked = data.draw(st.booleans())
    valid = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=stack.shape[1],
                                                 max_size=stack.shape[1]),
                                        min_size=len(stack), max_size=len(stack))))
    verts, count = planar_hulls(stack, valid if masked else None)
    assert verts.shape == (len(stack), max(1, count.max()), 2)
    for i, pts in enumerate(stack):
        pts = pts[valid[i]] if masked else pts
        if not len(pts):
            assert count[i] == 0
            continue
        ref = ref_monotone_chain(pts)
        assert verts[i, : count[i]].tobytes() == ref.tobytes()
        assert (verts[i, count[i]:] == verts[i, 0]).all()  # padded with the first vertex
        if not masked:
            assert monotone_chain(pts).tobytes() == ref.tobytes()


@settings(max_examples=200)
@given(st.data())
def test_build_hull_matches_the_reference(data):
    d = data.draw(st.sampled_from((1, 2, 2, 2, 3)))
    if d == 2:
        spec = data.draw(st.sampled_from(PLANAR_SPECS))
        pts = data.draw(planar_items(data.draw(st.integers(1, 9))))
    else:
        spec = data.draw(st.sampled_from((identity_spec(), interval_spec()) if d == 1 else (interval_spec(),)))
        pts = np.array(data.draw(st.lists(st.tuples(*[st.sampled_from((-1.0, -0.0, 0.0, 2.5))] * d),
                                          min_size=1, max_size=6)))
    assert build_hull(Profile(pts), spec).vertices.tobytes() == ref_build_hull(pts, spec).tobytes()


# ---------------------------------------------------------------------------
# the extreme-point filter: items of FILTER_POINTS points or more

OCTAGON_SHAPES = ("disk", "near_collinear", "margin", "grid", "point", "line", "cluster")
# unit scale, near the ends of the filter's range and beyond, subnormal, near overflow
OCTAGON_SCALES = (1.0, 1e-5, 1e4, 2.0**-500, 2.0**500, 2.0**-400, 2.0**399, 5e-324, 1e308)


@st.composite
def octagon_items(draw) -> np.ndarray:
    """One (n, 2) profile with n >= FILTER_POINTS, built by numpy from drawn
    choices: a disk; a square whose sides hold points within a few
    collinearity tolerances or ulps of straight; interior points at and
    just beyond the filter's margin; a small grid (exact ties, collinear
    triples, +-0.0); one point repeated; a line; a cluster of points a few
    ulps apart inside a disk.  Then scaled, and optionally with repeated
    rows and zeros of flipped sign."""
    n = draw(st.integers(FILTER_POINTS, FILTER_POINTS + 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(OCTAGON_SHAPES))
    if shape == "disk":
        r, t = np.sqrt(rng.uniform(0, 1, n)), rng.uniform(0, 2 * np.pi, n)
        pts = np.stack((r * np.cos(t), r * np.sin(t)), axis=1)
    elif shape == "near_collinear":
        u = rng.uniform(-1, 1, n)
        side = rng.integers(4, size=n)
        pts = np.where(side[:, None] < 2, np.stack((u, np.where(side == 0, -1.0, 1.0)), axis=1),
                       np.stack((np.where(side == 2, -1.0, 1.0), u), axis=1))
        pts += rng.choice((0.0, 1e-16, -1e-16, COLLINEAR_TOL, -4 * COLLINEAR_TOL), size=pts.shape)
        inner = rng.uniform(size=n) < 0.5
        pts[inner] = rng.uniform(-0.99, 0.99, size=(inner.sum(), 2))
    elif shape == "margin":  # the filter's margin is about 2.83e-9 along the diagonal edges
        corners = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        k, t = rng.integers(4, size=n), rng.uniform(0, 1, n)
        a, b = corners[k], corners[(k + 1) % 4]
        depth = rng.choice((0.0, 1e-9, 2.8e-9, 2.9e-9, 4e-9, 1e-6), size=n) / math.sqrt(2)
        pts = a + t[:, None] * (b - a) + depth[:, None] * (b - a) @ [[0.0, 1.0], [-1.0, 0.0]]
        pts[:4] = corners
    elif shape == "grid":
        pts = rng.choice((-1.0, -0.0, 0.0, 1.0, 2.0), size=(n, 2))
    elif shape == "point":
        pts = np.repeat(rng.uniform(-1, 1, (1, 2)), n, axis=0)
    elif shape == "line":
        pts = rng.uniform(-1, 1, (n, 1)) * rng.normal(size=2) + rng.choice((0.0, 1e-16), size=(n, 1))
    else:
        r, t = np.sqrt(rng.uniform(0, 1, n)), rng.uniform(0, 2 * np.pi, n)
        pts = np.stack((r * np.cos(t), r * np.sin(t)), axis=1)
        pts[: n // 2] = pts[0] + rng.integers(-3, 4, size=(n // 2, 2)) * np.spacing(pts[0])
    with np.errstate(all="ignore"):
        pts = pts * draw(st.sampled_from(OCTAGON_SCALES))
    if draw(st.booleans()):
        pts = pts[rng.integers(n, size=n)]
    if draw(st.booleans()):
        pts = np.where(pts == 0.0, rng.choice((0.0, -0.0), size=pts.shape), pts)
    return pts


def _same_hulls(stack, valid, got):
    verts, count = got
    for i, pts in enumerate(stack):
        pts = pts if valid is None else pts[valid[i]]
        if not len(pts):
            assert count[i] == 0
            continue
        with np.errstate(all="ignore"):
            ref = ref_monotone_chain(pts)
        assert verts[i, : count[i]].tobytes() == ref.tobytes()
        assert (verts[i, count[i]:] == verts[i, 0]).all()


@settings(max_examples=150)
@given(st.lists(octagon_items(), min_size=1, max_size=3), st.data())
def test_filtered_hulls_match_the_chain_on_all_points(items, data):
    n = min(len(x) for x in items)
    stack = np.array([x[:n] for x in items])
    with np.errstate(all="ignore"):
        _same_hulls(stack, None, planar_hulls(stack))
        assert monotone_chain(stack[0]).tobytes() == ref_monotone_chain(stack[0]).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_filtered_hulls_keep_zero_and_one_valid_points(seed):
    rng = np.random.default_rng(seed)
    stack = rng.uniform(-1, 1, (5, FILTER_POINTS + 7, 2))
    valid = rng.uniform(size=stack.shape[:2]) < 0.7
    valid[1] = False  # no valid point
    valid[2] = np.arange(stack.shape[1]) == 3  # one
    stack[3, ~valid[3]] = np.inf  # junk where invalid, a filtered item all the same
    _same_hulls(stack, valid, planar_hulls(stack, valid))


def test_the_filter_drops_interior_points_only_where_it_may():
    rng = np.random.default_rng(3)
    disk = rng.uniform(-1, 1, (FILTER_POINTS, 2))
    disk = disk[np.vecdot(disk, disk) <= 1.0]
    stack = np.array([
        disk[: FILTER_POINTS // 2],
        np.ones((FILTER_POINTS // 2, 2)),  # no nonzero octagon edge
        disk[: FILTER_POINTS // 2] * 1e308,  # the chain's cross products overflow
        disk[: FILTER_POINTS // 2] * 2.0**-450,  # ... or underflow
        np.where(disk[: FILTER_POINTS // 2] > 0.5, np.nan, disk[: FILTER_POINTS // 2]),
        np.where(disk[: FILTER_POINTS // 2] > 0.5, -np.inf, disk[: FILTER_POINTS // 2]),
        np.concatenate(([[5e-324, 1e-323]], np.abs(disk[1 : FILTER_POINTS // 2]))),  # subnormal
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inner = geometry._octagon_interior(stack)
    assert inner[0].sum() > FILTER_POINTS // 4
    assert not inner[1:].any()
    # the corners themselves, and points within the margin of an edge, stay
    ring = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.5, 0.5 - 1e-9], [0.5, 0.4]])
    assert geometry._octagon_interior(ring[None])[0].tolist() == [False] * 5 + [True]


def test_a_subnormal_corner_keeps_every_point():
    # the chain's products underflow at the corner; which of its points the
    # chain keeps there depends on which interior points it sees
    pts = np.array([
        [0.5576949096397291, 0.7834868284685759], [5e-324, 1e-323],
        [0.6556356285790331, 0.5843622866159102], [2e-323, 2e-323],
        [0.3681109379301737, 0.6509848098476597], [0.625816871515439, 0.6443148947631332],
        [0.7234013790965371, 0.6285908346821522], [0.6618014106337259, 0.5741530404222528],
        [1.5e-323, 2e-323], [0.320405770593186, 0.3592654758758662],
        [0.07097623692734889, 0.3184093367182702],
    ])
    stack = np.concatenate((pts, np.zeros((FILTER_POINTS, 2))))[None]
    valid = np.arange(stack.shape[1])[None] < len(pts)
    _same_hulls(stack, valid, planar_hulls(stack, valid))


def test_the_filter_is_off_below_its_threshold(monkeypatch):
    def fail(*args):
        raise AssertionError("filter ran")

    monkeypatch.setattr(geometry, "_octagon_interior", fail)
    stack = np.random.default_rng(0).uniform(-1, 1, (3, FILTER_POINTS - 1, 2))
    _same_hulls(stack, None, planar_hulls(stack))


# ---------------------------------------------------------------------------
# the lockstep chain, which builds blocks of LOCKSTEP_ITEMS items or more:
# stacks of hundreds of items, drawn with numpy

HUGE = np.array([[-1e308, 0.0], [1e308, 1e308], [0.0, -1e308], [1e308, -1e308]])  # products overflow


def _lockstep_item(rng, n: int) -> np.ndarray:
    """One (n, 2) item of a shape of planar_items, or with NaN rows, or of
    points at +-1e308 (HUGE[:3] is SILENT_CALLS' 4-vertex chain)."""
    shape = rng.choice(SHAPES + ("nan", "huge"))
    pts = rng.uniform(-50, 50, (n, 2))
    if shape == "grid":
        pts = rng.choice((-1.0, -0.0, 0.0, 1.0, 2.0), (n, 2))
    elif shape in ("collinear", "near_collinear"):
        a, b = rng.uniform(-50, 50, (2, 2))
        pts = a + rng.uniform(-2.0, 2.0, (n, 1)) * (b - a)
        if shape == "near_collinear":
            wiggle = rng.choice((-4.0, -1.0, -0.25, 0.25, 1.0, 4.0), (n, 1))
            pts = pts + COLLINEAR_TOL * wiggle * np.array([a[1] - b[1], b[0] - a[0]])
    elif shape == "duplicates":
        pts = pts[rng.integers(0, n, n)]
    elif shape == "segment":
        pts = pts[rng.integers(0, min(2, n), n)]
    elif shape == "point":
        pts = np.repeat(pts[:1], n, axis=0)
    elif shape == "nan":
        pts[rng.uniform(size=(n, 2)) < 0.3] = np.nan
    elif shape == "huge":
        pts = HUGE[:3][np.arange(n) % 3] if rng.uniform() < 0.5 else HUGE[rng.integers(0, 4, n)]
    return pts


def _lockstep_stack(rng, b: int, n: int, masked: bool):
    stack = np.array([_lockstep_item(rng, n) for _ in range(b)])
    if not masked:
        return stack, None
    valid = rng.uniform(size=(b, n)) < 0.7
    valid[rng.uniform(size=b) < 0.1] = False  # no valid point
    one = rng.uniform(size=b) < 0.1
    valid[one] = np.arange(n) == rng.integers(0, n, (one.sum(), 1))  # one valid point
    return stack, valid


def _same_padded_hulls(stack, valid, got):
    """Each item's vertices are ref_monotone_chain's, byte for byte, then
    copies of its first one; zeros for an item without a valid point."""
    verts, count = got
    assert verts.shape == (len(stack), max(1, count.max()), 2)
    for i, pts in enumerate(stack):
        pts = pts if valid is None else pts[valid[i]]
        if not len(pts):
            assert count[i] == 0 and not verts[i].any()
            continue
        with np.errstate(all="ignore"):
            ref = ref_monotone_chain(pts)
        assert verts[i, : count[i]].tobytes() == ref.tobytes()
        assert verts[i, count[i]:].tobytes() == np.repeat(ref[:1], len(verts[i]) - count[i], axis=0).tobytes()


@contextlib.contextmanager
def _lockstep_blocks(points: int):
    """Sets HULL_POINTS and records the item count of each block the
    lockstep chain builds."""
    blocks, lockstep = [], geometry._lockstep_chain

    def record(rows, kept):
        blocks.append(len(kept))
        return lockstep(rows, kept)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "HULL_POINTS", points)
        mp.setattr(geometry, "_lockstep_chain", record)
        yield blocks


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), extra=st.integers(1, 2 * geometry.LOCKSTEP_ITEMS), masked=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_lockstep_hulls_match_the_one_item_chain(n, extra, masked, seed):
    rng = np.random.default_rng(seed)
    b = geometry.LOCKSTEP_ITEMS + extra
    stack, valid = _lockstep_stack(rng, b, n, masked)
    # two blocks or more, of at least LOCKSTEP_ITEMS items; the last may be shorter and go item by item
    per_block = geometry.LOCKSTEP_ITEMS + int(rng.integers(0, extra))
    with _lockstep_blocks(n * per_block) as blocks:
        got = planar_hulls(stack, valid)
    sizes = [min(per_block, b - i) for i in range(0, b, per_block)]
    assert len(sizes) > 1 and blocks == [size for size in sizes if size >= geometry.LOCKSTEP_ITEMS]
    _same_padded_hulls(stack, valid, got)


@pytest.mark.parametrize("masked", (False, True))
def test_lockstep_hulls_span_two_blocks_at_the_real_block_size(masked):
    n = 48
    b = geometry.HULL_POINTS // n + geometry.LOCKSTEP_ITEMS + 5  # a lockstep block, then another
    stack, valid = _lockstep_stack(np.random.default_rng(11 + masked), b, n, masked)
    _same_padded_hulls(stack, valid, planar_hulls(stack, valid))


# ---------------------------------------------------------------------------
# the distance kernel, against its all-pairs form: every point scored
# against every edge of its item, kept here as the reference


def _ref_polygon_distances(points, verts, count=None):
    succ = np.concatenate((verts[:, 1:], verts[:, :1]), axis=1)
    ab = (succ - verts)[:, None]
    p = points[:, :, None, :]
    ap = p - verts[:, None]
    inside = ab[..., 0] * ap[..., 1] - ab[..., 1] * ap[..., 0] >= 0.0
    padded = count is not None and (count < verts.shape[1]).any()
    if padded:
        edges = np.arange(verts.shape[1]) < count[:, None, None]
        inside |= ~edges
    inside = inside.all(axis=2)
    if inside.all():
        return np.zeros(inside.shape)
    edge = _ref_segment_distances(p, verts[:, None], succ[:, None])
    if padded:
        edge = np.where(edges, edge, np.inf)
    return np.where(inside, 0.0, edge.min(axis=2))


def _ref_planar_distances(points, verts, count):
    seg = count <= 2
    if not seg.any():
        return _ref_polygon_distances(points, verts, count)
    out, poly = np.empty(points.shape[:2]), ~seg
    v, c = verts[seg], count[seg]
    last = v[np.arange(len(c)), c - 1]
    out[seg] = _ref_segment_distances(points[seg], v[:, None, 0], last[:, None])
    if poly.any():
        out[poly] = _ref_polygon_distances(points[poly], verts[poly], count[poly])
    return out


# where a query point sits relative to its item's hull
_QUERIES = {
    "inside": ("vertex", "edge", "interior"),
    "outside": ("beyond", "far"),
    "mixed": ("vertex", "edge", "interior", "beyond", "far"),
}


def _query_points(data, verts, count, m):
    """(B, m, 2) query points: vertices and points on edges (the boundary,
    up to rounding), points between the centroid and a vertex (inside),
    points past a vertex seen from the centroid and points moved far off
    (outside).  Each item takes only inside, only outside or mixed ones."""
    out = np.empty((len(count), m, 2))
    for i, c in enumerate(count.tolist()):
        v = verts[i, :c]
        center = v.mean(axis=0)
        kinds = _QUERIES[data.draw(st.sampled_from(sorted(_QUERIES)))]
        for j in range(m):
            kind, k = data.draw(st.sampled_from(kinds)), data.draw(st.integers(0, c - 1))
            t = data.draw(st.sampled_from((0.25, 0.5, 0.9)))
            if kind == "vertex":
                out[i, j] = v[k]
            elif kind == "edge":
                out[i, j] = v[k] + t * (v[(k + 1) % c] - v[k])
            elif kind == "interior":
                out[i, j] = center + t * (v[k] - center)
            else:
                shift = data.draw(st.sampled_from(((200.0, 0.0), (0.0, -150.0), (120.0, 130.0))))
                out[i, j] = center + (1.0 + 2.0 * t) * (v[k] - center)
                if kind == "far" or c == 1:
                    out[i, j] += shift
    return out


def _same_distances(points, verts, count):
    got = geometry._planar_distances(points, verts, count)
    assert got.tobytes() == _ref_planar_distances(points, verts, count).tobytes()


@settings(max_examples=200, deadline=None)
@given(planar_stacks(max_items=8), st.data())
def test_planar_distances_match_the_all_pairs_kernel(stack, data):
    spec = data.draw(st.sampled_from(PLANAR_SPECS))
    verts, count = geometry.hull_stack(stack, spec)
    keep = count > 0  # a direction hull may have no corner
    verts, count = verts[keep], count[keep]
    if not len(count):
        return
    points = _query_points(data, verts, count, data.draw(st.integers(1, 9)))
    _same_distances(points, verts, count)  # padded where the counts differ
    junk = verts.copy()  # past its count an item's edges take no part, whatever they hold
    junk[np.arange(verts.shape[1]) >= count[:, None]] = data.draw(st.sampled_from((-90.0, 0.5, 90.0)))
    _same_distances(points, junk, count)
    poly = count > 2
    _same_distances(points[poly], verts[poly], count[poly])  # polygons only
    for c in np.unique(count).tolist():  # one count: no padding
        same = count == c
        _same_distances(points[same], verts[same, :c], count[same])
        if c > 2:
            got = geometry._polygon_distances(points[same], verts[same, :c], count[same])
            assert got.tobytes() == _ref_polygon_distances(points[same], verts[same, :c]).tobytes()


# ---------------------------------------------------------------------------
# the step kernel


def _ref_steps(news, prevs, spec):
    return [ref_hull_step(ref_build_hull(x, spec), ref_build_hull(p, spec)) for x, p in zip(news, prevs)]


def _same_steps(got, ref):
    excess, vertex, gap = got
    assert len(excess) == len(ref)
    for i, (e, v, g) in enumerate(ref):
        assert excess[i].tobytes() == np.float64(e).tobytes()
        assert vertex[i].tobytes() == v.tobytes()
        assert gap[i].tobytes() == np.float64(g).tobytes()


@settings(max_examples=300)
@given(planar_stacks(), st.data())
def test_hull_step_stack_matches_the_reference(prevs, data):
    spec = data.draw(st.sampled_from(PLANAR_SPECS))
    news = prevs.copy()
    for i in range(len(prevs)):
        how = data.draw(st.sampled_from(("free", "shrunk", "same", "moved")))
        if how == "free":
            news[i] = data.draw(planar_items(prevs.shape[1]))
        elif how == "shrunk":  # inside, often touching
            news[i] = prevs[i, 0] + 0.5 * (prevs[i] - prevs[i, 0])
        elif how == "moved":  # 1 to 3 rows replaced, the others keep their bits: hulls share some vertices
            n = prevs.shape[1]
            for row in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n), unique=True)):
                news[i, row] = data.draw(st.tuples(*[st.floats(-50, 50, allow_nan=False, width=64)] * 2))
    _same_steps(hull_step_stack(news, prevs, spec), _ref_steps(news, prevs, spec))
    for i, (x, p) in enumerate(zip(news, prevs)):
        step = hull_step(build_hull(Profile(x), spec), build_hull(Profile(p), spec))
        _same_steps(tuple(np.array([a]) for a in step), _ref_steps(news[i : i + 1], prevs[i : i + 1], spec))


@settings(max_examples=100)
@given(planar_stacks(max_items=12), st.data())
def test_consecutive_steps_match_the_reference(stack, data):
    spec = data.draw(st.sampled_from(PLANAR_SPECS + (interval_spec(),)))
    (excess, vertex, gap), (verts, count) = consecutive_steps(stack, spec)
    _same_steps((excess, vertex, gap), _ref_steps(stack[1:], stack[:-1], spec))
    for i, pts in enumerate(stack):
        assert verts[i, : count[i]].tobytes() == ref_build_hull(pts, spec).tobytes()


MOVES = ("reached", "tie", "group", "between", "near_line", "inward", "free", "flip")


@st.composite
def moving_stacks(draw) -> np.ndarray:
    """A (T + 1, n, 2) stack whose rows change 1 to 3 at a time, as in a
    rendezvous run: a row moves onto another (a "reached" move), to within
    1e-12 of one (a tie), with the rows within 1e-12 of it (a tie group),
    between two rows, within a few collinearity tolerances of their line
    (where _prune drops it), toward the centroid, anywhere, or to the other
    sign of its zeros.  The first profile is one of planar_items."""
    n = draw(st.integers(2, 10))
    x = draw(planar_items(n))
    stack = [x]
    for _ in range(draw(st.integers(1, 10))):
        x = x.copy()
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n), unique=True)):
            a, b = x[draw(st.integers(0, n - 1))], x[draw(st.integers(0, n - 1))]
            t = draw(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0, 1.5)))
            move = draw(st.sampled_from(MOVES))
            if move == "reached":
                x[i] = a
            elif move == "tie":
                x[i] = a + draw(st.sampled_from((-1e-12, -3e-13, 4e-13, 1e-12))) * np.array(
                    draw(st.sampled_from(((1.0, 0.0), (0.0, 1.0), (0.6, -0.8)))))
            elif move == "group":
                x[np.sqrt(np.vecdot(x - x[i], x - x[i])) <= 1e-12] = a + t * (b - a)
            elif move == "between":
                x[i] = a + t * (b - a)
            elif move == "near_line":
                wiggle = draw(st.sampled_from((-4.0, -1.0, -0.25, 0.25, 1.0, 4.0)))
                x[i] = a + t * (b - a) + COLLINEAR_TOL * wiggle * np.array([a[1] - b[1], b[0] - a[0]])
            elif move == "inward":
                x[i] = x[i] + t * (x.mean(axis=0) - x[i])
            elif move == "free":
                x[i] = draw(st.tuples(*[st.floats(-50, 50, allow_nan=False, width=64)] * 2))
            else:
                x[i] = np.where(x[i] == 0.0, -x[i], x[i])
        stack.append(x)
    return np.array(stack)


@settings(max_examples=300, deadline=None)
@given(moving_stacks(), st.sampled_from(PLANAR_SPECS))
@example(np.array([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]], [[-0.0, 0.5], [1.0, -0.0]]]),
         identity_spec())
@example(np.array([[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
                   [[0.0, 0.0], [1.0, 1.0], [1.5, 1.5], [3.0, 3.0]],
                   [[0.0, 0.0], [1.0, 1.0 + 1e-12], [1.5, 1.5], [3.0, 3.0]]]), identity_spec())
def test_consecutive_steps_on_a_few_moved_rows_match_the_step_loop(stack, spec):
    steps, _ = consecutive_steps(stack, spec)
    _same_steps(steps, _ref_steps(stack[1:], stack[:-1], spec))


def test_consecutive_steps_at_overflowing_scales_match_the_whole_kernel():
    """Coordinates whose edge vectors or cross products overflow: a shared
    vertex may score NaN there, so those steps are scored whole, exactly
    as hull_step_stack scores every step and as the one-item reference
    scores each step."""
    rng = np.random.default_rng(0)
    nan_steps = 0
    for _ in range(200):
        n = int(rng.integers(3, 7))
        stack = np.repeat(rng.uniform(-1.0, 1.0, (1, n, 2)) * rng.choice((1e154, 1e200, 5e307, 1e308, 1.7e308)),
                          5, axis=0)
        for t in range(1, 5):
            stack[t:, rng.integers(n)] *= rng.choice((0.0, 0.5, 0.9, 1.0))
        steps, _ = consecutive_steps(stack, identity_spec())
        whole = hull_step_stack(stack[1:], stack[:-1], identity_spec())
        assert [a.tobytes() for a in steps] == [a.tobytes() for a in whole]
        with np.errstate(all="ignore"):
            _same_steps(steps, _ref_steps(stack[1:], stack[:-1], identity_spec()))
        nan_steps += np.isnan(steps[0]).sum()
    assert nan_steps > 20


def test_a_stack_stops_where_the_item_loop_would():
    line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    bad = np.array([[0.0, 0.0], [np.nan, 0.0], [1.0, 1.0]])
    out = line + [0.0, 5.0]  # outside its predecessor
    # an item over tol does not stop the stack: the failure after it is raised, with it in head
    with pytest.raises(StackError) as info:
        hull_step_stack(np.array([line, out, bad]), np.array([line] * 3), identity_spec())
    assert info.value.index == 2 and info.value.head[0].tolist() == [0.0, 5.0]
    # a failure before it is raised with the items ahead of it
    try:
        hull_step_stack(np.array([line, bad, out]), np.array([line] * 3), identity_spec())
    except StackError as exc:
        assert exc.index == 1 and isinstance(exc.error, GeometryError)
        assert len(exc.head[0]) == 1 and exc.head[0][0] == 0.0
    else:
        raise AssertionError("no StackError")


# a profile without a hull, its spec and the message of its build_hull
HULLESS = {
    "corners-overflow": (OCTAGON, np.array([[1.78, 1.721], [0.664, 0.539], [0.675, -0.398]]) * 1e308,
                         "coordinates must be finite"),
    "no-corner": (OCTAGON, np.array([[-1.591, -1.012], [-1.589, -1.079], [-1.603, -0.969]]) * 1e308,
                  "direction hull has no feasible corner"),
    "nan-agent": (identity_spec(), [[0.0, 0.0], [math.nan, 0.5], [1.0, 1.0]], "coordinates must be finite"),
    "inf-agent": (interval_spec(), [[0.0, 0.0, 0.0], [0.5, math.inf, 0.5], [1.0, 1.0, 1.0]],
                  "coordinates must be finite"),
}


@pytest.mark.parametrize("case", HULLESS)
@pytest.mark.parametrize("k", (1, 2))
def test_consecutive_steps_fail_where_the_item_loop_would(k, case):
    spec, bad, message = HULLESS[case]
    d = len(bad[0])
    good = np.array([[0.0] * d, [1.0] + [0.0] * (d - 1), [0.0] + [1.0] * (d - 1)])
    stack = np.array([good * 4.0, good * 2.0][:k] + [bad, good])
    with pytest.raises(StackError) as info:  # and no RuntimeWarning: the call silences its overflow
        consecutive_steps(stack, spec)
    ref, (ref_verts, ref_count) = consecutive_steps(stack[:k], spec)
    assert info.value.index == k
    assert type(info.value.error) is GeometryError and str(info.value.error) == message
    steps, (verts, count) = info.value.head
    for got, want in zip(steps, ref, strict=True):
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
    assert count.tolist() == ref_count.tolist()
    for i in range(k):  # the head keeps the full stack's padding width
        assert verts[i, : count[i]].tobytes() == ref_verts[i, : count[i]].tobytes()


def _loop_outcome(news, prevs, spec):
    """What hull_step_stack must give: the one-item steps up to the first
    item whose step raises, and that item as (index, error type, message);
    None when no item raises."""
    steps = []
    for i, (x, p) in enumerate(zip(news, prevs)):
        try:
            steps.append(hull_step(build_hull(Profile(x), spec), build_hull(Profile(p), spec)))
        except Exception as exc:
            return steps, (i, type(exc), str(exc))
    return steps, None


def _same_outcome(news, prevs, spec):
    steps, failure = _loop_outcome(news, prevs, spec)
    try:
        got = hull_step_stack(news, prevs, spec)
    except StackError as exc:
        assert failure == (exc.index, type(exc.error), str(exc.error))
        got = exc.head
    else:
        assert failure is None
    excess, vertex, gap = got
    assert len(excess) == len(vertex) == len(gap) == len(steps)
    for i, (e, v, g) in enumerate(steps):
        assert excess[i].tobytes() == np.float64(e).tobytes()
        assert vertex[i].tobytes() == v.tobytes()
        assert gap[i].tobytes() == np.float64(g).tobytes()


BOX_CASES = ((identity_spec(), 1), (interval_spec(), 1), (interval_spec(), 3))


@settings(max_examples=300)
@given(st.data())
def test_box_stacks_fail_where_the_item_loop_would(data):
    spec, d = data.draw(st.sampled_from(BOX_CASES))
    n = data.draw(st.sampled_from((0,) + (1, 2, 3, 4) * 3))
    b = data.draw(st.integers(0, 6))
    coords = st.lists(st.floats(-4.0, 4.0), min_size=b * n * d, max_size=b * n * d)
    news, prevs = (np.array(data.draw(coords)).reshape(b, n, d) for _ in range(2))
    for i in range(b if n else 0):
        how = data.draw(st.sampled_from(("free", "free", "inside", "huge", "bad", "both")))
        if how == "inside":
            news[i] = prevs[i, 0] + 0.5 * (prevs[i] - prevs[i, 0])
        elif how == "huge":  # finite, but the spans overflow
            news[i] *= 4e307
            prevs[i] *= 4e307
        elif how != "free":  # a non-finite coordinate in one stack, or in both
            value = data.draw(st.sampled_from((math.nan, math.inf, -math.inf)))
            stacks = (news, prevs) if how == "both" else (data.draw(st.sampled_from((news, prevs))),)
            for stack in stacks:
                stack[i, data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))] = value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the one-item loop may overflow
        _same_outcome(news, prevs, spec)


def test_box_stacks_report_bad_and_empty_items():
    good = np.array([[0.0], [1.0]])
    inf = np.array([[0.0], [math.inf]])
    for spec, new, prev in (
        (identity_spec(), [[0.0], [math.nan]], good),
        (interval_spec(), [[math.inf], [math.inf]], good),
        (identity_spec(), inf, inf),  # the same infinite box in both stacks
    ):
        with pytest.raises(StackError) as info:
            hull_step_stack(np.array([good, new, good]), np.array([good, prev, good]), spec)
        assert info.value.index == 1 and type(info.value.error) is GeometryError
        assert info.value.head[0].tolist() == [0.0]
    for news, prevs in ((np.zeros((2, 0, 1)), np.zeros((2, 2, 1))), (np.zeros((2, 2, 3)), np.zeros((2, 0, 3)))):
        with pytest.raises(StackError) as info:
            hull_step_stack(news, prevs, interval_spec())
        assert info.value.index == 0 and isinstance(info.value.error, geometry.EmptyProfileError)
        assert len(info.value.head[0]) == 0
    # an item over tol before the bad one does not stop the stack: it is in head
    out = good + 5.0
    with pytest.raises(StackError) as info:
        hull_step_stack(np.array([good, out, [[0.0], [math.nan]]]), np.array([good] * 3), identity_spec())
    assert info.value.index == 2 and info.value.head[0].tolist() == [0.0, 5.0]


# ---------------------------------------------------------------------------
# box steps in O(d) against the scan over the 2^d corners


def _ref_bounds(pts):
    """A profile's box as _box_bounds gives it: where the two ends compare
    equal, the upper one is the lower one."""
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    return lo, np.where(hi == lo, lo, hi)


def _ref_corner_distances(corners, lo, hi):
    """Distances from the rows of a (k, d) array to the box [lo, hi]: in
    d = 1 max(lo - x, x - hi, 0.0), the first of equal values, else the
    length of the offset to the nearest point of the box."""
    if corners.shape[1] == 1:
        out = lo[0] - corners[:, 0]
        above = corners[:, 0] - hi[0]
        out = np.where(above > out, above, out)
        return np.where(0.0 > out, 0.0, out)
    off = np.clip(corners, lo, hi) - corners
    return np.sqrt(np.vecdot(off, off))


def ref_corner_box_step(lo, hi, plo, phi):
    """hull_step between the boxes [lo, hi] and [plo, phi] by scanning
    all 2^d corners of each in itertools.product order (first coordinate
    slowest): the first corner of [lo, hi] farthest from [plo, phi]."""
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    fwd = _ref_corner_distances(corners, plo, phi)
    worst = int(fwd.argmax())
    back = max(_ref_corner_distances(np.array(list(itertools.product(*zip(plo, phi)))), lo, hi).tolist())
    excess = fwd[worst]
    return excess, corners[worst], back if back > excess else excess


# +-0.0 and +-5e-324 round ties; 1e-300 and 1e-160 square to (sub)normals
# that larger squares absorb; 1e154 and 1e200 square near and past overflow
BOX_POOL = (0.0, 5e-324, 1e-300, 1e-160, 1e-9, 40.0, 1e154, 1e200)


def _box_pair_stacks(rng, b, n, d):
    """Two (b, n, d) stacks of profiles: pool values with random signs,
    uniforms at mixed scales, or a mix of both, some items drawn inside or
    equal to their partner."""
    shape = (2, b, n, d)
    pooled = rng.choice(BOX_POOL, size=shape) * rng.choice((-1.0, 1.0), size=shape)
    scaled = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.choice((-300, -160, -9, 0, 1, 154), size=shape)
    news, prevs = np.where(rng.random(shape) < rng.choice((0.0, 0.5, 1.0)), pooled, scaled)
    how = rng.integers(0, 4, size=b)
    news[how == 1] = prevs[how == 1]
    news[how == 2] = prevs[how == 2, :1] + 0.5 * (prevs[how == 2] - prevs[how == 2, :1])
    return news, prevs


def _same_box_steps(got, ref):
    for i, (e, v, g) in enumerate(ref):
        assert got[0][i].tobytes() == np.float64(e).tobytes()
        assert got[1][i].tobytes() == v.tobytes()
        assert got[2][i].tobytes() == np.float64(g).tobytes()


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 8), n=st.integers(1, 3), b=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_box_steps_match_the_corner_scan(d, n, b, seed):
    """Excess, vertex and gap bytes, the vertex also where rounding ties
    a corner nearer in exact arithmetic, as _box_steps gave them when it
    scanned the 2^d corners; and each box's diameter from its two corners
    as from all of them."""
    news, prevs = _box_pair_stacks(np.random.default_rng(seed), b, n, d)
    (lo, hi), (plo, phi) = zip(*map(_ref_bounds, news)), zip(*map(_ref_bounds, prevs))
    with np.errstate(all="ignore"):
        ref = [ref_corner_box_step(*box) for box in zip(lo, hi, plo, phi)]
        _same_box_steps(geometry._box_steps(*map(np.array, (lo, hi, plo, phi))), ref)
        for x in map(Profile, news):
            got = profile_hull_diameter(x, interval_spec())
            assert repr(got) == repr(hull_diameter(build_hull(x, interval_spec())))
        if d != 2:  # the plane's boxes are planar hulls
            _same_box_steps(hull_step_stack(news, prevs, interval_spec()), ref)
            stack = np.concatenate((prevs[:1], news))
            (lo, hi), (plo, phi) = zip(*map(_ref_bounds, stack[1:])), zip(*map(_ref_bounds, stack[:-1]))
            steps, _ = consecutive_steps(stack, interval_spec())
            _same_box_steps(steps, [ref_corner_box_step(*box) for box in zip(lo, hi, plo, phi)])


def _ref_norm(t):
    v = np.array(t)
    return float(np.sqrt(v @ v))


def ref_coordinate_box_step(new, prev):
    """hull_step between the boxes of two profiles, one coordinate at a
    time on Python floats: the end of each coordinate farther from the
    other box, then, coordinate by coordinate, the low end wherever the
    largest distance survives it.  Also whether that walk took a low end
    nearer the other box than the high end."""
    (lo, hi), (plo, phi) = _ref_bounds(new), _ref_bounds(prev)

    def gap(x, a, b):
        out = max(a - x, x - b)
        return out if out >= 0.0 else 0.0

    def farthest(lo, hi, plo, phi):
        low = [gap(x, a, b) for x, a, b in zip(lo.tolist(), plo.tolist(), phi.tolist())]
        high = [gap(x, a, b) for x, a, b in zip(hi.tolist(), plo.tolist(), phi.tolist())]
        far = [h if h > l else l for l, h in zip(low, high)]
        return low, far, _ref_norm(far)

    low, far, excess = farthest(lo, hi, plo, phi)
    vertex, walked = np.where(np.array(far) > np.array(low), hi, lo), False
    for k in range(len(lo)):
        trial = far[:k] + [low[k]] + far[k + 1 :]
        if far[k] > low[k] and _ref_norm(trial) == excess:
            far, vertex[k], walked = trial, lo[k], True
    back = farthest(plo, phi, lo, hi)[2]
    return (excess, vertex, max(excess, back)), walked


def test_box_steps_at_d64_match_the_coordinate_reference():
    """200 items of 3 agents at d = 64, through hull_step_stack and
    consecutive_steps, with coordinates at scales 1e-9 to 10 so that
    larger squares absorb some smaller ones; and a run's diameters, taken
    from the boxes' two corners."""
    rng = np.random.default_rng(64)
    stack = rng.uniform(-1.0, 1.0, size=(201, 3, 64)) * 10.0 ** rng.choice((-9, -5, 0, 1), size=(201, 1, 64))
    stack[1::2] = stack[:-1:2] + 0.4 * (stack[1::2] - stack[:-1:2])  # every other item nearly inside
    ref, walked = zip(*(ref_coordinate_box_step(x, p) for x, p in zip(stack[1:], stack[:-1])))
    assert sum(walked) > 10  # items whose first farthest corner takes an end nearer the other box
    _same_box_steps(hull_step_stack(stack[1:], stack[:-1], interval_spec()), ref)
    steps, (verts, count) = consecutive_steps(stack, interval_spec())
    _same_box_steps(steps, ref)
    assert count.tolist() == [2] * 201
    assert verts.tobytes() == np.array([_ref_bounds(x) for x in stack]).tobytes()
    traj = run(single(midpoint_map()), Profile(stack[0]), interval_spec(), tol=1e-6, max_steps=50)
    assert traj.stop_reason == "consensus" and all(traj.included)
    bounds = [_ref_bounds(x.coords) for x in traj.profiles]
    assert traj.diameters == [float(np.sqrt(((hi - lo) ** 2).sum())) for lo, hi in bounds]


# ---------------------------------------------------------------------------
# whole-run audits against a loop over the steps


def _ref_audit(res):
    """The checks, gaps and inclusion flags of a rendezvous run, one hull
    step at a time over its stored profiles, as run_protocol once did."""
    profiles = [x.coords for x in res.trajectory.profiles]
    threshold = math.pi / 2.0 + math.pi / len(profiles[0])
    checks, gaps, included = [], [0.0], [True]
    hull = ref_build_hull(profiles[0], identity_spec())
    for t, ev in enumerate(res.events[: len(profiles) - 1], start=1):
        new_hull = ref_build_hull(profiles[t], identity_spec())
        excess, _, gap = ref_hull_step(new_hull, hull)
        offset = hull - profiles[t - 1][ev.mover]
        checks.append({
            "step": ev.step,
            "included": excess <= 1e-9,
            "mover_is_vertex": bool((np.sqrt(np.vecdot(offset, offset)) <= 1e-9).any()),
            "gamma_margin": float(ev.gamma - threshold),
            "distance": float(ev.distance),
        })
        gaps.append(gap)
        included.append(excess <= 1e-9)
        hull = new_hull
    return json.dumps({"checks": checks, "gaps": gaps, "included": included})


def _audit(res):
    checks = [dataclasses.asdict(c) for c in res.checks]
    traj = res.trajectory
    return json.dumps({"checks": checks, "gaps": traj.gaps, "included": traj.included})


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 32), layout=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**16),
       grid=st.booleans())
@example(n=32, layout=5, seed=5, grid=False)
def test_run_protocol_audit_matches_a_step_loop(n, layout, seed, grid):
    pts = np.random.default_rng(layout).uniform(-1.0, 1.0, size=(n, 2))
    if grid:  # exact ties, collinear agents
        pts = np.round(pts * 2.0) / 2.0
    res = run_protocol(pts, seed=seed, max_grouped_steps=120)
    assert _audit(res) == _ref_audit(res)


@pytest.mark.parametrize("n, layout", [(12, 28), (16, 22), (16, 23), (24, 0)])
def test_long_run_audits_match_a_step_loop(n, layout):
    """Runs into their tie phase, where an unmoved row may lie just outside
    the pruned hull before it: steps 387 to 847 of these runs."""
    pts = np.random.default_rng(layout).uniform(-1.0, 1.0, size=(n, 2))
    res = run_protocol(pts, seed=layout, max_grouped_steps=3000)
    assert _audit(res) == _ref_audit(res)


def test_run_protocol_audits_in_blocks_of_block_last_steps(monkeypatch):
    """A run of 2,179 steps: one consecutive_steps call per block of up to
    BLOCK_LAST steps and the state before them, as the step loop audits."""
    sizes = []
    monkeypatch.setattr(rendezvous, "consecutive_steps",
                        lambda stack, spec: sizes.append(len(stack)) or consecutive_steps(stack, spec))
    pts = np.random.default_rng(22).uniform(-1.0, 1.0, size=(16, 2))
    res = run_protocol(pts, seed=22, max_grouped_steps=3000)
    steps = len(res.trajectory.profiles) - 1
    assert steps > BLOCK_LAST and len(sizes) == math.ceil(steps / BLOCK_LAST)
    assert max(sizes) <= BLOCK_LAST + 1 and sum(sizes) == steps + len(sizes)
    assert _audit(res) == _ref_audit(res)


def test_hull_monitor_matches_a_step_loop():
    x0 = Profile([[0.0, 0.0], [3.0, 0.0], [0.5, 1.0]])
    for spec in PLANAR_SPECS:
        traj = run(single(midpoint_map()), x0, spec, tol=1e-9, max_steps=40)
        profiles = [x.coords for x in traj.profiles]
        ref = [
            (t, step[0] <= 1e-9, step[2])
            for t, step in enumerate(_ref_steps(profiles[1:], profiles[:-1], spec), start=1)
        ]
        recorded = list(zip(range(1, traj.steps + 1), traj.included[1:], traj.gaps[1:]))
        assert json.dumps(recorded) == json.dumps(ref)
