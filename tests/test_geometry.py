import math
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import minimize_scalar

from consdyn.geometry import (
    COLLINEAR_TOL,
    CoordinateMapSpec,
    DimensionMismatchError,
    EmptyProfileError,
    GeometryError,
    Hull,
    Profile,
    UnsupportedDimensionError,
    axis_direction_spec,
    build_hull,
    direction_spec,
    hausdorff,
    hull_diameter,
    hull_step,
    hull_stack,
    hull_step_stack,
    identity_spec,
    inclusion_excess,
    interval_spec,
    monotone_chain,
    planar_hulls,
    point_to_hull_distance,
    profile_diameters,
    profile_hull_diameter,
)

from conftest import point_lists


# ---------------------------------------------------------------------------
# independent oracles


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_oracle(pts: np.ndarray) -> np.ndarray:
    """O(n^3) directed-edge hull: (i, j) is a hull edge iff every other
    point lies strictly left of the line i->j.  Assumes points in general
    position (random floats)."""
    n = len(pts)
    succ = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rest = [k for k in range(n) if k != i and k != j]
            if all(_cross(pts[i], pts[j], pts[k]) > 0 for k in rest):
                succ[i] = j
    start = min(succ, key=lambda i: (pts[i][0], pts[i][1]))
    order = [start]
    cur = succ[start]
    while cur != start:
        order.append(cur)
        cur = succ[cur]
    return pts[order]


def _inside_oracle(poly: np.ndarray, p) -> bool:
    k = len(poly)
    return all(_cross(poly[i], poly[(i + 1) % k], p) >= 0 for i in range(k))


def _boundary_samples(poly: np.ndarray, per_edge: int) -> np.ndarray:
    out = []
    k = len(poly)
    for i in range(k):
        a, b = poly[i], poly[(i + 1) % k]
        for s in np.linspace(0.0, 1.0, per_edge, endpoint=False):
            out.append(a + s * (b - a))
    return np.array(out)


def hausdorff_grid_oracle(pa: np.ndarray, pb: np.ndarray, per_edge: int = 400):
    """Brute-force Hausdorff between convex polygons from dense boundary
    samples; points inside the other polygon contribute zero."""
    sa = _boundary_samples(pa, per_edge)
    sb = _boundary_samples(pb, per_edge)

    def directed(src, dst_samples, dst_poly):
        worst = 0.0
        for p in src:
            if _inside_oracle(dst_poly, p):
                continue
            worst = max(worst, float(np.linalg.norm(dst_samples - p, axis=1).min()))
        return worst

    return max(directed(sa, sb, pb), directed(sb, sa, pa))


# ---------------------------------------------------------------------------
# profiles and specs


def test_profile_shape_and_validation():
    p = Profile([[0.0, 1.0], [2.0, 3.0]])
    assert p.n == 2 and p.d == 2
    assert p.coords[1].tolist() == [2.0, 3.0]
    with pytest.raises(EmptyProfileError):
        Profile(np.empty((0, 2)))
    with pytest.raises(GeometryError):
        Profile([[np.nan]])
    with pytest.raises(GeometryError):
        Profile([1.0, 2.0])  # must be 2-d


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Profile(np.zeros((2, 0))), GeometryError, "points need at least one coordinate"),
        (lambda: CoordinateMapSpec("identity", ((1.0, 0.0),)), GeometryError,
         "directions are only meaningful for kind 'direction'"),
        (lambda: direction_spec([(1.0, 0.0, 0.0)] * 3), GeometryError, "directions must be 2-vectors"),
        (lambda: Hull(np.zeros((1, 1)), "ball", 1), GeometryError, "unknown hull kind 'ball'"),
        (lambda: Hull(np.zeros((1, 2)), "convex", 1), DimensionMismatchError,
         "vertices are 2-dimensional, hull says 1"),
        (lambda: build_hull(Profile(np.eye(3)), axis_direction_spec()), UnsupportedDimensionError,
         "direction hulls are planar only"),
    ],
    ids=["zero-width", "identity-directions", "3-vectors", "hull-kind", "hull-dimension", "direction-d3"],
)
def test_bad_profiles_specs_and_hulls_raise_the_documented_error(call, error, message):
    with pytest.raises(GeometryError) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_a_profile_is_not_equal_to_a_non_profile():
    p = Profile([[0.0, 1.0]])
    assert p.__eq__(p.coords) is NotImplemented
    assert p != [[0.0, 1.0]]


def test_profile_is_frozen():
    p = Profile([[0.0], [1.0]])
    with pytest.raises(ValueError):
        p.coords[0, 0] = 5.0


def test_profile_diameter_345():
    p = Profile([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    assert p.diameter() == 5.0


def test_spec_validation():
    with pytest.raises(GeometryError):
        CoordinateMapSpec("weird")
    with pytest.raises(GeometryError):
        direction_spec([(1.0, 0.0), (0.0, 1.0)])  # too few
    with pytest.raises(GeometryError):
        direction_spec([(2.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])  # not unit
    with pytest.raises(GeometryError):
        # all in the right half plane: not positively spanning
        s = 1 / math.sqrt(2)
        direction_spec([(1.0, 0.0), (s, s), (s, -s)])


def test_spec_roundtrip():
    for spec in (identity_spec(), interval_spec(), axis_direction_spec()):
        assert CoordinateMapSpec.from_dict(spec.to_dict()) == spec


# ---------------------------------------------------------------------------
# hull construction


def test_identity_hull_d1():
    h = build_hull(Profile([[0.0], [1.0], [0.5]]), identity_spec())
    assert h.vertices.tolist() == [[0.0], [1.0]]
    assert h.kind == "convex"


def test_identity_hull_d2_drops_interior():
    p = Profile([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 0.2]])
    h = build_hull(p, identity_spec())
    assert h.vertices.tolist() == [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]]


def test_degenerate_hulls():
    h1 = build_hull(Profile([[1.0, 2.0]] * 4), identity_spec())
    assert h1.vertices.shape == (1, 2)
    h2 = build_hull(
        Profile([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]]), identity_spec()
    )
    assert h2.vertices.shape == (2, 2)
    assert h2.vertices.tolist() == [[0.0, 0.0], [2.0, 2.0]]


def test_near_collinear_collapses_at_unit_scale():
    # wiggle far below the relative tolerance at this scale
    p = Profile([[0.0, 0.0], [1.0, 1e-13], [2.0, 0.0]])
    assert build_hull(p, identity_spec()).vertices.shape == (2, 2)


def test_tiny_triangle_survives():
    # a clean triangle must not collapse just because it is small
    s = 1e-7
    p = Profile([[1 / 3, 1 / 3], [1 / 3 + s, 1 / 3], [1 / 3, 1 / 3 + s]])
    h = build_hull(p, identity_spec())
    assert h.vertices.shape == (3, 2)


def test_interval_hull_corners_ccw():
    p = Profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    h = build_hull(p, interval_spec())
    assert h.vertices.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    assert h.kind == "interval"


def test_interval_hull_degenerate_and_high_d():
    seg = build_hull(Profile([[0.0, 1.0], [0.0, 3.0]]), interval_spec())
    assert seg.vertices.shape == (2, 2)
    pt = build_hull(Profile([[2.0, 2.0]]), interval_spec())
    assert pt.vertices.shape == (1, 2)
    cube = build_hull(
        Profile([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]), interval_spec()
    )
    assert cube.vertices.shape == (8, 3)


def test_identity_hull_rejects_d3():
    with pytest.raises(UnsupportedDimensionError):
        build_hull(Profile([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), identity_spec())


def test_direction_hull_axis_equals_interval():
    rng = np.random.default_rng(42)
    for _ in range(40):
        pts = rng.uniform(-3, 3, size=(rng.integers(1, 9), 2))
        a = build_hull(Profile(pts), axis_direction_spec())
        b = build_hull(Profile(pts), interval_spec())
        sa = np.array(sorted(map(tuple, a.vertices)))
        sb = np.array(sorted(map(tuple, b.vertices)))
        assert sa.shape == sb.shape
        assert np.allclose(sa, sb, atol=1e-9)


def test_direction_hull_contains_convex_hull():
    dirs = [
        (math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)) for k in range(8)
    ]
    spec = direction_spec(dirs)
    rng = np.random.default_rng(7)
    for _ in range(30):
        pts = rng.uniform(-2, 2, size=(6, 2))
        dh = build_hull(Profile(pts), spec)
        ch = build_hull(Profile(pts), identity_spec())
        for p in pts:
            assert point_to_hull_distance(p, dh) <= 1e-9
        excess, _ = inclusion_excess(ch, dh)
        assert excess <= 1e-9


def test_direction_hull_single_point():
    h = build_hull(Profile([[1.5, -0.5]]), axis_direction_spec())
    assert np.allclose(h.vertices, [[1.5, -0.5]], atol=1e-12)


def test_monotone_chain_matches_directed_edge_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(3, 11))
        pts = rng.uniform(-10, 10, size=(n, 2))
        ours = monotone_chain(pts)
        theirs = hull_oracle(pts)
        assert ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)


@given(point_lists(2, n_min=1, n_max=8))
def test_hull_contains_all_agents(pts):
    p = Profile(np.array(pts, dtype=float))
    for spec in (identity_spec(), interval_spec(), axis_direction_spec()):
        h = build_hull(p, spec)
        for row in p.coords:
            assert point_to_hull_distance(row, h) <= 1e-9


@given(point_lists(1, n_min=1, n_max=8))
def test_hull_contains_all_agents_d1(pts):
    p = Profile(np.array(pts, dtype=float))
    for spec in (identity_spec(), interval_spec()):
        h = build_hull(p, spec)
        for row in p.coords:
            assert point_to_hull_distance(row, h) <= 1e-9


@given(point_lists(3, n_min=1, n_max=6))
def test_interval_hull_contains_agents_d3(pts):
    p = Profile(np.array(pts, dtype=float))
    h = build_hull(p, interval_spec())
    for row in p.coords:
        assert point_to_hull_distance(row, h) <= 1e-9


@given(point_lists(2, n_min=3, n_max=8))
def test_chain_vertices_ccw_and_subset(pts):
    arr = np.array(pts, dtype=float)
    h = monotone_chain(arr)
    as_set = {tuple(r) for r in arr}
    for v in h:
        assert tuple(v) in as_set
    k = len(h)
    if k >= 3:
        for i in range(k):
            assert _cross(h[i], h[(i + 1) % k], h[(i + 2) % k]) > 0


# ---------------------------------------------------------------------------
# distances


def test_point_distance_examples():
    tri = build_hull(Profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), identity_spec())
    assert point_to_hull_distance([0.2, 0.2], tri) == 0.0
    assert abs(point_to_hull_distance([1.0, 1.0], tri) - 1 / math.sqrt(2)) < 1e-12
    seg = build_hull(Profile([[0.0, 0.0], [1.0, 0.0]]), identity_spec())
    assert point_to_hull_distance([2.0, 0.0], seg) == 1.0
    d1 = build_hull(Profile([[0.0], [1.0]]), identity_spec())
    assert point_to_hull_distance([1.75], d1) == 0.75
    assert point_to_hull_distance([0.5], d1) == 0.0


def test_point_distance_d3_box():
    box = build_hull(Profile([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), interval_spec())
    assert point_to_hull_distance([2.0, 0.5, 0.5], box) == 1.0
    assert point_to_hull_distance([0.5, 0.5, 0.5], box) == 0.0
    conv3 = Hull(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), "convex", 3)
    with pytest.raises(UnsupportedDimensionError):
        point_to_hull_distance([0.0, 0.0, 0.0], conv3)


def test_point_distance_matches_scipy_projection():
    rng = np.random.default_rng(11)
    for _ in range(60):
        a, b, p = rng.uniform(-5, 5, size=(3, 2))
        seg = Hull(np.array([a, b]), "convex", 2)
        ours = point_to_hull_distance(p, seg)

        def f(s):
            return float(np.linalg.norm(p - (a + s * (b - a))))

        ref = minimize_scalar(f, bounds=(0.0, 1.0), method="bounded").fun
        ref = min(ref, f(0.0), f(1.0))
        assert abs(ours - ref) < 1e-7


def test_hull_contains_own_vertices_tol_zero():
    p = Profile([[0.0, 0.0], [2.0, 0.0], [1.0, 1.5], [0.3, 0.9]])
    h = build_hull(p, identity_spec())
    for v in h.vertices:
        assert point_to_hull_distance(v, h) <= 0.0


def test_dimension_mismatch():
    h = build_hull(Profile([[0.0], [1.0]]), identity_spec())
    with pytest.raises(DimensionMismatchError):
        point_to_hull_distance([0.0, 0.0], h)


# ---------------------------------------------------------------------------
# inclusion and Hausdorff


def test_inclusion_basics():
    outer = build_hull(Profile([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]), identity_spec())
    inner = build_hull(Profile([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]), identity_spec())
    assert inclusion_excess(inner, outer)[0] <= 0.0
    assert not inclusion_excess(outer, inner)[0] <= 0.1
    excess, vertex = inclusion_excess(outer, inner)
    assert excess > 1.0
    assert any(np.array_equal(vertex, v) for v in outer.vertices)


def test_hausdorff_identical_zero():
    h = build_hull(Profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), identity_spec())
    assert hausdorff(h, h) == 0.0


def test_hausdorff_intervals():
    a = build_hull(Profile([[0.0], [1.0]]), identity_spec())
    b = build_hull(Profile([[0.0], [2.0]]), identity_spec())
    assert hausdorff(a, b) == 1.0


def test_hausdorff_square_vs_half_square():
    square = build_hull(
        Profile([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), identity_spec()
    )
    half = build_hull(
        Profile([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0], [0.0, 1.0]]), identity_spec()
    )
    got = hausdorff(square, half)
    assert abs(got - 0.5) < 1e-12
    oracle = hausdorff_grid_oracle(square.vertices, half.vertices)
    assert abs(got - oracle) < 5e-3


def test_hausdorff_matches_grid_oracle_random():
    rng = np.random.default_rng(3)
    for _ in range(8):
        pa = monotone_chain(rng.uniform(-2, 2, size=(7, 2)))
        pb = monotone_chain(rng.uniform(-2, 2, size=(7, 2)))
        got = hausdorff(Hull(pa, "convex", 2), Hull(pb, "convex", 2))
        oracle = hausdorff_grid_oracle(pa, pb)
        assert abs(got - oracle) < 2e-2


def test_hausdorff_symmetry_and_triangle():
    rng = np.random.default_rng(8)
    for _ in range(60):
        hs = []
        for _ in range(3):
            pts = rng.uniform(-3, 3, size=(rng.integers(1, 7), 2))
            hs.append(build_hull(Profile(pts), identity_spec()))
        a, b, c = hs
        assert hausdorff(a, b) == hausdorff(b, a)
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12


def test_nested_hausdorff_equals_outer_max():
    # for nested hulls the distance is the worst outer-vertex distance
    rng = np.random.default_rng(15)
    for _ in range(40):
        pts = rng.uniform(-3, 3, size=(6, 2))
        outer = build_hull(Profile(pts), identity_spec())
        centroid = pts.mean(axis=0)
        inner_pts = centroid + 0.4 * (pts - centroid)
        inner = build_hull(Profile(inner_pts), identity_spec())
        assert inclusion_excess(inner, outer)[0] <= 1e-9
        one_sided = max(
            point_to_hull_distance(v, inner) for v in outer.vertices
        )
        assert abs(hausdorff(inner, outer) - one_sided) < 1e-12


@given(point_lists(2, n_min=2, n_max=8))
def test_subset_hull_included(pts):
    arr = np.array(pts, dtype=float)
    sub = arr[: max(1, len(arr) // 2)]
    outer = build_hull(Profile(arr), identity_spec())
    inner = build_hull(Profile(sub), identity_spec())
    assert inclusion_excess(inner, outer)[0] <= 1e-9


def test_hull_diameter():
    sq = build_hull(
        Profile([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), identity_spec()
    )
    assert abs(hull_diameter(sq) - math.sqrt(2)) < 1e-15
    pt = build_hull(Profile([[3.0, 3.0]]), identity_spec())
    assert hull_diameter(pt) == 0.0


def test_hull_to_dict():
    h = build_hull(Profile([[0.0], [1.0]]), interval_spec())
    d = h.to_dict()
    assert d == {"kind": "interval", "dimension": 1, "vertices": [[0.0], [1.0]]}


def test_hull_to_dict_keeps_a_negative_zero_vertex():
    d = Hull(np.array([[-0.0, 1.0], [2.0, -0.0]]), "convex", 2).to_dict()
    assert d == {"kind": "convex", "dimension": 2, "vertices": [[0.0, 1.0], [2.0, 0.0]]}
    assert [math.copysign(1.0, c) for v in d["vertices"] for c in v] == [-1.0, 1.0, 1.0, -1.0]


# ---------------------------------------------------------------------------
# vectorized kernel against the scalar per-point loops it replaced


def _ref_segment_distance(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    s = float((p - a) @ ab) / denom
    s = min(1.0, max(0.0, s))
    return float(np.linalg.norm(p - (a + s * ab)))


def _ref_point_distance(p, hull):
    verts = hull.vertices
    if hull.dimension == 1:
        lo, hi = float(verts.min()), float(verts.max())
        return max(lo - p[0], p[0] - hi, 0.0)
    if hull.dimension == 2:
        k = verts.shape[0]
        if k == 1:
            return float(np.linalg.norm(p - verts[0]))
        if k == 2:
            return _ref_segment_distance(p, verts[0], verts[1])
        if all(_cross(verts[i], verts[(i + 1) % k], p) >= 0.0 for i in range(k)):
            return 0.0
        return min(
            _ref_segment_distance(p, verts[i], verts[(i + 1) % k]) for i in range(k)
        )
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    return float(np.linalg.norm(np.clip(p, lo, hi) - p))


def _ref_inclusion_excess(inner, outer):
    dists = [_ref_point_distance(v, outer) for v in inner.vertices]
    worst = int(np.argmax(dists))
    return float(dists[worst]), inner.vertices[worst]


def _ref_hausdorff(a, b):
    d_ab = max(_ref_point_distance(v, b) for v in a.vertices)
    d_ba = max(_ref_point_distance(v, a) for v in b.vertices)
    return max(d_ab, d_ba)


def _ref_monotone_chain(points):
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if pts.shape[0] == 1:
        return pts

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    hull = half(pts)[:-1] + half(pts[::-1])[:-1]
    changed = True
    while changed and len(hull) > 2:
        changed = False
        for i in range(len(hull)):
            u, v, w = hull[i - 1], hull[i], hull[(i + 1) % len(hull)]
            base = float(np.linalg.norm(w - u))
            if _ref_segment_distance(v, u, w) <= COLLINEAR_TOL * base:
                hull.pop(i)
                changed = True
                break
    return np.array(hull)


@st.composite
def degenerate_points(draw, d: int) -> np.ndarray:
    """Free points, or the same with repeated rows, or (in the plane) points
    on a line, optionally pushed off it by a few collinearity tolerances."""
    pts = np.array(draw(point_lists(d, n_min=1, n_max=7)), dtype=float)
    shapes = ("free", "duplicates") + (("collinear", "near_collinear") if d == 2 else ())
    shape = draw(st.sampled_from(shapes))
    if shape == "duplicates":
        picks = draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=5))
        pts = np.concatenate([pts, pts[picks]])
    elif shape != "free":
        a = pts[0]
        b = draw(st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
        ts = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=7))
        pts = a + np.array(ts)[:, None] * (np.array(b) - a)
        if shape == "near_collinear":
            chord = np.array(b) - a
            normal = np.array([-chord[1], chord[0]])
            wiggle = draw(
                st.lists(st.sampled_from((-4.0, -1.0, -0.25, 0.25, 1.0, 4.0)),
                         min_size=len(pts), max_size=len(pts))
            )
            pts = pts + COLLINEAR_TOL * np.array(wiggle)[:, None] * normal
    return pts


OCTAGON = direction_spec(
    [(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)) for k in range(8)]
)
KERNEL_CASES = (
    (identity_spec(), 1),
    (identity_spec(), 2),
    (interval_spec(), 2),
    (interval_spec(), 3),
    (OCTAGON, 2),
    (axis_direction_spec(), 2),
)


@settings(max_examples=300)
@given(st.data())
def test_kernel_matches_scalar_reference(data):
    spec, d = data.draw(st.sampled_from(KERNEL_CASES))
    outer_pts = data.draw(degenerate_points(d))
    if data.draw(st.booleans()):
        inner_pts = data.draw(degenerate_points(d))
    else:  # a subset: vertices on the other hull's boundary
        inner_pts = outer_pts[: data.draw(st.integers(1, len(outer_pts)))]
    new = build_hull(Profile(inner_pts), spec)
    prev = build_hull(Profile(outer_pts), spec)

    excess, vertex, gap = hull_step(new, prev)
    ref_excess, ref_vertex = _ref_inclusion_excess(new, prev)
    assert excess == ref_excess
    assert np.array_equal(vertex, ref_vertex)
    assert gap == _ref_hausdorff(new, prev)
    assert inclusion_excess(new, prev)[0] == ref_excess
    assert hausdorff(prev, new) == _ref_hausdorff(prev, new)
    for p in np.concatenate([inner_pts, outer_pts]):
        assert point_to_hull_distance(p, prev) == _ref_point_distance(p, prev)
    if d == 2:
        for pts in (inner_pts, outer_pts):
            assert np.array_equal(monotone_chain(pts), _ref_monotone_chain(pts))



# ---------------------------------------------------------------------------
# stacked hull transitions against one hull_step per item

STACK_CASES = KERNEL_CASES + ((interval_spec(), 1), (interval_spec(), 4))


@settings(max_examples=200)
@given(st.data())
def test_hull_step_stack_matches_one_item_steps(data):
    spec, d = data.draw(st.sampled_from(STACK_CASES))
    n = data.draw(st.integers(1, 5))
    pairs = []
    for _ in range(data.draw(st.integers(1, 6))):
        prev = np.array(data.draw(point_lists(d, n_min=n, n_max=n)), dtype=float)
        if data.draw(st.booleans()):
            new = np.array(data.draw(point_lists(d, n_min=n, n_max=n)), dtype=float)
        else:  # contracted toward one of its points: inside, often touching
            new = prev[data.draw(st.integers(0, n - 1))] + 0.5 * (prev - prev[0])
            if data.draw(st.booleans()):
                new = np.repeat(prev[:1], n, axis=0)
        pairs.append((new, prev))
    news = np.array([p[0] for p in pairs])
    prevs = np.array([p[1] for p in pairs])

    excess, vertex, gap = hull_step_stack(news, prevs, spec)
    assert len(excess) == len(pairs)
    for i in range(len(pairs)):
        e, v, g = hull_step(build_hull(Profile(news[i]), spec), build_hull(Profile(prevs[i]), spec))
        assert excess[i] == e and gap[i] == g
        assert vertex[i].tobytes() == v.tobytes()


# ---------------------------------------------------------------------------
# one overflow rule: near +-1e308 a hull call returns infinite or NaN values
# and never warns.  The values are those the kernels give at this scale, where
# their squared lengths and cross products overflow (ROADMAP item 12): a fix
# there may change them, but not the silence.

HUGE_P = np.array([[-1e308, -1e308], [1e308, -1e308], [0.0, 1e308]])
HUGE_Q = np.array([[-1e308, 0.0], [1e308, 1e308], [0.0, -1e308]])
AXIS_SQUARE = [[-1e308, -1e308], [1e308, -1e308], [1e308, 1e308], [-1e308, 1e308]]
CHAIN_Q = [[-1e308, 0.0], [0.0, -1e308], [1e308, 1e308], [0.0, -1e308]]


def _huge(x):
    return build_hull(Profile(x), identity_spec())


def _plain(value):
    """Arrays as lists, in tuples too: values whose repr compares them."""
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value.tolist() if isinstance(value, np.ndarray) else value


SILENT_CALLS = {
    "build_hull": (lambda: _huge(HUGE_P).vertices, HUGE_P.tolist()),
    "build_hull-axes": (lambda: build_hull(Profile(HUGE_Q), axis_direction_spec()).vertices, AXIS_SQUARE),
    "hull_stack": (lambda: hull_stack(np.stack([HUGE_P, HUGE_Q]), axis_direction_spec()),
                   ([AXIS_SQUARE, AXIS_SQUARE], [4, 4])),
    "planar_hulls": (lambda: planar_hulls(np.stack([HUGE_P, HUGE_Q])),
                     ([HUGE_P.tolist() + [[-1e308, -1e308]], CHAIN_Q], [3, 4])),
    "monotone_chain": (lambda: monotone_chain(HUGE_Q), CHAIN_Q),
    "hull_step": (lambda: hull_step(_huge(HUGE_Q), _huge(HUGE_P)), (math.nan, [-1e308, 0.0], math.nan)),
    "inclusion_excess": (lambda: inclusion_excess(_huge(HUGE_P), _huge(HUGE_Q)), (math.nan, [-1e308, -1e308])),
    "hausdorff": (lambda: hausdorff(_huge(HUGE_P), _huge(HUGE_Q)), math.nan),
    "point_to_hull_distance": (lambda: point_to_hull_distance([-1e308, 1e308], _huge(HUGE_P)), math.nan),
    "hull_diameter": (lambda: hull_diameter(_huge(HUGE_P)), math.inf),
    "profile_hull_diameter": (lambda: profile_hull_diameter(Profile([[-1e308] * 3, [1e308] * 3]), interval_spec()),
                              math.inf),
    "Profile.diameter": (lambda: Profile(HUGE_P).diameter(), math.inf),
    "profile_diameters": (lambda: profile_diameters(np.stack([HUGE_P, HUGE_Q])), [math.inf, math.inf]),
}


@pytest.mark.parametrize("name", SILENT_CALLS)
def test_hull_calls_near_the_float_limit_return_values_without_a_warning(name):
    call, expected = SILENT_CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert repr(_plain(call())) == repr(expected)
