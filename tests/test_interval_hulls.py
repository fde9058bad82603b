"""Interval hulls (d = 1) scored on floats against the numpy routines they
replaced, kept here as the reference: `build_hull`'s d = 1 branch,
`_hull_distances`, `_farthest` and `hull_diameter` as they were when every
d = 1 hull went through numpy.  Results are compared by `repr` and bytes,
since `==` does not tell -0.0 from 0.0.  Also: Hull and Profile equality."""
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from consdyn.geometry import (
    DimensionMismatchError,
    Hull,
    Profile,
    build_hull,
    hausdorff,
    hull_diameter,
    hull_step,
    identity_spec,
    inclusion_excess,
    interval_spec,
    point_to_hull_distance,
)

# ---------------------------------------------------------------------------
# the numpy reference


def ref_build_hull(pts, spec):
    lo, hi = float(pts.min()), float(pts.max())
    kind = "convex" if spec.kind == "identity" else spec.kind
    return Hull(np.array([[lo]]) if lo == hi else np.array([[lo], [hi]]), kind, 1)


def _ref_interval_distances(x, lo, hi):
    out = lo - x
    above = x - hi
    out = np.where(above > out, above, out)
    return np.where(0.0 > out, 0.0, out)


def _ref_hull_distances(points, hull):
    verts = hull.vertices
    return _ref_interval_distances(points[:, 0], float(verts.min()), float(verts.max()))


def _ref_farthest(src, dst):
    dists = _ref_hull_distances(src.vertices, dst)
    worst = int(dists.argmax())
    return worst, float(dists[worst])


def ref_hull_diameter(hull):
    pts = hull.vertices
    if pts.shape[-2] < 2:
        return float(np.zeros(pts.shape[:-2]))
    diff = pts[..., :, None, :] - pts[..., None, :, :]
    return float(np.sqrt((diff**2).sum(axis=-1)).max(axis=(-2, -1)))


def ref_hull_step(new, prev):
    worst, excess = _ref_farthest(new, prev)
    gap = max(excess, _ref_farthest(prev, new)[1])
    return excess, new.vertices[worst].copy(), gap


def ref_inclusion_excess(inner, outer):
    worst, excess = _ref_farthest(inner, outer)
    return excess, inner.vertices[worst].copy()


def ref_hausdorff(a, b):
    return max(_ref_farthest(a, b)[1], _ref_farthest(b, a)[1])


def ref_point_to_hull_distance(point, hull):
    p = np.asarray(point, dtype=float).reshape(1, -1)
    return float(_ref_hull_distances(p, hull)[0])


def _key(value):
    """repr of floats, bytes of arrays, recursively through tuples."""
    if isinstance(value, tuple):
        return tuple(_key(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    assert type(value) is float
    return repr(value)


# ---------------------------------------------------------------------------
# inputs: edge values, duplicates, hand-made unsorted hulls

EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -1.0, 0.5]
numbers = st.one_of(
    st.sampled_from(EDGES),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@st.composite
def interval_hulls(draw, spec):
    """A build_hull of drawn points (duplicates likely), or a hand-made
    Hull of up to 5 vertices in drawn order."""
    pool = draw(st.lists(numbers, min_size=1, max_size=4))
    xs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    if draw(st.booleans()):
        return build_hull(Profile(np.array(xs)[:, None]), spec)
    kind = "convex" if spec.kind == "identity" else spec.kind
    return Hull(np.array(xs[:5])[:, None], kind, 1)


def _assert_same_results(new, prev, point):
    with np.errstate(over="ignore"):
        expected = [
            ref_hull_step(new, prev),
            ref_inclusion_excess(new, prev),
            ref_hausdorff(new, prev),
            ref_point_to_hull_distance([point], prev),
            ref_hull_diameter(new),
            ref_hull_diameter(prev),
        ]
    got = [
        hull_step(new, prev),
        inclusion_excess(new, prev),
        hausdorff(new, prev),
        point_to_hull_distance([point], prev),
        hull_diameter(new),
        hull_diameter(prev),
    ]
    assert [_key(v) for v in got] == [_key(v) for v in expected]


@settings(max_examples=300)
@given(st.data())
def test_float_path_matches_numpy_reference(data):
    spec = data.draw(st.sampled_from([identity_spec(), interval_spec()]))
    new, prev = data.draw(interval_hulls(spec)), data.draw(interval_hulls(spec))
    _assert_same_results(new, prev, data.draw(numbers))


@pytest.mark.parametrize("point", [0.0, -0.0, 5e-324])
@pytest.mark.parametrize("first", [0.0, -0.0])
def test_float_path_matches_numpy_reference_on_signed_zeros(first, point):
    zeros = Hull(np.array([[first], [-first], [5e-324]]), "convex", 1)
    for prev in (zeros, build_hull(Profile([[first], [-first]]), identity_spec())):
        _assert_same_results(zeros, prev, point)
        _assert_same_results(prev, zeros, point)


@given(st.lists(numbers, min_size=1, max_size=8), st.sampled_from([identity_spec(), interval_spec()]))
@example([0.0, -0.0], identity_spec())
@example([-0.0, 0.0], interval_spec())
def test_build_hull_matches_numpy_reference(xs, spec):
    pts = np.array(xs)[:, None]
    hull, ref = build_hull(Profile(pts), spec), ref_build_hull(pts, spec)
    assert (hull.kind, hull.dimension) == (ref.kind, ref.dimension)
    assert _key(hull.vertices) == _key(ref.vertices)
    assert not hull.vertices.flags.writeable
    assert hull == ref and hash(hull) == hash(ref)


def test_float_path_checks_dimensions():
    line = build_hull(Profile([[0.0], [1.0]]), identity_spec())
    square = build_hull(Profile([[0.0, 0.0], [1.0, 1.0]]), interval_spec())
    for call in (hull_step, inclusion_excess, hausdorff):
        with pytest.raises(DimensionMismatchError):
            call(line, square)
    with pytest.raises(DimensionMismatchError):
        point_to_hull_distance([0.0, 0.0], line)


# ---------------------------------------------------------------------------
# equality and hashing


def test_hull_equality_and_hash():
    a = Hull(np.array([[0.0], [1.0]]), "convex", 1)
    b = Hull(np.array([[0.0], [1.0]]), "convex", 1)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Hull(np.array([[0.0], [1.0]]), "interval", 1)
    assert a != Hull(np.array([[0.0], [2.0]]), "convex", 1)
    assert a != Hull(np.array([[0.0]]), "convex", 1)
    assert a != Hull(np.array([[0.0, 0.0], [1.0, 0.0]]), "convex", 2)
    assert a != "not a hull"
    assert a == build_hull(Profile([[1.0], [0.0]]), identity_spec())
    signed = Hull(np.array([[-0.0], [1.0]]), "convex", 1)
    assert a == signed and hash(a) == hash(signed) and len({a, signed}) == 1


def test_profile_hash_ignores_the_sign_of_zero():
    a, b = Profile([[0.0, 1.0]]), Profile([[-0.0, 1.0]])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert Profile([[0.0, 1.0]]) != Profile([[0.0], [1.0]])
    assert hash(Profile([[0.0, 1.0]])) != hash(Profile([[0.0], [1.0]]))
