import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from consdyn.geometry import (
    GeometryError,
    Profile,
    StackError,
    build_hull,
    identity_spec,
    inclusion_excess,
    interval_spec,
)
from consdyn.maps import (
    DEFORMATIONS,
    DomainError,
    MapError,
    MapSpecError,
    apply_map,
    decaying_pair_family,
    deform,
    descriptor_from_dict,
    descriptor_to_dict,
    identity_deformation,
    linear_map,
    log_exp_deformation,
    mean_selector,
    midpoint_map,
    scale_map,
    stripe_map,
    validate_row_stochastic,
    vanishing_confidence,
)
from consdyn.scenarios import averaging_map_library

from conftest import point_lists, positive


# ---------------------------------------------------------------------------
# linear maps


def test_linear_map_applies_matrix():
    a = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
    m = linear_map(a)
    x = Profile([[1.0], [2.0], [4.0]])
    got = apply_map(m, 0, x).coords
    assert np.allclose(got, np.array(a) @ x.coords, atol=0)
    assert m.claim == identity_spec()


def test_linear_map_rejects_bad_rows():
    with pytest.raises(MapSpecError, match="row 1"):
        linear_map([[1.0, 0.0], [0.4, 0.7]])
    with pytest.raises(MapSpecError, match="row 0"):
        linear_map([[-0.1, 1.1], [0.5, 0.5]])
    with pytest.raises(MapSpecError):
        linear_map([[1.0, 0.0]])  # not square
    # within the 1e-12 row-sum slack
    validate_row_stochastic([[0.5, 0.5 + 4e-13], [0.0, 1.0]])
    with pytest.raises(MapSpecError):
        validate_row_stochastic([[0.5, 0.5 + 1e-11], [0.0, 1.0]])


def _ref_row_problem(a):
    """The first bad row's message, one row at a time: a negative entry
    before the row's sum."""
    for i, row in enumerate(a):
        if (row < 0).any():
            return f"row {i} has a negative entry"
        if abs(row.sum() - 1.0) > 1e-12:
            return f"row {i} sums to {row.sum()!r}, not 1"
    return None


def test_row_messages_name_the_first_bad_row():
    sums = np.array([0.4, 0.7]).sum()
    cases = [
        ([[1.0, 0.0], [0.4, 0.7]], f"row 1 sums to {sums!r}, not 1"),
        ([[0.5, 0.5], [-0.1, 1.2], [0.4, 0.7]], "row 1 has a negative entry"),
        ([[0.5, 0.5], [-0.1, 1.1], [0.4, 0.7]], "row 1 has a negative entry"),
        ([[0.4, 0.7], [-0.1, 1.1], [1.0, 0.0]], f"row 0 sums to {sums!r}, not 1"),
    ]
    for matrix, message in cases:
        matrix = [row + [0.0] * (len(matrix) - len(row)) for row in matrix]
        with pytest.raises(MapSpecError) as err:
            validate_row_stochastic(matrix)
        assert str(err.value) == message == _ref_row_problem(np.array(matrix))


@settings(max_examples=100)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       edits=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                                st.sampled_from((-1.0, -1e-300, -2e-12, 2e-12, 5e-13, 0.5))),
                      max_size=3))
def test_row_checks_match_the_row_loop(n, seed, edits):
    a = np.random.default_rng(seed).random((n, n))
    a /= a.sum(axis=1, keepdims=True)
    for i, j, delta in edits:
        a[int(i * (n - 1)), int(j * (n - 1))] += delta
    try:
        validate_row_stochastic(a)
        got = None
    except MapSpecError as exc:
        got = str(exc)
    assert got == _ref_row_problem(a)


@given(point_lists(2, n_min=3, n_max=3))
def test_linear_map_preserves_hulls(pts):
    x = Profile(np.array(pts, dtype=float))
    m = linear_map([[0.2, 0.3, 0.5], [0.0, 0.9, 0.1], [0.4, 0.4, 0.2]])
    y = apply_map(m, 0, x)
    for spec in (identity_spec(), interval_spec()):
        assert inclusion_excess(build_hull(y, spec), build_hull(x, spec))[0] <= 1e-9


# ---------------------------------------------------------------------------
# decaying pairs


def test_quarter_power_first_step():
    m = decaying_pair_family("quarter_power")
    y = apply_map(m, 1, Profile([[0.0], [1.0]]))
    assert y.coords[:, 0].tolist() == [0.25, 0.75]
    # symmetric weights: swapping agents swaps outputs
    z = apply_map(m, 1, Profile([[1.0], [0.0]]))
    assert z.coords[:, 0].tolist() == [0.75, 0.25]


def test_quarter_power_rejects_early_index():
    m = decaying_pair_family("quarter_power")
    with pytest.raises(MapError):
        apply_map(m, 0, Profile([[0.0], [1.0]]))


def test_one_over_t_moves_first_agent_only():
    m = decaying_pair_family("one_over_t")
    y = apply_map(m, 2, Profile([[0.0], [1.0]]))
    assert y.coords[:, 0].tolist() == [0.5, 1.0]
    y = apply_map(m, 4, Profile([[0.5], [1.0]]))
    assert y.coords[1, 0] == 1.0
    assert abs(y.coords[0, 0] - (3 * 0.5 + 1.0) / 4) < 1e-15


def test_decaying_pair_unknown_rate():
    with pytest.raises(MapSpecError):
        decaying_pair_family("cubed")


def test_decaying_pair_needs_two_agents():
    m = decaying_pair_family("one_over_t")
    with pytest.raises(MapError):
        apply_map(m, 2, Profile([[0.0], [1.0], [2.0]]))


# ---------------------------------------------------------------------------
# vanishing confidence


def test_vanishing_confidence_weights_by_hand():
    m = vanishing_confidence(1.0)
    x = Profile([[0.0], [8.0]])
    y = apply_map(m, 1, x)
    w = math.exp(-8.0)
    expect0 = (0.0 + 8.0 * w) / (1.0 + w)
    expect1 = (0.0 * w + 8.0) / (w + 1.0)
    assert abs(y.coords[0, 0] - expect0) < 1e-15
    assert abs(y.coords[1, 0] - expect1) < 1e-15


def test_vanishing_confidence_large_t_no_overflow():
    m = vanishing_confidence(1.0)
    x = Profile([[0.0], [3.0], [8.0]])
    with np.errstate(all="raise"):
        pass  # errstate handling is internal to apply
    y = apply_map(m, 900, x)
    assert np.isfinite(y.coords).all()
    # far agents carry no weight at sharp kernels: points stay put
    assert np.allclose(y.coords, x.coords, atol=1e-12)


def test_vanishing_confidence_symmetry():
    m = vanishing_confidence(2.0)
    x = Profile([[-1.0], [1.0]])
    y = apply_map(m, 3, x)
    assert abs(y.coords[0, 0] + y.coords[1, 0]) < 1e-15


def test_vanishing_confidence_bad_epsilon():
    with pytest.raises(MapSpecError):
        vanishing_confidence(0.0)


# ---------------------------------------------------------------------------
# mean selectors


def test_mean_selector_components():
    m = mean_selector((1, 2, 4))
    x = Profile([[1.0, 8.0], [5.0, 2.0], [3.0, 5.0]])
    y = apply_map(m, 0, x)
    assert y.coords[0].tolist() == [5.0, 8.0]  # max
    assert y.coords[1].tolist() == [3.0, 5.0]  # mean
    assert y.coords[2].tolist() == [1.0, 2.0]  # min
    assert m.claim is None  # max and min together: never proper


def test_mean_selector_geometric_matches_product_form():
    m = mean_selector((3, 3, 3))
    rng = np.random.default_rng(0)
    for _ in range(30):
        vals = rng.uniform(0.1, 9.0, size=(3, 2))
        y = apply_map(m, 0, Profile(vals))
        ref = np.prod(vals, axis=0) ** (1.0 / 3.0)
        assert np.allclose(y.coords, np.broadcast_to(ref, (3, 2)), rtol=1e-12)


def test_mean_selector_validity_and_domain():
    assert mean_selector((2, 3, 2)).claim == interval_spec()
    assert mean_selector((1, 2, 2)).claim == interval_spec()
    assert mean_selector((1, 2, 4)).claim is None
    assert mean_selector((3, 2, 2)).domain == "positive"
    assert mean_selector((1, 2, 2)).domain == "reals"
    with pytest.raises(MapSpecError):
        mean_selector((0, 2, 2))
    with pytest.raises(MapSpecError):
        mean_selector((2, 2))


def test_mean_selector_rejects_nonpositive_profile():
    m = mean_selector((3, 2, 2))
    with pytest.raises(DomainError):
        apply_map(m, 0, Profile([[-1.0], [1.0], [2.0]]))
    with pytest.raises(DomainError):
        apply_map(m, 0, Profile([[0.0], [1.0], [2.0]]))


@given(point_lists(1, n_min=3, n_max=3, elements=positive))
def test_mean_selector_stays_in_interval_hull(pts):
    x = Profile(np.array(pts, dtype=float))
    for sel in ((2, 2, 2), (1, 3, 3), (3, 2, 4)):
        m = mean_selector(sel)
        y = apply_map(m, 0, x)
        assert inclusion_excess(
            build_hull(y, interval_spec()), build_hull(x, interval_spec())
        )[0] <= 1e-9


# ---------------------------------------------------------------------------
# stripe map


def test_stripe_map_by_hand():
    m = stripe_map()
    x = Profile([[0.0, 0.0], [4.0, 0.0], [1.0, 2.0]])
    y = apply_map(m, 0, x)
    # agent 3 is 2 away from the chord, so the weight hits its floor 0
    assert y.coords[0].tolist() == [0.0, 0.0]
    assert y.coords[1].tolist() == [4.0, 0.0]
    assert np.allclose(y.coords[2], [0.2 * 4.0 + 0.8 * 1.0, 0.8 * 2.0])


def test_stripe_map_close_third_agent():
    m = stripe_map()
    x = Profile([[0.0, 0.0], [4.0, 0.0], [2.0, 0.5]])
    y = apply_map(m, 0, x)
    a = (1.0 - 0.5) / 2.0
    assert np.allclose(y.coords[1], [(1.0 - a) * 4.0, 0.0])


def test_stripe_map_degenerate_chord():
    m = stripe_map()
    x = Profile([[1.0, 1.0], [1.0, 1.0], [1.0, 4.0]])
    y = apply_map(m, 0, x)  # chord has zero length; distance to the point rules
    assert np.allclose(y.coords[1], [1.0, 1.0])


def test_stripe_custom_width_profile():
    m = stripe_map(width_profile=lambda l: 0.25)
    x = Profile([[0.0, 0.0], [4.0, 0.0], [9.0, 9.0]])
    y = apply_map(m, 0, x)
    assert np.allclose(y.coords[1], [3.0, 0.0])
    with pytest.raises(MapSpecError):
        descriptor_to_dict(m)


def test_a_custom_width_is_equal_only_to_itself():
    width = lambda l: 0.25  # noqa: E731
    m = stripe_map(width)
    assert m == m
    assert m != stripe_map(width) and m != stripe_map() and stripe_map() != m
    with pytest.raises(MapSpecError) as info:
        stripe_map(0.25)
    assert str(info.value) == "width_profile must be callable"


# ---------------------------------------------------------------------------
# midpoint map


def test_midpoint_map_exact():
    m = midpoint_map()
    x = Profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    y = apply_map(m, 0, x)
    assert y.coords.tolist() == [[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]]


@given(point_lists(2, n_min=3, n_max=3))
def test_midpoint_preserves_centroid(pts):
    x = Profile(np.array(pts, dtype=float))
    y = apply_map(midpoint_map(), 0, x)
    assert np.abs(y.centroid() - x.centroid()).max() <= 1e-12


def test_midpoint_halves_edges():
    x = Profile([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    y = apply_map(midpoint_map(), 0, x)
    assert abs(Profile(y.coords).diameter() - x.diameter() / 2) < 1e-15


# ---------------------------------------------------------------------------
# scale fixture and deformations


def test_scale_map_scales():
    y = apply_map(scale_map(2.0), 0, Profile([[1.0, -1.0]]))
    assert y.coords.tolist() == [[2.0, -2.0]]
    assert scale_map(2.0).claim is None


@pytest.mark.parametrize(
    "make, value",
    [
        (mean_selector, [2.7, 2, 2]),  # not truncated to (2, 2, 2)
        (vanishing_confidence, True),  # not epsilon 1.0
        (scale_map, "2"),  # not a doubling map
        (scale_map, float("inf")),
        (mean_selector, 5),
        (vanishing_confidence, "x"),
        (vanishing_confidence, None),
        (scale_map, None),
    ],
)
def test_constructors_reject_values_they_would_coerce(make, value):
    with pytest.raises(MapSpecError):
        make(value)


def test_deformation_registry():
    assert set(DEFORMATIONS) == {"identity", "log_exp"}
    phi = log_exp_deformation()
    x = np.array([0.5, 2.0])
    assert np.allclose(phi.inverse(phi.forward(x)), x, rtol=1e-15)


def test_deformed_map_conjugacy():
    inner = linear_map([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    g = deform(inner, log_exp_deformation())
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = Profile(rng.uniform(0.2, 5.0, size=(3, 1)))
        lhs = np.log(apply_map(g, 0, x).coords)
        rhs = apply_map(inner, 0, Profile(np.log(x.coords))).coords
        assert np.abs(lhs - rhs).max() < 1e-9


def test_deformed_map_domain_and_metadata():
    inner = linear_map([[1 / 3] * 3] * 3)
    g = deform(inner, log_exp_deformation())
    assert g.domain == "positive"
    assert g.claim == inner.claim
    with pytest.raises(DomainError):
        apply_map(g, 0, Profile([[1.0], [-2.0], [3.0]]))
    with pytest.raises(MapSpecError):
        deform(g, log_exp_deformation())  # no nesting


def test_deformed_uniform_is_geometric_mean():
    g = deform(linear_map([[1 / 3] * 3] * 3), log_exp_deformation())
    x = Profile([[1.0], [4.0], [16.0]])
    y = apply_map(g, 0, x)
    assert np.allclose(y.coords, 4.0, rtol=1e-12)  # (1*4*16)^(1/3)


def test_identity_deformation_maps_like_its_inner_map():
    inner = linear_map([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    g = deform(inner, identity_deformation())
    x = np.array([[1.0, -0.5], [-2.0, 0.25], [3.0, 7.0]])
    assert apply_map(g, 0, x).tobytes() == apply_map(inner, 0, x).tobytes()


# ---------------------------------------------------------------------------
# serialization


def _examples():
    return [
        linear_map([[0.5, 0.5], [0.25, 0.75]]),
        decaying_pair_family("quarter_power"),
        decaying_pair_family("one_over_t"),
        vanishing_confidence(0.5),
        mean_selector((2, 3, 2)),
        mean_selector((1, 2, 4)),
        stripe_map(),
        midpoint_map(),
        scale_map(2.0),
        deform(linear_map([[1 / 3] * 3] * 3), log_exp_deformation()),
    ]


def test_descriptor_roundtrip():
    for desc in _examples():
        data = descriptor_to_dict(desc)
        back = descriptor_from_dict(data)
        assert back == desc
        assert descriptor_to_dict(back) == data


def test_a_descriptor_is_not_equal_to_a_non_descriptor():
    assert midpoint_map().__eq__("midpoint") is NotImplemented
    assert midpoint_map() != "midpoint" and midpoint_map() != descriptor_to_dict(midpoint_map())


def test_descriptor_dict_schema():
    data = descriptor_to_dict(vanishing_confidence(1.0))
    assert set(data) == {"kind", "params", "domain", "start_index", "coordinate_map"}
    assert data["start_index"] == 1
    assert data["coordinate_map"] == {"kind": "identity"}


def test_descriptor_from_dict_errors():
    with pytest.raises(MapSpecError):
        descriptor_from_dict({"kind": "nope", "params": {}})
    with pytest.raises(MapSpecError):
        descriptor_from_dict({"kind": "vanishing_confidence", "params": {}})
    with pytest.raises(MapSpecError):
        descriptor_from_dict(
            {"kind": "midpoint", "params": {}, "start_index": 3}
        )
    with pytest.raises(MapSpecError):
        descriptor_from_dict(
            {"kind": "scale", "params": {"factor": 2.0}, "coordinate_map": {"kind": "identity"}}
        )
    with pytest.raises(MapSpecError):
        descriptor_from_dict(
            {"kind": "deformed", "params": {"deformation": "sinh", "inner": descriptor_to_dict(midpoint_map())}}
        )


def test_apply_shape_checks():
    m = midpoint_map()
    with pytest.raises(MapError):
        apply_map(m, 0, Profile([[0.0], [1.0]]))
    s = stripe_map()
    with pytest.raises(MapError):
        apply_map(s, 0, Profile([[0.0], [1.0], [2.0]]))  # needs d=2


def test_apply_map_rejects_a_one_dimensional_array():
    with pytest.raises(MapError) as info:
        apply_map(midpoint_map(), 0, np.zeros(3))
    assert str(info.value) == "expected a Profile, an (n, d) array or a (B, n, d) stack, got shape (3,)"


# ---------------------------------------------------------------------------
# stacks of profiles against one apply_map call per profile


def _picky_width(l: float) -> float:
    if l > 2.0:
        raise ValueError(f"no width for {l!r}")
    return 0.5 / (1.0 + l)


STACK_MAPS = (
    linear_map([[0.2, 0.5, 0.3], [0.0, 0.6, 0.4], [0.7, 0.0, 0.3]]),
    decaying_pair_family("quarter_power"),
    decaying_pair_family("one_over_t"),
    vanishing_confidence(0.5),
    mean_selector((1, 3, 4)),
    mean_selector((2, 2, 3)),
    stripe_map(),
    stripe_map(_picky_width),
    midpoint_map(),
    scale_map(1e308),
    deform(linear_map([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]), log_exp_deformation()),
    deform(mean_selector((3, 2, 1)), log_exp_deformation()),
)


@settings(max_examples=200)
@given(st.data())
def test_stack_matches_one_profile_calls(data):
    desc = data.draw(st.sampled_from(STACK_MAPS))
    n = (desc.n or data.draw(st.integers(1, 4))) + data.draw(st.sampled_from((0,) * 7 + (1,)))
    d = desc.d or data.draw(st.integers(1, 3))
    t = desc.start_index + data.draw(st.sampled_from((-1, 0, 0, 0, 1, 4)))
    items = []
    for _ in range(data.draw(st.integers(0, 6))):
        x = np.array(
            data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n * d, max_size=n * d))
        ).reshape(n, d)
        shape = data.draw(st.sampled_from(("free", "positive", "positive", "huge", "nan")))
        if shape == "positive":
            x = np.abs(x) + 0.125
        elif shape == "huge":
            x = x * 1e306
        elif shape == "nan":
            x[data.draw(st.integers(0, n - 1)), 0] = data.draw(st.sampled_from((np.nan, np.inf)))
        items.append(x)
    xs = np.array(items).reshape(len(items), n, d)

    images, expected = [], None
    with np.errstate(all="ignore"):  # one-profile calls may overflow; a stack stays silent
        for i, x in enumerate(xs):
            try:
                images.append(apply_map(desc, t, Profile(x)).coords)
            except Exception as exc:  # the first failure, whatever it is
                expected = (i, type(exc), str(exc))
                break
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ys, got = apply_map(desc, t, xs), None
        except StackError as exc:
            ys, got = exc.head, (exc.index, type(exc.error), str(exc.error))
    assert got == expected
    assert ys.shape == (len(images), n, d)
    assert ys.tobytes() == np.array(images).reshape(ys.shape).tobytes()


def test_stack_reports_the_first_failing_item():
    geo = mean_selector((3, 3, 3))
    good, off, bad = [[1.0], [2.0], [3.0]], [[1.0], [-2.0], [3.0]], [[1.0], [np.nan], [3.0]]
    head = apply_map(geo, 0, Profile(good)).coords[None]
    for stack, error in (([good, off, bad], DomainError), ([good, bad, off], GeometryError)):
        with pytest.raises(StackError) as info:
            apply_map(geo, 0, np.array(stack))
        assert info.value.index == 1 and type(info.value.error) is error
        assert info.value.head.tobytes() == head.tobytes()
    # a custom width profile that raises: the first raising item counts
    narrow = stripe_map(_picky_width)
    near = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]]
    far = [[0.0, 0.0], [1.0, 0.0], [0.5, 3.0]]
    with pytest.raises(StackError) as info:
        apply_map(narrow, 0, np.array([near, far, near, far]))
    assert info.value.index == 1 and "no width" in str(info.value.error)
    assert info.value.head.tobytes() == apply_map(narrow, 0, Profile(near)).coords[None].tobytes()


def test_stack_reports_whatever_a_custom_width_raises():
    # a TypeError, not a ValueError: the item's one-profile call raises it
    # too, and so does the stack, at that item
    def width(l):
        return None if l > 1.0 else 0.25

    narrow = stripe_map(width)
    near = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]]
    far = [[0.0, 0.0], [1.0, 0.0], [0.5, 3.0]]
    with pytest.raises(TypeError) as direct:
        apply_map(narrow, 0, Profile(far))
    with pytest.raises(StackError) as info:
        apply_map(narrow, 0, np.array([near, near, far, near]))
    assert info.value.index == 2 and type(info.value.error) is TypeError
    assert str(info.value.error) == str(direct.value)
    head = apply_map(narrow, 0, Profile(near)).coords
    assert info.value.head.tobytes() == np.array([head, head]).tobytes()


def test_stack_reports_an_item_off_the_domain_whose_image_is_finite():
    # log(0) is -inf, so the geometric mean of a profile holding a zero is
    # 0: a finite image of an item the one-profile call rejects
    geo = mean_selector((3, 3, 3))
    good, zero = [[1.0], [2.0], [4.0]], [[1.0], [0.0], [4.0]]
    with pytest.raises(DomainError):
        apply_map(geo, 0, Profile(zero))
    with pytest.raises(StackError) as info:
        apply_map(geo, 0, np.array([good, zero, good]))
    assert info.value.index == 1 and type(info.value.error) is DomainError


def test_deformed_map_rejects_a_non_finite_inner_image_in_every_form():
    # log(0.1) * 1e308 is -inf and exp(-inf) is 0: the outer image is
    # finite, but the inner map's image is not, and the inner call refuses it
    geo = deform(scale_map(1e308), log_exp_deformation())
    x = [[0.1], [1.0], [1.0]]
    with np.errstate(all="ignore"):
        for form in (Profile(x), np.array(x)):
            with pytest.raises(GeometryError, match="^coordinates must be finite$"):
                apply_map(geo, 0, form)
    with pytest.raises(StackError) as info:
        apply_map(geo, 0, np.array([[[1.0], [1.0], [1.0]], x]))
    assert info.value.index == 1 and type(info.value.error) is GeometryError
    assert str(info.value.error) == "coordinates must be finite"


# ---------------------------------------------------------------------------
# the bare (n, d) array form against the Profile form

_LIBRARY = averaging_map_library()


def _both_forms(desc, t, x):
    """apply_map of a Profile and of its coordinates: the same image bits
    (the array form returns a plain array), or the same error."""
    try:
        y = apply_map(desc, t, x)
    except Exception as exc:
        with pytest.raises(Exception) as info:
            apply_map(desc, t, x.coords)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return exc
    z = apply_map(desc, t, x.coords)
    assert type(z) is np.ndarray and z.shape == y.coords.shape
    assert z.tobytes() == y.coords.tobytes()
    return None


@settings(max_examples=200)
@given(st.data())
def test_array_form_matches_the_profile_form(data):
    entry = data.draw(st.sampled_from(_LIBRARY), label="entry")
    desc, box = entry.descriptor, entry.sample
    n, d = box["n"], box["d"]
    coord = st.floats(box["low"], box["high"], allow_nan=False)
    x = Profile(np.array(data.draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))))
    t = data.draw(st.integers(desc.start_index, desc.start_index + 20), label="t")
    assert _both_forms(desc, t, x) is None
    early = _both_forms(desc, desc.start_index - 1, x)
    assert type(early) is MapError and "starts at index" in str(early)
    if desc.n is not None:
        wrong = _both_forms(desc, t, Profile(np.vstack([x.coords, x.coords[:1]])))
        assert type(wrong) is MapError and "agents" in str(wrong)
    if desc.d is not None:
        wrong = _both_forms(desc, t, Profile(np.hstack([x.coords, x.coords[:, :1]])))
        assert type(wrong) is MapError and "dimension" in str(wrong)
    if desc.domain == "positive":
        off = x.coords.copy()
        off[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))] = data.draw(
            st.sampled_from([0.0, -0.0, 1e-300, -1.0, -4.0])
        )
        assert type(_both_forms(desc, t, Profile(off))) is DomainError
