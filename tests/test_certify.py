import itertools
import json
import math
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from consdyn.certify import (
    CertReport,
    _check_sampler,
    CertifyError,
    InclusionViolationError,
    MAX_TIME_STEPS,
    ProfileRecord,
    SampleConfig,
    Witness,
    analyze_matrix,
    check_averaging,
    check_equiproper,
    default_time_range,
    is_scrambling,
    properness_gap,
    regularity_index,
    scrambling_coefficient,
    scrambling_index,
)
from consdyn.geometry import (
    Profile,
    UnsupportedDimensionError,
    axis_direction_spec,
    build_hull,
    direction_spec,
    hull_step,
    identity_spec,
    interval_spec,
)
from consdyn.maps import (
    MapDescriptor,
    apply_map,
    decaying_pair_family,
    deform,
    linear_map,
    log_exp_deformation,
    mean_selector,
    midpoint_map,
    scale_map,
    stripe_map,
    vanishing_confidence,
)

A_CYCLE_MIX = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]
A_TAU_HALF = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]


# ---------------------------------------------------------------------------
# independent oracle: support-pattern powers in exact boolean arithmetic


def boolean_power_indexes(matrix, cap=64):
    pos = np.asarray(matrix) > 1e-12
    n = pos.shape[0]
    p = pos.copy()
    scr = reg = None
    for k in range(1, cap + 1):
        pairs_share = all(
            (p[i] & p[j]).any() for i, j in itertools.combinations(range(n), 2)
        )
        if scr is None and pairs_share:
            scr = k
        if reg is None and p.all():
            reg = k
        if scr is not None and reg is not None:
            break
        p = (p.astype(int) @ pos.astype(int)) > 0
    return scr, reg


def random_stochastic(rng, n, sparse=False):
    a = rng.dirichlet(np.ones(n), size=n)
    if sparse:
        mask = rng.uniform(size=(n, n)) < 0.5
        for i in range(n):
            keep = rng.integers(n)
            mask[i, keep] = True
        a = a * mask
        a = a / a.sum(axis=1, keepdims=True)
    return a


# ---------------------------------------------------------------------------
# averaging checks


def test_check_averaging_midpoint_clean():
    rep = check_averaging(
        midpoint_map(), samples=SampleConfig(seed=0, count=100, n=3, d=2)
    )
    assert rep.ok
    assert len(rep.records) == 100
    assert all(r.included for r in rep.records)
    assert rep.family_min_gap > 0


def test_check_averaging_scale_witness():
    rep = check_averaging(
        scale_map(2.0),
        spec=identity_spec(),
        samples=SampleConfig(seed=1, count=50, n=4, d=2, low=0.5, high=1.5),
    )
    assert not rep.ok
    w = rep.witness
    assert w.excess > 0.1
    assert w.map_label == "scale"
    # witness profile reproduces the failure
    x = Profile(np.array(w.profile))
    with pytest.raises(InclusionViolationError):
        properness_gap(scale_map(2.0), 0, identity_spec(), x)


def test_check_averaging_requires_spec_or_claim():
    with pytest.raises(CertifyError):
        check_averaging(scale_map(2.0), samples=SampleConfig(seed=0, count=5, n=2, d=1))
    with pytest.raises(CertifyError):
        check_averaging(midpoint_map())  # no samples, no profiles


def test_check_averaging_rejects_an_empty_time_range():
    # with no time index nothing is checked: the doubling map must not
    # come back certified
    samples = SampleConfig(seed=0, count=3, n=2, d=1, low=0.5)
    with pytest.raises(CertifyError, match="time"):
        check_averaging(scale_map(2.0), identity_spec(), samples=samples, time_range=())


def test_check_averaging_rejects_an_empty_profile_list():
    # no profile, no certificate: the doubling map must not come back
    # certified either
    with pytest.raises(CertifyError, match="no profile to check"):
        check_averaging(scale_map(2.0), identity_spec(), profiles=[])
    with pytest.raises(CertifyError, match="all supplied profiles are at consensus"):
        check_equiproper([scale_map(2.0)], identity_spec(), profiles=[])


def test_check_equiproper_rejects_an_empty_family():
    samples = SampleConfig(seed=0, count=3, n=3, d=1)
    with pytest.raises(CertifyError, match="empty family"):
        check_equiproper([], identity_spec(), samples=samples)


def test_check_equiproper_rejects_a_family_with_no_time_index():
    samples = SampleConfig(seed=0, count=3, n=3, d=1)
    with pytest.raises(CertifyError, match="time"):
        check_equiproper([(midpoint_map(), ())], identity_spec(), samples=samples)


def test_equiproper_scans_of_huge_profiles_are_silent():
    samples = SampleConfig(seed=0, count=5, n=3, d=1, low=0.0, high=1e300)
    huge = [Profile([[0.0], [1e300], [-1e300]]), Profile([[1.0], [2.0], [3.0]])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        drawn = check_equiproper([midpoint_map()], identity_spec(), samples=samples)
        supplied = check_equiproper([midpoint_map()], identity_spec(), profiles=huge)
    assert drawn.equiproper and len(drawn.records) == 5
    assert supplied.equiproper and len(supplied.records) == 2


def test_checks_need_samples_or_profiles():
    with pytest.raises(CertifyError, match="pass either samples= or profiles="):
        check_averaging(midpoint_map(), identity_spec())
    with pytest.raises(CertifyError, match="pass either samples= or profiles="):
        check_equiproper([midpoint_map()], identity_spec())


def test_convex_hull_checks_reject_samples_above_the_plane():
    # the hull of the first sampled profile cannot be built: the scan
    # raises what build_hull raises, not a StackError
    with pytest.raises(UnsupportedDimensionError) as direct:
        build_hull(Profile(np.eye(3)), identity_spec())
    samples = SampleConfig(seed=0, count=3, n=3, d=3)
    for check in (check_averaging, check_equiproper):
        family = midpoint_map() if check is check_averaging else [midpoint_map()]
        with pytest.raises(UnsupportedDimensionError) as scanned:
            check(family, identity_spec(), samples=samples)
        assert str(scanned.value) == str(direct.value)


def test_check_averaging_explicit_profiles():
    profiles = [Profile([[0.0], [1.0], [2.0]]), Profile([[5.0], [5.0], [6.0]])]
    rep = check_averaging(midpoint_map(), profiles=profiles)
    assert len(rep.records) == 2
    assert rep.ok


def test_sampler_domain_mismatch():
    geo = mean_selector((3, 3, 3))
    with pytest.raises(CertifyError):
        check_averaging(geo, samples=SampleConfig(seed=0, count=5, n=3, d=1, low=-1.0))
    with pytest.raises(CertifyError):
        check_averaging(
            midpoint_map(), samples=SampleConfig(seed=0, count=5, n=4, d=1)
        )


def test_default_time_range():
    assert default_time_range(midpoint_map()) == (0,)
    q = decaying_pair_family("quarter_power")
    assert default_time_range(q, 5) == (1, 2, 3, 4, 5)


def test_time_steps_above_the_cap_are_refused():
    q = decaying_pair_family("quarter_power")
    assert len(default_time_range(q, MAX_TIME_STEPS)) == MAX_TIME_STEPS
    with pytest.raises(CertifyError, match=f"time_steps must be at most {MAX_TIME_STEPS}, got {10**12}"):
        default_time_range(q, 10**12)
    assert default_time_range(midpoint_map(), 10**12) == (0,)  # no time indices to build
    with pytest.raises(CertifyError, match="time_steps must be at most"):
        check_averaging(q, samples=SampleConfig(seed=0, count=3, n=2, d=1), time_steps=10**12)


def test_quarter_power_gap_decays_exactly():
    q = decaying_pair_family("quarter_power")
    x = Profile([[0.0], [1.0]])
    for t in range(1, 15):
        assert properness_gap(q, t, identity_spec(), x) == 0.25**t
    assert properness_gap(q, 30, identity_spec(), x) < 1e-15


def test_properness_gap_deformed_map_uses_flat_coordinates():
    g = deform(linear_map(A_TAU_HALF), log_exp_deformation())
    x = Profile([[1.0], [4.0], [16.0]])
    gap = properness_gap(g, 0, identity_spec(), x)
    # in log coordinates the profile is (0, log4, log16); the inner map
    # contracts the interval by its extreme row weights
    logs = np.log(x.coords[:, 0])
    y = np.asarray(A_TAU_HALF) @ logs
    expect = max(y.min() - logs.min(), logs.max() - y.max())
    assert abs(gap - expect) < 1e-12


# ---------------------------------------------------------------------------
# equiproperness


def test_equiproper_valid_selectors_pass():
    family = [mean_selector(s) for s in ((2, 2, 2), (2, 3, 2), (1, 3, 1))]
    rep = check_equiproper(
        family,
        spec=interval_spec(),
        samples=SampleConfig(seed=9, count=60, n=3, d=1, low=0.5, high=4.0),
    )
    assert rep.witness is None
    assert rep.equiproper is True
    assert rep.family_min_gap >= rep.gap_floor
    assert all(r.min_gap > 0 for r in rep.records)


def test_equiproper_quarter_family_fails_floor():
    fam = [(decaying_pair_family("quarter_power"), range(1, 31))]
    rep = check_equiproper(
        fam,
        spec=identity_spec(),
        samples=SampleConfig(seed=2, count=40, n=2, d=1),
    )
    assert rep.witness is None
    assert rep.equiproper is False
    assert rep.family_min_gap < 1e-9


def test_equiproper_aborts_on_violation():
    fam = [midpoint_map(), scale_map(2.0)]
    rep = check_equiproper(
        fam,
        spec=identity_spec(),
        samples=SampleConfig(seed=3, count=30, n=3, d=2, low=0.5, high=1.5),
    )
    assert rep.witness is not None
    assert rep.equiproper is None
    assert len(rep.records) < 30  # aborted at the first offending profile


def test_equiproper_consensus_profiles_are_rejected():
    prof = [Profile([[1.0], [1.0], [1.0]]), Profile([[0.0], [1.0], [2.0]])]
    rep = check_equiproper([midpoint_map()], profiles=prof, spec=identity_spec())
    assert len(rep.records) == 1
    with pytest.raises(CertifyError):
        check_equiproper(
            [midpoint_map()], profiles=[Profile([[1.0], [1.0], [1.0]])],
            spec=identity_spec(),
        )


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(seed=0, count=0, n=2, d=1)
    with pytest.raises(ValueError):
        SampleConfig(seed=0, count=5, n=2, d=1, low=1.0, high=1.0)
    cfg = SampleConfig(seed=4, count=3, n=2, d=2, low=-1.0, high=2.0)
    draws = cfg.draw()
    again = cfg.draw()
    assert len(draws) == 3
    assert all((a.coords == b.coords).all() for a, b in zip(draws, again))


@pytest.mark.parametrize(
    "field",
    [
        {"count": 2.5}, {"n": True}, {"d": "3"}, {"count": np.float64(4.0)},
        {"seed": True}, {"seed": None}, {"seed": -1}, {"seed": 1.5},
        {"low": False}, {"high": "1"}, {"low": None}, {"high": np.bool_(True)},
    ],
)
def test_sample_config_rejects_non_integers_and_non_numbers(field):
    with pytest.raises(ValueError):
        SampleConfig(**{"seed": 0, "count": 3, "n": 3, "d": 1, **field})


# ---------------------------------------------------------------------------
# matrix theory


def test_tau_examples():
    assert scrambling_coefficient(A_TAU_HALF) == 0.5
    assert scrambling_coefficient(np.eye(3)) == 1.0
    assert scrambling_coefficient([[1 / 3] * 3] * 3) == 0.0
    assert scrambling_coefficient([[1.0]]) == 0.0


def test_is_scrambling_examples():
    assert is_scrambling(A_TAU_HALF)
    assert not is_scrambling(np.eye(3))
    assert not is_scrambling(A_CYCLE_MIX)  # rows 0 and 1 share no column
    assert is_scrambling([[1.0]])


def test_indexes_match_boolean_oracle_on_cycle_mix():
    scr, reg = boolean_power_indexes(A_CYCLE_MIX)
    assert scrambling_index(A_CYCLE_MIX) == scr == 3
    assert regularity_index(A_CYCLE_MIX) == reg == 5


def test_indexes_match_boolean_oracle_random():
    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        a = random_stochastic(rng, n, sparse=True)
        scr, reg = boolean_power_indexes(a)
        assert scrambling_index(a) == scr
        assert regularity_index(a) == reg


def test_index_cap_returns_none():
    # a permutation matrix never becomes scrambling
    p = [[0.0, 1.0], [1.0, 0.0]]
    assert scrambling_index(p, cap=16) is None
    assert regularity_index(p, cap=16) is None


def test_tau_contraction_and_scrambling_equivalence():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = random_stochastic(rng, n, sparse=bool(rng.integers(2)))
        tau = scrambling_coefficient(a)
        assert (tau < 1.0) == is_scrambling(a)
        d = int(rng.integers(1, 3))
        x = rng.uniform(-5, 5, size=(n, d))
        dx = Profile(x).diameter()
        dax = Profile(a @ x).diameter()
        assert dax <= tau * dx + 1e-9


def test_analyze_matrix():
    info = analyze_matrix(A_CYCLE_MIX)
    assert info.scrambling is False
    assert info.scrambling_index == 3
    assert info.regularity_index == 5
    assert 0.0 <= info.tau <= 1.0
    d = info.to_dict()
    assert set(d) == {"tau", "scrambling", "scrambling_index", "regularity_index", "cap"}


# ---------------------------------------------------------------------------
# batched scans against the profile-by-profile loop they replaced


def _ref_transformed(desc, profile):
    if desc.kind == "deformed":
        return Profile(desc.deformation.forward(profile.coords))
    return profile


def _ref_gap(desc, t, spec, profile, tol, profile_id):
    y = apply_map(desc, t, profile)
    inner = build_hull(_ref_transformed(desc, y), spec)
    outer = build_hull(_ref_transformed(desc, profile), spec)
    excess, vertex, gap = hull_step(inner, outer)
    if excess > tol:
        raise InclusionViolationError(
            Witness(
                map_label=desc.label(),
                profile_id=profile_id,
                time_index=t,
                vertex=tuple(float(v) for v in vertex),
                excess=excess,
                profile=tuple(tuple(float(c) for c in row) for row in profile.coords),
            )
        )
    return gap


def _ref_averaging(desc, spec, samples, profiles, tol, times):
    if profiles is None:
        _check_sampler([desc], samples)
        rng = np.random.default_rng(samples.seed)
        profiles = [
            Profile(rng.uniform(samples.low, samples.high, size=(samples.n, samples.d)))
            for _ in range(samples.count)
        ]
    records, witness = [], None
    for pid, x in enumerate(profiles):
        gaps, worst, ok = [], 0.0, True
        for t in times:
            try:
                gaps.append(_ref_gap(desc, t, spec, x, tol, pid))
            except InclusionViolationError as exc:
                ok, worst, witness = False, exc.witness.excess, exc.witness
                break
        records.append(ProfileRecord(pid, ok, min(gaps) if gaps else None, worst))
        if witness is not None:
            break
    finite = [r.min_gap for r in records if r.included and r.min_gap is not None]
    return CertReport(
        check="averaging", labels=(desc.label(),), spec=spec, records=tuple(records),
        family_min_gap=min(finite) if finite else None, witness=witness, tol=tol,
        sample=samples,
    )


def _ref_equiproper(members, spec, samples, profiles, tol, gap_floor, consensus_tol):
    if profiles is None:
        _check_sampler([desc for desc, _ in members], samples)
        rng = np.random.default_rng(samples.seed)
        kept, attempts = [], 0
        while len(kept) < samples.count:
            attempts += 1
            if attempts > 100 * samples.count:
                raise CertifyError("sampler cannot avoid consensus profiles")
            x = Profile(rng.uniform(samples.low, samples.high, size=(samples.n, samples.d)))
            if x.diameter() > consensus_tol:
                kept.append(x)
        profiles = kept
    else:
        profiles = [x for x in profiles if x.diameter() > consensus_tol]
        if not profiles:
            raise CertifyError("all supplied profiles are at consensus")
    records, witness = [], None
    for pid, x in enumerate(profiles):
        gaps = []
        try:
            for desc, times in members:
                for t in times:
                    gaps.append(_ref_gap(desc, t, spec, x, tol, pid))
        except InclusionViolationError as exc:
            witness = exc.witness
            records.append(ProfileRecord(pid, False, None, exc.witness.excess))
            break
        records.append(ProfileRecord(pid, True, min(gaps), 0.0))
    finite = [r.min_gap for r in records if r.min_gap is not None]
    family_min = min(finite) if finite else None
    return CertReport(
        check="equiproper", labels=tuple(d.label() for d, _ in members), spec=spec,
        records=tuple(records), family_min_gap=family_min, witness=witness, tol=tol,
        sample=samples, gap_floor=gap_floor,
        equiproper=None if witness is not None else bool(
            family_min is not None and family_min >= gap_floor
        ),
        consensus_tol=consensus_tol,
    )


def _outcome(scan):
    """The report as exact JSON text, or the exception's type and message."""
    try:
        return json.dumps(scan().to_dict(), sort_keys=True)
    except Exception as exc:  # the loop's first failure, whatever it is
        return type(exc).__name__, str(exc)


def _narrow_width(l: float) -> float:
    if l > 1.5:
        raise ValueError(f"no stripe width for line distance {l!r}")
    return 0.5 / (1.0 + l)


A_RANDOM_MIX = [[0.2, 0.5, 0.3], [0.0, 0.6, 0.4], [0.7, 0.0, 0.3]]
GEOMETRIC = deform(linear_map(A_TAU_HALF), log_exp_deformation())
# every shipped kind, by the dimensions it runs in
MAPS = {
    1: (
        linear_map(A_RANDOM_MIX), decaying_pair_family("quarter_power"),
        decaying_pair_family("one_over_t"), vanishing_confidence(1.0),
        mean_selector((2, 3, 2)), mean_selector((1, 2, 4)), midpoint_map(),
        scale_map(0.5), scale_map(2.0), scale_map(1e308), GEOMETRIC,
        deform(mean_selector((3, 2, 1)), log_exp_deformation()),
    ),
    2: (
        linear_map(A_CYCLE_MIX), decaying_pair_family("one_over_t"),
        mean_selector((4, 2, 2)), stripe_map(), stripe_map(_narrow_width),
        midpoint_map(), scale_map(0.5), scale_map(1e308), GEOMETRIC,
    ),
    3: (linear_map(A_RANDOM_MIX), midpoint_map(), scale_map(2.0), mean_selector((2, 2, 3))),
}
SPECS = {
    1: (identity_spec(), interval_spec()),
    2: (
        identity_spec(), interval_spec(), axis_direction_spec(),
        direction_spec([(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]),
    ),
    3: (interval_spec(),) * 3 + (identity_spec(),),  # no convex hulls above the plane
}


@st.composite
def _profiles(draw, desc: MapDescriptor, d: int) -> list[Profile]:
    """A few profiles around the map's agent count: some of another count,
    repeated ones (consensus), off-domain ones, huge ones."""
    n = desc.n or 3
    out = []
    for _ in range(draw(st.integers(1, 7))):
        rows = n + draw(st.sampled_from((0, 0, 0, 0, 1, -1))) if n > 1 else n
        coords = draw(
            st.lists(
                st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=d, max_size=d),
                min_size=max(rows, 1), max_size=max(rows, 1),
            )
        )
        x = np.array(coords, dtype=float)
        shape = draw(st.sampled_from(("free", "positive", "positive", "consensus", "huge")))
        if shape == "positive":
            x = np.abs(x) + 0.125
        elif shape == "consensus":
            x = np.repeat(x[:1], len(x), axis=0)
        elif shape == "huge":
            x = x * 1e306
        out.append(Profile(x))
    return out


@settings(max_examples=250)
@given(st.data())
def test_batched_scans_match_the_profile_loop(data):
    d = data.draw(st.sampled_from((1, 1, 2, 2, 3)))
    spec = data.draw(st.sampled_from(SPECS[d]))
    check = data.draw(st.sampled_from(("averaging", "equiproper")))
    members = []
    for desc in data.draw(
        st.lists(st.sampled_from(MAPS[d]), min_size=1, max_size=1 if check == "averaging" else 3)
    ):
        first = desc.start_index - data.draw(st.sampled_from((0,) * 7 + (1,)))
        span = data.draw(st.integers(1, 6)) if desc.time_dependent else 1
        members.append((desc, tuple(range(first, first + span))))
    desc = members[0][0]
    tol = data.draw(st.sampled_from((1e-9, 0.0, 0.05)))
    samples = profiles = None
    if data.draw(st.booleans()):
        positive = any(m.domain == "positive" for m, _ in members)
        boxes = ((0.5, 4.0), (1e-3, 1e-2)) if positive else ((-2.0, 2.0), (0.5, 1.5))
        low, high = data.draw(st.sampled_from(boxes))
        samples = SampleConfig(
            seed=data.draw(st.integers(0, 2**16)), count=data.draw(st.integers(1, 8)),
            n=desc.n or data.draw(st.integers(1, 4)), d=d, low=low, high=high,
        )
    else:
        profiles = data.draw(_profiles(desc, d))

    if check == "averaging":
        times = members[0][1]
        reference = lambda: _ref_averaging(desc, spec, samples, profiles, tol, times)
        batched = lambda: check_averaging(
            desc, spec, samples=samples, profiles=profiles, tol=tol, time_range=times
        )
    else:
        floor, consensus = 1e-9, data.draw(st.sampled_from((1e-6, 0.5)))
        reference = lambda: _ref_equiproper(members, spec, samples, profiles, tol, floor, consensus)
        batched = lambda: check_equiproper(
            members, spec, samples=samples, profiles=profiles, tol=tol,
            gap_floor=floor, consensus_tol=consensus,
        )
    # the one-profile loop may overflow on huge profiles; the scans stay silent
    with np.errstate(all="ignore"):
        expected = _outcome(reference)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(batched)
    assert got == expected


def _late_violation():
    # scale by 1/2 keeps a hull that holds the origin; the fourth profile
    # does not hold it, and neither does the sixth
    around = [Profile([[-1.0 - k], [2.0 + k], [0.5]]) for k in range(3)]
    return around + [Profile([[1.0], [3.0], [2.0]]), around[0], Profile([[2.0], [5.0], [4.0]])]


@pytest.mark.parametrize(
    "desc, spec, profiles, tol",
    [
        pytest.param(  # off domain at the third profile
            GEOMETRIC, identity_spec(),
            [Profile([[1.0], [2.0], [3.0]]), Profile([[0.5], [4.0], [2.0]]),
             Profile([[1.0], [-2.0], [3.0]]), Profile([[1.0], [2.0], [5.0]])],
            1e-9, id="off-domain",
        ),
        pytest.param(  # the image overflows at the second profile
            scale_map(1e308), interval_spec(),
            [Profile([[0.25], [-0.5]]), Profile([[3.0], [-2.0]]), Profile([[0.5], [0.25]])],
            1e-9, id="overflow",
        ),
        pytest.param(
            scale_map(0.5), identity_spec(), _late_violation(), 1e-9, id="late-violation"
        ),
        pytest.param(  # ((t-1) v + v)/t rounds above v first at t = 5
            decaying_pair_family("one_over_t"), interval_spec(),
            [Profile([[0.0], [1.0]]), Profile([[-1.0], [2.0]]),
             Profile([[-1.901493276465204], [-1.901493276465204]]), Profile([[1.0], [1.0]])],
            0.0, id="late-time",
        ),
        pytest.param(  # the midpoint map takes three agents; the third profile has four
            midpoint_map(), identity_spec(),
            [Profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             Profile([[2.0, 1.0], [1.0, 3.0], [0.0, 0.0]]),
             Profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])],
            1e-9, id="mixed-counts",
        ),
        pytest.param(  # mixed counts a map of any count accepts
            scale_map(0.5), interval_spec(),
            [Profile([[-1.0], [1.0]]), Profile([[-1.0], [1.0], [0.5]]), Profile([[-1.0], [1.0]]),
             Profile([[1.0], [2.0], [0.5], [3.0]])],
            1e-9, id="mixed-counts-accepted",
        ),
    ],
)
def test_batched_scans_match_the_loop_on_failures(desc, spec, profiles, tol):
    times = default_time_range(desc, 8)
    report = _outcome(
        lambda: check_averaging(desc, spec, profiles=profiles, tol=tol, time_range=times)
    )
    assert report == _outcome(lambda: _ref_averaging(desc, spec, None, profiles, tol, times))
    assert "witness" in report or "Error" in report[0]
    family = [(midpoint_map(), (0,)), (desc, times)] if desc.n in (None, 3) else [(desc, times)]
    assert _outcome(
        lambda: check_equiproper(family, spec, profiles=profiles, tol=tol)
    ) == _outcome(lambda: _ref_equiproper(family, spec, None, profiles, tol, 1e-9, 1e-6))


@pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)])
def test_a_witness_before_a_failing_hull_wins(order):
    """The scan puts a witness before a later failure: the huge profile's
    image is finite, so the map passes, but its octagon corners overflow
    and build_hull raises for it."""
    spec = direction_spec([(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)) for k in range(8)])
    desc, times = scale_map(0.5), (0,)
    pool = (
        Profile([[-1.0, -1.0], [2.0, -1.0], [0.0, 2.0]]),  # holds the origin
        Profile([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]),  # halved, it leaves its hull
        Profile(np.array([[1.78, 1.721], [0.664, 0.539], [0.675, -0.398]]) * 1e308),
    )
    profiles = [pool[i] for i in order]
    with np.errstate(all="ignore"):  # the reference's own hull_step overflows
        expected = _outcome(lambda: _ref_averaging(desc, spec, None, profiles, 1e-9, times))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(lambda: check_averaging(desc, spec, profiles=profiles, time_range=times))
    assert got == expected
    if order[1] == 1:
        assert json.loads(got)["witness"]["profile_id"] == 1
    else:
        assert got == ("GeometryError", "coordinates must be finite")


@pytest.mark.parametrize(
    "call",
    [
        lambda bad: check_averaging(
            scale_map(2.0), identity_spec(),
            samples=SampleConfig(seed=0, count=5, n=2, d=1, low=0.5), tol=bad,
        ),
        lambda bad: check_equiproper(
            [midpoint_map()], identity_spec(),
            samples=SampleConfig(seed=0, count=5, n=3, d=1), gap_floor=bad,
        ),
        lambda bad: check_equiproper(
            [midpoint_map()], identity_spec(),
            samples=SampleConfig(seed=0, count=5, n=3, d=1), consensus_tol=bad,
        ),
        lambda bad: check_equiproper(
            [midpoint_map()], identity_spec(),
            samples=SampleConfig(seed=0, count=5, n=3, d=1), tol=bad,
        ),
        lambda bad: properness_gap(
            scale_map(2.0), 0, identity_spec(), Profile([[1.0], [2.0]]), tol=bad
        ),
    ],
    ids=["averaging-tol", "equiproper-gap-floor", "equiproper-consensus-tol",
         "equiproper-tol", "properness-gap-tol"],
)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
def test_certify_rejects_bad_tolerances(call, bad):
    with pytest.raises(CertifyError, match="finite number >= 0"):
        call(bad)


def test_zero_tolerance_stays_valid():
    rep = check_averaging(
        scale_map(2.0), identity_spec(),
        samples=SampleConfig(seed=0, count=5, n=2, d=1, low=0.5), tol=0.0,
    )
    assert rep.tol == 0.0 and not rep.ok


def test_sample_config_takes_numpy_integers_and_stores_ints():
    cfg = SampleConfig(seed=np.int64(3), count=np.int64(2), n=np.int32(3), d=np.uint8(1))
    assert [type(v) for v in (cfg.seed, cfg.count, cfg.n, cfg.d)] == [int] * 4
    assert json.loads(json.dumps(cfg.to_dict())) == {
        "seed": 3, "count": 2, "n": 3, "d": 1, "low": -1.0, "high": 1.0,
    }
    assert cfg.stack().tobytes() == SampleConfig(seed=3, count=2, n=3, d=1).stack().tobytes()
    with pytest.raises(ValueError, match="count must be a positive integer"):
        SampleConfig(seed=0, count=np.int64(0), n=3, d=1)
