"""Two error rules every module shares: the one that reports a stack's first
failure, and the one finite-number test behind tolerances, map parameters,
sampler bounds and coordinates."""
import numpy as np
import pytest

from consdyn.certify import CertifyError, SampleConfig, check_averaging, properness_gap
from consdyn.geometry import (
    EmptyProfileError,
    GeometryError,
    Profile,
    StackError,
    first_failure,
    identity_spec,
    interval_spec,
)
from consdyn.maps import (
    DomainError,
    MapError,
    MapSpecError,
    apply_map,
    mean_selector,
    midpoint_map,
    scale_map,
    vanishing_confidence,
)
from consdyn.rendezvous import RendezvousError, run_protocol
from consdyn.simulate import SimulationError, run, single


def _probe(errors, calls):
    """A one-item call that raises errors[i] where there is one, and logs i."""

    def check(i):
        calls.append(i)
        if errors.get(i) is not None:
            raise errors[i]

    return check


def test_first_failure_raises_the_first_probe_that_raises():
    flags = np.array([False, True, False, True, True, True])
    bad, later = KeyError("item 3"), ValueError("item 4")
    calls, heads = [], []
    head = lambda i: heads.append(i) or f"head {i}"  # noqa: E731
    with pytest.raises(StackError) as info:
        first_failure(flags, _probe({0: OSError(), 3: bad, 4: later}, calls), head)
    exc = info.value
    assert calls == [1, 3]  # the unflagged item 0 is never asked; item 1 passes, so is skipped
    assert (exc.index, exc.error, exc.head) == (3, bad, "head 3")
    assert type(exc.index) is int and heads == [3]
    assert str(exc) == "stack item 3: 'item 3'"
    assert exc.__context__ is None and exc.__cause__ is None


def test_first_failure_returns_none_without_a_raising_probe():
    calls = []
    head = lambda i: pytest.fail("no head without a failure")  # noqa: E731
    assert first_failure(np.zeros(4, dtype=bool), _probe({}, calls), head) is None
    assert first_failure(np.array([True, False, True]), _probe({1: OSError()}, calls), head) is None
    assert calls == [0, 2]


@pytest.mark.parametrize(
    "desc, spec, coords, error, message",
    [
        (mean_selector((3, 3, 3)), interval_spec(), [[1.0], [-1.0], [2.0]], DomainError,
         "mean_selector(3, 3, 3) requires strictly positive coordinates"),
        (midpoint_map(), identity_spec(), [[1.0, 0.0], [-1.0, 0.0]], MapError, "midpoint expects 3 agents, got 2"),
    ],
    ids=["off-domain", "wrong-agent-count"],
)
def test_properness_gap_raises_its_one_item_failure(desc, spec, coords, error, message):
    """A one-profile stack that fails raises the item's own error, not a StackError."""
    with pytest.raises(Exception) as info:
        properness_gap(desc, 0, spec, Profile(coords))
    assert type(info.value) is error and str(info.value) == message


def test_apply_map_on_a_stack_of_empty_profiles_fails_at_item_0():
    with pytest.raises(StackError) as info:
        apply_map(scale_map(2.0), 0, np.zeros((3, 0, 2)))
    assert info.value.index == 0
    assert type(info.value.error) is EmptyProfileError


HUGE = 10**400  # an integer beyond the floats: float(HUGE) raises OverflowError
PAIR = [[1.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda x: run(single(scale_map(0.5)), Profile(PAIR), tol=x), SimulationError, "tol must be"),
        (lambda x: run_protocol(PAIR, tol=x), RendezvousError, "tol must be"),
        (lambda x: check_averaging(scale_map(0.5), profiles=[Profile(PAIR)], tol=x), CertifyError, "tol must be"),
        (scale_map, MapSpecError, "factor must be a finite number"),
        (vanishing_confidence, MapSpecError, "epsilon must be a positive finite number"),
        (lambda x: SampleConfig(seed=0, count=1, n=2, d=1, low=x), ValueError, "low must be"),
        (lambda x: SampleConfig(seed=0, count=1, n=2, d=1, high=x), ValueError, "high must be"),
        (lambda x: Profile([[x]]), GeometryError, "coordinates must be finite"),
        (lambda x: Profile(np.array([[0.0], [x]], dtype=object)), GeometryError, "coordinates must be finite"),
        (lambda x: run_protocol([[x, 0.0], [0.0, 0.0]]), RendezvousError, "positions must be finite"),
    ],
    ids=["run-tol", "run_protocol-tol", "check_averaging-tol", "scale_map", "vanishing_confidence",
         "SampleConfig-low", "SampleConfig-high", "Profile", "Profile-object", "run_protocol-initial"],
)
def test_integers_beyond_the_floats_raise_the_documented_error(call, error, message, sign):
    with pytest.raises(Exception) as info:
        call(sign * HUGE)
    assert type(info.value) is error
    assert str(info.value).startswith(message)


def test_finite_calls_still_pass():
    """Integers beyond int64 but within the floats are finite numbers."""
    assert scale_map(10**300).params == {"factor": 1e300}
    assert SampleConfig(seed=0, count=1, n=2, d=1, low=-(10**300)).low == -(10**300)
    assert Profile([[10**300]]).coords.tolist() == [[1e300]]
