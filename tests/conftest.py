import json

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, settings

settings.register_profile(
    "research",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("research")

finite = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False, width=64
)
positive = st.floats(
    min_value=0.25, max_value=16.0, allow_nan=False, allow_infinity=False, width=64
)


def point_lists(d: int, n_min: int = 1, n_max: int = 8, elements=finite):
    return st.lists(
        st.tuples(*([elements] * d)), min_size=n_min, max_size=n_max
    )


def random_profile(rng: np.random.Generator, n: int, d: int, low=-2.0, high=2.0):
    return rng.uniform(low, high, size=(n, d))


def strict_json(path):
    """The content of a JSON file that must be strict JSON: NaN, Infinity
    and -Infinity fail the test."""
    def refuse(constant):
        raise AssertionError(f"{path.name} holds {constant}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)
