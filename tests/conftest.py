import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from trivisit.geom_core import Point2, Triangle, triangle_from_angles

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    # The pose strategies of ``poses`` draw a batch of instances from one
    # byte string of about 136 bytes per instance.
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.large_base_example],
)
settings.load_profile("ci")

MIN_ANGLE = math.radians(1.0)


def random_triangle(rng, min_angle=MIN_ANGLE) -> Triangle:
    """Random non-obtuse standard-form triangle; posed instances come from
    the strategies of ``poses``."""
    while True:
        b = rng.uniform(min_angle, math.pi / 2)
        c = rng.uniform(min_angle, math.pi / 2)
        a = math.pi - b - c
        if min_angle < a <= math.pi / 2:
            break
    return triangle_from_angles(b, c)


def apexes(stds) -> np.ndarray:
    """The (p, q) apex columns of standard-form triangles, for a stacked
    ``TriangleKernel`` or the ratio certifier."""
    return np.array([t.a for t in stds]).T


def random_interior_point(rng, t: Triangle) -> Point2:
    w = rng.dirichlet((1.0, 1.0, 1.0))
    xy = w[0] * np.asarray(t.a) + w[1] * np.asarray(t.b) + w[2] * np.asarray(t.c)
    return Point2(float(xy[0]), float(xy[1]))


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
