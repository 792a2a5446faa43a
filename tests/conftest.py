import json
from importlib import resources

import numpy as np
import pytest

from c2patch.builtin import initial_geometry
from c2patch.geometry import (Patch, TwoPatchGeometry, bilinear_from_vertices,
                              geometry_from_dict)
from c2patch.gluing import GluingData, gluing_from_bilinear


def load_asset(name):
    ref = resources.files("c2patch") / "assets" / f"{name}.json"
    data = json.loads(ref.read_text())
    geo, gluing_raw = geometry_from_dict(data)
    gluing = GluingData.from_dict(gluing_raw) if gluing_raw else None
    return geo, gluing


def scaled(geo, s):
    """``geo`` with every control point multiplied by ``s``."""
    return TwoPatchGeometry(*(Patch(geo.patch(side).space,
                                    s * geo.patch(side).control_points)
                              for side in geo.sides))


@pytest.fixture(scope="session")
def geo_a():
    return initial_geometry("a")


@pytest.fixture(scope="session")
def geo_b():
    return initial_geometry("b")


@pytest.fixture(scope="session")
def bilinear_a(geo_a):
    return bilinear_from_vertices(geo_a)


@pytest.fixture(scope="session")
def bilinear_b(geo_b):
    return bilinear_from_vertices(geo_b)


@pytest.fixture(scope="session")
def gluing_a(bilinear_a):
    return gluing_from_bilinear(bilinear_a)


@pytest.fixture(scope="session")
def gluing_b(bilinear_b):
    return gluing_from_bilinear(bilinear_b)


@pytest.fixture(scope="session")
def fitted_a():
    geo, gluing = load_asset("fitted_a")
    return geo, gluing


@pytest.fixture(scope="session")
def fitted_b():
    geo, gluing = load_asset("fitted_b")
    return geo, gluing


def rng(seed=0):
    return np.random.default_rng(seed)


def left_limits(space, xs, max_deriv=0):
    """``space.eval_basis(xs, max_deriv)`` as arrays, with left limits at
    knots: the path of ``smooth.select_refined_bspline``, ``find_span(x,
    "left")`` and then ``_eval_spans``, over the points of ``xs``."""
    x = np.asarray(xs, dtype=float)
    span = space.find_span(x.reshape(-1), "left")
    ders = space._eval_spans(x.reshape(-1), span, max_deriv)
    return ((span - space.degree).reshape(x.shape),
            ders.reshape(x.shape + ders.shape[1:]))
