"""Tests for gluing data extraction and derived invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from c2patch.bspline import SplineSpace1D, make_knot_vector, uniform_inner_knots
from c2patch.geometry import (GeometryError, Patch, TwoPatchGeometry,
                              bilinear_from_vertices, refine_geometry)
from c2patch.gluing import (GLUING_KEYS, GluingData, GluingError,
                            ResidualReport, beta_from_gluing,
                            gluing_from_bilinear, gluing_invariants,
                            verify_bilinear_like, verify_sign_condition)
from c2patch.smooth import C2Report, build_basis_v2, dim_gamma, dim_v2, dim_w2
from tests.conftest import load_asset, scaled


def bilinear(corners_L, corners_R):
    """Two bilinear patches from corner dictionaries {(i,j): (x,y)}."""
    space = SplineSpace1D(make_knot_vector(1, 0, 0))
    patches = []
    for corners in (corners_L, corners_R):
        cp = np.zeros((2, 2, 2))
        for (i, j), xy in corners.items():
            cp[i, j] = xy
        patches.append(Patch(space, cp))
    return TwoPatchGeometry(*patches)


def gluing_data(*coefs):
    """Gluing data from the coefficients of alpha_L, alpha_R, beta_L, beta_R."""
    return GluingData.from_dict(dict(zip(GLUING_KEYS, coefs)))


def mirrored_squares():
    return bilinear({(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (-1, 0), (1, 1): (-1, 1)},
                    {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 0), (1, 1): (1, 1)})


def squares_with_linear_beta(a=0.3, b=1.2, c=-0.55, d=1.05):
    """Straight vertical interface, beta(v) = -(a+c) - (b+d-a-c-2) v."""
    return bilinear(
        {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (-1, a), (1, 1): (-1, b)},
        {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, c), (1, 1): (1, d)})


def squares_with_quadratic_beta():
    """alpha_L = -(1+v), alpha_R = 2, beta = (v-1/4)(v-3/4)."""
    return bilinear(
        {(0, 0): (0, 0), (0, 1): (0, 1),
         (1, 0): (-1, -19 / 32), (1, 1): (-2, -19 / 32 + 1 / 2 + 1)},
        {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (2, 1), (1, 1): (2, 1)})


# geometry and interior knots of each scaling case
SCALING_GEOMETRIES = {
    "bilinear_a": (lambda: load_asset("bilinear_a")[0], uniform_inner_knots(3)),
    "bilinear_b": (lambda: load_asset("bilinear_b")[0], uniform_inner_knots(3)),
    "mirrored_squares": (mirrored_squares, uniform_inner_knots(3)),
    "linear_beta": (squares_with_linear_beta, (0.5,)),
    "quadratic_beta": (squares_with_quadratic_beta, (0.25, 0.5, 0.75)),
}


def _scale_free_facts(geo, inner):
    k = len(inner)
    inv = gluing_invariants(gluing_from_bilinear(geo),
                            make_knot_vector(5, 2, k, inner))
    return (inv.d_alpha, inv.d_atilde, inv.d_h, inv.Z_beta, inv.beta_is_zero,
            dim_v2(inv, 5, 2, k), dim_w2(5, 2, k, inv.d_alpha))


class TestBilinearFromVertices:
    def test_geometry_a_reference_corners(self, geo_a):
        fhat = bilinear_from_vertices(geo_a)
        cp = fhat.patch_L.control_points
        assert_allclose(cp[0, 0], [0, 0], atol=1e-12)
        assert_allclose(cp[0, 1], [0, 3], atol=1e-12)
        assert_allclose(cp[1, 0], [-3, -0.5], atol=1e-12)
        assert_allclose(cp[1, 1], [-10 / 3, 10 / 3], atol=1e-12)
        cp = fhat.patch_R.control_points
        assert_allclose(cp[1, 0], [3.5, -0.25], atol=1e-12)
        assert_allclose(cp[1, 1], [3.0, 3.5], atol=1e-12)

    def test_geometry_b_reference_corners(self, geo_b):
        fhat = bilinear_from_vertices(geo_b)
        assert_allclose(fhat.patch_L.control_points[:, :, 0],
                        [[-1, 2], [-1, 2]], atol=1e-12)
        assert_allclose(fhat.patch_L.control_points[:, :, 1],
                        [[0, 3], [6, 6]], atol=1e-12)
        assert_allclose(fhat.patch_R.control_points[:, :, 0],
                        [[-1, 2], [5, 5]], atol=1e-12)
        assert_allclose(fhat.patch_R.control_points[:, :, 1],
                        [[0, 3], [0, 3]], atol=1e-12)

    def test_idempotent_on_bilinear(self):
        geo = squares_with_linear_beta()
        again = bilinear_from_vertices(geo)
        for side in "LR":
            assert_allclose(again.patch(side).control_points,
                            geo.patch(side).control_points, atol=1e-14)

    def test_corner_mismatch_detected(self, geo_a):
        cp = geo_a.patch_R.control_points.copy()
        cp[0, 0] += 0.05
        broken = TwoPatchGeometry(geo_a.patch_L,
                                  Patch(geo_a.patch_R.space, cp))
        with pytest.raises(GeometryError):
            bilinear_from_vertices(broken)


class TestGluingExtraction:
    def test_geometry_a_linear_functions(self, gluing_a):
        assert_allclose(gluing_a.alpha_L.coef, [-9, -1], atol=1e-12)
        assert_allclose(gluing_a.alpha_R.coef, [10.5, -1.5], atol=1e-12)
        assert_allclose(gluing_a.beta_L.coef, [-1 / 6, 5 / 18], atol=1e-12)
        assert_allclose(gluing_a.beta_R.coef, [-1 / 12, 1 / 4], atol=1e-12)

    def test_geometry_b_linear_functions(self, gluing_b):
        assert_allclose(gluing_b.alpha_L.coef, [-18, 9], atol=1e-12)
        assert_allclose(gluing_b.alpha_R.coef, [18, -9], atol=1e-12)
        assert_allclose(gluing_b.beta_L.coef, [1, -0.5], atol=1e-12)
        assert_allclose(gluing_b.beta_R.coef, [1, -0.5], atol=1e-12)

    def test_mirrored_squares(self):
        g = gluing_from_bilinear(mirrored_squares())
        assert_allclose(g.alpha_L.coef, [-1, 0], atol=1e-14)
        assert_allclose(g.alpha_R.coef, [1, 0], atol=1e-14)
        assert_allclose(g.beta_L.coef, [0, 0], atol=1e-14)
        assert_allclose(g.beta_R.coef, [0, 0], atol=1e-14)

    def test_requires_bilinear(self, geo_a):
        with pytest.raises(GluingError):
            gluing_from_bilinear(geo_a)

    def test_sign_condition_failure_raises(self):
        # both patches on the same side of the interface
        geo = bilinear(
            {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (-1, 0), (1, 1): (-1, 1)},
            {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (-1, 0.5), (1, 1): (-1, 1.5)})
        with pytest.raises(GluingError):
            gluing_from_bilinear(geo)

    def test_collapsed_interface_edge_raises(self):
        # F0' = 0: both interface corners coincide
        geo = bilinear(
            {(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (-1, 0), (1, 1): (-1, 1)},
            {(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (1, 0), (1, 1): (1, 1)})
        with pytest.raises(GluingError, match="zero length"):
            gluing_from_bilinear(geo)


class TestBeta:
    def test_geometry_a(self, gluing_a):
        beta = beta_from_gluing(gluing_a)
        assert_allclose(beta.coef, [15 / 6, -32 / 6, 1 / 6], atol=1e-12)

    def test_geometry_b(self, gluing_b):
        beta = beta_from_gluing(gluing_b)
        assert_allclose(beta.coef, [-36, 36, -9], atol=1e-12)

    def test_zero(self):
        g = gluing_from_bilinear(mirrored_squares())
        assert np.abs(beta_from_gluing(g).coef).max() < 1e-14


class TestSignCondition:
    def test_geometry_a(self, gluing_a):
        assert verify_sign_condition(gluing_a)

    def test_interior_root_fails(self):
        g = gluing_data([-0.5, 1.0], [1.0, 0.0], [0.0], [0.0])
        assert not verify_sign_condition(g)

    def test_constant_case(self):
        g = gluing_data([-1.0], [1.0], [0.0], [0.0])
        assert verify_sign_condition(g)


class TestInvariants:
    def test_geometry_a(self, gluing_a):
        kv = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
        inv = gluing_invariants(gluing_a, kv)
        assert inv.q.degree() == 0 and inv.q.coef[0] == pytest.approx(1.0)
        assert inv.d_atilde == 1 and inv.d_h == 0 and inv.z_beta == 0
        assert inv.d_alpha == 1
        assert not inv.beta_is_zero

    def test_geometry_b_common_factor(self, gluing_b):
        kv = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
        inv = gluing_invariants(gluing_b, kv)
        assert_allclose(inv.q.coef, [-2.0, 1.0], atol=1e-10)
        assert inv.d_atilde == 0 and inv.d_h == 0 and inv.z_beta == 0
        # q * atilde reproduces alpha coefficient-wise
        for side, alpha in (("L", gluing_b.alpha_L), ("R", gluing_b.alpha_R)):
            prod = inv.q * inv.atilde(side)
            assert_allclose(prod.coef[:2], alpha.coef, atol=1e-12)

    def test_beta_root_at_knot(self):
        g = gluing_from_bilinear(squares_with_linear_beta())
        kv = make_knot_vector(5, 2, 1, (0.5,))
        inv = gluing_invariants(g, kv)
        assert inv.Z_beta == (1,)
        assert inv.z_beta == 1

    def test_two_beta_roots(self):
        g = gluing_from_bilinear(squares_with_quadratic_beta())
        beta = beta_from_gluing(g)
        assert_allclose(beta.coef, [3 / 16, -1.0, 1.0], atol=1e-12)
        kv = make_knot_vector(5, 2, 3, (0.25, 0.5, 0.75))
        inv = gluing_invariants(g, kv)
        assert inv.Z_beta == (1, 3)
        assert inv.z_beta == 2

    def test_beta_identically_zero(self):
        g = gluing_from_bilinear(mirrored_squares())
        kv = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
        inv = gluing_invariants(g, kv)
        assert inv.beta_is_zero
        assert inv.z_beta == 3

    @pytest.mark.parametrize("s", [1e-8, 1e-7, 1e-6, 1e-5, 1e-3, 1e3, 1e6, 1e8])
    @pytest.mark.parametrize("name", list(SCALING_GEOMETRIES))
    def test_scaling_invariance(self, name, s):
        # scaling the domain by s multiplies both alphas by s^2 and leaves
        # the betas alone, which changes none of the invariants
        make, inner = SCALING_GEOMETRIES[name]
        geo = make()
        assert _scale_free_facts(scaled(geo, s), inner) == \
            _scale_free_facts(geo, inner)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tiny_constant_beta_has_no_roots(self, k):
        g = gluing_data([-1, 0], [1, 0], [5e-11, 0], [0, 0])
        inv = gluing_invariants(g, make_knot_vector(5, 2, k, uniform_inner_knots(k)))
        assert_allclose(inv.beta.coef, [-5e-11, 0, 0])
        assert not inv.beta_is_zero and inv.Z_beta == ()

    @pytest.mark.parametrize("k, Z, count", [(1, (1,), 21), (3, (2,), 29)])
    def test_double_root_of_beta_on_a_knot(self, k, Z, count):
        g = gluing_data([-1, 0], [2, -1], [0, 1], [-0.25, -1])
        inv = gluing_invariants(g, make_knot_vector(5, 2, k, uniform_inner_knots(k)))
        assert_allclose(inv.beta.coef, [0.25, -1, 1])     # (v - 1/2)^2
        assert inv.Z_beta == Z
        assert dim_v2(inv, 5, 2, k) == count
        assert build_basis_v2(g, inv, 5, 2, k).num_basis == count


class TestTraceSpace:
    # the trace space of the Gamma0 family is S(T~): the base knots at
    # regularity r + 1 with each root of beta raised once, or the base knots
    # where beta vanishes; its dimension is g0
    @pytest.mark.parametrize("make, inner, z_beta", [
        (mirrored_squares, (0.25, 0.5, 0.75), 3),
        (squares_with_linear_beta, (0.25, 0.75), 0),
        (squares_with_linear_beta, (0.5,), 1),
        (squares_with_quadratic_beta, (0.25, 0.5, 0.75), 2),
    ], ids=["beta-zero", "no-root", "one-root", "two-roots"])
    def test_gamma0_count_is_g0(self, make, inner, z_beta):
        g = gluing_from_bilinear(make())
        k = len(inner)
        inv = gluing_invariants(g, make_knot_vector(5, 2, k, inner))
        assert inv.z_beta == z_beta and inv.inner_knots == inner
        kinds = build_basis_v2(g, inv, 5, 2, k).kinds
        g0 = dim_gamma(inv, 5, 2, k)[0]
        assert sum(name.startswith("Gamma0_") for name in kinds) == g0


class TestBilinearLikeVerification:
    @pytest.mark.parametrize("maker", [mirrored_squares,
                                       squares_with_linear_beta,
                                       squares_with_quadratic_beta])
    def test_bilinear_geometries_pass(self, maker):
        geo = maker()
        g = gluing_from_bilinear(geo)
        report = verify_bilinear_like(geo, g, tol=1e-10)
        assert report.passed, str(report)

    def test_reference_bilinears_pass(self, bilinear_a, gluing_a,
                                      bilinear_b, gluing_b):
        for geo, g in ((bilinear_a, gluing_a), (bilinear_b, gluing_b)):
            report = verify_bilinear_like(geo, g, tol=1e-10)
            assert report.passed, str(report)

    @pytest.mark.parametrize("s", [1e-6, 1e6])
    def test_scaled_bilinear_passes(self, bilinear_a, s):
        # every term of an equation scales with the same power of s
        geo = scaled(bilinear_a, s)
        report = verify_bilinear_like(geo, gluing_from_bilinear(geo), tol=1e-10)
        assert report.passed, str(report)

    def test_fine_exact_refinement_passes(self, fitted_b):
        # the second-order terms grow like k^2, and so does their roundoff
        geo, g = fitted_b
        fine = refine_geometry(geo, make_knot_vector(5, 2, 31,
                                                     uniform_inner_knots(31)))
        report = verify_bilinear_like(fine, g, tol=1e-8)
        assert report.passed, str(report)

    @pytest.mark.parametrize("c", [(np.nan, 0.0, 0.0), (0.0, 0.0, np.nan)])
    def test_nan_residual_fails(self, c):
        assert not ResidualReport(*c, tol=1e-8).passed
        assert not C2Report(*c, tol=1e-8).passed

    def test_fitted_geometries_pass(self, fitted_a, fitted_b):
        for geo, g in (fitted_a, fitted_b):
            report = verify_bilinear_like(geo, g, tol=1e-8)
            assert report.passed, str(report)

    def test_wrong_gluing_fails(self, bilinear_a, gluing_b):
        report = verify_bilinear_like(bilinear_a, gluing_b, tol=1e-9)
        assert not report.passed
        assert max(report.c1, report.c2) > 1e-3


@given(st.floats(0.1, 0.9), st.floats(1.05, 1.9),
       st.floats(-0.9, -0.1), st.floats(1.05, 1.9))
@settings(max_examples=25, deadline=None)
def test_property_bilinear_always_bilinear_like(a, b, c, d):
    geo = squares_with_linear_beta(a, b, c, d)
    g = gluing_from_bilinear(geo)
    assert verify_bilinear_like(geo, g, tol=1e-10).passed
