"""Tests for gluing data extraction and derived invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from c2patch.bspline import make_knot_vector, uniform_inner_knots
from c2patch.geometry import (GeometryError, Patch, TwoPatchGeometry,
                              bilinear_from_vertices, square_patch_space)
from c2patch.gluing import (GluingData, GluingError, LinearPoly,
                            beta_from_gluing, gluing_from_bilinear,
                            gluing_invariants, ttilde_knot_vector,
                            verify_bilinear_like, verify_sign_condition)


def bilinear(corners_L, corners_R):
    """Two bilinear patches from corner dictionaries {(i,j): (x,y)}."""
    space = square_patch_space(make_knot_vector(1, 0, 0))
    patches = []
    for corners in (corners_L, corners_R):
        cp = np.zeros((2, 2, 2))
        for (i, j), xy in corners.items():
            cp[i, j] = xy
        patches.append(Patch(space, cp))
    return TwoPatchGeometry(*patches)


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
        assert_allclose(gluing_a.alpha_L.to_list(), [-9, -1], atol=1e-12)
        assert_allclose(gluing_a.alpha_R.to_list(), [10.5, -1.5], atol=1e-12)
        assert_allclose(gluing_a.beta_L.to_list(), [-1 / 6, 5 / 18], atol=1e-12)
        assert_allclose(gluing_a.beta_R.to_list(), [-1 / 12, 1 / 4], atol=1e-12)

    def test_geometry_b_linear_functions(self, gluing_b):
        assert_allclose(gluing_b.alpha_L.to_list(), [-18, 9], atol=1e-12)
        assert_allclose(gluing_b.alpha_R.to_list(), [18, -9], atol=1e-12)
        assert_allclose(gluing_b.beta_L.to_list(), [1, -0.5], atol=1e-12)
        assert_allclose(gluing_b.beta_R.to_list(), [1, -0.5], atol=1e-12)

    def test_mirrored_squares(self):
        g = gluing_from_bilinear(mirrored_squares())
        assert_allclose(g.alpha_L.to_list(), [-1, 0], atol=1e-14)
        assert_allclose(g.alpha_R.to_list(), [1, 0], atol=1e-14)
        assert_allclose(g.beta_L.to_list(), [0, 0], atol=1e-14)
        assert_allclose(g.beta_R.to_list(), [0, 0], atol=1e-14)

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
        g = GluingData(LinearPoly(-0.5, 1.0), LinearPoly(1.0, 0.0),
                       LinearPoly(0.0), LinearPoly(0.0))
        assert not verify_sign_condition(g)

    def test_constant_case(self):
        g = GluingData(LinearPoly(-1.0), LinearPoly(1.0),
                       LinearPoly(0.0), LinearPoly(0.0))
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
            assert_allclose(prod.coef[:2], alpha.to_list(), atol=1e-12)

    def test_beta_root_at_knot(self):
        g = gluing_from_bilinear(squares_with_linear_beta())
        kv = make_knot_vector(5, 2, 1, (0.5,))
        inv = gluing_invariants(g, kv)
        assert inv.Z_beta == (1,)
        assert inv.z_beta == 1
        assert inv.ttilde.multiplicities == (6, 3, 6)

    def test_two_beta_roots(self):
        g = gluing_from_bilinear(squares_with_quadratic_beta())
        beta = beta_from_gluing(g)
        assert_allclose(beta.coef, [3 / 16, -1.0, 1.0], atol=1e-12)
        kv = make_knot_vector(5, 2, 3, (0.25, 0.5, 0.75))
        inv = gluing_invariants(g, kv)
        assert inv.Z_beta == (1, 3)
        assert inv.z_beta == 2
        assert inv.ttilde.multiplicities == (6, 3, 2, 3, 6)

    def test_beta_identically_zero(self):
        g = gluing_from_bilinear(mirrored_squares())
        kv = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
        inv = gluing_invariants(g, kv)
        assert inv.beta_is_zero
        assert inv.z_beta == 3
        assert inv.ttilde == kv

    def test_scaling_invariance(self, gluing_a):
        kv = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
        base = gluing_invariants(gluing_a, kv)
        scaled = GluingData(
            LinearPoly(2 * gluing_a.alpha_L.const, 2 * gluing_a.alpha_L.slope),
            LinearPoly(2 * gluing_a.alpha_R.const, 2 * gluing_a.alpha_R.slope),
            gluing_a.beta_L, gluing_a.beta_R)
        inv = gluing_invariants(scaled, kv)
        assert inv.Z_beta == base.Z_beta
        assert inv.z_beta == base.z_beta
        assert inv.d_atilde == base.d_atilde
        assert inv.d_h == base.d_h


class TestTtildeBranches:
    def test_branch_totality(self):
        kv = make_knot_vector(5, 2, 2, (0.4, 0.6))
        cases = [(True, ()), (False, ()), (False, (1,)), (False, (1, 2))]
        seen = set()
        for beta_zero, Z in cases:
            t, branch = ttilde_knot_vector(5, 2, (0.4, 0.6), beta_zero, Z)
            seen.add(branch)
            if beta_zero:
                assert t == kv
            else:
                assert list(t.multiplicities[1:-1]) == [
                    2 + (1 if i + 1 in Z else 0) for i in range(2)]
        assert len(seen) == 4


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
