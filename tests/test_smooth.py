"""Tests for dimensions, basis construction and smoothness verification."""

from collections import Counter
from math import comb

import numpy as np
import pytest
from numpy.testing import assert_allclose

from c2patch import smooth
from c2patch.bspline import SplineSpace1D, make_knot_vector, uniform_inner_knots
from c2patch.geometry import Patch, refine_geometry, represent_geometry
from c2patch.gluing import (gluing_from_bilinear, gluing_invariants,
                            verify_bilinear_like)
from c2patch.smooth import (TRACE_RESID_TOL, DegreeBudgetError, Family,
                            IndeterminateRankError, RepresentationError,
                            build_basis_v2, build_basis_w2,
                            constraint_nullspace_dim, dim_gamma, dim_v1,
                            dim_v2, dim_v2_from_numbers, dim_w2, edge_rows,
                            interface_jets, select_refined_bspline,
                            verify_c2_at_interface)
from tests.conftest import left_limits, load_asset, scaled
from tests.test_gluing import (mirrored_squares, squares_with_linear_beta,
                               squares_with_quadratic_beta)


def invariants_for(gluing, p=5, r=2, k=0):
    kv = make_knot_vector(p, r, k, uniform_inner_knots(k))
    return gluing_invariants(gluing, kv)


def unit(space, index):
    """Coefficients of the ``index``-th B-spline of ``space``."""
    c = np.zeros(space.dim)
    c[index] = 1.0
    return c


def edge_profiles(space, us):
    """Values of the three edge profiles at ``us``, shape (len(us), 3)."""
    c = np.zeros((space.dim, 3))
    c[:3] = edge_rows(space)
    return space.eval_function(c, us)[0]


class TestDimensions:
    def test_dim_v1_reference_column(self):
        assert [dim_v1(5, 2, 2 ** L - 1) for L in range(6)] == \
            [36, 108, 360, 1296, 4896, 19008]

    def test_dim_v1_cross_check_by_counting(self):
        # interface-untouched tensor functions: (n-3)*n per patch
        for p, r, k in [(5, 2, 0), (6, 3, 0), (5, 2, 3)]:
            n = p + 1 + k * (p - r)
            assert dim_v1(p, r, k) == 2 * (n - 3) * n

    def test_dim_v2_geometry_a(self, gluing_a):
        dims = []
        for L in range(6):
            k = 2 ** L - 1
            dims.append(dim_v2(invariants_for(gluing_a, k=k), 5, 2, k))
        assert dims == [15, 19, 27, 43, 75, 139]

    def test_dim_v2_geometry_b(self, gluing_b):
        dims = []
        for L in range(6):
            k = 2 ** L - 1
            dims.append(dim_v2(invariants_for(gluing_b, k=k), 5, 2, k))
        assert dims == [18, 25, 39, 67, 123, 235]

    def test_dim_w2_reference_column(self):
        assert [dim_w2(5, 2, 2 ** L - 1, 1) for L in range(6)] == \
            [15, 18, 24, 36, 60, 108]

    def test_dim_w2_polynomial_case(self):
        assert dim_w2(5, 2, 0, 0) == 18

    def test_gamma_split_sums_to_v2(self, gluing_a, gluing_b):
        for g in (gluing_a, gluing_b):
            for p in (5, 6, 7):
                for r in range(2, p - 2):
                    for k in (0, 1, 2, 3):
                        inv = invariants_for(g, p, r, k)
                        if p - 2 * inv.d_atilde < r + 1:
                            continue
                        assert sum(dim_gamma(inv, p, r, k)) == \
                            dim_v2(inv, p, r, k)

    def test_gamma_values_geometry_a(self, gluing_a):
        inv = invariants_for(gluing_a, k=3)
        assert dim_gamma(inv, 5, 2, 3) == (9 + 3, 8, 7)

    def test_beta_zero_collapses_gamma1(self):
        g = gluing_from_bilinear(mirrored_squares())
        for k in (1, 2, 3):
            inv = invariants_for(g, k=k)
            g0, g1, g2 = dim_gamma(inv, 5, 2, k)
            # each component space collapses to the unrefined trace space
            assert g0 == g1 == g2 == 6 + 3 * k

    def test_degree_budget_errors(self):
        with pytest.raises(DegreeBudgetError):
            dim_v2_from_numbers(5, 2, 0, d_atilde=2, d_h=0, z_beta=0)
        with pytest.raises(DegreeBudgetError):
            dim_w2(5, 2, 0, 2)
        with pytest.raises(ValueError):
            dim_v1(4, 2, 0)
        with pytest.raises(ValueError):
            dim_v1(5, 3, 0)

    def test_closed_forms_by_configuration(self):
        # r = 2 closed forms per (d_atilde, d_h) regime
        for p in (5, 6):
            for k in range(5):
                for z in (0, 1, 2):
                    if k == 0 and z > 0:
                        continue
                    assert dim_v2_from_numbers(p, 2, k, 1, 0, z) == \
                        (k + 1) * 3 * p - 11 * k + 2 * z
                    assert dim_v2_from_numbers(p, 2, k, 0, 0, z) == \
                        (k + 1) * (3 * p + 3) - 11 * k + 2 * z
                    assert dim_v2_from_numbers(p, 2, k, 0, 1, z) == \
                        (k + 1) * (3 * p + 2) - 11 * k + 2 * z


class TestEdgeFunctions:
    @pytest.mark.parametrize("p,r,inner", [(5, 2, (0.25, 0.5, 0.75)),
                                           (6, 3, (0.4,)), (5, 2, ())])
    def test_unit_jets_at_zero(self, p, r, inner):
        s = SplineSpace1D(make_knot_vector(p, r, len(inner), inner))
        E = edge_rows(s)
        assert E.shape == (3, 3)
        for j in range(3):
            c = np.zeros(s.dim)
            c[:3] = E[:, j]
            d = s.eval_function(c, [0.0], 2)[:, 0]
            expect = np.zeros(3)
            expect[j] = 1.0
            assert_allclose(d, expect, atol=1e-12)

    def test_m1_coefficients(self):
        s = SplineSpace1D(make_knot_vector(5, 2, 3, (0.25, 0.5, 0.75)))
        E = edge_rows(s)
        assert_allclose(E[:, 1], [0, 1 / 20, 1 / 10], atol=1e-15)
        assert E[2, 2] == pytest.approx(0.25 ** 2 / 20)

    def test_value_one_at_edge(self):
        s = SplineSpace1D(make_knot_vector(5, 2, 1, (0.5,)))
        c = np.zeros(s.dim)
        c[:3] = edge_rows(s)[:, 0]
        c[5:] += 3.0  # anything beyond the first three columns
        assert s.eval_function(c, [0.0])[0, 0] == pytest.approx(1.0)


class TestSelectRefinedBspline:
    def test_single_insertion_is_new_function(self):
        base = make_knot_vector(5, 4, 3, (0.25, 0.5, 0.75))
        s, index = select_refined_bspline(base, 1, 1)
        raised = base.with_raised_multiplicity(1, 1)
        assert s.kv == raised
        assert s.eval_function(unit(s, index), [0.25])[0, 0] > 1e-6

    def test_double_insertion_smoothness_defect(self):
        base = make_knot_vector(5, 4, 2, (0.3, 0.7))
        s, index = select_refined_bspline(base, 2, 2)
        tau = 0.7
        # jump in the third derivative: function is C^2 only
        fr = s.find_span(tau, "right") - 5
        _, dr = s.eval_basis(tau, 3)
        fl = s.find_span(tau, "left") - 5
        _, dl = left_limits(s, tau, 3)
        jr = np.zeros(s.dim)
        jr[fr:fr + 6] += dr[3]
        jr[fl:fl + 6] -= dl[3]
        jump = float(jr[index])
        assert abs(jump) > 1e-6 * max(np.abs(dr[3]).max(), 1.0)
        # but C^2 below
        for order in (0, 1, 2):
            _, dr = s.eval_basis(tau, order)
            _, dl = left_limits(s, tau, order)
            jr = np.zeros(s.dim)
            jr[fr:fr + 6] += dr[order]
            jr[fl:fl + 6] -= dl[order]
            assert abs(float(jr[index])) < 1e-9

    def test_multiplicity_overflow(self):
        base = make_knot_vector(5, 2, 1, (0.5,))  # multiplicity 3
        with pytest.raises(ValueError):
            select_refined_bspline(base, 1, 3)

    def test_one_kernel_pass_per_knot_function(self, monkeypatch):
        # both limits at the raised knot come from one pass that takes the
        # right and the left span, not from two eval_basis calls
        calls = _count_eval_basis(monkeypatch)
        passes = []
        original = SplineSpace1D._eval_spans

        def counting(self, *args, **kwargs):
            passes.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SplineSpace1D, "_eval_spans", counting)
        base = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
        for which in (1, 2, 3):
            for extra_mult in (1, 2):
                passes.clear()
                select_refined_bspline(base, which, extra_mult)
                assert len(passes) == 1
        assert not calls


@pytest.fixture(scope="module")
def basis_setup_a(gluing_a):
    k = 1
    kv = make_knot_vector(5, 2, k, uniform_inner_knots(k))
    inv = gluing_invariants(gluing_a, kv)
    return gluing_a, inv, kv


class TestBasisConstruction:
    def test_family_counts_geometry_a_k3(self, gluing_a):
        inv = invariants_for(gluing_a, k=3)
        basis = build_basis_v2(gluing_a, inv, 5, 2, 3)
        assert Counter(basis.kinds) == {"Gamma0_regular": 9, "Gamma0_knot": 3,
                                        "Gamma1_regular": 8, "Gamma2": 7}
        assert basis.num_basis == 27

    def test_geometry_b_polynomial_case(self, gluing_b):
        inv = invariants_for(gluing_b)
        basis = build_basis_v2(gluing_b, inv, 5, 2, 0)
        assert basis.num_basis == 18

    def test_zbeta_families_present(self):
        g = gluing_from_bilinear(squares_with_linear_beta())
        kv = make_knot_vector(5, 2, 1, (0.5,))
        inv = gluing_invariants(g, kv)
        basis = build_basis_v2(g, inv, 5, 2, 1)
        sizes = Counter(basis.kinds)
        assert sizes["Gamma0_zbeta"] == sizes["Gamma1_zbeta"] == 1
        assert basis.num_basis == dim_v2(inv, 5, 2, 1) == 27

    def test_w2_counts(self, gluing_a):
        inv = invariants_for(gluing_a, k=1)
        basis = build_basis_w2(gluing_a, inv, 5, 2, 1)
        assert Counter(basis.kinds) == {"W0": 7, "W1": 6, "W2": 5}
        assert basis.num_basis == dim_w2(5, 2, 1, 1) == 18

    def test_block_structure_exact(self, gluing_a):
        inv = invariants_for(gluing_a, k=1)
        basis = build_basis_v2(gluing_a, inv, 5, 2, 1)
        n = basis.n
        for m, kind in enumerate(basis.kinds):
            for A in (basis.A_L, basis.A_R):
                rows = A[m].reshape(3, n)
                if kind.startswith("Gamma1"):
                    assert np.abs(rows[0]).max() == 0.0
                if kind == "Gamma2":
                    assert np.abs(rows[0]).max() == 0.0
                    assert np.abs(rows[1]).max() == 0.0

    @pytest.mark.parametrize("asset, p, ks", [("fitted_a", 5, (0, 3)),
                                              ("fitted_b", 5, (0, 3)),
                                              ("bilinear_b", 6, (0, 2))])
    def test_rows_below_the_lowest_slot_are_zero(self, asset, p, ks):
        # a family whose lowest trace slot is s has exactly zero u-rows
        # 0..s-1 on both patches (-0.0 passes)
        _, g = load_asset(asset)
        for k in ks:
            inv = invariants_for(g, p=p, k=k)
            for build in (build_basis_v2, build_basis_w2):
                basis = build(g, inv, p, 2, k)
                lowest = [min(slot for slot, *_ in f.parts)
                          for f in basis.families for _ in f.cols]
                assert max(lowest) == 2
                for m, s in enumerate(lowest):
                    for side in "LR":
                        assert (basis.rows(side, m)[:s] == 0.0).all()

    @pytest.mark.parametrize("build", [build_basis_v2, build_basis_w2])
    @pytest.mark.parametrize("r", [1, 3])
    def test_regularity_outside_range_raises_before_any_space(
            self, gluing_a, build, r, monkeypatch):
        inv = invariants_for(gluing_a, r=r, k=1)

        def no_space(*args):
            raise AssertionError("a spline space was built")

        monkeypatch.setattr(smooth, "_spline_space", no_space)
        with pytest.raises(ValueError, match=f"regularity r={r} outside 2..2"):
            build(gluing_a, inv, 5, r, 1)

    def test_full_row_rank(self, gluing_a, gluing_b):
        for g in (gluing_a, gluing_b):
            for k in (0, 1, 3):
                inv = invariants_for(g, k=k)
                basis = build_basis_v2(g, inv, 5, 2, k)
                sv = np.linalg.svd(basis.stacked_matrix(), compute_uv=False)
                assert sv[-1] > 1e-8 * sv[0]

    def test_w2_nested_in_v2(self, gluing_a, gluing_b):
        for g in (gluing_a, gluing_b):
            for k in (0, 1):
                inv = invariants_for(g, k=k)
                v2 = build_basis_v2(g, inv, 5, 2, k)
                w2 = build_basis_w2(g, inv, 5, 2, k)
                stack = np.vstack([v2.stacked_matrix(), w2.stacked_matrix()])
                rank = np.linalg.matrix_rank(stack, tol=1e-9 * np.linalg.norm(stack))
                assert rank == v2.num_basis

    def test_trace_identities(self, gluing_a):
        # the rows reproduce each function's value, first and second
        # transversal derivative data along the interface
        inv = invariants_for(gluing_a, k=1)
        basis = build_basis_v2(gluing_a, inv, 5, 2, 1)
        trace = SplineSpace1D(make_knot_vector(5, 2, 1, (0.5,)))
        vs = np.random.default_rng(1).uniform(0.001, 0.999, 200)
        p, tau1 = 5, 0.5
        jets = interface_jets("v2", basis.families, gluing_a, inv, vs)
        for m in range(basis.num_basis):
            for i, A in enumerate((basis.A_L, basis.A_R)):
                rows = A[m].reshape(3, basis.n)
                val, du, duu = jets[i, :, :, m]
                r0 = trace.eval_function(rows[0], vs)[0]
                r1 = trace.eval_function(rows[1], vs)[0]
                r2 = trace.eval_function(rows[2], vs)[0]
                got_du = (p / tau1) * (r1 - r0)
                got_duu = (p * (p - 1) / tau1 ** 2) * (r2 - 2 * r1 + r0)
                assert np.abs(r0 - val).max() < 1e-10 * max(1, np.abs(val).max())
                assert np.abs(got_du - du).max() < 1e-10 * max(1, np.abs(du).max())
                assert np.abs(got_duu - duu).max() < 1e-9 * max(1, np.abs(duu).max())


class TestSurfaceFromTriplet:
    def test_beta_zero_trace_only(self):
        # with vanishing beta the trace family keeps a single nonzero row
        g = gluing_from_bilinear(mirrored_squares())
        kv = make_knot_vector(5, 2, 0)
        inv = gluing_invariants(g, kv)
        basis = build_basis_v2(g, inv, 5, 2, 0)
        m = 0
        assert basis.kinds[m] == "Gamma0_regular"
        rows = basis.rows("L", m)
        assert np.abs(rows[0]).max() > 0.1
        assert_allclose(rows[1], rows[0], atol=1e-12)  # du = 0 => row1 = row0
        assert_allclose(rows[2], rows[0], atol=1e-12)

    def test_example_forms_direct_evaluation(self, gluing_a):
        # simple closed forms when q = 1: the second-transversal family is
        # atilde^2 N_j(v) M2(u)
        k = 3
        kv = make_knot_vector(5, 2, k, uniform_inner_knots(k))
        inv = gluing_invariants(gluing_a, kv)
        basis = build_basis_v2(gluing_a, inv, 5, 2, k)
        trace = SplineSpace1D(kv)
        s2 = SplineSpace1D(make_knot_vector(3, 2, k, uniform_inner_knots(k)))
        offset = basis.num_basis - s2.dim  # Gamma2 block is last
        us = [0.05, 0.2]
        vs = [0.3, 0.77]
        for j in (0, 2):
            rows = basis.rows("L", offset + j)
            grid = np.zeros((basis.n, basis.n))
            grid[:3] = rows
            patch = Patch(trace, np.dstack([grid, grid]))
            for u in us:
                M2 = edge_profiles(trace, [u])[0, 2]
                for v in vs:
                    Nj = s2.eval_function(unit(s2, j), [v])[0, 0]
                    direct = (inv.atilde_L(v) ** 2) * Nj * M2
                    assert patch.eval(u, v) == pytest.approx(
                        [direct, direct], abs=1e-11)

    def test_roundtrip_against_triplet_formula(self, gluing_b):
        k = 1
        kv = make_knot_vector(5, 2, k, (0.5,))
        inv = gluing_invariants(gluing_b, kv)
        basis = build_basis_v2(gluing_b, inv, 5, 2, k)
        trace = SplineSpace1D(kv)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 1.0, size=(40, 2))
        M = edge_profiles(trace, pts[:, 0])
        val, du, duu = interface_jets("v2", basis.families, gluing_b, inv,
                                      pts[:, 1])[0]
        for m in (0, 8, 12, basis.num_basis - 1):
            grid = np.zeros((basis.n, basis.n))
            grid[:3] = basis.rows("L", m)
            patch = Patch(trace, np.dstack([grid, grid]))
            for i, (u, v) in enumerate(pts):
                direct = (val[i, m] * M[i, 0] + du[i, m] * M[i, 1]
                          + duu[i, m] * M[i, 2])
                assert patch.eval(u, v) == pytest.approx([direct, direct],
                                                         abs=1e-11)


class TestC2Verification:
    def geometry_in_space(self, geo, kv):
        if geo.space.degree == kv.degree:
            return refine_geometry(geo, kv)
        return represent_geometry(geo, kv)

    @pytest.mark.parametrize("maker", [mirrored_squares,
                                       squares_with_linear_beta,
                                       squares_with_quadratic_beta])
    def test_all_basis_functions_smooth(self, maker):
        geo = maker()
        g = gluing_from_bilinear(geo)
        k = 3
        kv = make_knot_vector(5, 2, k, (0.25, 0.5, 0.75))
        inv = gluing_invariants(g, kv)
        F = represent_geometry(geo, kv)
        for basis in (build_basis_v2(g, inv, 5, 2, k),
                      build_basis_w2(g, inv, 5, 2, k)):
            for m in range(basis.num_basis):
                rep = verify_c2_at_interface(F, basis.rows("L", m),
                                             basis.rows("R", m), 25, 1e-8)
                assert rep.passed, f"{basis.kinds[m]}[{m}]: {rep}"

    def test_interior_function_trivially_smooth(self, fitted_a):
        geo, _ = fitted_a
        n = geo.space.dim
        rows = np.zeros((3, n))
        rep = verify_c2_at_interface(geo, rows, rows, 10, 1e-8)
        assert rep.passed
        assert rep.value_diff == 0.0

    def test_broken_input_fails(self, fitted_a):
        geo, _ = fitted_a
        n = geo.space.dim
        rows_L = np.zeros((3, n))
        rows_L[1, 2] = 1.0  # raw tensor B-spline on one patch only
        rows_R = np.zeros((3, n))
        rep = verify_c2_at_interface(geo, rows_L, rows_R, 10, 1e-8)
        assert not rep.passed
        assert rep.grad_diff > 1e-3

    @pytest.mark.parametrize("s", [1e-8, 1e8])
    def test_broken_input_fails_at_any_scale(self, fitted_a, s):
        # gradients shrink like 1/s and Hessians like 1/s^2 on a large domain
        geo, _ = fitted_a
        n = geo.space.dim
        rows_L, rows_R = np.zeros((2, 3, n))
        rows_L[1, 2] = 1.0
        rep = verify_c2_at_interface(scaled(geo, s), rows_L, rows_R, 10, 1e-8)
        assert not rep.passed and rep.grad_diff > 1e-3

    @pytest.mark.parametrize("s", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_bundled_bases_pass_at_any_scale(self, fitted_a, fitted_b, s):
        # the same rows on the scaled domain are the same functions, scaled
        for geo, g in (fitted_a, fitted_b):
            for k in (0, 3):
                kv = make_knot_vector(5, 2, k, uniform_inner_knots(k))
                F = scaled(refine_geometry(geo, kv) if k else geo, s)
                inv = gluing_invariants(g, kv)
                for build in (build_basis_v2, build_basis_w2):
                    basis = build(g, inv, 5, 2, k)
                    rep = verify_c2_at_interface(F, basis.A_L, basis.A_R)
                    assert rep.passed, f"{build.__name__} k={k}: {rep}"


def tilted_interface_with_common_factor():
    """alpha_S = +-9(v-2) but beta_L, beta_R without the common root.

    Realizes the remaining regime of the closed-form table: q linear while
    h = q (d_atilde = 0, d_h = 1).
    """
    from tests.test_gluing import bilinear
    return bilinear(
        {(0, 0): (-1, 0), (0, 1): (2, 3), (1, 0): (-1, 6), (1, 1): (3.5, 7.5)},
        {(0, 0): (-1, 0), (0, 1): (2, 3), (1, 0): (2, -3), (1, 1): (5, 3)})


class TestCommonFactorWithDh1:
    def test_invariants(self):
        geo = tilted_interface_with_common_factor()
        g = gluing_from_bilinear(geo)
        kv = make_knot_vector(5, 2, 1, (0.5,))
        inv = gluing_invariants(g, kv)
        assert_allclose(inv.q.coef, [-2.0, 1.0], atol=1e-10)
        assert inv.d_atilde == 0 and inv.d_h == 1 and inv.z_beta == 0
        assert dim_v2(inv, 5, 2, 1) == 23

    def test_basis_and_oracle(self):
        geo = tilted_interface_with_common_factor()
        g = gluing_from_bilinear(geo)
        k = 1
        kv = make_knot_vector(5, 2, k, (0.5,))
        inv = gluing_invariants(g, kv)
        basis = build_basis_v2(g, inv, 5, 2, k)
        assert basis.num_basis == 23
        F = represent_geometry(geo, kv)
        for m in range(basis.num_basis):
            rep = verify_c2_at_interface(F, basis.rows("L", m),
                                         basis.rows("R", m), 20, 1e-8)
            assert rep.passed, f"{basis.kinds[m]}[{m}]: {rep}"
        res = constraint_nullspace_dim(F, g, 5, 2, k)
        assert res.nullspace_dim == 23


class TestOracle:
    def test_reference_geometries(self, bilinear_a, gluing_a, bilinear_b,
                                  gluing_b):
        for fhat, g, dims in ((bilinear_a, gluing_a, {0: 15, 1: 19, 3: 27}),
                              (bilinear_b, gluing_b, {0: 18, 1: 25, 3: 39})):
            for k, expect in dims.items():
                kv = make_knot_vector(5, 2, k, uniform_inner_knots(k))
                F = represent_geometry(fhat, kv)
                res = constraint_nullspace_dim(F, g, 5, 2, k)
                assert res.nullspace_dim == expect
                assert res.gap > 1e3

    def test_beta_zero_case(self):
        geo = mirrored_squares()
        g = gluing_from_bilinear(geo)
        for k in (0, 2):
            kv = make_knot_vector(5, 2, k, uniform_inner_knots(k))
            inv = gluing_invariants(g, kv)
            F = represent_geometry(geo, kv)
            res = constraint_nullspace_dim(F, g, 5, 2, k)
            assert res.nullspace_dim == dim_v2(inv, 5, 2, k) == 18 + 9 * k

    def test_zbeta_cases(self):
        for maker, k, inner in ((squares_with_linear_beta, 1, (0.5,)),
                                (squares_with_quadratic_beta, 3, (0.25, 0.5, 0.75))):
            geo = maker()
            g = gluing_from_bilinear(geo)
            kv = make_knot_vector(5, 2, k, inner)
            inv = gluing_invariants(g, kv)
            F = represent_geometry(geo, kv)
            res = constraint_nullspace_dim(F, g, 5, 2, k)
            assert res.nullspace_dim == dim_v2(inv, 5, 2, k)

    def test_perturbed_bilinear(self, bilinear_a, gluing_a):
        rng = np.random.default_rng(42)
        from c2patch.geometry import Patch, TwoPatchGeometry
        for trial in range(3):
            cp_L = bilinear_a.patch_L.control_points.copy()
            cp_R = bilinear_a.patch_R.control_points.copy()
            cp_L[1] += 0.15 * rng.standard_normal((2, 2))
            cp_R[1] += 0.15 * rng.standard_normal((2, 2))
            geo = TwoPatchGeometry(Patch(bilinear_a.patch_L.space, cp_L),
                                   Patch(bilinear_a.patch_R.space, cp_R))
            g = gluing_from_bilinear(geo)
            k = 1
            kv = make_knot_vector(5, 2, k, (0.5,))
            inv = gluing_invariants(g, kv)
            F = represent_geometry(geo, kv)
            res = constraint_nullspace_dim(F, g, 5, 2, k)
            assert res.nullspace_dim == dim_v2(inv, 5, 2, k)

    @pytest.mark.parametrize("p,r,k", [(5, 2, 10), (5, 2, 13), (6, 3, 7)])
    def test_small_genuine_singular_values_are_kept(self, bilinear_a, gluing_a,
                                                     fitted_a, p, r, k):
        # geometry a's matching system has genuine singular values near
        # 1e-9 of the largest at these sizes; a fixed relative cutoff of
        # 1e-9 dropped them (gap ~1, or nullity 81 against 67 at k = 13)
        kv = make_knot_vector(p, r, k, uniform_inner_knots(k))
        want = dim_v2(gluing_invariants(gluing_a, kv), p, r, k)
        cases = [(represent_geometry(bilinear_a, kv), gluing_a)]
        if p == 5:
            geo, g = fitted_a
            cases.append((refine_geometry(geo, kv), g))
        for F, g in cases:
            res = constraint_nullspace_dim(F, g, p, r, k)
            assert res.nullspace_dim == want
            assert res.gap >= 1e3

    def test_indeterminate_gap_raises(self, bilinear_a, gluing_a, monkeypatch):
        kv = make_knot_vector(5, 2, 0)
        F = represent_geometry(bilinear_a, kv)
        monkeypatch.setattr(smooth, "ORACLE_MIN_GAP", 1e30)
        with pytest.raises(IndeterminateRankError):
            constraint_nullspace_dim(F, gluing_a, 5, 2, 0)


# ---------------------------------------------------------------------------
# the per-function construction that the batched one replaced, kept as the
# reference the batched construction must reproduce


def _part_derivs_reference(space, col, order, poly, scalar, xs, max_deriv):
    """Values and derivatives of scalar * poly * D^order N_col,
    (max_deriv + 1, len(xs))."""
    svals = space.eval_function(unit(space, col), xs, order + max_deriv)
    if poly is None:
        return scalar * svals[order:order + max_deriv + 1]
    pd = [poly.deriv(m)(xs) if m <= poly.degree() else np.zeros_like(xs)
          for m in range(max_deriv + 1)]
    out = np.zeros((max_deriv + 1, len(xs)))
    for m in range(max_deriv + 1):
        for j in range(m + 1):
            out[m] += comb(m, j) * pd[j] * svals[order + m - j]
    return scalar * out


def _interface_jets_reference(kind, comps, g, inv, side, xs):
    """Trace jets of one basis function whose slot s holds ``comps[s]``."""
    zero = np.zeros(len(xs))
    beta_s = g.beta(side)(xs)
    if kind == "w2":
        alpha_s, qv, qd = g.alpha(side)(xs), np.ones(len(xs)), zero
    else:
        alpha_s, qv = inv.atilde(side)(xs), inv.q(xs)
        qd = inv.q.deriv()(xs) if inv.q.degree() >= 1 else zero
    val = du = duu = zero
    if 0 in comps:
        g0 = _part_derivs_reference(*comps[0], xs, 2)
        val = g0[0]
        du = du + beta_s * g0[1]
        duu = duu + beta_s ** 2 * g0[2]
    if 1 in comps:
        g1 = _part_derivs_reference(*comps[1], xs, 1)
        du = du + alpha_s * g1[0]
        duu = duu + 2.0 * alpha_s * beta_s * (g1[1] - g1[0] * qd / qv)
    if 2 in comps:
        duu = duu + alpha_s ** 2 * _part_derivs_reference(*comps[2], xs, 0)[0]
    return val, du, duu


def _surface_from_function_reference(kind, comps, g, inv, side, trace_space):
    p, n = trace_space.degree, trace_space.dim
    inner = trace_space.kv.inner_knots
    tau1 = inner[0] if inner else 1.0
    val, du, duu = _interface_jets_reference(kind, comps, g, inv, side,
                                             trace_space.greville())
    targets = [val,
               val + (tau1 / p) * du,
               val + (2.0 * tau1 / p) * du + (tau1 ** 2 / (p * (p - 1))) * duu]
    rows = np.zeros((3, n))
    for i in range(3):
        if min(comps) <= i:
            rows[i] = trace_space.interpolate(targets[i])
    return rows


def _basis_reference(basis, g, inv, p=5, r=2):
    """(A_L, A_R) of ``basis`` built one function and one side at a time."""
    inner = inv.inner_knots
    trace = SplineSpace1D(make_knot_vector(p, r, len(inner), inner))
    A_L, A_R = np.zeros_like(basis.A_L), np.zeros_like(basis.A_R)
    m = 0
    for f in basis.families:
        for j, col in enumerate(f.cols):
            comps = {slot: (f.space, col, order, poly, scalars[j])
                     for slot, order, poly, scalars in f.parts}
            rows_L, rows_R = (
                _surface_from_function_reference(basis.space_kind, comps, g,
                                                 inv, side, trace)
                for side in ("L", "R"))
            if 0 in comps:
                rows_R[0] = rows_L[0]
            A_L[m], A_R[m] = rows_L.ravel(), rows_R.ravel()
            m += 1
    assert m == basis.num_basis
    return A_L, A_R


def _assert_matches_reference(basis, g, inv):
    for got, want in zip((basis.A_L, basis.A_R), _basis_reference(basis, g, inv)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _count_eval_basis(monkeypatch):
    calls = []
    original = SplineSpace1D.eval_basis

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SplineSpace1D, "eval_basis", counting)
    return calls


class TestBatchedBasis:
    @pytest.mark.parametrize("k", [0, 1, 3, 31])
    @pytest.mark.parametrize("build", [build_basis_v2, build_basis_w2])
    def test_matches_per_triplet_reference(self, gluing_a, gluing_b, build, k):
        for g in (gluing_a, gluing_b):
            inv = invariants_for(g, k=k)
            _assert_matches_reference(build(g, inv, 5, 2, k), g, inv)

    @pytest.mark.parametrize("maker,k", [(squares_with_linear_beta, 1),
                                         (squares_with_linear_beta, 3),
                                         (tilted_interface_with_common_factor, 1),
                                         (tilted_interface_with_common_factor, 3)])
    def test_special_geometries_match_reference(self, maker, k):
        g = gluing_from_bilinear(maker())
        inv = invariants_for(g, k=k)
        v2 = build_basis_v2(g, inv, 5, 2, k)
        assert inv.z_beta > 0 or inv.d_h == 1
        for basis in (v2, build_basis_w2(g, inv, 5, 2, k)):
            _assert_matches_reference(basis, g, inv)

    @pytest.mark.parametrize("build,most", [(build_basis_w2, 8),
                                            (build_basis_v2, 170)])
    def test_eval_basis_calls_per_build(self, gluing_a, gluing_b, monkeypatch,
                                        build, most):
        # one evaluation per family: W2 has three families, V2 adds one
        # refined space per knot and zbeta function
        for g in (gluing_a, gluing_b):
            inv = invariants_for(g, k=31)
            calls = _count_eval_basis(monkeypatch)
            build(g, inv, 5, 2, 31)
            assert 0 < len(calls) <= most

    def test_trace_residual_is_kept(self, gluing_b):
        inv = invariants_for(gluing_b, k=3)
        for build in (build_basis_v2, build_basis_w2):
            basis = build(gluing_b, inv, 5, 2, 3)
            assert isinstance(basis.trace_residual, float)
            assert 0.0 <= basis.trace_residual <= TRACE_RESID_TOL

    def test_unrepresentable_trace_raises(self, gluing_a):
        # a trace component with a knot at 0.3, which the trace space lacks
        inv = invariants_for(gluing_a, k=1)
        trace = SplineSpace1D(make_knot_vector(5, 2, 1, (0.5,)))
        foreign = SplineSpace1D(make_knot_vector(5, 4, 2, (0.3, 0.5)))
        family = Family("W0", foreign, np.array([4]), ((0, 0, None, np.ones(1)),))
        with pytest.raises(RepresentationError,
                           match=r"combination 0 of W0\[0\] on side L"):
            smooth._assemble_basis("w2", (family,), gluing_a, inv, trace)

    def test_records_number_within_families(self):
        g = gluing_from_bilinear(squares_with_linear_beta())
        inv = invariants_for(g, k=3)
        basis = build_basis_v2(g, inv, 5, 2, 3)
        assert inv.z_beta > 0
        records = list(basis.records())
        names = [rec["family"] for rec in records]
        order = ("Gamma0_regular", "Gamma0_knot", "Gamma0_zbeta",
                 "Gamma1_regular", "Gamma1_zbeta", "Gamma2")
        assert tuple(dict.fromkeys(names)) == order
        sizes = Counter(basis.kinds)
        assert names == [name for name in order for _ in range(sizes[name])]
        assert [rec["j"] for rec in records] == \
            [j for name in order for j in range(sizes[name])]
        assert names == basis.kinds
        assert sum(sizes.values()) == basis.num_basis == len(records)
        for m, rec in enumerate(records):
            assert rec["rows_L"] == basis.rows("L", m).tolist()
            assert rec["rows_R"] == basis.rows("R", m).tolist()

    def test_rows_rejects_unknown_side(self, gluing_a):
        basis = build_basis_w2(gluing_a, invariants_for(gluing_a), 5, 2, 0)
        assert_allclose(basis.rows("R", 0), basis.A_R[0].reshape(3, basis.n))
        for side in ("l", "left", "X"):
            with pytest.raises(ValueError, match="side"):
                basis.rows(side, 0)


def _physical_jets_reference(patch, coeffs, vs):
    """The full-grid C2 jets: the whole tensor space evaluated at (0, vs)."""
    B = patch.space.basis_matrix(np.concatenate([[0.0], vs]), 2)
    d = np.einsum("ai,bvj,ijc->abvc", B[:, 0], B[:, 1:],
                  np.dstack([patch.control_points, coeffs]))
    J = np.stack([d[1, 0, :, :2], d[0, 1, :, :2]], axis=-1)
    Jinv = np.linalg.inv(J)
    JinvT = np.swapaxes(Jinv, 1, 2)
    grad_param = np.stack([d[1, 0, :, 2], d[0, 1, :, 2]], axis=-1)
    grad = (JinvT @ grad_param[..., None])[..., 0]
    hess = np.array([[d[2, 0], d[1, 1]], [d[1, 1], d[0, 2]]]).transpose(3, 2, 0, 1)
    H = JinvT @ (hess[2] - grad[:, 0, None, None] * hess[0]
                 - grad[:, 1, None, None] * hess[1]) @ Jinv
    return d[0, 0, :, 2], grad, H


def _c2_reference(F, rows_L, rows_R, n_samples):
    n = F.space.dim
    vs = (np.arange(n_samples) + 0.5) / n_samples
    jets = []
    for side, rows in (("L", rows_L), ("R", rows_R)):
        grid = np.zeros((n, n))
        grid[:3] = rows
        jets.append(_physical_jets_reference(F.patch(side), grid, vs))
    # order o is scaled by max(its size, the scale of order o - 1 / diameter)
    out, scale = [], 0.0
    for a, b in zip(*jets):
        scale = max(scale / F.diameter, np.abs(a).max(), np.abs(b).max())
        out.append(np.abs(a - b).max() / scale if scale else 0.0)
    return out


def _bases(pairs, k):
    """(geometry, basis) of each (fitted asset, gluing) pair and both
    spaces at k."""
    kv = make_knot_vector(5, 2, k, uniform_inner_knots(k))
    for (geo, _), g in pairs:
        F = refine_geometry(geo, kv) if k else geo
        inv = gluing_invariants(g, kv)
        for build in (build_basis_v2, build_basis_w2):
            yield F, build(g, inv, 5, 2, k)


def _perturbed(rows, rng):
    """``rows`` plus a random perturbation of 1e-3 of their size."""
    return rows + 1e-3 * np.abs(rows).max() * rng.standard_normal(rows.shape)


class TestC2CheckRows:
    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    def test_genuine_functions_pass_with_reference(self, fitted_a, fitted_b,
                                                   gluing_a, gluing_b, k):
        # both computations of genuine C2 functions read roundoff
        pairs = ((fitted_a, gluing_a), (fitted_b, gluing_b))
        for F, basis in _bases(pairs, k):
            for m in range(basis.num_basis):
                rows_L, rows_R = basis.rows("L", m), basis.rows("R", m)
                rep = verify_c2_at_interface(F, rows_L, rows_R, 50, 1e-8)
                want = _c2_reference(F, rows_L, rows_R, 50)
                assert rep.passed
                got = (rep.value_diff, rep.grad_diff, rep.hess_diff)
                assert max(got) <= 1e-12 and max(want) <= 1e-12

    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    def test_matches_full_grid_reference(self, fitted_a, fitted_b, gluing_a,
                                         gluing_b, k):
        # perturbed right rows give residuals of 1e-3 to 1, which both
        # computations must agree on far above roundoff
        rng = np.random.default_rng(k)
        pairs = ((fitted_a, gluing_a), (fitted_b, gluing_b))
        for F, basis in _bases(pairs, k):
            for m in range(basis.num_basis):
                rows_L = basis.rows("L", m)
                rows_R = _perturbed(basis.rows("R", m), rng)
                rep = verify_c2_at_interface(F, rows_L, rows_R, 50, 1e-8)
                want = _c2_reference(F, rows_L, rows_R, 50)
                assert min(want) > 1e-5 and not rep.passed
                assert_allclose((rep.value_diff, rep.grad_diff, rep.hess_diff),
                                want, rtol=1e-10, atol=0)

    def test_sample_matrices_computed_once(self, fitted_a, gluing_a, monkeypatch):
        kv = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
        F = refine_geometry(fitted_a[0], kv)
        basis = build_basis_v2(gluing_a, gluing_invariants(gluing_a, kv), 5, 2, 3)
        calls = _count_eval_basis(monkeypatch)
        for m in range(basis.num_basis):
            verify_c2_at_interface(F, basis.rows("L", m), basis.rows("R", m), 30)
        # the u-jets at zero and the v-basis at the samples, each once:
        # both patches share one space
        assert F.patch_L.space is F.patch_R.space
        assert 0 < len(calls) <= 2

        frame = smooth._c2_frame(F, 30)
        assert smooth._c2_frame(F, 30) is frame
        before = len(calls)
        other = smooth._c2_frame(F, 31)
        assert other is not frame and len(calls) == before + 1
        index, maps = other
        assert index.shape == (2, 31, 18) and maps.shape == (2, 31, 7, 18)
        # side R reads the second half of [rows_L | rows_R]
        n = F.space.dim
        assert 0 <= index[0].min() and index[0].max() < 3 * n <= index[1].min()
        assert index[1].max() < 6 * n
        for memo in frame + other + (F.space.jets_at_zero,):
            assert not memo.flags.writeable
            with pytest.raises(ValueError):
                memo[0, 0] = 1

    def test_batched_report_is_the_worst_single_one(self, fitted_b, gluing_b):
        # a genuine basis passes; with every third right row perturbed,
        # it fails
        rng = np.random.default_rng(1)
        for F, basis in _bases([(fitted_b, gluing_b)], 3):
            broken = basis.A_R.copy()
            broken[::3] = _perturbed(broken[::3], rng)
            for A_R, passed in ((basis.A_R, True), (broken, False)):
                single = [verify_c2_at_interface(F, basis.A_L[m], A_R[m], 40)
                          for m in range(basis.num_basis)]
                batched = verify_c2_at_interface(F, basis.A_L, A_R, 40)
                assert batched.passed == passed
                assert all(r.passed for r in single) == passed
                worst = [max(getattr(r, name) for r in single)
                         for name in ("value_diff", "grad_diff", "hess_diff")]
                got = (batched.value_diff, batched.grad_diff, batched.hess_diff)
                assert_allclose(got, worst, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("count", [0, -1, 2.5, True, "50"],
                             ids=["zero", "negative", "fraction", "bool", "str"])
    def test_sample_count_must_be_a_positive_integer(self, fitted_a, gluing_a,
                                                     count):
        geo = fitted_a[0]
        rows = np.zeros((3, geo.space.dim))
        for check, args in ((verify_c2_at_interface, (geo, rows, rows)),
                            (verify_bilinear_like, (geo, gluing_a))):
            assert check(*args, np.int64(7)).passed
            with pytest.raises(ValueError, match="n_samples"):
                check(*args, count)
