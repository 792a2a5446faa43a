"""Tests for the B-spline kernel and the tensor-product patches built on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from c2patch.bspline import (KnotVector, SplineSpace1D, insert_knot,
                             make_knot_vector, refine_to, uniform_inner_knots)
from c2patch.geometry import Patch
from tests.conftest import left_limits
from tests.kernel_reference import eval_basis_loops


def space(p, r, k, inner=None):
    inner = uniform_inner_knots(k) if inner is None else inner
    return SplineSpace1D(make_knot_vector(p, r, k, inner))


class TestKnotVector:
    def test_t3_52_matches_listed_vector(self):
        kv = make_knot_vector(5, 2, 3, (0.25, 0.5, 0.75))
        expect = [0.0] * 6 + [0.25] * 3 + [0.5] * 3 + [0.75] * 3 + [1.0] * 6
        assert_allclose(kv.knots, expect)
        assert kv.dim == 15

    def test_no_interior_knots_is_polynomial_space(self):
        kv = make_knot_vector(5, 2, 0)
        assert_allclose(kv.knots, [0.0] * 6 + [1.0] * 6)
        assert kv.dim == 6

    def test_single_knot_multiplicity_three(self):
        kv = make_knot_vector(6, 3, 1, (0.5,))
        assert kv.multiplicities == (7, 3, 7)
        assert kv.dim == 10

    def test_dimension_formula(self):
        for p, r, k in [(5, 2, 3), (6, 3, 2), (7, 4, 1), (5, 2, 0)]:
            kv = make_knot_vector(p, r, k, uniform_inner_knots(k))
            assert kv.dim == p + 1 + k * (p - r)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            make_knot_vector(5, 5, 0)
        with pytest.raises(ValueError):
            make_knot_vector(5, 2, 2, (0.5, 0.25))
        with pytest.raises(ValueError):
            make_knot_vector(5, 2, 1, (1.5,))
        with pytest.raises(ValueError):
            KnotVector(5, (0.0, 0.5, 1.0), (6, 6, 6))

    def test_elevate_single(self):
        kv = make_knot_vector(5, 2, 3, (0.25, 0.5, 0.75))
        up = kv.with_raised_multiplicity(1, 1)
        assert up.multiplicities == (6, 4, 3, 3, 6)
        assert up.dim == kv.dim + 1

    def test_elevate_twice_drops_smoothness(self):
        kv = make_knot_vector(5, 2, 3, (0.25, 0.5, 0.75))
        up = kv.with_raised_multiplicity(2, 2)
        assert up.multiplicities == (6, 3, 5, 3, 6)
        assert up.dim == kv.dim + 2

    def test_elevate_composition_matches_direct(self):
        kv = make_knot_vector(5, 4, 3, (0.25, 0.5, 0.75))
        two = kv.with_raised_multiplicity(1, 1).with_raised_multiplicity(3, 1)
        direct = KnotVector(5, kv.breakpoints, (6, 2, 1, 2, 6))
        assert two == direct

    def test_elevate_overflow(self):
        kv = make_knot_vector(5, 2, 1, (0.5,))
        with pytest.raises(ValueError):
            kv.with_raised_multiplicity(1, 3)


class TestBasisEvaluation:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(17)
        for p, r, k in [(5, 2, 3), (6, 3, 2), (3, 1, 4)]:
            s = space(p, r, k)
            for x in rng.uniform(0.0, 1.0, 1000):
                _, d = s.eval_basis(x, 1)
                assert abs(d[0].sum() - 1.0) < 1e-12
                assert abs(d[1].sum()) < 1e-9

    def test_endpoint_derivatives(self):
        # first/second derivatives of the first basis functions at 0
        s = space(5, 2, 3, (0.25, 0.5, 0.75))
        p, tau1 = 5, 0.25
        first, d = s.eval_basis(0.0, 2)
        assert first == 0
        assert d[0][0] == pytest.approx(1.0)
        assert d[1][0] == pytest.approx(-p / tau1)
        assert d[1][1] == pytest.approx(p / tau1)
        assert d[2][0] == pytest.approx(p * (p - 1) / tau1 ** 2)
        assert d[2][1] == pytest.approx(-2 * p * (p - 1) / tau1 ** 2)
        assert d[2][2] == pytest.approx(p * (p - 1) / tau1 ** 2)

    def test_local_support_and_nonnegativity(self):
        s = space(5, 2, 3)
        t = s.knots
        xs = np.linspace(0, 1, 101)
        vals = np.zeros((len(xs), s.dim))
        for i, x in enumerate(xs):
            first, d = s.eval_basis(x)
            vals[i, first:first + 6] = d[0]
        assert (vals >= -1e-14).all()
        for j in range(s.dim):
            outside = (xs < t[j] - 1e-12) | (xs > t[j + 6] + 1e-12)
            assert np.abs(vals[outside, j]).max(initial=0.0) == 0.0

    def test_derivatives_match_finite_differences(self):
        s = space(5, 2, 2, (0.3, 0.7))
        c = rng_coeffs(s)
        def f(x, der=0):
            return float(s.eval_function(c, [x], der)[der, 0])

        h = 1e-5
        for x in (0.12, 0.44, 0.61, 0.93):
            d1 = (f(x + h) - f(x - h)) / (2 * h)
            d2 = (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
            assert abs(f(x, 1) - d1) < 1e-6 * max(1, abs(d1))
            assert abs(f(x, 2) - d2) < 1e-5 * max(1, abs(d2))

    def test_high_order_derivatives_vanish(self):
        s = space(3, 2, 0)
        _, d = s.eval_basis(0.4, 5)
        assert np.abs(d[4]).max() == 0.0
        assert np.abs(d[5]).max() == 0.0

    def test_smoothness_jumps_at_knots(self):
        # C^{p-m} at a knot of multiplicity m: jumps vanish up to p-m,
        # the next order jumps for at least one basis function
        kv = make_knot_vector(5, 2, 3, (0.25, 0.5, 0.75))
        kv = kv.with_raised_multiplicity(2, 1)
        s = SplineSpace1D(kv)
        tau, mult = 0.5, 4
        for order in range(5 - mult + 1):
            jump = _basis_jumps(s, tau, order)
            scale = max(1.0, _jump_scale(s, tau, order))
            assert np.abs(jump).max() / scale < 1e-9
        jump = _basis_jumps(s, tau, 5 - mult + 1)
        assert np.abs(jump).max() > 1e-6 * _jump_scale(s, tau, 5 - mult + 1)

    def test_out_of_range(self):
        s = space(5, 2, 0)
        with pytest.raises(ValueError):
            s.eval_basis(1.5)


class TestBatchedKernel:
    """The batched evaluator against an independent implementation, against
    the scalar recurrence it replaced, and its input/output shapes."""

    @staticmethod
    def mixed_space(p):
        mult = [min(m, p) for m in (1, 2, p, 3, 1)]
        bp = (0.0, 0.13, 0.4, 0.41, 0.77, 0.9, 1.0)
        return SplineSpace1D(KnotVector(p, bp, (p + 1, *mult, p + 1)))

    @staticmethod
    def points(s, seed):
        inner = np.asarray(s.kv.breakpoints)
        return np.concatenate([np.random.default_rng(seed).uniform(0, 1, 40),
                               inner])

    def test_matches_scipy_bspline(self):
        from scipy.interpolate import BSpline

        for p in range(1, 8):
            s = self.mixed_space(p)
            xs = self.points(s, p)
            ours = s.basis_matrix(xs, p)
            ref = BSpline(s.knots, np.eye(s.dim), p)
            for m in range(p + 1):
                want = ref(xs, nu=m)
                scale = np.abs(want).max()
                assert np.abs(ours[m] - want).max() <= 1e-12 * scale, (p, m)

    def test_bitwise_equal_to_scalar_recurrence(self):
        for p in range(1, 8):
            s = self.mixed_space(p)
            xs = self.points(s, 10 + p)
            for side, evaluate in (("left", left_limits),
                                   ("right", SplineSpace1D.eval_basis)):
                first, ders = evaluate(s, xs, p)
                for i, x in enumerate(xs):
                    span = s.find_span(x, side)
                    assert first[i] == span - p
                    assert np.array_equal(
                        ders[i], _scalar_ders_reference(s.knots, p, span, x, p))

    def test_scalar_and_batched_shapes(self):
        s = space(5, 2, 3)
        first, ders = s.eval_basis(0.3, 2)
        assert isinstance(first, int) and ders.shape == (3, 6)
        first, ders = s.eval_basis(np.linspace(0, 1, 7), 2)
        assert first.shape == (7,) and ders.shape == (7, 3, 6)
        first, ders = s.eval_basis(np.full((4, 5), 0.5), 7)
        assert first.shape == (4, 5) and ders.shape == (4, 5, 8, 6)
        assert s.basis_matrix([0.1, 0.2], 1).shape == (2, 2, s.dim)
        assert s.eval_function(np.ones((s.dim, 3)), [0.1, 0.2], 1).shape \
            == (2, 2, 3)
        patch = Patch(s, np.ones((s.dim, s.dim, 2)))
        assert patch.derivs([0.1, 0.2, 0.3], 0.5, 2, 1).shape == (3, 2, 3, 2)
        assert patch.eval(0.1, [0.2, 0.3]).shape == (2, 2)
        assert patch.eval(0.1, 0.2).shape == (2,)

    def test_batched_out_of_range(self):
        s = space(5, 2, 0)
        with pytest.raises(ValueError, match="outside"):
            s.eval_basis(np.array([0.2, np.nan]))


def _scalar_ders_reference(knots, p, span, x, nd):
    """One-point Cox-de Boor recurrence with derivatives (The NURBS Book,
    A2.3), kept as the reference for the batched evaluator."""
    ndu = np.empty((p + 1, p + 1))
    ndu[0, 0] = 1.0
    left = np.empty(p + 1)
    right = np.empty(p + 1)
    for j in range(1, p + 1):
        left[j] = x - knots[span + 1 - j]
        right[j] = knots[span + j] - x
        saved = 0.0
        for rr in range(j):
            ndu[j, rr] = right[rr + 1] + left[j - rr]
            temp = ndu[rr, j - 1] / ndu[j, rr]
            ndu[rr, j] = saved + right[rr + 1] * temp
            saved = left[j - rr] * temp
        ndu[j, j] = saved

    ders = np.zeros((nd + 1, p + 1))
    ders[0, :] = ndu[:, p]
    a = np.empty((2, p + 1))
    for rr in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for kk in range(1, nd + 1):
            d = 0.0
            rk = rr - kk
            pk = p - kk
            if rr >= kk:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = kk - 1 if rr - 1 <= pk else p - rr
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if rr <= pk:
                a[s2, kk] = -a[s1, kk - 1] / ndu[pk + 1, rr]
                d += a[s2, kk] * ndu[rr, pk]
            ders[kk, rr] = d
            s1, s2 = s2, s1

    fac = float(p)
    for kk in range(1, nd + 1):
        ders[kk, :] *= fac
        fac *= p - kk
    return ders


def _basis_jumps(s, tau, order):
    jumps = np.zeros(s.dim)
    fr = s.find_span(tau, "right") - s.degree
    _, dr = s.eval_basis(tau, order)
    fl = s.find_span(tau, "left") - s.degree
    _, dl = left_limits(s, tau, order)
    jumps[fr:fr + s.degree + 1] += dr[order]
    jumps[fl:fl + s.degree + 1] -= dl[order]
    return jumps


def _jump_scale(s, tau, order):
    _, dr = s.eval_basis(tau, order)
    _, dl = left_limits(s, tau, order)
    return max(np.abs(dr[order]).max(), np.abs(dl[order]).max())


def rng_coeffs(s, seed=0):
    return np.random.default_rng(seed).standard_normal(s.dim)


class TestOverlap:
    @staticmethod
    def _gram_positive(s):
        """Gram > 0 by Gauss quadrature over every nonempty span, in the
        band form of ``overlap``."""
        x, w = np.polynomial.legendre.leggauss(s.degree + 1)
        G = np.zeros((s.dim, s.dim))
        for _, a, b in s.spans():
            B = s.basis_matrix(0.5 * (a + b) + 0.5 * (b - a) * x)[0]
            G += B.T @ (0.5 * (b - a) * w[:, None] * B)
        p = s.degree
        i = np.arange(s.dim)[:, None]
        j = i + np.arange(2 * p + 1) - p
        inside = (j >= 0) & (j < s.dim)
        return inside & (G[i, j.clip(0, s.dim - 1)] > 0.0)

    def test_matches_gram_on_random_knot_vectors(self):
        # multiplicities up to p, and k = 0 for every degree
        gen = np.random.default_rng(7)
        count = 0
        for p in range(1, 8):
            for k in range(6):
                for _ in range(8 if k else 1):
                    inner = np.sort(gen.choice(np.arange(1, 64), k,
                                               replace=False)) / 64.0
                    mult = tuple(int(m) for m in gen.integers(1, p + 1, k))
                    s = SplineSpace1D(KnotVector(
                        p, (0.0,) + tuple(inner) + (1.0,),
                        (p + 1,) + mult + (p + 1,)))
                    mask = s.overlap()
                    assert mask.shape == (s.dim, 2 * p + 1)
                    assert np.array_equal(mask, self._gram_positive(s))
                    count += 1
        assert count == 7 * (1 + 5 * 8)


class TestGreville:
    def test_polynomial_space(self):
        s = space(5, 4, 0)
        assert_allclose(s.greville(), [0, 0.2, 0.4, 0.6, 0.8, 1.0])

    def test_t3_52_values(self):
        s = space(5, 2, 3, (0.25, 0.5, 0.75))
        g = s.greville()
        assert len(g) == 15
        assert_allclose(g[:3], [0.0, 1 / 20, 1 / 10])
        assert g[-1] == pytest.approx(1.0)

    def test_strictly_increasing_for_moderate_multiplicity(self):
        for p, r, k in [(5, 2, 3), (6, 3, 2), (5, 4, 4)]:
            s = space(p, r, k)
            g = s.greville()
            assert (np.diff(g) > 0).all()


class TestInterpolation:
    def test_constants(self):
        s = space(5, 2, 3)
        c = s.interpolate(np.ones(s.dim))
        assert_allclose(c, 1.0, atol=1e-13)

    def test_linear_precision(self):
        s = space(5, 2, 2, (0.4, 0.7))
        xi = s.greville()
        c = s.interpolate(xi)
        assert_allclose(c, xi, atol=1e-13)

    def test_round_trip(self):
        s = space(5, 2, 3)
        c = rng_coeffs(s, 3)
        vals = s.eval_function(c, s.greville())[0]
        assert np.abs(s.interpolate(vals) - c).max() < 1e-12


class TestTensor:
    # a patch in S x S: the tensor-product spline of each coordinate

    def test_constant(self):
        s = space(5, 2, 1, (0.5,))
        patch = Patch(s, np.ones((s.dim, s.dim, 2)))
        for u, v in [(0.0, 0.3), (0.7, 0.7), (1.0, 1.0)]:
            assert patch.eval(u, v) == pytest.approx([1.0, 1.0])

    def test_separable(self):
        s = space(5, 2, 1, (0.5,))
        cu, cv = rng_coeffs(s, 1), rng_coeffs(s, 2)
        coeffs = np.outer(cu, cv)
        patch = Patch(s, np.stack([coeffs, 2.0 * coeffs], axis=-1))
        for u, v in [(0.1, 0.9), (0.55, 0.2)]:
            fu = s.eval_function(cu, [u], 1)[:, 0]
            fv = float(s.eval_function(cv, [v])[0, 0])
            want = float(fu[0]) * fv
            assert patch.eval(u, v) == pytest.approx([want, 2.0 * want])
            want = float(fu[1]) * fv
            assert patch.eval(u, v, du=1) == pytest.approx([want, 2.0 * want])

    def test_linear_precision_derivative(self):
        # the identity map (u, v) -> (u, v)
        s = space(5, 2, 1, (0.5,))
        xi = s.greville()
        coeffs = np.tile(s.interpolate(xi)[:, None], (1, s.dim))
        patch = Patch(s, np.stack([coeffs, coeffs.T], axis=-1))
        assert patch.eval(0.3, 0.8, du=1) == pytest.approx([1.0, 0.0],
                                                           abs=1e-12)
        assert patch.eval(0.3, 0.8, dv=1) == pytest.approx([0.0, 1.0],
                                                           abs=1e-12)


class TestInsertion:
    def test_single_insertion_preserves_function(self):
        s = space(5, 2, 2, (0.3, 0.6))
        c = rng_coeffs(s, 5)
        kv2, c2 = insert_knot(s.kv, c, 0.45)
        s2 = SplineSpace1D(kv2)
        assert kv2.dim == s.dim + 1
        for x in np.linspace(0, 1, 17):
            assert s2.eval_function(c2, [x])[0, 0] == pytest.approx(
                s.eval_function(c, [x])[0, 0], abs=1e-12)

    def test_refine_to_dyadic(self):
        s = space(5, 2, 0)
        c = rng_coeffs(s, 6)
        target = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
        c2 = refine_to(s.kv, target, c)
        s2 = SplineSpace1D(target)
        for x in np.linspace(0, 1, 17):
            assert s2.eval_function(c2, [x])[0, 0] == pytest.approx(
                s.eval_function(c, [x])[0, 0], abs=1e-12)

    def test_refine_to_rejects_coarsening(self):
        fine = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
        coarse = make_knot_vector(5, 2, 1, (0.5,))
        with pytest.raises(ValueError):
            refine_to(fine, coarse, np.zeros(fine.dim))

    def test_insert_knot_matches_row_by_row_boehm(self):
        # the affected rows are updated at once, bit for bit as one by one
        kv = make_knot_vector(5, 2, 3, (0.2, 0.5, 0.7))
        c = rng_coeffs(SplineSpace1D(kv), 7).reshape(-1, 1) * np.arange(1, 4)
        for x in (0.1, 0.5, 0.63):
            _, got = insert_knot(kv, c, x)
            t, p = kv.knots, kv.degree
            span = min(max(int(np.searchsorted(t, x, side="right")) - 1, p),
                       kv.dim - 1)
            want = np.insert(c, span, 0.0, axis=0)
            for i in range(span - p + 1, span + 1):
                a = (x - t[i]) / (t[i + p] - t[i])
                want[i] = a * c[i] + (1.0 - a) * c[i - 1]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["a", "b"])
    def test_refine_geometry_is_patchwise_refine_to(self, name, request):
        # both patches stacked, one refine_to per direction: the control
        # grids of refining each patch along u, then along v (at k = 0, the
        # grids themselves)
        from c2patch.geometry import refine_geometry
        geo, _ = request.getfixturevalue(f"fitted_{name}")
        kv = geo.space.kv
        for k in (0, 1, 3, 7):
            target = make_knot_vector(5, 2, k, uniform_inner_knots(k))
            fine = refine_geometry(geo, target)
            for side in ("L", "R"):
                cp = refine_to(kv, target, geo.patch(side).control_points)
                cp = np.swapaxes(refine_to(kv, target, np.swapaxes(cp, 0, 1)),
                                 0, 1)
                assert np.array_equal(fine.patch(side).control_points, cp)
                assert fine.patch(side).space.kv == target


knot_counts = st.integers(min_value=0, max_value=4)
degrees = st.integers(min_value=1, max_value=7)


@st.composite
def random_spaces(draw):
    p = draw(degrees)
    r = draw(st.integers(min_value=0, max_value=p - 1))
    k = draw(knot_counts)
    inner = sorted(draw(st.lists(
        st.floats(min_value=0.05, max_value=0.95), min_size=k, max_size=k,
        unique=True)))
    if any(b - a < 1e-3 for a, b in zip(inner, inner[1:])):
        inner = [(i + 1) / (k + 1) for i in range(k)]
    return SplineSpace1D(make_knot_vector(p, r, k, inner))


@given(random_spaces(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_property_partition_of_unity(s, x):
    _, d = s.eval_basis(x)
    assert abs(d[0].sum() - 1.0) < 1e-12


@given(random_spaces())
@settings(max_examples=40, deadline=None)
def test_property_greville_round_trip(s):
    c = np.random.default_rng(11).standard_normal(s.dim)
    vals = s.eval_function(c, s.greville())[0]
    assert np.abs(s.interpolate(vals) - c).max() < 1e-10 * max(
        1.0, np.abs(c).max())


@given(random_spaces())
@settings(max_examples=40, deadline=None)
def test_property_insertion_dimension(s):
    new = 0.37
    if s.kv.multiplicity_of(new) >= s.degree:
        return
    kv2, _ = insert_knot(s.kv, np.zeros(s.dim), new)
    assert kv2.dim == s.dim + 1


@st.composite
def kernel_inputs(draw):
    """A space with repeated knots, and points on and between its knots
    (the ends within KNOT_TOL outside [0, 1] too) as a scalar, 1D or 2D
    array."""
    p = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=0, max_value=5))
    if draw(st.booleans()):
        inner = uniform_inner_knots(k)
    else:
        inner = sorted(draw(st.lists(st.floats(min_value=0.01, max_value=0.99),
                                     min_size=k, max_size=k, unique=True)))
        if any(b - a < 1e-3 for a, b in zip(inner, inner[1:])):
            inner = uniform_inner_knots(k)
    mult = [draw(st.integers(min_value=1, max_value=p)) for _ in inner]
    s = SplineSpace1D(KnotVector(p, (0.0, *inner, 1.0), (p + 1, *mult, p + 1)))
    point = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                      st.sampled_from((0.0, *inner, 1.0, -1e-13, 1.0 + 1e-13)))
    shape = draw(st.sampled_from([(), (7,), (3, 4)]))
    xs = np.array(draw(st.lists(point, min_size=int(np.prod(shape)),
                                max_size=int(np.prod(shape))))).reshape(shape)
    side = draw(st.sampled_from(["left", "right"]))
    return s, xs, draw(st.integers(min_value=0, max_value=p + 2)), side


@given(kernel_inputs())
@settings(max_examples=200, deadline=None)
def test_property_kernel_bitwise_equal_to_per_function_loops(inputs):
    s, xs, max_deriv, side = inputs
    want_first, want = eval_basis_loops(s, xs, max_deriv, side=side)
    if side == "right":
        first, ders = s.eval_basis(xs, max_deriv)
        assert type(first) is type(want_first)
    else:
        first, ders = left_limits(s, xs, max_deriv)
    assert np.array_equal(first, want_first)
    assert ders.shape == want.shape
    assert np.array_equal(ders, want)
    assert np.array_equal(np.signbit(ders), np.signbit(want))
