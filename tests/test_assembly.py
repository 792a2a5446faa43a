"""Tests for quadrature, assembly, projection and geometry fitting."""

import gc
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import c2patch.assembly as asm_mod
from c2patch import blas, cli
from c2patch.assembly import (DomainAssembler, KroneckerPreconditioner,
                              MassLayout, PatchAssembler, SPDFactor,
                              TwoPatchMass, _band_block, _identity_geometry,
                              convergence_study, discrete_relative_error,
                              fit_bilinear_like, reference_projection,
                              reports_to_csv, scaled_condition_number,
                              solve_spd)
from c2patch.bspline import (SplineSpace1D, gauss_legendre, gauss_rule,
                             make_knot_vector, uniform_inner_knots)
from c2patch.geometry import Patch, TwoPatchGeometry, bilinear_from_vertices
from c2patch.gluing import gluing_from_bilinear, gluing_invariants
from c2patch.smooth import build_basis_v2, build_basis_w2
from tests import mass_reference


def field_one(x1, x2):
    return np.ones_like(np.asarray(x1, dtype=float))


def field_osc(x1, x2):
    return 2.0 * np.cos(2.0 * x1) * np.sin(2.0 * x2)


class TestGaussRule:
    def test_single_point(self):
        rule = gauss_rule(1, [(0.0, 1.0)])
        assert rule.nodes[0, 0] == pytest.approx(0.5)
        assert rule.weights[0, 0] == pytest.approx(1.0)

    def test_degree_eleven_exact(self):
        rule = gauss_rule(6, [(0.0, 1.0)])
        x, w = rule.nodes.ravel(), rule.weights.ravel()
        assert (w * x ** 11).sum() == pytest.approx(1.0 / 12.0, abs=1e-14)

    def test_cell_split_matches_reference(self):
        s = SplineSpace1D(make_knot_vector(5, 2, 3, (0.25, 0.5, 0.75)))
        cells = [(a, b) for _, a, b in s.spans()]
        rule = gauss_rule(6, cells)
        ref = gauss_rule(20, cells)
        c = np.random.default_rng(0).standard_normal(s.dim)
        for i in (0, 4, 9):
            for j in (0, 4, 9):
                def integrand(rule_):
                    x, w = rule_.nodes.ravel(), rule_.weights.ravel()
                    vals = np.zeros((2, len(x)))
                    for m, xm in enumerate(x):
                        first, d = s.eval_basis(xm)
                        block = np.zeros(s.dim)
                        block[first:first + 6] = d[0]
                        vals[0, m] = block[i]
                        vals[1, m] = block[j]
                    return (w * vals[0] * vals[1]).sum()
                assert integrand(rule) == pytest.approx(integrand(ref),
                                                        abs=1e-14)

    def test_rejects_zero_points(self):
        with pytest.raises(ValueError):
            gauss_rule(0, [(0.0, 1.0)])

    def test_legendre_rule_cached_and_read_only(self):
        x, w = gauss_legendre(10)
        assert gauss_legendre(10)[0] is x
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        ref_x, ref_w = np.polynomial.legendre.leggauss(10)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


@pytest.fixture(scope="module")
def unit_setup():
    kv = make_knot_vector(5, 2, 1, (0.5,))
    geo = _identity_geometry(kv)
    g = gluing_from_bilinear(
        bilinear_from_vertices(geo))
    inv = gluing_invariants(g, kv)
    basis = build_basis_v2(g, inv, 5, 2, 1)
    return geo, g, inv, basis


class TestMassAndLoad:
    def test_identity_geometry_gram(self, unit_setup):
        geo, _, _, _ = unit_setup
        pa = PatchAssembler(geo.patch_R, 8)
        M = _patch_mass(pa)
        assert_allclose(M, M.T, atol=1e-14)
        s = geo.patch_R.space
        # diagonal entries equal products of univariate self-integrals for
        # separable index pairs: check one entry against dense quadrature
        rule = gauss_rule(20, [(0.0, 0.5), (0.5, 1.0)])
        x, w = rule.nodes.ravel(), rule.weights.ravel()
        f0 = np.array([_basis_value(s, 2, xm) for xm in x])
        g0 = np.array([_basis_value(s, 3, xm) for xm in x])
        ref = (w * f0 * g0).sum()
        n = s.dim
        # separable entry ((2,3),(3,2)) = (integral N2 N3)^2 when |det J| = 1
        assert M[2 * n + 3, 3 * n + 2] == pytest.approx(ref * ref, abs=1e-12)
        # |det J| = 1: the patch mass is the Kronecker product of 1D Grams
        G = pa.mass_1d()
        assert G[2, 3] == pytest.approx(ref, abs=1e-13)
        assert np.abs(M - np.kron(G, G)).max() <= 1e-13 * np.abs(M).max()

    def test_batched_cells_match_cell_loop(self, fitted_b):
        from c2patch.geometry import refine_geometry
        kv = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
        pa = PatchAssembler(refine_geometry(fitted_b[0], kv).patch_L)
        values = pa.sample_physical(field_osc)
        M_ref, load_ref = _cell_loop_reference(pa, values)
        M = _patch_mass(pa)
        assert np.abs(M - M_ref).max() <= 1e-13 * np.abs(M_ref).max()
        load = pa.load(values=values)
        assert np.abs(load - load_ref).max() <= 1e-13 * np.abs(load_ref).max()

    def test_measure_is_weighted_jacobian(self, fitted_b):
        from c2patch.geometry import refine_geometry
        kv = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
        pa = PatchAssembler(refine_geometry(fitted_b[0], kv).patch_R)
        nodes, w = pa.rule.nodes, pa.rule.weights
        Fu, Fv = (pa.patch.eval(nodes, nodes, du=du, dv=1 - du)
                  .transpose(0, 2, 1, 3, 4) for du in (1, 0))
        ref = (np.abs(Fu[..., 0] * Fv[..., 1] - Fu[..., 1] * Fv[..., 0])
               * w[:, None, :, None] * w[None, :, None, :])
        assert np.abs(pa.measure - ref).max() <= 1e-13 * ref.max()

    def test_field_sampled_once_per_patch(self, fitted_a):
        # load, then the error of the same field object: one evaluation
        # per patch; another field object is evaluated anew
        asm = _study_assembler(*fitted_a, "v2", level=2)
        calls = []

        class Counting:
            def __call__(self, x1, x2):
                calls.append(x1.shape)
                return field_osc(x1, x2)

        f, g = Counting(), Counting()
        b = solve_spd(asm.mass(), asm.load(f))
        err = asm.relative_l2_error(b, f)
        assert len(calls) == 2
        assert asm.relative_l2_error(b, g) == err
        assert len(calls) == 4

    def test_mass_spd_and_permutation(self, fitted_a, unit_setup):
        geo, gluing = fitted_a
        kv = geo.space.kv
        inv = gluing_invariants(gluing, kv)
        basis = build_basis_v2(gluing, inv, 5, 2, 0)
        M = DomainAssembler(geo, basis).mass().toarray()
        ev = np.linalg.eigvalsh(M)
        assert ev[0] > 0.0
        perm = np.random.default_rng(0).permutation(M.shape[0])
        P = np.eye(M.shape[0])[perm]
        assert_allclose(P @ M @ P.T, M[np.ix_(perm, perm)], atol=1e-15)

    def test_zero_field_zero_load(self, fitted_a):
        geo, gluing = fitted_a
        kv = geo.space.kv
        inv = gluing_invariants(gluing, kv)
        basis = build_basis_v2(gluing, inv, 5, 2, 0)
        rhs = DomainAssembler(geo, basis).load(lambda x, y: np.zeros_like(x))
        assert np.abs(rhs).max() == 0.0

    def test_constant_field_matches_mass_action(self, fitted_a):
        # f = 1 is representable: load must equal M @ (coefficients of 1)
        geo, gluing = fitted_a
        kv = geo.space.kv
        inv = gluing_invariants(gluing, kv)
        basis = build_basis_v2(gluing, inv, 5, 2, 0)
        asm = DomainAssembler(geo, basis)
        M = asm.mass()
        rhs = asm.load(field_one)
        b = solve_spd(M, rhs)
        assert asm.relative_l2_error(b, field_one) < 1e-12
        assert_allclose(M @ b, rhs, atol=1e-12 * np.abs(rhs).max())


def _full_csr(M):
    """The full CSR matrix of a ``TwoPatchMass``, mirrored from its upper
    triangle, with sorted rows."""
    U = M.upper
    return (U + sp.triu(U, 1).T).tocsr()


def _full_csr_bytes(M):
    """The bytes of M as a full CSR matrix: 2 nnz(U) - n entries."""
    U = M.upper
    return (M.nnz * (U.data.itemsize + U.indices.itemsize)
            + U.indptr.nbytes)


def _stored_bytes(M):
    U = M.upper
    return U.data.nbytes + U.indices.nbytes + U.indptr.nbytes


def _assert_upper_triangle(M):
    """M stores no entry below its diagonal, so it is exactly symmetric."""
    assert sp.tril(M.upper, -1).nnz == 0
    dense = M.toarray()
    assert np.array_equal(dense, dense.T)


def _assert_matches_frozen_writer(asm):
    """The upper triangle of the full-band writer's M in ``mass_reference``:
    the same pattern, and values within 1e-15 max |M|; M exactly
    symmetric."""
    M = asm.mass()
    ref = sp.triu(mass_reference.mass(asm), format="csr")
    assert np.array_equal(M.upper.indptr, ref.indptr)
    assert np.array_equal(M.upper.indices, ref.indices)
    scale = np.abs(ref.data).max()
    assert np.abs(M.upper.data - ref.data).max() <= 1e-15 * scale
    _assert_upper_triangle(M)


@pytest.mark.parametrize("study", ["a/v2", "a/w2", "b/v2", "b/w2"])
def test_table2_masses_match_frozen_writer(study, request):
    # the Table-2 masses of levels 0-3
    from c2patch.geometry import refine_geometry
    name, space = study.split("/")
    geo0, gluing = request.getfixturevalue(f"fitted_{name}")
    build = build_basis_v2 if space == "v2" else build_basis_w2
    for level in range(4):
        k = 2 ** level - 1
        kv = make_knot_vector(5, 2, k, uniform_inner_knots(k))
        basis = build(gluing, gluing_invariants(gluing, kv), 5, 2, k)
        geo = refine_geometry(geo0, kv) if k else geo0
        _assert_matches_frozen_writer(DomainAssembler(geo, basis))


@pytest.mark.parametrize("name", ["a", "b"])
def test_fit_masses_match_frozen_writer(name, request):
    geo = request.getfixturevalue(f"geo_{name}")
    reference = request.getfixturevalue(f"bilinear_{name}")
    gluing = request.getfixturevalue(f"gluing_{name}")
    asm, _, _ = reference_projection(geo, reference, gluing)
    _assert_matches_frozen_writer(asm)


def test_band_rows_split_anywhere(fitted_b):
    # rows lo..hi-1 of the upper band do not depend on the other rows
    from c2patch.geometry import refine_geometry
    kv = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
    pa = PatchAssembler(refine_geometry(fitted_b[0], kv).patch_R)
    u_stage = pa.mass_u_stage()
    band = pa.mass_band(u_stage, 0, pa.n)
    for lo, hi in ((0, 3), (3, pa.n), (5, 9)):
        assert np.array_equal(pa.mass_band(u_stage, lo, hi), band[lo:hi])


@pytest.mark.parametrize("study", ["a/v2", "b/w2"])
def test_band_blocks_of_any_size(study, request, monkeypatch):
    # level 4: the interior band built one u-row at a time, or in one block,
    # gives the frozen writer's M and bitwise the M of the default blocks
    name, space = study.split("/")
    asm = _study_assembler(*request.getfixturevalue(f"fitted_{name}"), space,
                           level=4)
    M = asm.mass()
    for budget in (0, 10 ** 12):
        monkeypatch.setattr(asm_mod, "BAND_BLOCK_BYTES", budget)
        _assert_matches_frozen_writer(asm)
        blocked = asm.mass()
        for a in ("indptr", "indices", "data"):
            assert (getattr(blocked.upper, a).tobytes()
                    == getattr(M.upper, a).tobytes())


def test_mass_temporaries_stay_below_m(fitted_a):
    # a/V2 level 4: beside M's stored triangle the mass holds one patch's
    # u-stage and a block of band rows, 0.38 of M's 4.79 MiB as a full CSR
    # matrix (0.54 when the band rows above each block were carried for the
    # mirror reads); the writer of whole bands and both u-stages needed
    # 4.23 MiB (88 % of M)
    asm = _study_assembler(*fitted_a, "v2", level=4)
    tracemalloc.start()
    try:
        M = asm.mass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - _stored_bytes(M) < 0.6 * _full_csr_bytes(M)


def test_mass_stores_half_of_the_full_csr(fitted_a):
    # a/V2 level 4: the upper triangle, diagonal included, against the
    # 2 nnz(U) - n entries of M as a full CSR matrix
    M = _study_assembler(*fitted_a, "v2", level=4).mass()
    assert _stored_bytes(M) <= 0.52 * _full_csr_bytes(M)


@pytest.mark.parametrize("study", ["a/v2", "b/w2"])
def test_product_matches_full_csr(study, request):
    # level 3: M x = U x + U^T x - diag(M) x against the frozen writer's
    # full CSR product, for a vector and an (n, 3) block
    name, space = study.split("/")
    asm = _study_assembler(*request.getfixturevalue(f"fitted_{name}"), space)
    M, ref = asm.mass(), mass_reference.mass(asm)
    x = np.random.default_rng(0).standard_normal((M.shape[0], 3))
    for v in (x[:, 0], x):
        want = ref @ v
        got = M @ v
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


# Level 4, a/V2 and b/W2: the peak of each stage after the mass above the
# arrays live before it, as a fraction of M's bytes as a full CSR matrix
# (twice those of its stored triangle, less the diagonal).  Measured: the
# load 0.222 and 0.227 (0.259 and 0.265 with the physical points formed
# whole); the solve, SPDFactor(M) and one solve, 0.204 and 0.179 (0.264 and
# 0.222 with M's interface rows copied and the Schur complement's products
# formed for both interiors at once); the condition number 0.205 and 0.210
# (0.210 and 0.215 with M stored whole, 0.274 and 0.240 with the rows near
# the interface and at the corners copied).
WORKING_SET_BOUND = {
    "a/v2": {"load": 0.24, "solve": 0.22, "cond": 0.23},
    "b/w2": {"load": 0.24, "solve": 0.20, "cond": 0.23},
}


@pytest.mark.parametrize("study", ["a/v2", "b/w2"])
def test_working_set_after_the_mass(study, request):
    name, space = study.split("/")
    asm = _study_assembler(*request.getfixturevalue(f"fitted_{name}"), space,
                           level=4)
    M = asm.mass()
    arrays = [getattr(M.upper, a).tobytes()
              for a in ("data", "indices", "indptr")]
    peaks = {}

    def stage(name, run):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run()
        peaks[name] = tracemalloc.get_traced_memory()[1] - live
        return result

    def solve():
        factor = SPDFactor(M)
        factor.solve(rhs)
        return factor

    tracemalloc.start()
    try:
        rhs = stage("load", lambda: asm.load(field_osc))
        factor = stage("solve", solve)
        stage("cond", factor.condition_number)
    finally:
        tracemalloc.stop()
    size = _full_csr_bytes(M)
    for name, bound in WORKING_SET_BOUND[study].items():
        assert peaks[name] < bound * size, name
    # the solver reads M's rows in place and leaves them as they were
    assert [getattr(M.upper, a).tobytes()
            for a in ("data", "indices", "indptr")] == arrays


@pytest.mark.parametrize("level", range(6))
def test_mass_1d_bitwise_equal_to_band_path(level):
    # the Table-2 spaces, and the fit's 8-point rule at level 0
    k = 2 ** level - 1
    patch = _identity_geometry(
        make_knot_vector(5, 2, k, uniform_inner_knots(k))).patch_R
    rules = (None, asm_mod.FIT_POINTS_PER_CELL) if level == 0 else (None,)
    for points_per_cell in rules:
        pa = PatchAssembler(patch, points_per_cell)
        band = mass_reference.gram_band(pa)
        assert pa.mass_1d().tobytes() == mass_reference.band_to_dense(band).tobytes()


@pytest.mark.parametrize("study", ["a/v2", "b/w2"])
def test_two_patch_mass_matches_cell_loop(study, request):
    # C_L M_L C_L^T + C_R M_R C_R^T from the dense per-cell patch masses
    from c2patch.geometry import refine_geometry
    name, space = study.split("/")
    geo0, gluing = request.getfixturevalue(f"fitted_{name}")
    kv = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
    build = build_basis_v2 if space == "v2" else build_basis_w2
    basis = build(gluing, gluing_invariants(gluing, kv), 5, 2, 3)
    asm = DomainAssembler(refine_geometry(geo0, kv), basis)
    M = asm.mass()
    C = dict(zip("LR", mass_reference.full_space_matrices(basis)))
    ref = np.zeros(M.shape)
    for s in "LR":
        pa = asm.asm[s]
        M_s, _ = _cell_loop_reference(pa, np.zeros(pa.measure.shape))
        ref += C[s] @ (C[s] @ M_s).T
    ref = sp.csr_matrix(np.triu(ref))
    U = M.upper
    assert U.has_sorted_indices
    assert np.array_equal(U.indptr, ref.indptr)
    assert np.array_equal(U.indices, ref.indices)
    assert np.abs(U.data - ref.data).max() <= 1e-13 * np.abs(ref.data).max()
    _assert_upper_triangle(M)
    for side in "LR":
        pa = asm.asm[side]
        gram = np.zeros((pa.n, pa.n))
        for c, first in enumerate(pa.cells.first):
            B = pa.cells.values[c, :, 0, :]
            idx = np.arange(first, first + B.shape[1])
            gram[np.ix_(idx, idx)] += B.T @ (pa.rule.weights[c][:, None] * B)
        assert np.abs(pa.mass_1d() - gram).max() <= 1e-14 * np.abs(gram).max()


def _patch_mass(pa):
    """The dense patch mass from its band."""
    return _band_block(pa.mass_band(pa.mass_u_stage(), 0, pa.n), pa.n)


def _cell_loop_reference(pa, values):
    """Mass matrix and load of one patch, one cell at a time (dense)."""
    n2 = pa.n * pa.n
    M = np.zeros((n2, n2))
    load = np.zeros(n2)
    for cu, fu in enumerate(pa.cells.first):
        Bu = pa.cells.values[cu, :, 0, :]
        for cv, fv in enumerate(pa.cells.first):
            Bv = pa.cells.values[cv, :, 0, :]
            W = pa.measure[cu, cv]
            gi = (np.arange(fu, fu + pa.p + 1)[:, None] * pa.n
                  + np.arange(fv, fv + pa.p + 1)[None, :]).ravel()
            local = np.einsum("qa,qb,qr,rc,rd->acbd", Bu, Bu, W, Bv, Bv)
            M[np.ix_(gi, gi)] += local.reshape(len(gi), len(gi))
            load[gi] += np.einsum("qa,qr,rc->ac", Bu, W * values[cu, cv],
                                  Bv).ravel()
    return M, load


def _basis_value(space, j, x):
    first, d = space.eval_basis(x)
    if first <= j <= first + space.degree:
        return d[0][j - first]
    return 0.0


@pytest.mark.parametrize("study", ["a/v2", "b/w2"])
def test_maps_match_the_coefficient_matrices(study, request):
    # level 3: the load and the patch coefficients, mapped through A_L, A_R
    # and the interiors' index offsets, against the products with the
    # sparse coefficient matrices C_s that the maps replaced
    name, space = study.split("/")
    asm = _study_assembler(*request.getfixturevalue(f"fitted_{name}"), space)
    C = dict(zip("LR", mass_reference.full_space_matrices(asm.basis)))
    assert asm.dim == C["L"].shape[0]
    pairs = [(asm.load(field_osc),
              sum(C[s] @ asm.asm[s].load(field_osc) for s in "LR"))]
    b = np.random.default_rng(0).standard_normal(asm.dim)
    pairs += [(asm.patch_coefficients(b, s), C[s].T @ b) for s in "LR"]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


class TestProjection:
    def test_reproduces_member_function(self, fitted_b):
        geo, gluing = fitted_b
        kv = geo.space.kv
        inv = gluing_invariants(gluing, kv)
        basis = build_basis_v2(gluing, inv, 5, 2, 0)
        asm = DomainAssembler(geo, basis)
        rng = np.random.default_rng(3)
        b_true = rng.standard_normal(asm.dim)
        grids = {s: asm.patch_coefficients(b_true, s) for s in "LR"}

        class MemberField:
            def __call__(self, x1, x2):
                raise AssertionError("physical lookup not used")

        # integrate directly in parameter space on each patch
        M = asm.mass()
        loads = {}
        for s in "LR":
            pa = asm.asm[s]
            n = basis.n
            grid = grids[s].reshape(n, n)
            patch = Patch(geo.space, np.dstack([grid, grid]))
            vals = patch.eval(pa.rule.nodes, pa.rule.nodes)[..., 0]
            vals = vals.transpose(0, 2, 1, 3)       # (ncu, ncv, q, r)
            loads[s] = pa.load(values=vals)
        b = solve_spd(M, asm.from_patches(loads))
        resid = 0.0
        for s in "LR":
            e, _ = asm.asm[s].integrate_sq_diff(
                asm.patch_coefficients(b - b_true, s),
                lambda x1, x2: np.zeros_like(x1))
            resid += e
        assert np.sqrt(resid) < 1e-9

    def test_galerkin_orthogonality(self, fitted_a):
        geo, gluing = fitted_a
        kv = geo.space.kv
        inv = gluing_invariants(gluing, kv)
        basis = build_basis_v2(gluing, inv, 5, 2, 0)
        asm = DomainAssembler(geo, basis)
        M = asm.mass()
        rhs = asm.load(field_osc)
        b = solve_spd(M, rhs)
        resid = rhs - M @ b
        assert np.abs(resid).max() < 1e-9 * np.abs(rhs).max()


class TestScaledCondition:
    def test_identity(self):
        assert scaled_condition_number(_layoutless(sp.eye(10))) == pytest.approx(1.0)

    def test_diagonal_scaling_removed(self):
        M = _layoutless(sp.diags([1.0, 1e6]))
        assert scaled_condition_number(M) == pytest.approx(1.0)

    def test_nonpositive_diagonal_rejected(self):
        M = _layoutless(sp.diags([1.0, -2.0]))
        with pytest.raises(ValueError):
            scaled_condition_number(M)

    def test_iterative_matches_dense(self, monkeypatch):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((80, 80))
        M = A @ A.T + 80 * np.eye(80)
        s = 1.0 / np.sqrt(np.diag(M))
        ev = np.linalg.eigvalsh(s[:, None] * M * s[None, :])
        dense = scaled_condition_number(_layoutless(M))
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", 0)
        monkeypatch.setattr(asm_mod, "LANCZOS_TOL", 1e-10)
        it = scaled_condition_number(_with_layout(M, 20, (5, 6)))
        assert it == pytest.approx(dense, rel=1e-6)
        assert it == pytest.approx(ev[-1] / ev[0], rel=1e-8)


def _tridiagonal(coupling, n=60):
    """tridiag(-1, 4, -1) with entries (10, 11) and (11, 10) set to
    ``coupling``: SPD for |coupling| < 3, indefinite for coupling = 5
    (the principal block [[4, 5], [5, 4]] has eigenvalue -1)."""
    M = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1]).tolil()
    M[10, 11] = M[11, 10] = coupling
    return M.tocsr()


def _layoutless(M):
    """The symmetric matrix M, sparse or dense, as a ``TwoPatchMass`` with
    no layout, which ``SPDFactor`` factors densely at any size."""
    return TwoPatchMass(sp.triu(M, format="csr"))


def _with_layout(M, interface, grid):
    """M as a ``TwoPatchMass``: ``interface`` unknowns, then two interiors
    on ``grid`` = (n_u, n_v) tensor grids with identity 1D Gram matrices."""
    return TwoPatchMass(sp.triu(sp.csr_matrix(M), format="csr"), MassLayout(
        interface, (np.eye(grid[0]), np.eye(grid[1]))))


def _study_assembler(geo0, gluing, space="v2", level=3):
    """The assembler of a Table-2 study at one level."""
    from c2patch.geometry import refine_geometry
    k = 2 ** level - 1
    kv = make_knot_vector(5, 2, k, uniform_inner_knots(k))
    build = build_basis_v2 if space == "v2" else build_basis_w2
    basis = build(gluing, gluing_invariants(gluing, kv), 5, 2, k)
    return DomainAssembler(refine_geometry(geo0, kv), basis)


def _study_system(geo0, gluing, space="v2", level=3):
    """Mass matrix and load of a Table-2 study at one level."""
    asm = _study_assembler(geo0, gluing, space, level)
    return asm.mass(), asm.load(field_osc)


@pytest.fixture(scope="module")
def level3_mass(fitted_a):
    """Mass matrix and load of Table-2 geometry a, V2, level 3."""
    return _study_system(*fitted_a)


@pytest.fixture(scope="module", params=["a/v2", "a/w2", "b/v2", "b/w2"])
def level3_spectrum(request):
    """Level-3 mass, load and eigenvalues of the scaled mass, per study."""
    name, space = request.param.split("/")
    M, rhs = _study_system(*request.getfixturevalue(f"fitted_{name}"), space)
    s = 1.0 / np.sqrt(M.diagonal())
    return M, rhs, np.linalg.eigvalsh(s[:, None] * M.toarray() * s[None, :])


class TestSPDFactor:
    # the Kronecker path at cutoff 0, dense Cholesky at cutoff 10^9
    @pytest.mark.parametrize("cutoff", [0, 10 ** 9])
    def test_indefinite_rejected(self, cutoff, monkeypatch):
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", cutoff)
        M = _with_layout(_tridiagonal(5.0), 20, (4, 5))
        assert (M.diagonal() > 0).all()
        with pytest.raises(ValueError, match="not positive definite"):
            solve_spd(M, np.ones(M.shape[0]))

    @pytest.mark.parametrize("cutoff", [0, 10 ** 9])
    def test_two_column_solve(self, cutoff, monkeypatch):
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", cutoff)
        M = _with_layout(_tridiagonal(-2.0), 20, (4, 5))
        rhs = np.random.default_rng(2).standard_normal((M.shape[0], 2))
        x = solve_spd(M, rhs)
        assert x.shape == rhs.shape
        assert_allclose(M @ x, rhs, atol=1e-13)

    def test_level3_without_layout_factored_densely(self, level3_mass):
        # the layout stripped: dense Cholesky at any size
        M, rhs = level3_mass
        M = _layoutless(_full_csr(M))
        assert M.shape[0] == 1339 >= asm_mod.KRONECKER_CUTOFF
        factor = SPDFactor(M)
        s = 1.0 / np.sqrt(M.diagonal())
        ev = np.linalg.eigvalsh(s[:, None] * M.toarray() * s[None, :])
        assert factor.condition_number() == pytest.approx(ev[-1] / ev[0],
                                                          rel=1e-8)
        x = factor.solve(rhs)
        assert np.linalg.norm(M @ x - rhs) < 1e-12 * np.linalg.norm(rhs)

    def test_level3_kronecker_path_matches_lu(self, level3_spectrum,
                                              monkeypatch):
        M, rhs, ev = level3_spectrum
        dense = SPDFactor(_layoutless(_full_csr(M))).solve(rhs)
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", 0)
        factor = SPDFactor(M)
        x = factor.solve(rhs)
        assert np.linalg.norm(x - dense) <= 1e-9 * np.linalg.norm(dense)
        assert np.linalg.norm(M @ x - rhs) < 1e-12 * np.linalg.norm(rhs)
        assert factor.condition_number() == pytest.approx(ev[-1] / ev[0],
                                                          rel=1e-8)

    def test_level4_error_matches_a_direct_solve(self, fitted_a):
        # a/V2: the L2 error of the PCG solve against that of a sparse LU
        # solve
        asm = _study_assembler(*fitted_a, "v2", level=4)
        M, rhs = asm.mass(), asm.load(field_osc)
        factor = SPDFactor(M)
        assert factor._precond is not None
        direct = spla.splu(_full_csr(M).tocsc()).solve(rhs)
        err, ref = (asm.relative_l2_error(x, field_osc)
                    for x in (factor.solve(rhs), direct))
        assert abs(err - ref) <= 1e-9 * ref

    def test_preconditioned_setup_copies_nothing(self, level3_spectrum,
                                                monkeypatch):
        M, rhs, ev = level3_spectrum
        dense = SPDFactor(_layoutless(_full_csr(M))).solve(rhs)
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", 0)
        tracemalloc.start()
        try:
            factor = SPDFactor(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # below the values of M as a full CSR matrix
        assert peak < M.nnz * M.upper.data.itemsize
        x = factor.solve(rhs)
        assert np.linalg.norm(x - dense) <= 1e-9 * np.linalg.norm(dense)
        assert factor.condition_number() == pytest.approx(ev[-1] / ev[0],
                                                          rel=1e-8)

    # preconditioner applications of one solve and one condition number at
    # level 3, plus ~10 %: 14, 48, 15 and 65 with the interface eliminated
    # exactly; 29, 59, 35 and 80 with the Gauss-Seidel sweep and LOBPCG
    # started where its eigenvector lives; 33, 59, 39 and 80 from a random
    # start; 53, 90, 64 and 179 with the block-diagonal preconditioner
    APPLICATIONS_BOUND = {"a/v2": 16, "a/w2": 53, "b/v2": 17, "b/w2": 72}

    def test_preconditioner_spd_and_effective(self, level3_spectrum, request,
                                              monkeypatch):
        M, rhs, _ = level3_spectrum
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", 0)
        factor = SPDFactor(M)
        precond = factor._precond
        rng = np.random.default_rng(7)
        for _ in range(5):
            u, v = rng.standard_normal((2, M.shape[0]))
            Pu, Pv = precond(u), precond(v)
            assert abs(u @ Pv - v @ Pu) <= (1e-12 * np.linalg.norm(u)
                                            * np.linalg.norm(Pv))
            assert u @ Pu > 0.0
        calls = []
        apply = KroneckerPreconditioner.__call__

        def counted(self, r, out=None):
            calls.append(None)
            return apply(self, r, out)

        monkeypatch.setattr(KroneckerPreconditioner, "__call__", counted)
        factor.solve(rhs)
        factor.condition_number()
        study = request.node.callspec.params["level3_spectrum"]
        assert len(calls) <= self.APPLICATIONS_BOUND[study]

    # CSR products of lambda_max at level 3 (a/V2, a/W2, b/V2, b/W2) with a
    # check every 4 steps, plus ~10 % (b/W2: the bound of the sum start):
    # 64, 56, 28 and 52 from the refined corner or the extended interface
    # mode of the preconditioned path (76, 56, 32 and 48 from the sum of the
    # corner and interface modes); 84, 80, 40 and 76 from the seeded random
    # start of the factored path (ARPACK took 91, 81, 41 and 81)
    LANCZOS_PRODUCTS_BOUND = {
        "kronecker": {"a/v2": 71, "a/w2": 62, "b/v2": 31, "b/w2": 53},
        "lu": {"a/v2": 92, "a/w2": 88, "b/v2": 44, "b/w2": 84}}

    # "lu": the path that factors A, by Cholesky (A = L L^T)
    @pytest.mark.parametrize("path", ["kronecker", "lu"])
    def test_lanczos_lambda_max(self, level3_spectrum, path, request,
                                monkeypatch):
        M, _, ev = level3_spectrum
        if path == "kronecker":
            monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", 0)
        else:
            M = _layoutless(_full_csr(M))
        runs = []
        lanczos = asm_mod.lanczos_largest

        def counted(apply, v0, tol, **kwargs):
            if kwargs:
                # the corner refinement of lambda_max's start, on a small
                # principal submatrix
                return lanczos(apply, v0, tol, **kwargs)
            calls = []

            def counted_apply(x):
                calls.append(None)
                return apply(x)

            runs.append((lanczos(counted_apply, v0, tol), calls))
            return runs[-1][0]

        monkeypatch.setattr(asm_mod, "lanczos_largest", counted)
        factor = SPDFactor(M)
        factor.condition_number()
        # lambda_max is the last run; the factored path first finds
        # 1 / lambda_min
        assert len(runs) == (1 if path == "kronecker" else 2)
        lam_max, calls = runs[-1]
        assert lam_max == pytest.approx(ev[-1], rel=1e-10)
        study = request.node.callspec.params["level3_spectrum"]
        assert len(calls) <= self.LANCZOS_PRODUCTS_BOUND[path][study]
        if path == "lu":
            assert runs[0][0] == pytest.approx(1.0 / ev[0], rel=1e-10)

    def test_lanczos_cap_raises(self, level3_mass, monkeypatch):
        monkeypatch.setattr(asm_mod, "LANCZOS_CAP", 1)
        with pytest.raises(ValueError, match="did not converge"):
            SPDFactor(_layoutless(_tridiagonal(-2.0))).condition_number()
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", 0)
        with pytest.raises(ValueError, match="did not converge"):
            SPDFactor(level3_mass[0]).condition_number()

    def test_kronecker_path_rejects_indefinite(self, level3_spectrum,
                                               monkeypatch):
        # S (M - c diag(M)) S = A - c I has lambda_min(A) - c < 0; the
        # preconditioner's set-up raises where its Schur complement is
        # indefinite too (a/V2), PCG and LOBPCG raise otherwise
        M, rhs, ev = level3_spectrum
        c = 1.001 * ev[0]
        shifted = TwoPatchMass(sp.triu(_full_csr(M) - c * sp.diags(M.diagonal()),
                                       format="csr"), M.layout)
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", 0)
        with pytest.raises(ValueError, match="not positive definite"):
            SPDFactor(shifted).solve(rhs)
        with pytest.raises(ValueError, match="not positive definite"):
            SPDFactor(shifted).condition_number()

    def test_two_column_kronecker_solve(self, level3_mass):
        M, rhs = level3_mass
        second = np.random.default_rng(4).standard_normal(len(rhs))
        rhs = np.stack([rhs, second], axis=1)
        factor = SPDFactor(M)
        assert factor._precond is not None
        x = factor.solve(rhs)
        for j in range(2):
            assert np.array_equal(x[:, j], factor.solve(rhs[:, j]))
            assert (np.linalg.norm(M @ x[:, j] - rhs[:, j])
                    < 1e-12 * np.linalg.norm(rhs[:, j]))

    def test_iteration_cap_raises(self, level3_mass, monkeypatch, capsys):
        M, rhs = level3_mass
        monkeypatch.setattr(asm_mod, "ITERATION_CAP", 1)
        factor = SPDFactor(M)
        with pytest.raises(ValueError, match="PCG did not converge"):
            factor.solve(rhs)
        with pytest.raises(ValueError, match="LOBPCG did not converge"):
            factor.condition_number()
        assert cli.main(["table2", "--geometry", "builtin:fitted_a",
                         "--levels", "3"]) == 1
        err = capsys.readouterr().err
        assert "error: convergence study failed: PCG did not converge" in err

    def test_mass_is_no_sparse_matrix(self, level3_mass):
        # the layout is M's own, and no scipy method (indexing, sums, the
        # transpose, copies) can act on the stored triangle as if it were M
        M, _ = level3_mass
        layout = M.layout
        assert layout.interface == 43      # dim V2 at level 3
        # both interiors are (n - 3) x n grids, n = 27
        assert [G.shape for G in layout.grams] == [(24, 24), (27, 27)]
        assert not sp.issparse(M)
        for attribute in ("T", "copy", "sum", "tocsr"):
            assert not hasattr(M, attribute)
        for derived in (lambda: M[:, :], lambda: M + M, lambda: 2.0 * M):
            with pytest.raises(TypeError):
                derived()
        assert M.nnz == 2 * M.upper.nnz - M.shape[0] == _full_csr(M).nnz
        assert np.array_equal(M.diagonal(), _full_csr(M).diagonal())

    def test_row_block_reads_m_in_place(self, level3_mass):
        # a view of the upper triangle's arrays, read-only, with the upper
        # rows lo..hi-1 of M, entries in order
        M, _ = level3_mass
        block = M.row_block(40, 90)
        copy = sp.triu(_full_csr(M), format="csr")[40:90]
        for a in ("data", "indices"):
            assert np.shares_memory(getattr(block, a), getattr(M.upper, a))
            assert not getattr(block, a).flags.writeable
        for a in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(block, a), getattr(copy, a))
        x = np.random.default_rng(0).standard_normal(M.shape[0])
        assert (block @ x).tobytes() == (copy @ x).tobytes()

    def test_preconditioner_inverts_its_block_approximation(self,
                                                           level3_mass):
        # B = A with each interior block replaced by its Kronecker
        # approximation K = W^(-1) (M_u (x) M_v) W^(-1), dense
        M, _ = level3_mass
        s = 1.0 / np.sqrt(M.diagonal())
        B = s[:, None] * M.toarray() * s[None, :]
        P = KroneckerPreconditioner(M, s, M.layout)
        G = np.kron(*M.layout.grams)
        w = np.sqrt(G.diagonal())
        for block in P.interiors:
            B[block, block] = G / np.outer(w, w)
        x = np.random.default_rng(3).standard_normal((M.shape[0], 2))
        for column in x.T:
            assert_allclose(P(B @ column), column, rtol=0,
                            atol=1e-9 * np.abs(x).max())

    def test_shared_grams_inverted_once(self, level3_mass, monkeypatch):
        # one pair of 1D Gram matrices for both interiors; the interface's
        # Schur complement is factored, not inverted
        M, _ = level3_mass
        inverted = []
        inv = np.linalg.inv

        def counted(a):
            inverted.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        KroneckerPreconditioner(M, 1.0 / np.sqrt(M.diagonal()), M.layout)
        assert inverted == [(24, 24), (27, 27)]

    def test_study_factors_once_per_level(self, fitted_b, monkeypatch):
        # levels 0-3 have 54, 133, 399 and 1363 dofs; each level sees one
        # kind of solver
        sizes = {"dense": [], "kronecker": []}
        active = []

        def counted(kind, setup):
            def wrapper(A, *args, **kwargs):
                # the Kronecker set-up's own interface Cholesky is part of it
                if not active:
                    sizes[kind].append(A.shape[0])
                active.append(kind)
                try:
                    return setup(A, *args, **kwargs)
                finally:
                    active.pop()
            return wrapper

        monkeypatch.setattr(sla, "cho_factor", counted("dense", sla.cho_factor))
        monkeypatch.setattr(asm_mod, "KroneckerPreconditioner",
                            counted("kronecker", KroneckerPreconditioner))
        geo, gluing = fitted_b
        convergence_study(geo, gluing, "v2", 3, field_osc)
        assert sizes == {"dense": [54, 133, 399], "kronecker": [1363]}
        cutoff = asm_mod.KRONECKER_CUTOFF
        assert all(n < cutoff for n in sizes["dense"])
        assert all(n >= cutoff for n in sizes["kronecker"])

    def test_dense_setup_scales_entries_once(self, fitted_a, level3_mass):
        # the scaled copy equals M.toarray() * outer(s, s) bit for bit, with
        # a layout and without
        from c2patch.geometry import refine_geometry
        geo0, gluing = fitted_a
        kv = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
        basis = build_basis_v2(gluing, gluing_invariants(gluing, kv), 5, 2, 3)
        level2 = DomainAssembler(refine_geometry(geo0, kv), basis).mass()
        for M in (level2, _layoutless(_full_csr(level3_mass[0]))):
            s = 1.0 / np.sqrt(M.diagonal())
            A = M.toarray() * np.outer(s, s)
            assert np.array_equal(SPDFactor(M).A, A)

    def test_converged_lobpcg_warns_nothing(self, level3_spectrum,
                                            monkeypatch):
        # the solver sets no warning filter of its own (process-wide state);
        # a converged lambda_min emits no warning at all
        M, _, _ = level3_spectrum
        factor = SPDFactor(M)
        assert factor._precond is not None
        runs = []
        lobpcg = asm_mod.lobpcg_smallest

        def recorded(*args):
            runs.append(lobpcg(*args))
            return runs[-1]

        monkeypatch.setattr(asm_mod, "lobpcg_smallest", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor.condition_number()
        assert len(runs) == 1

    def test_lobpcg_keeps_the_callers_start_vector(self, level3_mass,
                                                   fitted_a, monkeypatch):
        M, _ = level3_mass
        factor = SPDFactor(M)
        v0 = np.random.default_rng(0).standard_normal(M.shape[0])
        kept = v0.copy()
        factor._inverse_smallest(v0)
        assert np.array_equal(v0, kept)
        # the two threads start from arrays of their own, which neither
        # solver writes to; LOBPCG normalises a copy of its start.  V2 (a)
        # starts LOBPCG from the interface, W2 from the seeded vector.
        starts = {}
        lanczos, lobpcg = asm_mod.lanczos_largest, asm_mod.lobpcg_smallest
        low_start = SPDFactor._low_start

        def recorded_lanczos(apply, x, tol, **kwargs):
            if not kwargs:
                starts["lanczos"] = x, x.copy()
            return lanczos(apply, x, tol, **kwargs)

        def recorded_low_start(self, x):
            start, ceiling = low_start(self, x)
            starts["lobpcg"] = start, start.copy()
            return start, ceiling

        def recorded_lobpcg(apply, precondition, x, tol):
            starts["lobpcg x0"] = x
            return lobpcg(apply, precondition, x, tol)

        monkeypatch.setattr(asm_mod, "lanczos_largest", recorded_lanczos)
        monkeypatch.setattr(SPDFactor, "_low_start", recorded_low_start)
        monkeypatch.setattr(asm_mod, "lobpcg_smallest", recorded_lobpcg)
        monkeypatch.setattr(blas, "can_overlap", lambda: True)
        for mass in (M, _study_system(*fitted_a, "w2")[0]):
            SPDFactor(mass).condition_number()
            (x_max, x_max_before), (x_min, x_min_before) = (
                starts["lanczos"], starts["lobpcg"])
            assert starts["lobpcg x0"] is x_min
            assert not np.shares_memory(x_max, x_min)
            assert np.array_equal(x_max, x_max_before)
            assert np.array_equal(x_min, x_min_before)


@pytest.fixture(scope="module", params=["a/v2", "a/w2", "b/v2", "b/w2"])
def level4_system(request):
    """Level-4 mass and load of a Table-2 study."""
    name, space = request.param.split("/")
    return _study_system(*request.getfixturevalue(f"fitted_{name}"), space,
                         level=4)


def _kronecker_mode_on(P, interior):
    """The lowest Kronecker mode e_u (x) e_v of the Jacobi-scaled 1D Gram
    matrices, on one interior of the preconditioner P, zero elsewhere."""
    e_u, e_v = (np.linalg.eigh(G / np.sqrt(np.outer(G.diagonal(),
                                                    G.diagonal())))[1][:, 0]
                for G in P.layout.grams)
    mode = np.zeros(P.interiors[-1].stop)
    mode[P.interiors[interior]] = np.outer(e_u, e_v).ravel()
    return mode


def _decoupled(interface=20, grid=(4, 5)):
    """A ``TwoPatchMass`` whose interface and interiors do not couple:
    tridiag(-c, 4, -c) with c = 1.9 on the interface, 0.5 on L and 1.5 on
    R, so that the scaled blocks have their eigenvalues in (0.05, 1.95),
    (0.75, 1.25) and (0.25, 1.75)."""
    size = grid[0] * grid[1]
    blocks = [sp.diags([-c * np.ones(k - 1), 4.0 * np.ones(k),
                        -c * np.ones(k - 1)], [-1, 0, 1])
              for c, k in ((1.9, interface), (0.5, size), (1.5, size))]
    return _with_layout(sp.block_diag(blocks), interface, grid)


class TestSolverLifetime:
    """A solver is freed with its last reference: no reference cycle keeps
    an ``SPDFactor``, its preconditioner or its M alive until the cyclic
    collector runs, which is disabled here."""

    @staticmethod
    def _tracked(monkeypatch, cls):
        """Weak references to every instance of ``cls`` built from now on."""
        refs = []
        init = cls.__init__

        def tracked(self, *args, **kwargs):
            refs.append(weakref.ref(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", tracked)
        return refs

    def test_solver_freed_on_return(self, level3_mass, monkeypatch):
        M, rhs = level3_mass
        factors = self._tracked(monkeypatch, SPDFactor)
        preconditioners = self._tracked(monkeypatch, KroneckerPreconditioner)
        gc.disable()
        try:
            solve_spd(M, rhs)
            scaled_condition_number(M)
            alive = [ref for ref in factors + preconditioners
                     if ref() is not None]
        finally:
            gc.enable()
        assert len(factors) == len(preconditioners) == 2
        assert alive == []

    def test_study_holds_one_factor(self, fitted_a, monkeypatch):
        # levels 3 and 4 take the preconditioned path
        factors = self._tracked(monkeypatch, SPDFactor)
        alive = []

        def on_report(report):
            alive.append(sum(ref() is not None for ref in factors))

        gc.disable()
        try:
            convergence_study(*fitted_a, "v2", 4, field_osc, on_report)
        finally:
            gc.enable()
        assert len(factors) == 5
        assert max(alive) <= 1


class TestEigensolverStarts:
    """The starts of lambda_max's Lanczos and LOBPCG on the preconditioned
    path, and the Rayleigh quotients that check their results."""

    def test_start_quotients_bound_the_extremes(self, level3_spectrum,
                                                request):
        M, _, ev = level3_spectrum
        factor = SPDFactor(M)
        v0 = np.random.default_rng(0).standard_normal(M.shape[0])
        _, floor = factor._top_start(v0)
        start, ceiling = factor._low_start(v0)
        assert ev[0] <= ceiling and floor <= ev[-1]
        # V2's lowest eigenvector lies on the interface, W2's in the
        # interiors, where LOBPCG keeps the seeded start
        if request.node.callspec.params["level3_spectrum"].endswith("v2"):
            m = M.layout.interface
            assert np.linalg.norm(start[:m]) > 0.9 * np.linalg.norm(start)
        else:
            assert start is v0

    # level-4 counts, plus ~10 % (a/V2, a/W2, b/V2, b/W2).  CSR products of
    # lambda_max: 48, 36, 36 and 36 from the refined corner or the extended
    # interface mode, 60, 48, 40 and 48 from the sum of the corner and
    # interface modes, 92, 80, 48 and 80 from the seeded random vector.
    # LOBPCG's count for V2's lambda_min, its products with A plus one (the
    # length of scipy's residual history, which the count replaced): 10 and
    # 10 from the extended mode of the Schur complement, 13 and 16 from that
    # of A_II, 18 and 22 from the random vector.  PCG iterations of the load's
    # solve: 7 each with the interface eliminated exactly, 18, 17, 21 and 21
    # with the Gauss-Seidel sweep.
    LANCZOS_LEVEL4_BOUND = {"a/v2": 53, "a/w2": 40, "b/v2": 40, "b/w2": 40}
    LOBPCG_LEVEL4_BOUND = {"a/v2": 11, "b/v2": 11}
    PCG_LEVEL4_BOUND = {"a/v2": 8, "a/w2": 8, "b/v2": 8, "b/w2": 8}

    def test_level4_step_counts(self, level4_system, request, monkeypatch):
        counts = {}
        lanczos, lobpcg = asm_mod.lanczos_largest, asm_mod.lobpcg_smallest
        apply = KroneckerPreconditioner.__call__

        def counted_lanczos(apply, x, tol, **kwargs):
            if kwargs:
                # the corner refinement of lambda_max's start
                return lanczos(apply, x, tol, **kwargs)
            calls = []

            def counted_apply(y):
                calls.append(None)
                return apply(y)

            theta = lanczos(counted_apply, x, tol)
            counts["lanczos"] = len(calls)
            return theta

        def counted_lobpcg(apply, precondition, x, tol):
            calls = []

            def counted_apply(y):
                calls.append(None)
                return apply(y)

            lam = lobpcg(counted_apply, precondition, x, tol)
            # a product for the start and one a step; scipy's residual
            # history held one norm more, after its final Rayleigh-Ritz
            counts["lobpcg"] = len(calls) + 1
            return lam

        def counted_precond(self, r, out=None):
            # one application per PCG iteration
            counts["pcg"] = counts.get("pcg", 0) + 1
            return apply(self, r, out)

        monkeypatch.setattr(asm_mod, "lanczos_largest", counted_lanczos)
        monkeypatch.setattr(asm_mod, "lobpcg_smallest", counted_lobpcg)
        M, rhs = level4_system
        factor = SPDFactor(M)
        assert factor._precond is not None
        monkeypatch.setattr(KroneckerPreconditioner, "__call__",
                            counted_precond)
        factor.solve(rhs)
        monkeypatch.setattr(KroneckerPreconditioner, "__call__", apply)
        factor.condition_number()
        study = request.node.callspec.params["level4_system"]
        assert counts["pcg"] <= self.PCG_LEVEL4_BOUND[study]
        assert counts["lanczos"] <= self.LANCZOS_LEVEL4_BOUND[study]
        if study in self.LOBPCG_LEVEL4_BOUND:
            assert counts["lobpcg"] <= self.LOBPCG_LEVEL4_BOUND[study]

    @pytest.mark.parametrize("level4_system", ["a/v2"], indirect=True)
    def test_swapped_interiors_give_the_same_cond(self, level4_system):
        # L and R trade places, and the top corner with them
        M = level4_system[0]
        factor = SPDFactor(M)
        left, right = factor._precond.interiors
        perm = np.concatenate([np.arange(left.start),
                               np.arange(right.start, right.stop),
                               np.arange(left.start, left.stop)])
        full = _full_csr(M)
        swapped = SPDFactor(TwoPatchMass(
            sp.triu(full[perm][:, perm], format="csr"), M.layout))
        corner = factor._top_corner()[0]
        moved = swapped._top_corner()[0]
        assert np.array_equal(perm[moved], corner)
        assert (corner[0] < right.start) != (moved[0] < right.start)
        assert swapped.condition_number() == pytest.approx(
            factor.condition_number(), rel=1e-10)

    def test_decoupled_blocks_give_the_dense_cond(self, monkeypatch):
        # both extremes are eigenvalues of A_II, so each start's Rayleigh
        # quotient is the extreme itself: no guard may fire on roundoff
        M = _decoupled()
        s = 1.0 / np.sqrt(M.diagonal())
        ev = np.linalg.eigvalsh(s[:, None] * M.toarray() * s[None, :])
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", 0)
        assert SPDFactor(M).condition_number() == pytest.approx(
            ev[-1] / ev[0], rel=1e-8)

    def test_start_on_one_block_is_caught(self, monkeypatch):
        # L couples with nothing, so a start on L converges to an
        # eigenvalue of L: below the top interface mode and above the
        # lowest one
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", 0)
        factor = SPDFactor(_decoupled())
        v0 = np.random.default_rng(0).standard_normal(len(factor.scale))
        on_left = np.zeros_like(v0)
        on_left[factor._precond.interiors[0]] = 1.0
        top_start, low_start = factor._top_start, factor._low_start
        monkeypatch.setattr(factor, "_top_start",
                            lambda x: (on_left, top_start(x)[1]))
        monkeypatch.setattr(factor, "_low_start",
                            lambda x: (on_left, low_start(x)[1]))
        with pytest.raises(ValueError, match="Lanczos missed lambda_max"):
            factor._largest(*factor._top_start(v0))
        with pytest.raises(ValueError, match="LOBPCG missed lambda_min"):
            factor._inverse_smallest(v0)
        with pytest.raises(ValueError, match="missed"):
            factor.condition_number()

    @pytest.mark.parametrize("level4_system", ["a/w2"], indirect=True)
    def test_lobpcg_from_one_interior_is_caught(self, level4_system,
                                                monkeypatch):
        # from the lowest Kronecker mode of one interior alone, LOBPCG
        # converges to a higher eigenvalue and its residual test passes; the
        # mode on both interiors has a lower quotient
        factor = SPDFactor(level4_system[0])
        v0 = np.random.default_rng(0).standard_normal(len(factor.scale))
        one_interior = _kronecker_mode_on(factor._precond, 0)
        low_start = factor._low_start
        monkeypatch.setattr(factor, "_low_start",
                            lambda x: (one_interior, low_start(x)[1]))
        with pytest.raises(ValueError, match="LOBPCG missed lambda_min"):
            factor._inverse_smallest(v0)

    @pytest.mark.parametrize("level4_system", ["a/v2"], indirect=True)
    def test_lanczos_from_one_interior_is_caught(self, level4_system,
                                                 monkeypatch):
        # from the lowest Kronecker mode of one interior alone, Lanczos
        # passes its stop rule 1.2e-3 below lambda_max; the refined corner's
        # quotient lies within 6e-6 of lambda_max
        factor = SPDFactor(level4_system[0])
        v0 = np.random.default_rng(0).standard_normal(len(factor.scale))
        one_interior = _kronecker_mode_on(factor._precond, 0)
        top_start = factor._top_start
        monkeypatch.setattr(factor, "_top_start",
                            lambda x: (one_interior, top_start(x)[1]))
        with pytest.raises(ValueError, match="Lanczos missed lambda_max"):
            factor._largest(*factor._top_start(v0))


class TestLobpcgSmallest:
    """Single-vector LOBPCG (``lobpcg_smallest``)."""

    @staticmethod
    def _system(n=60):
        """A = tridiag(-1, 4, -1) plus a random diagonal in [0, 4), its
        lowest eigenvalue, and the Jacobi preconditioner diag(A)^(-1)."""
        rng = np.random.default_rng(5)
        A = _tridiagonal(-1.0, n).toarray() + np.diag(rng.uniform(0.0, 4.0, n))
        d = 1.0 / A.diagonal()
        return A, np.linalg.eigvalsh(A)[0], (lambda r: d * r)

    def test_matches_eigh(self):
        A, lam_min, T = self._system()
        x0 = np.random.default_rng(0).standard_normal(len(A))
        kept = x0.copy()
        lam = asm_mod.lobpcg_smallest(lambda x: A @ x, T, x0, 1e-10)
        assert lam == pytest.approx(lam_min, rel=1e-12)
        # the start vector is left as it was
        assert np.array_equal(x0, kept)

    def test_without_p_still_converges(self, monkeypatch):
        # every 3 x 3 Gram matrix reported not positive definite: each step
        # drops p and is one of preconditioned steepest descent
        A, lam_min, T = self._system()
        eigh = sla.eigh
        steps = []

        def no_three(a, b=None, **kwargs):
            steps.append(len(a))
            if len(a) == 3:
                raise np.linalg.LinAlgError("not positive definite")
            return eigh(a, b, **kwargs)

        monkeypatch.setattr(asm_mod.sla, "eigh", no_three)
        x0 = np.random.default_rng(0).standard_normal(len(A))
        lam = asm_mod.lobpcg_smallest(lambda x: A @ x, T, x0, 1e-10)
        assert lam == pytest.approx(lam_min, rel=1e-12)
        assert 3 in steps

    def test_iteration_cap_raises(self, monkeypatch):
        A, _, T = self._system()
        x0 = np.random.default_rng(0).standard_normal(len(A))
        monkeypatch.setattr(asm_mod, "ITERATION_CAP", 1)
        with pytest.raises(ValueError, match="LOBPCG did not converge "
                                             "within 1 iterations"):
            asm_mod.lobpcg_smallest(lambda x: A @ x, T, x0, 1e-10)

    def test_indefinite_raises(self):
        A = _tridiagonal(5.0).toarray()
        x0 = np.random.default_rng(0).standard_normal(len(A))
        with pytest.raises(ValueError, match="not positive definite"):
            asm_mod.lobpcg_smallest(lambda x: A @ x, lambda r: r, x0, 1e-10)

    def test_level4_memory(self, level4_system):
        # lambda_min's tracemalloc peak in vectors of n: 8.2-9.2 (x, A x, w,
        # A w, p, A p, the start and a product's temporaries); 18.4-18.6
        # with scipy's block LOBPCG
        factor = SPDFactor(level4_system[0])
        v0 = np.random.default_rng(0).standard_normal(len(factor.scale))
        tracemalloc.start()
        try:
            factor._inverse_smallest(v0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13 * v0.nbytes


# the overlapped condition number needs both libraries pinned
needs_pin = pytest.mark.skipif(len(blas.thread_controls()) < 2,
                               reason="no thread setter in a vendored OpenBLAS")


class TestTwoThreadCondition:
    @needs_pin
    def test_import_pins_one_thread(self):
        assert [get() for _, get in blas.thread_controls().values()] == [1, 1]

    @needs_pin
    def test_study_bits_do_not_depend_on_thread_count(self):
        # each run sees OPENBLAS_NUM_THREADS before either library loads
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from c2patch import cli\n"
                "for geometry, space in (('fitted_b', 'w2'), ('fitted_a', 'v2')):\n"
                "    cli.main(['table2', '--geometry', 'builtin:' + geometry,"
                " '--space', space, '--levels', '4'])")
        src = str(Path(asm_mod.__file__).parents[1])

        def run(threads):
            out = subprocess.run(
                [sys.executable, "-c", code, src], capture_output=True,
                text=True, check=True, timeout=300,
                env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads)})
            rows = [line.split(",") for line in out.stdout.splitlines()
                    if line[:1].isdigit()]
            assert len(rows) == 10
            return [(float(row[3]).hex(), float(row[5]).hex()) for row in rows]

        assert run(1) == run(2)

    @needs_pin
    def test_overlapped_equals_serial(self, level3_spectrum, monkeypatch):
        M, _, _ = level3_spectrum
        factor = SPDFactor(M)
        assert factor._precond is not None
        monkeypatch.setattr(blas, "can_overlap", lambda: True)
        overlapped = factor.condition_number()
        monkeypatch.setattr(blas, "can_overlap", lambda: False)
        assert overlapped == factor.condition_number()

    def test_serial_without_setters(self, level3_mass, monkeypatch):
        M, _ = level3_mass
        with_setters = SPDFactor(M).condition_number()
        monkeypatch.setattr(blas, "thread_controls", lambda: {})
        assert not blas.can_overlap()

        def no_worker(*args, **kwargs):
            raise AssertionError("a worker thread was started")

        monkeypatch.setattr(asm_mod, "ThreadPoolExecutor", no_worker)
        factor = SPDFactor(M)
        assert factor._precond is not None
        assert factor.condition_number() == with_setters

    def test_lobpcg_failure_joins_the_worker(self, level3_mass, monkeypatch):
        M, _ = level3_mass
        monkeypatch.setattr(asm_mod, "ITERATION_CAP", 1)
        monkeypatch.setattr(blas, "can_overlap", lambda: True)
        lobpcg_raised = threading.Event()
        alive_at_raise = []
        lanczos = asm_mod.lanczos_largest
        inverse_smallest = SPDFactor._inverse_smallest

        def waiting_lanczos(apply, v0, tol, **kwargs):
            # lambda_max still running when LOBPCG raises; the corner
            # refinement of its start runs before either
            if not kwargs:
                assert lobpcg_raised.wait(timeout=60)
            return lanczos(apply, v0, tol, **kwargs)

        def failing_lobpcg(self, v0):
            try:
                return inverse_smallest(self, v0)
            except ValueError:
                alive_at_raise.append(threading.active_count())
                lobpcg_raised.set()
                raise

        monkeypatch.setattr(asm_mod, "lanczos_largest", waiting_lanczos)
        monkeypatch.setattr(SPDFactor, "_inverse_smallest", failing_lobpcg)
        factor = SPDFactor(M)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="LOBPCG did not converge"):
            factor.condition_number()
        assert alive_at_raise == [threads + 1]
        assert threading.active_count() == threads


class TestFit:
    def test_bilinear_input_reproduced(self):
        kv1 = make_knot_vector(1, 0, 0)
        from tests.test_gluing import squares_with_linear_beta
        geo = squares_with_linear_beta()
        res = fit_bilinear_like(geo)
        assert res.epsilon < 1e-12
        for side in "LR":
            for u, v in ((0.2, 0.7), (0.9, 0.1)):
                assert_allclose(res.geometry.patch(side).eval(u, v),
                                geo.patch(side).eval(u, v), atol=1e-10)

    def test_fit_preserves_gluing(self, geo_b, gluing_b):
        res = fit_bilinear_like(geo_b)
        from c2patch.gluing import verify_bilinear_like
        report = verify_bilinear_like(res.geometry, gluing_b, tol=1e-8)
        assert report.passed, str(report)

    def test_fit_epsilon_magnitudes(self, geo_a, geo_b):
        # the smooth space reproduces the inputs to a few parts in 1e5
        assert fit_bilinear_like(geo_a).epsilon < 5e-5
        assert fit_bilinear_like(geo_b).epsilon < 5e-5

    def test_sign_condition_violation_raises(self):
        from c2patch.gluing import GluingError
        from tests.test_gluing import bilinear
        geo = bilinear(
            {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (-1, 0), (1, 1): (-1, 1)},
            {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (-1, 0.5), (1, 1): (-1, 1.5)})
        with pytest.raises(GluingError):
            fit_bilinear_like(geo)


class TestDiscreteError:
    def test_identical(self, geo_a):
        assert discrete_relative_error(geo_a, geo_a) == 0.0

    def test_constant_offset_closed_form(self, geo_b):
        offset = 1e-3
        cp = geo_b.patch_L.control_points.copy()
        cp[:, :, 0] += offset
        shifted = TwoPatchGeometry(Patch(geo_b.patch_L.space, cp),
                                   geo_b.patch_R)
        num = 121 * offset ** 2
        den = 0.0
        for side in "LR":
            for i in range(11):
                for j in range(11):
                    den += float((geo_b.patch(side).eval(i / 10, j / 10) ** 2).sum())
        assert discrete_relative_error(geo_b, shifted) == pytest.approx(
            num / den, rel=1e-12)


class TestConvergence:
    def test_quadrature_stability(self, fitted_b):
        from c2patch.assembly import default_points_per_cell
        from c2patch.geometry import refine_geometry
        geo0, gluing = fitted_b
        for k in (0, 1, 3):
            kv = make_knot_vector(5, 2, k, uniform_inner_knots(k))
            geo = refine_geometry(geo0, kv) if k else geo0
            inv = gluing_invariants(gluing, kv)
            basis = build_basis_v2(gluing, inv, 5, 2, k)
            ppc = default_points_per_cell(geo.space)
            M1 = DomainAssembler(geo, basis, ppc).mass().toarray()
            M2 = DomainAssembler(geo, basis, 2 * ppc).mass().toarray()
            assert np.abs(M1 - M2).max() < 1e-10 * np.abs(M1).max()

    def test_short_study_monotone_and_csv(self, fitted_b):
        geo, gluing = fitted_b
        reports = convergence_study(geo, gluing, "w2", 2, field_osc)
        errs = [r.rel_l2_error for r in reports]
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert reports[1].rate == pytest.approx(np.log2(errs[0] / errs[1]))
        assert reports[1].cond_rate is not None
        csv_text = reports_to_csv(reports)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "L,dim_V1,dim_V2_or_W2,rel_L2_err,ecr,cond,cond_rate"
        assert len(lines) == 4
        assert lines[1].split(",")[4] == ""  # no rate at level 0

    def test_representable_field_noise_floor(self, fitted_b):
        geo, gluing = fitted_b
        reports = convergence_study(geo, gluing, "v2", 1,
                                    lambda x, y: x + 2.0 * y)
        for rep in reports:
            assert rep.rel_l2_error < 1e-11

    def test_subspace_never_beats_full_space(self, fitted_b):
        geo, gluing = fitted_b
        rv = convergence_study(geo, gluing, "v2", 1, field_osc)
        rw = convergence_study(geo, gluing, "w2", 1, field_osc)
        for a, b in zip(rv, rw):
            assert b.rel_l2_error >= a.rel_l2_error * (1 - 1e-10)
