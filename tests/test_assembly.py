"""Tests for quadrature, assembly, projection and geometry fitting."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import c2patch.assembly as asm_mod
from c2patch.assembly import (DomainAssembler, KroneckerPreconditioner,
                              PatchAssembler, SPDFactor, TwoPatchMass,
                              _identity_geometry, convergence_study,
                              discrete_relative_error, fit_bilinear_like,
                              gauss_rule, reports_to_csv,
                              scaled_condition_number, solve_spd)
from c2patch.bspline import SplineSpace1D, make_knot_vector, uniform_inner_knots
from c2patch.geometry import Patch, TwoPatchGeometry, bilinear_from_vertices
from c2patch.gluing import gluing_from_bilinear, gluing_invariants
from c2patch.smooth import build_basis_v2, build_basis_w2


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
        x, w = rule.flat()
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
                    x, w = rule_.flat()
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
        M = pa.mass().toarray()
        assert_allclose(M, M.T, atol=1e-14)
        s = geo.patch_R.space.space_u
        # diagonal entries equal products of univariate self-integrals for
        # separable index pairs: check one entry against dense quadrature
        rule = gauss_rule(20, [(0.0, 0.5), (0.5, 1.0)])
        x, w = rule.flat()
        f0 = np.array([_basis_value(s, 2, xm) for xm in x])
        g0 = np.array([_basis_value(s, 3, xm) for xm in x])
        ref = (w * f0 * g0).sum()
        n = s.dim
        # separable entry ((2,3),(3,2)) = (integral N2 N3)^2 when |det J| = 1
        assert M[2 * n + 3, 3 * n + 2] == pytest.approx(ref * ref, abs=1e-12)
        # |det J| = 1: the patch mass is the Kronecker product of 1D Grams
        Mu, Mv = pa.mass_1d()
        assert Mu[2, 3] == pytest.approx(ref, abs=1e-13)
        assert np.abs(M - np.kron(Mu, Mv)).max() <= 1e-13 * np.abs(M).max()

    def test_batched_cells_match_cell_loop(self, fitted_b):
        from c2patch.geometry import refine_geometry
        kv = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
        pa = PatchAssembler(refine_geometry(fitted_b[0], kv).patch_L)
        values = pa.sample_physical(field_osc)
        M_ref, load_ref = _cell_loop_reference(pa, values)
        M = pa.mass().toarray()
        assert np.abs(M - M_ref).max() <= 1e-13 * np.abs(M_ref).max()
        load = pa.load(values=values)
        assert np.abs(load - load_ref).max() <= 1e-13 * np.abs(load_ref).max()

    def test_mass_spd_and_permutation(self, fitted_a, unit_setup):
        geo, gluing = fitted_a
        kv = geo.patch_L.space.space_u.kv
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
        kv = geo.patch_L.space.space_u.kv
        inv = gluing_invariants(gluing, kv)
        basis = build_basis_v2(gluing, inv, 5, 2, 0)
        rhs = DomainAssembler(geo, basis).load(lambda x, y: np.zeros_like(x))
        assert np.abs(rhs).max() == 0.0

    def test_constant_field_matches_mass_action(self, fitted_a):
        # f = 1 is representable: load must equal M @ (coefficients of 1)
        geo, gluing = fitted_a
        kv = geo.patch_L.space.space_u.kv
        inv = gluing_invariants(gluing, kv)
        basis = build_basis_v2(gluing, inv, 5, 2, 0)
        asm = DomainAssembler(geo, basis)
        M = asm.mass()
        rhs = asm.load(field_one)
        b = solve_spd(M, rhs)
        assert asm.relative_l2_error(b, field_one) < 1e-12
        assert_allclose(M @ b, rhs, atol=1e-12 * np.abs(rhs).max())


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
    ref = np.zeros(M.shape)
    for s in "LR":
        pa = asm.asm[s]
        M_s, _ = _cell_loop_reference(pa, np.zeros(pa.absdet.shape))
        ref += asm.C[s] @ (asm.C[s] @ M_s).T
    ref = sp.csr_matrix(ref)
    M.sort_indices()
    ref.sort_indices()
    assert M.has_sorted_indices
    assert np.array_equal(M.indptr, ref.indptr)
    assert np.array_equal(M.indices, ref.indices)
    assert np.abs(M.data - ref.data).max() <= 1e-13 * np.abs(ref.data).max()
    assert (M != M.T).nnz == 0
    for side in "LR":
        pa = asm.asm[side]
        for Mi, basis_1d, rule, n in zip(pa.mass_1d(), (pa.bu, pa.bv),
                                         (pa.rule_u, pa.rule_v),
                                         (pa.n_u, pa.n_v)):
            gram = np.zeros((n, n))
            for c, first in enumerate(basis_1d.first):
                B = basis_1d.values[c, :, 0, :]
                idx = np.arange(first, first + B.shape[1])
                gram[np.ix_(idx, idx)] += B.T @ (rule.weights[c][:, None] * B)
            assert np.abs(Mi - gram).max() <= 1e-14 * np.abs(gram).max()


def _cell_loop_reference(pa, values):
    """Mass matrix and load of one patch, one cell at a time (dense)."""
    n2 = pa.n_u * pa.n_v
    M = np.zeros((n2, n2))
    load = np.zeros(n2)
    for cu, fu in enumerate(pa.bu.first):
        Bu = pa.bu.values[cu, :, 0, :]
        for cv, fv in enumerate(pa.bv.first):
            Bv = pa.bv.values[cv, :, 0, :]
            W = (pa.rule_u.weights[cu][:, None] * pa.rule_v.weights[cv][None, :]
                 * pa.absdet[cu, cv])
            gi = (np.arange(fu, fu + pa.p_u + 1)[:, None] * pa.n_v
                  + np.arange(fv, fv + pa.p_v + 1)[None, :]).ravel()
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


class TestProjection:
    def test_reproduces_member_function(self, fitted_b):
        geo, gluing = fitted_b
        kv = geo.patch_L.space.space_u.kv
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
        rhs = np.zeros(asm.dim)
        for s in "LR":
            pa = asm.asm[s]
            n = basis.n
            grid = grids[s].reshape(n, n)
            ts = geo.patch(s).space
            vals = ts.eval(grid, pa.rule_u.nodes, pa.rule_v.nodes)
            vals = vals.transpose(0, 2, 1, 3)       # (ncu, ncv, q, r)
            rhs += asm.C[s] @ pa.load(values=vals)
        b = solve_spd(M, rhs)
        resid = 0.0
        for s in "LR":
            e, _ = asm.asm[s].integrate_sq_diff(
                asm.patch_coefficients(b - b_true, s), None)
            resid += e
        assert np.sqrt(resid) < 1e-9

    def test_galerkin_orthogonality(self, fitted_a):
        geo, gluing = fitted_a
        kv = geo.patch_L.space.space_u.kv
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
        assert scaled_condition_number(sp.eye(10).tocsr()) == pytest.approx(1.0)

    def test_diagonal_scaling_removed(self):
        M = sp.diags([1.0, 1e6]).tocsr()
        assert scaled_condition_number(M) == pytest.approx(1.0)

    def test_nonpositive_diagonal_rejected(self):
        M = sp.diags([1.0, -2.0]).tocsr()
        with pytest.raises(ValueError):
            scaled_condition_number(M)

    def test_iterative_matches_dense(self, monkeypatch):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((80, 80))
        M = A @ A.T + 80 * np.eye(80)
        s = 1.0 / np.sqrt(np.diag(M))
        ev = np.linalg.eigvalsh(s[:, None] * M * s[None, :])
        dense = scaled_condition_number(sp.csr_matrix(M))
        monkeypatch.setattr(asm_mod, "DENSE_FACTOR_CUTOFF", 10)
        it = scaled_condition_number(sp.csr_matrix(M), tol=1e-10)
        assert it == pytest.approx(dense, rel=1e-6)
        assert it == pytest.approx(ev[-1] / ev[0], rel=1e-8)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, 1.0, 2.0, np.nan, np.inf])
    def test_tolerance_outside_unit_interval_rejected(self, tol):
        # ARPACK read tol = 0 as machine precision; the Lanczos stop rule
        # beta_k |s_k| <= tol |theta| would never be met
        M = _tridiagonal(-2.0)
        with pytest.raises(ValueError, match="tol must lie in"):
            SPDFactor(M).condition_number(tol)
        with pytest.raises(ValueError, match="tol must lie in"):
            scaled_condition_number(M, tol)


def _tridiagonal(coupling, n=60):
    """tridiag(-1, 4, -1) with entries (10, 11) and (11, 10) set to
    ``coupling``: SPD for |coupling| < 3, indefinite for coupling = 5
    (the principal block [[4, 5], [5, 4]] has eigenvalue -1)."""
    M = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1]).tolil()
    M[10, 11] = M[11, 10] = coupling
    return M.tocsr()


def _level3_system(geo0, gluing, space="v2"):
    """Mass matrix and load of a Table-2 study at level 3."""
    from c2patch.geometry import refine_geometry
    kv = make_knot_vector(5, 2, 7, uniform_inner_knots(7))
    build = build_basis_v2 if space == "v2" else build_basis_w2
    basis = build(gluing, gluing_invariants(gluing, kv), 5, 2, 7)
    asm = DomainAssembler(refine_geometry(geo0, kv), basis)
    return asm.mass(), asm.load(field_osc)


@pytest.fixture(scope="module")
def level3_mass(fitted_a):
    """Mass matrix and load of Table-2 geometry a, V2, level 3."""
    return _level3_system(*fitted_a)


@pytest.fixture(scope="module", params=["a/v2", "a/w2", "b/v2", "b/w2"])
def level3_spectrum(request):
    """Level-3 mass, load and eigenvalues of the scaled mass, per study."""
    name, space = request.param.split("/")
    M, rhs = _level3_system(*request.getfixturevalue(f"fitted_{name}"), space)
    s = 1.0 / np.sqrt(M.diagonal())
    return M, rhs, np.linalg.eigvalsh(s[:, None] * M.toarray() * s[None, :])


def _no_sparse_factor(*args, **kwargs):
    raise AssertionError("the sparse LU was built")


class TestSPDFactor:
    @pytest.mark.parametrize("cutoff", [0, 10 ** 9])
    def test_indefinite_rejected(self, cutoff, monkeypatch):
        monkeypatch.setattr(asm_mod, "DENSE_FACTOR_CUTOFF", cutoff)
        M = _tridiagonal(5.0)
        assert (M.diagonal() > 0).all()
        with pytest.raises(ValueError, match="not positive definite"):
            solve_spd(M, np.ones(M.shape[0]))

    @pytest.mark.parametrize("cutoff", [0, 10 ** 9])
    def test_two_column_solve(self, cutoff, monkeypatch):
        monkeypatch.setattr(asm_mod, "DENSE_FACTOR_CUTOFF", cutoff)
        M = _tridiagonal(-2.0)
        rhs = np.random.default_rng(2).standard_normal((M.shape[0], 2))
        x = solve_spd(M, rhs)
        assert x.shape == rhs.shape
        assert_allclose(M @ x, rhs, atol=1e-13)

    def test_level3_sparse_factor_matches_dense(self, level3_mass):
        # the layout stripped: the sparse LU, which is also the fallback
        M, rhs = level3_mass
        M = sp.csr_matrix(M)
        assert M.shape[0] == 1339 > asm_mod.DENSE_FACTOR_CUTOFF
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
        lu = SPDFactor(sp.csr_matrix(M)).solve(rhs)
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", 0)
        monkeypatch.setattr(spla, "splu", _no_sparse_factor)
        factor = SPDFactor(M)
        x = factor.solve(rhs)
        assert np.linalg.norm(x - lu) <= 1e-9 * np.linalg.norm(lu)
        assert np.linalg.norm(M @ x - rhs) < 1e-12 * np.linalg.norm(rhs)
        assert factor.condition_number() == pytest.approx(ev[-1] / ev[0],
                                                          rel=1e-8)

    def test_preconditioned_setup_copies_nothing(self, level3_spectrum,
                                                monkeypatch):
        M, rhs, ev = level3_spectrum
        lu = SPDFactor(sp.csr_matrix(M)).solve(rhs)
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", 0)
        monkeypatch.setattr(spla, "splu", _no_sparse_factor)
        tracemalloc.start()
        try:
            factor = SPDFactor(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < M.data.nbytes
        x = factor.solve(rhs)
        assert np.linalg.norm(x - lu) <= 1e-9 * np.linalg.norm(lu)
        assert factor.condition_number() == pytest.approx(ev[-1] / ev[0],
                                                          rel=1e-8)

    # preconditioner applications of one solve and one condition number at
    # level 3: 33, 59, 39 and 80 with the Gauss-Seidel sweep across the
    # interface, 53, 90, 64 and 179 with the block-diagonal preconditioner
    APPLICATIONS_BOUND = {"a/v2": 40, "a/w2": 72, "b/v2": 48, "b/w2": 100}

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

        def counted(r):
            calls.append(None)
            return precond(r)

        factor._precond = counted
        factor.solve(rhs)
        factor.condition_number()
        study = request.node.callspec.params["level3_spectrum"]
        assert len(calls) <= self.APPLICATIONS_BOUND[study]

    # CSR products of lambda_max at level 3 (a/V2, a/W2, b/V2, b/W2): 84, 80,
    # 40 and 76 with a check every 4 steps (ARPACK took 91, 81, 41 and 81),
    # plus ~10 %
    LANCZOS_PRODUCTS_BOUND = {"a/v2": 92, "a/w2": 88, "b/v2": 44, "b/w2": 84}

    @pytest.mark.parametrize("path", ["kronecker", "lu"])
    def test_lanczos_lambda_max(self, level3_spectrum, path, request,
                                monkeypatch):
        M, _, ev = level3_spectrum
        if path == "kronecker":
            monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", 0)
            monkeypatch.setattr(spla, "splu", _no_sparse_factor)
        else:
            M = sp.csr_matrix(M)
        runs = []
        lanczos = asm_mod.lanczos_largest

        def counted(apply, v0, tol):
            calls = []

            def counted_apply(x):
                calls.append(None)
                return apply(x)

            runs.append((lanczos(counted_apply, v0, tol), calls))
            return runs[-1][0]

        monkeypatch.setattr(asm_mod, "lanczos_largest", counted)
        factor = SPDFactor(M)
        factor.condition_number()
        # lambda_max is the last run; the LU path first finds 1 / lambda_min
        assert len(runs) == (1 if path == "kronecker" else 2)
        lam_max, calls = runs[-1]
        assert lam_max == pytest.approx(ev[-1], rel=1e-10)
        study = request.node.callspec.params["level3_spectrum"]
        assert len(calls) <= self.LANCZOS_PRODUCTS_BOUND[study]
        if path == "lu":
            assert runs[0][0] == pytest.approx(1.0 / ev[0], rel=1e-10)

    def test_lanczos_cap_raises(self, level3_mass, monkeypatch):
        monkeypatch.setattr(asm_mod, "LANCZOS_CAP", 1)
        with pytest.raises(ValueError, match="did not converge"):
            SPDFactor(_tridiagonal(-2.0)).condition_number()
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", 0)
        with pytest.raises(ValueError, match="did not converge"):
            SPDFactor(level3_mass[0]).condition_number()

    def test_kronecker_path_rejects_indefinite(self, level3_spectrum,
                                               monkeypatch):
        # S (M - c diag(M)) S = A - c I has lambda_min(A) - c < 0
        M, rhs, ev = level3_spectrum
        c = 1.001 * ev[0]
        shifted = TwoPatchMass(M - c * sp.diags(M.diagonal()),
                               layout=M.layout)
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", 0)
        monkeypatch.setattr(spla, "splu", _no_sparse_factor)
        factor = SPDFactor(shifted)
        with pytest.raises(ValueError, match="not positive definite"):
            factor.solve(rhs)
        with pytest.raises(ValueError, match="not positive definite"):
            factor.condition_number()

    def test_iteration_cap_falls_back_to_lu(self, level3_mass, monkeypatch):
        M, rhs = level3_mass
        lu = SPDFactor(sp.csr_matrix(M))
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", 0)
        monkeypatch.setattr(asm_mod, "ITERATION_CAP", 1)
        factors = []
        splu = spla.splu

        def counted_splu(A, *args, **kwargs):
            factors.append(A.shape[0])
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", counted_splu)
        factor = SPDFactor(M)
        assert not factors
        assert_allclose(factor.solve(rhs), lu.solve(rhs), rtol=1e-12)
        assert factor.condition_number() == pytest.approx(
            lu.condition_number(), rel=1e-12)
        assert factors == [M.shape[0]]

    def test_derived_matrices_carry_no_layout(self, level3_mass):
        M, _ = level3_mass
        layout = M.layout
        assert layout.interface == 43      # dim V2 at level 3
        assert [(Mu.shape, Mv.shape) for Mu, Mv in layout.interiors] == [
            ((24, 24), (27, 27))] * 2      # (n - 3) x n grids, n = 27
        for derived in (sp.csr_matrix(M), M[:, :], M + M, 2.0 * M, M.copy()):
            assert getattr(derived, "layout", None) is None

    def test_study_factors_once_per_level(self, fitted_b, monkeypatch):
        # levels 0-3 have 54, 133, 399 and 1363 dofs; with the Kronecker
        # cutoff between the last two, each level sees one kind of solver
        kron_cutoff = 1000
        monkeypatch.setattr(asm_mod, "KRONECKER_CUTOFF", kron_cutoff)
        sizes = {"sparse": [], "dense": [], "kronecker": []}
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

        monkeypatch.setattr(spla, "splu", counted("sparse", spla.splu))
        monkeypatch.setattr(sla, "cho_factor", counted("dense", sla.cho_factor))
        monkeypatch.setattr(asm_mod, "KroneckerPreconditioner",
                            counted("kronecker", KroneckerPreconditioner))
        geo, gluing = fitted_b
        convergence_study(geo, gluing, "v2", 3, field_osc)
        assert sizes == {"dense": [54, 133], "sparse": [399],
                         "kronecker": [1363]}
        cutoff = asm_mod.DENSE_FACTOR_CUTOFF
        assert all(n <= cutoff for n in sizes["dense"])
        assert all(cutoff < n < kron_cutoff for n in sizes["sparse"])
        assert all(n >= kron_cutoff for n in sizes["kronecker"])


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
            ppc = default_points_per_cell(geo.patch_L.space.space_u)
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
                                    lambda x, y: x + 2.0 * y, with_cond=False)
        for rep in reports:
            assert rep.rel_l2_error < 1e-11

    def test_subspace_never_beats_full_space(self, fitted_b):
        geo, gluing = fitted_b
        rv = convergence_study(geo, gluing, "v2", 1, field_osc, with_cond=False)
        rw = convergence_study(geo, gluing, "w2", 1, field_osc, with_cond=False)
        for a, b in zip(rv, rw):
            assert b.rel_l2_error >= a.rel_l2_error * (1 - 1e-10)
