"""Quadrature, mass/load assembly, L2 projection and the fitting pipeline.

Each patch mass is assembled over the tensor B-spline basis with cell-wise
Gauss quadrature by sum factorisation, as a band of the entries of B-spline
pairs that share a cell.  The two-patch mass of the smooth basis is written
from the patch bands straight into CSR: a dense interface block, its
couplings with the first interior rows, and the interior band rows.  The
convergence study performs dyadic h-refinement with the geometry refined
exactly by knot insertion.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.lib.stride_tricks import sliding_window_view

from .bspline import KnotVector, SplineSpace1D, make_knot_vector, uniform_inner_knots
from .geometry import (Patch, TwoPatchGeometry, bilinear_from_vertices,
                       refine_geometry, represent_geometry, square_patch_space)
from .gluing import GluingData, gluing_from_bilinear, gluing_invariants
from .smooth import SmoothBasis, build_basis_v2, build_basis_w2, dim_v1

# Largest SPD system factored densely.  Measured on Table-2 mass matrices
# (factor, one solve and the condition number): dense is faster at 133
# unknowns (3.7 vs 4.2 ms), sparse at 384 (12 vs 14 ms) and beyond.
DENSE_FACTOR_CUTOFF = 250
# Smallest two-patch mass (``TwoPatchMass``) solved without a factorization,
# by Kronecker-preconditioned CG and LOBPCG.  Measured on the Table-2 masses
# (two set-ups, a solve and the condition number; range of three medians of
# 7, in ms):
#   study   level 2 (384-399 unknowns)   level 3 (1,332-1,363 unknowns)
#           LU      iterative            LU      iterative
#   a/V2    11-14   10-16                46-59   23-33
#   a/W2     8-12   14-18                43-58   32-47
#   b/V2     8-11   13-15                42-50   22-29
#   b/W2     8-11   23-30                45-60   44-68
# The LU is faster at level 2.  At level 3 the iterations are faster, except
# on b/W2, whose clustered lowest eigenvalues cost LOBPCG the most: on par.
KRONECKER_CUTOFF = 1000
# PCG and LOBPCG stop at this many iterations; the sparse LU answers instead.
ITERATION_CAP = 500
# ``lanczos_largest`` checks its stop rule every few steps (~85 us a check,
# ~1.5 ms a level-5 product) and raises past the cap (level 5 needs ~110).
LANCZOS_CHECK = 4
LANCZOS_CAP = 2000
# An L2 error is quadratic in the solve error, so at 1e-13 it moved by up to
# 6e-8 relative with the preconditioner (Table 2, level 5); at 1e-14 it is
# within 1e-9 of the sparse LU's, for one or two more iterations.
PCG_RTOL = 1e-14
LOBPCG_TOL = 1e-9
FIT_POINTS_PER_CELL = 8
# u-rows 0..r (r = 2) of each patch carry the interface basis
INTERFACE_ROWS = 3


@dataclass(frozen=True)
class QuadratureRule:
    """Per-cell Gauss nodes and weights on [0, 1]."""

    nodes: np.ndarray      # (ncells, q)
    weights: np.ndarray    # (ncells, q)

    @property
    def points_per_cell(self) -> int:
        return self.nodes.shape[1]

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        return self.nodes.ravel(), self.weights.ravel()


def gauss_rule(points_per_cell: int, cells: Sequence[tuple[float, float]]) -> QuadratureRule:
    """Gauss-Legendre rule mapped to each cell (a, b)."""
    if points_per_cell < 1:
        raise ValueError("points_per_cell must be >= 1")
    x, w = np.polynomial.legendre.leggauss(points_per_cell)
    cells = np.asarray(cells, dtype=float)
    mid = 0.5 * (cells[:, 0] + cells[:, 1])
    half = 0.5 * (cells[:, 1] - cells[:, 0])
    return QuadratureRule(mid[:, None] + half[:, None] * x[None, :],
                          half[:, None] * w[None, :])


def default_points_per_cell(space: SplineSpace1D) -> int:
    """Enough Gauss points for exact mass entries and resolved load fields.

    Mass integrands of degree-p patches have per-cell degree 4p - 1 per
    direction (basis product times the Jacobian factor), exact with 2p
    points.  On coarse meshes the count is raised further so that every
    patch direction carries at least ~30 points for non-polynomial fields.
    """
    ncells = max(len(space.spans()), 1)
    return max(2 * space.degree, -(-30 // ncells))


def space_rule(space: SplineSpace1D, points_per_cell: int | None = None) -> QuadratureRule:
    ppc = points_per_cell or default_points_per_cell(space)
    return gauss_rule(ppc, [(a, b) for _, a, b in space.spans()])


@dataclass(frozen=True)
class _BasisOnCells:
    """B-spline values/derivatives at quadrature nodes, organized per cell."""

    first: np.ndarray        # (ncells,) first active index per cell
    values: np.ndarray       # (ncells, q, nd+1, p+1)


def _basis_on_cells(space: SplineSpace1D, rule: QuadratureRule,
                    max_deriv: int = 1) -> _BasisOnCells:
    first, values = space.eval_basis(rule.nodes, max_deriv)
    # Gauss nodes lie inside their cell, so one span serves the whole cell
    return _BasisOnCells(first[:, 0], values)


def _band_scatter(first: np.ndarray, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add the cell blocks X[cell, a, b, ...] into ``out`` in band form.

    ``out`` has shape (n, 2p+1, ...) and out[i, d] is the matrix entry
    (i, i + d - p): cell c adds X[c, a, b] at row first[c] + a and offset
    p - a + b.
    """
    p = X.shape[1] - 1
    for a in range(p + 1):
        # the rows first + a are distinct, so the add has no duplicates
        out[first + a, p - a:2 * p + 1 - a] += X[:, a]
    return out


def _band_to_dense(band: np.ndarray) -> np.ndarray:
    """The dense n x n matrix of a band (n, 2p+1) from ``_band_scatter``."""
    n, width = band.shape
    i = np.arange(n)[:, None]
    d = np.arange(n)[None, :] - i + width // 2
    inside = (d >= 0) & (d < width)
    return np.where(inside, band[i, d.clip(0, width - 1)], 0.0)


def _band_block(band: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Dense M[(i, j), (i', j')] for i < rows and i' < cols of a tensor band.

    ``band`` has shape (n_u, n_v, 2p_u+1, 2p_v+1), see ``mass_band``; the
    result has shape (rows * n_v, cols * n_v).
    """
    _, n_v, wu, wv = band.shape
    i = np.arange(rows)[:, None, None, None]
    j = np.arange(n_v)[None, :, None, None]
    di = np.arange(cols)[None, None, :, None] - i + wu // 2
    dj = np.arange(n_v)[None, None, None, :] - j + wv // 2
    inside = (di >= 0) & (di < wu) & (dj >= 0) & (dj < wv)
    block = np.where(inside, band[i, j, di.clip(0, wu - 1), dj.clip(0, wv - 1)],
                     0.0)
    return block.reshape(rows * n_v, cols * n_v)


def _band_offsets(n_v: int, wu: int, wv: int) -> np.ndarray:
    """Flat column minus flat row of each band slot (di, dj): (wu * wv,)."""
    return ((np.arange(wu)[:, None] - wu // 2) * n_v
            + np.arange(wv)[None, :] - wv // 2).ravel()


def _row_block(cols, vals: np.ndarray, keep: np.ndarray):
    """The stored entries of a block of CSR rows, row by row.

    ``vals`` and ``keep`` have shape (rows, slots), ``cols`` broadcasts to
    it, and the slots of a row run in increasing column order; ``keep``
    marks the slots that are stored.  Returns (entries per row, column
    indices, values).
    """
    keep = np.broadcast_to(keep, vals.shape)
    cols = np.broadcast_to(cols, vals.shape)[keep]
    return keep.sum(axis=1), cols.astype(np.int32, copy=False), vals[keep]


def _csr_from_blocks(blocks, shape: tuple[int, int], cls=sp.csr_matrix,
                     **kwargs):
    """CSR matrix whose rows are those of the ``_row_block``s, in order."""
    counts, indices, data = zip(*blocks)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return cls((np.concatenate(data), np.concatenate(indices), indptr),
               shape=shape, **kwargs)


class PatchAssembler:
    """Quadrature data of one patch: weights, physical points, |det J|.

    Every integral is taken over all cells at once: the cells are leading
    array axes ``(ncu, ncv)`` and each cell's local B-spline products are
    contracted with one ``einsum``.
    """

    def __init__(self, patch: Patch, points_per_cell: int | None = None):
        self.patch = patch
        su = patch.space.space_u
        sv = patch.space.space_v
        self.rule_u = space_rule(su, points_per_cell)
        self.rule_v = space_rule(sv, points_per_cell)
        self.bu = _basis_on_cells(su, self.rule_u, 1)
        self.bv = _basis_on_cells(sv, self.rule_v, 1)
        self.n_u = su.dim
        self.n_v = sv.dim
        self.p_u = su.degree
        self.p_v = sv.degree
        # tensor indices (i, j) of the B-splines active on each cell
        iu = self.bu.first[:, None] + np.arange(self.p_u + 1)
        iv = self.bv.first[:, None] + np.arange(self.p_v + 1)
        self._cell_i = iu[:, None, :, None]        # (ncu, 1, pu+1, 1)
        self._cell_j = iv[None, :, None, :]        # (1, ncv, 1, pv+1)
        # flat indices i*n_v + j of those B-splines: (ncu, ncv, nloc)
        self._cell_dofs = (self._cell_i * self.n_v + self._cell_j).reshape(
            len(iu), len(iv), -1)
        self._cell_weights = (self.rule_u.weights[:, None, :, None]
                              * self.rule_v.weights[None, :, None, :])
        self._geometry_data()

    def _on_cells(self, coeffs: np.ndarray, du: int = 0,
                  dv: int = 0) -> np.ndarray:
        """Derivative (du, dv) of the tensor spline with coefficient grid
        ``coeffs`` (n_u, n_v, ...) at every quadrature point:
        (ncu, ncv, q, r, ...)."""
        local = coeffs[self._cell_i, self._cell_j]    # (ncu, ncv, pu+1, pv+1, ...)
        return np.einsum("uqa,uvab...,vrb->uvqr...", self.bu.values[:, :, du],
                         local, self.bv.values[:, :, dv], optimize=True)

    def _geometry_data(self):
        """|det J| and physical coordinates at every quadrature point."""
        cp = self.patch.control_points
        Fu = self._on_cells(cp, du=1)
        Fv = self._on_cells(cp, dv=1)
        self.absdet = np.abs(Fu[..., 0] * Fv[..., 1] - Fu[..., 1] * Fv[..., 0])
        self.phys = self._on_cells(cp)             # (ncu, ncv, q, r, 2)

    def mass_band(self) -> tuple[np.ndarray, np.ndarray]:
        """Weighted Gram matrix of the tensor B-splines in band form.

        Returns ``(band, keep)`` of shape (n_u, n_v, 2p_u+1, 2p_v+1) with
        ``band[i, j, di, dj]`` the entry M[(i, j), (i + di - p_u, j + dj - p_v)];
        ``keep`` marks the pairs active on a common cell, the sparsity
        pattern.  Sum factorisation: the u-points are contracted per u-cell
        and scattered over the u-cells, then the same along v.  Entries
        below the diagonal are copies of their mirror images above it, so
        the matrix is exactly symmetric.
        """
        Bu = self.bu.values[:, :, 0]
        Bv = self.bv.values[:, :, 0]
        ncu, q, ku = Bu.shape
        ncv, r, kv = Bv.shape
        n_u, n_v, pu, pv = self.n_u, self.n_v, self.p_u, self.p_v
        Tu = (Bu[..., :, None] * Bu[..., None, :]).reshape(ncu, q, ku * ku)
        Tv = (Bv[..., :, None] * Bv[..., None, :]).reshape(ncv, r, kv * kv)
        W = (self._cell_weights * self.absdet).transpose(0, 2, 1, 3)
        # (ncu, a, b, ncv, r), then the band along u: (n_u, 2p_u+1, ncv, r)
        X = np.matmul(Tu.transpose(0, 2, 1), W.reshape(ncu, q, ncv * r))
        Y = _band_scatter(self.bu.first, X.reshape(ncu, ku, ku, ncv, r),
                          np.zeros((n_u, 2 * pu + 1, ncv, r)))
        # (ncv, c, d, n_u, 2p_u+1), then the band along v into [j, dj, i, di],
        # padded by p zeros on each side of i and j
        Y = Y.transpose(2, 3, 0, 1).reshape(ncv, r, -1)
        Z = np.matmul(Tv.transpose(0, 2, 1), Y).reshape(ncv, kv, kv, n_u, -1)
        padded = np.zeros((n_v + 2 * pv, 2 * pv + 1, n_u + 2 * pu, 2 * pu + 1))
        _band_scatter(self.bv.first, Z, padded[pv:pv + n_v, :, pu:pu + n_u])
        padded = padded.transpose(2, 0, 3, 1)
        band = padded[pu:pu + n_u, pv:pv + n_v]
        # mirror[i, j, di, dj] = band[i + di - p_u, j + dj - p_v, 2p_u - di, 2p_v - dj]
        windows = sliding_window_view(padded, band.shape[2:], axis=(0, 1))
        mirror = windows[:, :, ::-1, ::-1].diagonal(axis1=2, axis2=4).diagonal(
            axis1=2, axis2=3)
        # a 1D Gram entry is positive exactly for the pairs sharing a cell
        gram_u, gram_v = self._gram_bands
        keep = (gram_u > 0.0)[:, None, :, None] & (gram_v > 0.0)[None, :, None, :]
        _, _, di, dj = np.ogrid[:1, :1, :2 * pu + 1, :2 * pv + 1]
        below = (di < pu) | ((di == pu) & (dj < pv))
        return np.where(below & keep, mirror, band), keep

    def mass(self) -> sp.csr_matrix:
        """Weighted Gram matrix of the tensor B-splines, (n_u*n_v)^2 sparse."""
        band, keep = self.mass_band()
        n2 = self.n_u * self.n_v
        rows = np.arange(n2)[:, None]
        offsets = _band_offsets(self.n_v, *band.shape[2:])
        return _csr_from_blocks([_row_block(rows + offsets, band.reshape(n2, -1),
                                            keep.reshape(n2, -1))], (n2, n2))

    @cached_property
    def _gram_bands(self) -> list[np.ndarray]:
        """Parametric 1D Gram matrices of the u and v spaces in band form,
        built once per patch for the mass pattern and the mass layout."""
        bands = []
        for basis, rule, n in ((self.bu, self.rule_u, self.n_u),
                               (self.bv, self.rule_v, self.n_v)):
            B = basis.values[:, :, 0]
            local = np.einsum("cqa,cq,cqb->cab", B, rule.weights, B)
            bands.append(_band_scatter(basis.first, local,
                                       np.zeros((n, 2 * B.shape[-1] - 1))))
        return bands

    def mass_1d(self) -> tuple[np.ndarray, np.ndarray]:
        """Parametric Gram matrices (M_u, M_v) of the two spline spaces."""
        gram_u, gram_v = self._gram_bands
        return _band_to_dense(gram_u), _band_to_dense(gram_v)

    def sample_physical(self, f) -> np.ndarray:
        """f(x1, x2) sampled at every quadrature point: (ncu, ncv, q, r)."""
        return f(self.phys[..., 0], self.phys[..., 1])

    def load(self, f=None, values: np.ndarray | None = None) -> np.ndarray:
        """Integrals of the field against every tensor B-spline.

        The field is either a physical-space callable ``f(x1, x2)`` or a
        precomputed per-quadrature-point value array ``values``.
        """
        if values is None:
            values = self.sample_physical(f)
        W = self._cell_weights * self.absdet * values
        local = np.einsum("uqa,uvqr,vrc->uvac", self.bu.values[:, :, 0], W,
                          self.bv.values[:, :, 0], optimize=True)
        return np.bincount(self._cell_dofs.ravel(), local.ravel(),
                           minlength=self.n_u * self.n_v)

    def integrate_sq_diff(self, coeffs_flat: np.ndarray,
                          f: Callable[[np.ndarray, np.ndarray], np.ndarray] | None,
                          ) -> tuple[float, float]:
        """(||g - f||^2, ||f||^2) over the patch; f = 0 when f is None."""
        g = self._on_cells(coeffs_flat.reshape(self.n_u, self.n_v))
        W = self._cell_weights * self.absdet
        if f is None:
            return float((W * g ** 2).sum()), 0.0
        fvals = self.sample_physical(f)
        return float((W * (g - fvals) ** 2).sum()), float((W * fvals ** 2).sum())


# ---------------------------------------------------------------------------
# full-space coefficient matrices


def full_space_matrices(basis: SmoothBasis) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Sparse per-patch coefficient matrices C_S of the full smooth space.

    Row order: the interface basis first (in family order), then the
    interface-untouched tensor B-splines of patch L, then of patch R.
    Columns are flattened (i, j) -> i*n + j grids.
    """
    n = basis.n
    dim2 = basis.num_basis
    n_int = (n - INTERFACE_ROWS) * n
    dim = dim2 + 2 * n_int
    int_cols = np.arange(INTERFACE_ROWS * n, n * n)
    mats = []
    for offset, A in ((dim2, basis.A_L), (dim2 + n_int, basis.A_R)):
        # A columns are (i, j) -> i*n + j with i < 3: the same flat layout
        r_idx, c_idx = np.nonzero(A)
        mats.append(sp.coo_matrix(
            (np.concatenate([A[r_idx, c_idx], np.ones(n_int)]),
             (np.concatenate([r_idx, offset + np.arange(n_int)]),
              np.concatenate([c_idx, int_cols]))),
            shape=(dim, n * n)).tocsr())
    return mats[0], mats[1]


# ---------------------------------------------------------------------------
# assembly over the whole two-patch domain


@dataclass(frozen=True)
class MassLayout:
    """Block layout of a two-patch mass matrix (see ``full_space_matrices``).

    The first ``interface`` unknowns are the interface basis.  The interior
    grids of L and R follow, each a tensor grid whose parametric 1D Gram
    matrices (M_u, M_v) are listed in ``interiors``.
    """

    interface: int
    interiors: tuple[tuple[np.ndarray, np.ndarray], ...]


class TwoPatchMass(sp.csr_matrix):
    """A symmetric two-patch mass matrix that carries its ``MassLayout``.

    Matrices derived from it (``sp.csr_matrix(M)``, copies, slices, sums)
    carry no layout.
    """

    layout: MassLayout | None = None

    def __init__(self, arg1, *args, layout: MassLayout | None = None,
                 **kwargs):
        super().__init__(arg1, *args, **kwargs)
        self.layout = layout


class DomainAssembler:
    """Mass/load assembly for a smooth basis over a two-patch geometry."""

    def __init__(self, F: TwoPatchGeometry, basis: SmoothBasis,
                 points_per_cell: int | None = None):
        self.F = F
        self.basis = basis
        self.asm = {side: PatchAssembler(F.patch(side), points_per_cell)
                    for side in F.sides}
        self.C = dict(zip(("L", "R"), full_space_matrices(basis)))
        self.dim = self.C["L"].shape[0]

    def mass(self) -> TwoPatchMass:
        """Mass matrix of the full smooth space, C_L M_L C_L^T + C_R M_R C_R^T.

        It is written straight into CSR from the patch bands: the interface
        block sum_s A_s M_s[:3n, :3n] A_s^T (dense, its zeros dropped), the
        couplings A_s M_s[:3n, 3n:] of the interface basis with the first
        interior rows of each patch, and the interior band rows.  The
        interface block keeps its upper triangle and mirrors it, and the
        couplings are stored once and transposed, so M is exactly symmetric.
        """
        m, n = self.basis.num_basis, self.basis.n
        nr = INTERFACE_ROWS
        n_int = (n - nr) * n
        iface = np.zeros((m, m))
        couplings, interiors, layout = [], [], []
        for s, A, offset in (("L", self.basis.A_L, m),
                             ("R", self.basis.A_R, m + n_int)):
            pa = self.asm[s]
            band, keep = pa.mass_band()
            # interior u-rows nr..nr+c-1 share cells with the interface rows
            c = min(pa.p_u, n - nr)
            T = A @ _band_block(band, nr, nr + c)
            iface += T[:, :nr * n] @ A.T
            couple = T[:, nr * n:]
            couplings.append((offset + np.arange(c * n), couple))
            # interior rows (i, j), i >= nr, without the columns i' < nr
            wu, wv = band.shape[2:]
            keep = keep & (np.arange(n)[:, None] + np.arange(wu) - pa.p_u
                           >= nr)[:, None, :, None]
            band = band[nr:].reshape(n_int, -1)
            keep = keep[nr:].reshape(n_int, -1)
            cols = ((offset + np.arange(n_int, dtype=np.int32))[:, None]
                    + _band_offsets(n, wu, wv).astype(np.int32))
            near = slice(0, c * n)
            interiors += [
                _row_block(np.hstack([np.broadcast_to(np.arange(m), (c * n, m)),
                                      cols[near]]),
                           np.hstack([couple.T, band[near]]),
                           np.hstack([couple.T != 0.0, keep[near]])),
                _row_block(cols[c * n:], band[c * n:], keep[c * n:])]
            # the next patch's band is built without this one alive
            del band, keep, cols
            Mu, Mv = pa.mass_1d()
            layout.append((Mu[nr:, nr:], Mv))
        iface = np.triu(iface) + np.triu(iface, 1).T
        first = np.hstack([iface] + [couple for _, couple in couplings])
        first_cols = np.concatenate([np.arange(m)]
                                    + [cols for cols, _ in couplings])
        dim = m + 2 * n_int
        return _csr_from_blocks([_row_block(first_cols, first, first != 0.0)]
                                + interiors, (dim, dim), TwoPatchMass,
                                layout=MassLayout(m, tuple(layout)))

    def load(self, f) -> np.ndarray:
        return sum(self.C[s] @ self.asm[s].load(f) for s in ("L", "R"))

    def patch_coefficients(self, b: np.ndarray, side: str) -> np.ndarray:
        return self.C[side].T @ b

    def relative_l2_error(self, b: np.ndarray, f) -> float:
        err = 0.0
        ref = 0.0
        for s in ("L", "R"):
            e, r = self.asm[s].integrate_sq_diff(self.patch_coefficients(b, s), f)
            err += e
            ref += r
        return float(np.sqrt(err / ref))


class KroneckerPreconditioner:
    """Symmetric block Gauss-Seidel preconditioner of a scaled two-patch
    mass A = S M S, over the interface I and the interiors L and R.

    The interface block A_II is inverted through its Cholesky factor.  Each
    interior block, a tensor grid, is approximated as in Loli, Sangalli &
    Tani ("Easy and efficient preconditioning of the isogeometric mass
    matrix", CAMWA 2022) by K_s = W^(-1) (M_u (x) M_v) W^(-1) with
    W^2 = diag(M_u (x) M_v) / diag(A), where diag(A) = 1 by the scaling.
    The interiors do not couple each other, so one sweep from the interface
    into the interiors and back,

        w_I = A_II^(-1) r_I,  y_s = K_s^(-1) (r_s - A_sI w_I),
        y_I = w_I - A_II^(-1) sum_s A_Is y_s,

    applies B^(-1) = (D + E)^(-T) D (D + E)^(-1) with D = diag(A_II, K_L,
    K_R) and E the couplings A_sI below it, which is symmetric and positive
    definite.  The couplings are held as one dense block over the interior
    unknowns that touch the interface, and every block product is a dense
    numpy product, so that one BLAS library serves each application.
    """

    def __init__(self, M: sp.csr_matrix, scale: np.ndarray, layout: MassLayout):
        m = layout.interface
        # the interface rows of A, dense over the interface columns and the
        # interior columns they couple with
        rows = M[:m]
        touched = np.zeros(M.shape[0], dtype=bool)
        touched[:m] = True
        touched[rows.indices] = True
        kept = np.flatnonzero(touched)
        A_rows = rows[:, kept].toarray() * (scale[:m, None] * scale[kept])
        try:
            L = np.linalg.cholesky(A_rows[:, :m])
        except np.linalg.LinAlgError:
            raise ValueError("matrix is not positive definite") from None
        L_inv = np.linalg.inv(L)
        self._interface = m
        self._interface_inverse = L_inv.T @ L_inv
        self._coupled = kept[m:]
        self._coupling = np.ascontiguousarray(A_rows[:, m:])
        self._interiors = []
        for Mu, Mv in layout.interiors:
            block = slice(m, m + Mu.shape[0] * Mv.shape[0])
            w = np.sqrt(np.outer(Mu.diagonal(), Mv.diagonal()).ravel())
            self._interiors.append((block, w, np.linalg.inv(Mu),
                                    np.linalg.inv(Mv)))
            m = block.stop

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """The preconditioner applied to r of shape (n,) or (n, k)."""
        r2 = r.reshape(r.shape[0], -1)
        m, cols = self._interface, self._coupled
        w_I = self._interface_inverse @ r2[:m]
        # the interior residuals less the coupling with w_I
        z = r2.copy()
        z[cols] -= self._coupling.T @ w_I
        y = np.empty_like(r2)
        for block, w, Iu, Iv in self._interiors:
            x = (w[:, None] * z[block]).T.reshape(-1, len(Iu), len(Iv))
            y[block] = w[:, None] * (Iu @ x @ Iv.T).reshape(len(x), -1).T
        y[:m] = w_I - self._interface_inverse @ (self._coupling @ y[cols])
        return y.reshape(r.shape)


class SPDFactor:
    """Solves and the condition number of a symmetric positive definite M.

    The matrix is scaled diagonally, A = S M S with S = diag(M)^(-1/2).  Up
    to ``DENSE_FACTOR_CUTOFF`` unknowns A is factored by dense Cholesky.  A
    ``TwoPatchMass`` of ``KRONECKER_CUTOFF`` or more unknowns is not
    factored, nor copied: A is applied as s * (M (s * x)), solves run
    preconditioned CG and lambda_min comes from LOBPCG, both with a
    ``KroneckerPreconditioner``, a symmetric block Gauss-Seidel sweep over
    the interface and the two patch interiors.  Any other matrix, and one
    of these whose iteration does not converge within ``ITERATION_CAP``
    steps, is factored (on first use) by sparse LU with a symmetric
    minimum-degree ordering and diagonal pivots, which for an SPD matrix is
    its LDL^T factorization.  A matrix that is not positive definite raises
    ``ValueError``: Cholesky fails, the sparse factor needs an off-diagonal
    pivot or a pivot <= 0, CG meets a direction of nonpositive curvature, or
    LOBPCG a Rayleigh quotient <= 0.
    """

    def __init__(self, M):
        d = M.diagonal()
        if not (d > 0.0).all():
            raise ValueError("matrix has a nonpositive diagonal entry")
        self.scale = 1.0 / np.sqrt(d)
        self._M = M
        self._precond = None
        self._inverse = None
        n = M.shape[0]
        layout = getattr(M, "layout", None)
        if n <= DENSE_FACTOR_CUTOFF:
            self.A = self._scaled().toarray()
            try:
                cho = sla.cho_factor(self.A)
            except np.linalg.LinAlgError:
                raise ValueError("matrix is not positive definite") from None
            self._inverse = lambda y: sla.cho_solve(cho, y)
        elif layout is not None and n >= KRONECKER_CUTOFF:
            self.A = spla.LinearOperator((n, n), matvec=self._product,
                                         matmat=self._product, dtype=float)
            self._precond = KroneckerPreconditioner(M, self.scale, layout)
        else:
            self._factor_sparse()

    def _product(self, x: np.ndarray) -> np.ndarray:
        """A x = s * (M (s * x)) for x of shape (n,) or (n, k)."""
        s = self.scale.reshape((-1,) + (1,) * (x.ndim - 1))
        return s * (self._M @ (s * x))

    def _scaled(self) -> sp.csr_matrix:
        """A as a CSR copy of M.  Each factor s_i s_j is formed before it
        multiplies M_ij, so a symmetric M gives an exactly symmetric A."""
        A = sp.csr_matrix(self._M, copy=True)
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        A.data *= self.scale[rows] * self.scale[A.indices]
        if getattr(self._M, "layout", None) is None:
            # a TwoPatchMass is exactly symmetric already
            A = ((A + A.T) * 0.5).tocsr()
        return A

    def _factor_sparse(self):
        """Factor A by sparse LU; returns the solve with the factor.

        From then on ``A`` is the scaled copy that was factored.
        """
        self.A = self._scaled()
        lu = spla.splu(self.A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
        # diagonal pivots: perm_r == perm_c and diag(U) is D of LDL^T
        if (lu.perm_r != lu.perm_c).any() or not (lu.U.diagonal() > 0.0).all():
            raise ValueError("matrix is not positive definite")
        self._inverse = lu.solve
        return lu.solve

    def _apply_inverse(self, y: np.ndarray) -> np.ndarray:
        return (self._inverse or self._factor_sparse())(y)

    def _pcg(self, b: np.ndarray) -> np.ndarray | None:
        """A^(-1) b by preconditioned CG, or None past ``ITERATION_CAP``.

        The residual is measured unscaled, ||M x - rhs|| / ||rhs||, since
        A y - b = S (M x - rhs) for x = S y and b = S rhs.
        """
        x = np.zeros_like(b)
        stop = PCG_RTOL * np.linalg.norm(b / self.scale)
        if stop == 0.0:
            return x
        r = b.copy()
        z = self._precond(r)
        p = z.copy()
        rz = r @ z
        for _ in range(ITERATION_CAP):
            q = self.A @ p
            curvature = p @ q
            if curvature <= 0.0:
                raise ValueError("matrix is not positive definite")
            alpha = rz / curvature
            x += alpha * p
            r -= alpha * q
            if np.linalg.norm(r / self.scale) <= stop:
                return x
            z = self._precond(r)
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
        return None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^(-1) rhs for a right-hand side of shape (n,) or (n, m)."""
        s = self.scale.reshape((-1,) + (1,) * (np.ndim(rhs) - 1))
        b = s * rhs
        if self._precond is not None:
            cols = [self._pcg(c) for c in b.reshape(len(b), -1).T]
            if all(c is not None for c in cols):
                return s * np.stack(cols, axis=1).reshape(b.shape)
        return s * self._apply_inverse(b)

    def _inverse_smallest(self, v0: np.ndarray) -> float | None:
        """1 / lambda_min of A by LOBPCG, or None past ``ITERATION_CAP``."""
        with warnings.catch_warnings():
            # non-convergence is detected below and handled by the caller
            warnings.simplefilter("ignore", UserWarning)
            lam, _, residuals = spla.lobpcg(
                self.A, v0[:, None], M=self._precond, tol=LOBPCG_TOL,
                maxiter=ITERATION_CAP, largest=False,
                retResidualNormsHistory=True)
        # a Rayleigh quotient bounds lambda_min from above
        if lam[0] <= 0.0:
            raise ValueError("matrix is not positive definite")
        return 1.0 / lam[0] if residuals[-1] <= LOBPCG_TOL else None

    def condition_number(self, tol: float = 1e-6) -> float:
        """Condition number of A, lambda_max / lambda_min.

        ``lanczos_largest`` finds lambda_max of A to the relative tolerance
        ``tol``, which must lie in (0, 1), from a seeded start vector.
        1 / lambda_min comes from LOBPCG (absolute residual ``LOBPCG_TOL``)
        when A is preconditioned.  Otherwise, or when LOBPCG does not
        converge, it is the largest eigenvalue of A^(-1), found the same way
        through the factor.
        """
        if not 0.0 < tol < 1.0:
            raise ValueError(f"tol must lie in (0, 1), got {tol}")
        v0 = np.random.default_rng(0).standard_normal(self.A.shape[0])
        inverse_min = None
        if self._precond is not None:
            inverse_min = self._inverse_smallest(v0)
        if inverse_min is None:
            inverse_min = lanczos_largest(self._apply_inverse, v0, tol)
        return float(lanczos_largest(lambda x: self.A @ x, v0, tol)
                     * inverse_min)


def lanczos_largest(apply: Callable[[np.ndarray], np.ndarray],
                    v0: np.ndarray, tol: float) -> float:
    """Largest eigenvalue of the symmetric operator ``apply``, from v0.

    Three-term Lanczos recurrence, not reorthogonalised: the top Ritz value
    still converges and its Ritz estimate beta_k |s_k| stays exact (Paige,
    LAA 1980).  Every ``LANCZOS_CHECK`` steps it stops if the top Ritz pair
    (theta, s) of the tridiagonal matrix meets ARPACK's rule for
    ``which="LA"``, beta_k |s_k| <= tol |theta|; a zero beta_k leaves theta
    exact.  Past ``LANCZOS_CAP`` steps it raises.
    """
    q, q_prev, b = v0 / np.linalg.norm(v0), 0.0, 0.0
    alpha, beta = [], []
    for k in range(1, LANCZOS_CAP + 1):
        w = apply(q)
        alpha.append(q @ w)
        w -= alpha[-1] * q + b * q_prev
        b = np.linalg.norm(w)
        if b == 0.0 or k % LANCZOS_CHECK == 0:
            theta, s = sla.eigh_tridiagonal(alpha, beta, select="i",
                                            select_range=(k - 1, k - 1))
            if b * abs(s[-1, 0]) <= tol * abs(theta[0]):
                return float(theta[0])
        beta.append(b)
        q_prev, q = q, w / b
    raise ValueError(f"Lanczos did not converge within {LANCZOS_CAP} steps")


def solve_spd(M, rhs: np.ndarray) -> np.ndarray:
    """M^(-1) rhs for an SPD matrix M (one ``SPDFactor``)."""
    return SPDFactor(M).solve(rhs)


def scaled_condition_number(M, tol: float = 1e-6) -> float:
    """Condition number of the diagonally scaled SPD matrix (see ``SPDFactor``)."""
    return SPDFactor(M).condition_number(tol)


# ---------------------------------------------------------------------------
# convergence study


@dataclass(frozen=True)
class ApproxReport:
    level: int
    dim_interior: int
    dim_interface: int
    rel_l2_error: float
    rate: float | None
    cond: float
    cond_rate: float | None


def convergence_study(F0: TwoPatchGeometry, gluing: GluingData, space: str,
                      levels: int, f, points_per_cell: int | None = None,
                      with_cond: bool = True,
                      on_report=None) -> list[ApproxReport]:
    """Dyadic h-refinement study: levels L = 0..levels, k = 2^L - 1.

    The level-0 geometry is refined exactly by knot insertion; the gluing
    data is level-independent.  Each level's mass matrix gets one
    ``SPDFactor``, which serves the solve and the condition number: a
    factor below ``KRONECKER_CUTOFF`` unknowns, the preconditioned
    iterations above.  ``on_report`` is called with each finished
    per-level report, which allows callers to flush partial results.
    """
    if space not in ("v2", "w2"):
        raise ValueError("space must be 'v2' or 'w2'")
    p = F0.patch_L.degree
    base_r = 2
    reports: list[ApproxReport] = []
    prev_err = None
    prev_cond = None
    for L in range(levels + 1):
        k = 2 ** L - 1
        kv = make_knot_vector(p, base_r, k, uniform_inner_knots(k))
        geo = refine_geometry(F0, kv) if k else F0
        inv = gluing_invariants(gluing, kv)
        if space == "v2":
            basis = build_basis_v2(gluing, inv, p, base_r, k)
        else:
            basis = build_basis_w2(gluing, inv, p, base_r, k)
        asm = DomainAssembler(geo, basis, points_per_cell)
        factor = SPDFactor(asm.mass())
        b = factor.solve(asm.load(f))
        err = asm.relative_l2_error(b, f)
        cond = factor.condition_number() if with_cond else float("nan")
        rate = None if prev_err is None else float(np.log2(prev_err / err))
        cond_rate = None if prev_cond is None else float(np.log2(prev_cond / cond))
        report = ApproxReport(L, dim_v1(p, base_r, k), basis.num_basis,
                              err, rate, cond, cond_rate)
        reports.append(report)
        if on_report is not None:
            on_report(report)
        prev_err, prev_cond = err, cond
    return reports


def reports_to_csv(reports: list[ApproxReport]) -> str:
    lines = ["L,dim_V1,dim_V2_or_W2,rel_L2_err,ecr,cond,cond_rate"]
    for r in reports:
        rate = "" if r.rate is None else repr(r.rate)
        crate = "" if r.cond_rate is None else repr(r.cond_rate)
        lines.append(f"{r.level},{r.dim_interior},{r.dim_interface},"
                     f"{r.rel_l2_error!r},{rate},{r.cond!r},{crate}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fitting pipeline


@dataclass(frozen=True)
class FitResult:
    geometry: TwoPatchGeometry
    epsilon: float
    coefficients: np.ndarray    # (2, dim) solution vectors per coordinate


def discrete_relative_error(F_tilde: TwoPatchGeometry,
                            F: TwoPatchGeometry) -> float:
    """Relative squared-component mismatch on the 11 x 11 parameter grid."""
    grid = np.arange(11) / 10.0
    a = np.stack([F_tilde.patch(side).eval(grid, grid) for side in ("L", "R")])
    b = np.stack([F.patch(side).eval(grid, grid) for side in ("L", "R")])
    return float(((a - b) ** 2).sum() / (a ** 2).sum())


def reference_projection(F_tilde: TwoPatchGeometry, F_hat: TwoPatchGeometry,
                         gluing: GluingData, weighted: bool = True
                         ) -> tuple[DomainAssembler, np.ndarray, np.ndarray]:
    """L2 projection system of a two-patch input onto the biquintic C2 space.

    The space is V2 at k = 0 over the bilinear reference ``F_hat``.  The
    weight is the reference Jacobian (``weighted=False`` projects in the
    parameter domain instead).  Returns the assembler, the dense mass
    matrix and the loads of both input coordinates, shape (2, dim).
    """
    kv = make_knot_vector(5, 2, 0)
    basis = build_basis_v2(gluing, gluing_invariants(gluing, kv), 5, 2, 0)
    domain = represent_geometry(F_hat, kv) if weighted else _identity_geometry(kv)
    asm = DomainAssembler(domain, basis, FIT_POINTS_PER_CELL)
    loads = np.zeros((2, asm.dim))
    for side in ("L", "R"):
        pa = asm.asm[side]
        # input patch on the quadrature grid, laid out (ncu, ncv, q, r, 2)
        values = F_tilde.patch(side).eval(pa.rule_u.nodes, pa.rule_v.nodes)
        values = values.transpose(0, 2, 1, 3, 4)
        for c in (0, 1):
            loads[c] += asm.C[side] @ pa.load(values=values[..., c])
    return asm, asm.mass().toarray(), loads


def geometry_from_solutions(asm: DomainAssembler,
                            sol: np.ndarray) -> TwoPatchGeometry:
    """The geometry whose two coordinates have coefficient vectors ``sol``."""
    n = asm.basis.n
    space = asm.F.patch_L.space
    patches = [Patch(space, np.stack([asm.patch_coefficients(sol[c], side)
                                      .reshape(n, n) for c in (0, 1)], axis=-1))
               for side in ("L", "R")]
    return TwoPatchGeometry(*patches)


def fit_bilinear_like(F_tilde: TwoPatchGeometry,
                      F_hat: TwoPatchGeometry | None = None,
                      gluing: GluingData | None = None,
                      weighted: bool = True) -> FitResult:
    """Approximate a generic two-patch input by a smooth biquintic geometry.

    Each coordinate of the input is least-squares projected onto the full
    C2 space built over the bilinear vertex interpolant (see
    ``reference_projection``).
    """
    if F_hat is None:
        F_hat = bilinear_from_vertices(F_tilde)
    if gluing is None:
        gluing = gluing_from_bilinear(F_hat)
    asm, M, loads = reference_projection(F_tilde, F_hat, gluing, weighted)
    sol = SPDFactor(M).solve(loads.T).T
    fitted = geometry_from_solutions(asm, sol)
    return FitResult(fitted, discrete_relative_error(F_tilde, fitted), sol)


def _identity_geometry(kv: KnotVector) -> TwoPatchGeometry:
    """Two unit-square patches mirrored across x = 0 (|det J| = 1)."""
    space = square_patch_space(kv)
    s = SplineSpace1D(kv)
    gx = s.interpolate(s.greville())
    cp_R = np.stack(np.meshgrid(gx, gx, indexing="ij"), axis=-1)
    cp_L = cp_R.copy()
    cp_L[:, :, 0] *= -1.0
    return TwoPatchGeometry(Patch(space, cp_L), Patch(space, cp_R))
