"""Quadrature, mass/load assembly, L2 projection and the fitting pipeline.

Each patch mass is assembled over the tensor B-spline basis with cell-wise
Gauss quadrature by sum factorisation, as a band of the entries of B-spline
pairs that share a cell; only the upper half of the band is integrated.  The
two-patch mass of the smooth basis stores its upper triangle, written once
into preallocated CSR arrays: the upper triangle of a dense interface block,
its couplings with the first interior rows, and the interior band rows from
their diagonals on.  The convergence study performs dyadic h-refinement with
the geometry refined exactly by knot insertion.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import blas
from .bspline import (KnotVector, QuadratureRule, SplineSpace1D, make_knot_vector,
                      space_rule, uniform_inner_knots)
from .geometry import (Patch, TwoPatchGeometry, bilinear_from_vertices,
                       refine_geometry, represent_geometry)
from .gluing import GluingData, gluing_from_bilinear, gluing_invariants
from .smooth import SmoothBasis, build_basis_v2, build_basis_w2, dim_v1

# Smallest two-patch mass (``TwoPatchMass``) solved without a factorization,
# by Kronecker-preconditioned CG and LOBPCG: Table-2 levels 3 and up.  A
# smaller one, or one with no layout, is factored densely (notes/decisions.md).
KRONECKER_CUTOFF = 1000
# PCG and LOBPCG raise past this many iterations (level 6 needs < 100).
ITERATION_CAP = 500
# ``lanczos_largest`` checks its stop rule every few steps (~85 us a check,
# ~1.5 ms a level-5 product) and raises past the cap (level 5 needs ~110).
LANCZOS_CHECK = 4
LANCZOS_CAP = 2000
# relative accuracy of lambda_max, and of 1 / lambda_min on the dense path
LANCZOS_TOL = 1e-6
# An L2 error is quadratic in the solve error, so at 1e-13 it moved by up to
# 6e-8 relative with the preconditioner (Table 2, level 5); at 1e-14 it is
# within 1e-9 of a direct solve's, for one or two more iterations.
PCG_RTOL = 1e-14
LOBPCG_TOL = 1e-9
FIT_POINTS_PER_CELL = 8
# u-rows 0..r (r = 2) of each patch carry the interface basis
INTERFACE_ROWS = 3
# ``DomainAssembler.mass`` builds a patch's interior band rows in blocks of
# about this many bytes
BAND_BLOCK_BYTES = 1 << 20
# ``PatchAssembler.sample_physical`` forms the physical points in blocks of
# about this many bytes
SAMPLE_BLOCK_BYTES = 1 << 18
# the order of every three-operand cell contraction: the u-values with the
# middle operand first, then the v-values (no path search per call)
_CELL_PATH = ("einsum_path", (0, 1), (0, 1))


def default_points_per_cell(space: SplineSpace1D) -> int:
    """Enough Gauss points for exact mass entries and resolved load fields.

    Mass integrands of degree-p patches have per-cell degree 4p - 1 per
    direction (basis product times the Jacobian factor), exact with 2p
    points.  On coarse meshes the count is raised further so that every
    patch direction carries at least ~30 points for non-polynomial fields.
    """
    ncells = max(len(space.spans()), 1)
    return max(2 * space.degree, -(-30 // ncells))


@dataclass(frozen=True)
class _BasisOnCells:
    """B-spline values/derivatives at quadrature nodes, organized per cell."""

    first: np.ndarray        # (ncells,) first active index per cell
    values: np.ndarray       # (ncells, q, nd+1, p+1)


def _basis_on_cells(space: SplineSpace1D, rule: QuadratureRule) -> _BasisOnCells:
    first, values = space.eval_basis(rule.nodes, 1)
    # Gauss nodes lie inside their cell, so one span serves the whole cell
    return _BasisOnCells(first[:, 0], values)


def _band_block(band: np.ndarray, cols: int) -> np.ndarray:
    """Dense M[(i, j), (i', j')] for the rows i of an upper band, i' < cols.

    ``band`` has shape (rows, p+1, n, 2p+1), see ``mass_band``, and
    rows <= cols; the result has shape (rows * n, cols * n).  In its
    first rows * n columns the entries below the diagonal are copies of
    those above it.
    """
    rows, k, n, w = band.shape
    # the slots (i, e) and (j, dj) whose columns i', j' lie in the block
    ii = np.arange(rows)[:, None] + np.arange(k)
    jj = np.arange(n)[:, None] + np.arange(w) - w // 2
    i, e = np.nonzero(ii < cols)
    j, dj = np.nonzero((jj >= 0) & (jj < n))
    block = np.zeros((rows, n, cols, n))
    block[i[:, None], j, ii[i, e][:, None], jj[j, dj]] = band[i[:, None],
                                                              e[:, None], j, dj]
    block = block.reshape(rows * n, cols * n)
    square = block[:, :rows * n]
    square[...] = np.triu(square) + np.triu(square, 1).T
    return block


def _upper_reads(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the slots of the rows of an upper band are read, and their columns.

    The slot (e, dj) of row (i, j) is the entry M[(i, j), (i + e,
    j + dj - p)] of ``mass_band``'s band.  ``reads[j, e, dj]`` is its
    position in the flattened band less that of row i's first entry, and
    ``cols[j, e, dj]`` its flat column less i n.
    """
    w = 2 * p + 1
    j = np.arange(n)[:, None, None]
    e = np.arange(p + 1)[:, None]
    dj = np.arange(w)
    return e * (n * w) + j * w + dj, (j + e * n + dj - p).astype(np.int32)


class PatchAssembler:
    """Quadrature data of one patch: the measure |det J| w at every point.

    The patch's one spline space S serves both directions, so one Gauss
    rule and one table of B-spline values on its cells do too.  Every
    integral is taken over all cells at once: the cells are leading array
    axes ``(ncu, ncv)`` and each cell's local B-spline products are
    contracted with one ``einsum``.  The physical points are formed only
    when a field is sampled, and the samples of the last field sampled
    are kept until the error reads them (``sample_physical``).
    """

    def __init__(self, patch: Patch, points_per_cell: int | None = None):
        self.patch = patch
        space = patch.space
        self.rule = space_rule(space,
                               points_per_cell or default_points_per_cell(space))
        # the rule along u and along v, under the names of the directions
        self.rule_u = self.rule_v = self.rule
        self.cells = _basis_on_cells(space, self.rule)
        self.n = space.dim
        self.p = space.degree
        # tensor indices (i, j) of the B-splines active on each cell
        active = self.cells.first[:, None] + np.arange(self.p + 1)
        self._cell_i = active[:, None, :, None]    # (ncu, 1, p+1, 1)
        self._cell_j = active[None, :, None, :]    # (1, ncv, 1, p+1)
        self.measure = self._measure()
        self._field = self._samples = None

    def _on_cells(self, coeffs: np.ndarray, du: int = 0, dv: int = 0,
                  ucells: slice = slice(None)) -> np.ndarray:
        """The tensor spline with coefficient grid ``coeffs`` (n, n, ...),
        or its derivative of order (du, dv) <= (1, 1), at every quadrature
        point of the u-cells ``ucells``, all by default: (ncu, ncv, q, r,
        ...) with ncu the number of those u-cells."""
        # (ncu, ncv, p+1, p+1, ...)
        local = coeffs[self._cell_i[ucells], self._cell_j]
        B = self.cells.values
        return np.einsum("uqa,uvab...,vrb->uvqr...", B[ucells, :, du], local,
                         B[:, :, dv], optimize=_CELL_PATH)

    def _measure(self) -> np.ndarray:
        """|det J| times the weights of the tensor rule at every quadrature
        point: (ncu, ncv, q, r).  J comes from the jets F_u and F_v alone,
        one contraction each."""
        cp = self.patch.control_points
        Fu, Fv = self._on_cells(cp, 1, 0), self._on_cells(cp, 0, 1)
        w = self.rule.weights
        return (w[:, None, :, None] * w[None, :, None, :]) * np.abs(
            Fu[..., 0] * Fv[..., 1] - Fu[..., 1] * Fv[..., 0])

    def mass_u_stage(self, rows: int | None = None) -> np.ndarray:
        """The u-stage of the sum-factorised mass, for the upper half only.

        Returns Y of shape (rows, p+1, ncv, r), rows = n by default:
        Y[i, e, c, t] is the integral along u of N_i N_{i+e} |det J| times
        the weights, at the v-point t of v-cell c.  The u-points are
        contracted per u-cell for the pairs (a, b), b >= a, of the
        B-splines active on it, and a cell whose first B-spline is f adds
        its pairs to the rows f..f+p of Y as one block, with zeros in the
        slots of the pairs it lacks.  Only the cells with f < ``rows``
        are contracted, so the first rows come from the first cells alone.
        """
        Bu = self.cells.values[:, :, 0]
        ncu, q, k = Bu.shape
        ncv, r = self.rule.weights.shape
        rows = self.n if rows is None else rows
        a, b = np.triu_indices(k)
        # pair (a, b) lands in row a, slot b - a of the cell's block
        T = np.zeros((ncu, q, k * k))
        T[:, :, a * k + b - a] = Bu[..., a] * Bu[..., b]
        W = self.measure.transpose(0, 2, 1, 3)
        Y = np.zeros((rows * k, ncv * r))
        for cell, f in enumerate(self.cells.first.tolist()):
            if f >= rows:
                break
            block = T[cell].T @ W[cell].reshape(q, ncv * r)
            Y[f * k:(f + k) * k] += block[:(min(f + k, rows) - f) * k]
        return Y.reshape(rows, k, ncv, r)

    def mass_band(self, u_stage: np.ndarray, lo: int, hi: int,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Rows lo <= i < hi of the weighted Gram matrix of the tensor
        B-splines, upper half in band form.

        Returns ``band`` of shape (hi - lo, p+1, n, 2p+1) with
        ``band[i - lo, e, j, dj]`` the entry M[(i, j), (i + e, j + dj - p)];
        it is zero for pairs that share no cell.  ``out``, of that shape,
        receives the rows if given.  The v-points of ``u_stage``
        (``mass_u_stage``) are contracted per v-cell for the
        pairs (c, d) of the B-splines active on it.  A cell whose first
        B-spline is f adds them to the slots (f + c, p - c + d), which lie
        2p apart per c in the flattened (j, dj) plane: one block of k 2p
        slots from (f, p), with zeros in the slots it lacks.  The
        lexicographically lower entries are read from their mirror images,
        M[(i, j), (i', j')] = M[(i', j'), (i, j)], so the slots e = 0,
        dj < p hold entries that are not used.
        """
        Bv = self.cells.values[:, :, 0]
        ncv, r, k = Bv.shape
        n, p = self.n, self.p
        w = 2 * p + 1
        rows = (hi - lo) * (p + 1)
        Y = u_stage[lo:hi].reshape(rows, ncv, r)
        c, d = np.divmod(np.arange(k * k), k)
        T = np.zeros((ncv, r, k * (w - 1)))
        T[:, :, c * (w - 1) + d] = (Bv[..., :, None] * Bv[..., None, :]).reshape(
            ncv, r, -1)
        if out is None:
            out = np.empty((hi - lo, p + 1, n, w))
        band = out.reshape(rows, n * w)
        band.fill(0.0)
        for cell, f in enumerate(self.cells.first.tolist()):
            start = f * w + p
            band[:, start:start + k * (w - 1)] += Y[:, cell] @ T[cell]
        return out

    def mass_1d(self) -> np.ndarray:
        """The parametric Gram matrix of the spline space, which is that of
        the u- and of the v-direction.

        A cell whose first B-spline is f adds its block to the rows f..f+p;
        row f + a of every cell is added at once, as the rows are distinct.
        """
        B = self.cells.values[:, :, 0]
        local = np.einsum("cqa,cq,cqb->cab", B, self.rule.weights, B)
        cols = self.cells.first[:, None] + np.arange(B.shape[-1])
        G = np.zeros((self.n, self.n))
        for a in range(B.shape[-1]):
            G[cols[:, a:a + 1], cols] += local[:, a]
        return G

    def sample_physical(self, f) -> np.ndarray:
        """f(x1, x2) sampled at every quadrature point: (ncu, ncv, q, r).

        The physical points are formed and f is evaluated in blocks of
        u-cells with about ``SAMPLE_BLOCK_BYTES`` of points (at least one
        u-cell), written into the samples.  The samples of the last field
        are kept, keyed by the field object, until ``integrate_sq_diff``
        reads them, so a field that is loaded and then measured is
        evaluated once.
        """
        if f is not self._field:
            self._field = self._samples = None
            samples = np.empty(self.measure.shape)
            ncu = len(samples)
            block = max(1, SAMPLE_BLOCK_BYTES // (16 * samples[0].size))
            for lo in range(0, ncu, block):
                cells = slice(lo, min(lo + block, ncu))
                x = self._on_cells(self.patch.control_points, ucells=cells)
                samples[cells] = f(x[..., 0], x[..., 1])
                del x
            self._samples, self._field = samples, f
        return self._samples

    def load(self, f=None, values: np.ndarray | None = None) -> np.ndarray:
        """Integrals of the field against every tensor B-spline.

        The field is either a physical-space callable ``f(x1, x2)`` or a
        precomputed per-quadrature-point value array ``values``.
        """
        if values is None:
            values = self.sample_physical(f)
        B = self.cells.values[:, :, 0]
        local = np.einsum("uqa,uvqr,vrc->uvac", B, self.measure * values, B,
                          optimize=_CELL_PATH)
        # flat indices i n + j of the B-splines active on each cell
        dofs = self._cell_i * self.n + self._cell_j
        return np.bincount(dofs.ravel(), local.ravel(),
                           minlength=self.n * self.n)

    def integrate_sq_diff(self, coeffs_flat: np.ndarray,
                          f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                          ) -> tuple[float, float]:
        """(||g - f||^2, ||f||^2) over the patch.

        Each integrand is formed in place in one C-ordered array, so its
        sum runs in one fixed order, whatever layout the einsum gives g.
        """
        g = self._on_cells(coeffs_flat.reshape(self.n, self.n))
        W = self.measure
        samples = self.sample_physical(f)
        # the error is the last reader of the samples
        self._field = self._samples = None
        return (_weighted_sum_sq(W, g, samples),
                _weighted_sum_sq(W, samples, 0.0))


def _weighted_sum_sq(W: np.ndarray, a: np.ndarray, b) -> float:
    """sum W (a - b)^2, the integrand formed in place in one C-ordered
    array and summed in that order."""
    d = np.subtract(a, b, order="C")
    d *= d
    d *= W
    return float(d.sum())


# ---------------------------------------------------------------------------
# assembly over the whole two-patch domain


@dataclass(frozen=True)
class MassLayout:
    """Block layout of a two-patch mass matrix (see ``DomainAssembler``).

    The first ``interface`` unknowns are the interface basis.  The interior
    grids of L and R follow, the same tensor grid in both patches, whose
    parametric 1D Gram matrices (M_u, M_v) are ``grams``.
    """

    interface: int
    grams: tuple[np.ndarray, np.ndarray]


class TwoPatchMass:
    """A symmetric two-patch mass matrix M, stored as its upper triangle.

    ``upper`` is U, the entries of M on and above the diagonal, in CSR
    arrays whose every row starts with its diagonal entry (Saad,
    "Iterative Methods for Sparse Linear Systems", 2003, sec. 3.4); M
    carries its ``MassLayout``, or None.  M is applied as
    M x = U x + U^T x - diag(M) x, with U^T the CSC view ``upper.T`` of
    the same arrays, so no product copies anything of size nnz.  The
    solver reads the upper rows in place (``row_block``) and principal
    submatrices (``principal``); ``toarray`` is the dense M.  It is not a
    scipy matrix, so no method of one acts on the triangle as if it were M.
    """

    def __init__(self, upper: sp.csr_matrix, layout: MassLayout | None = None):
        n = upper.shape[0]
        if upper.shape != (n, n) or not (
                (np.diff(upper.indptr) > 0).all()
                and np.array_equal(upper.indices[upper.indptr[:-1]],
                                   np.arange(n))):
            raise ValueError("each row of the upper triangle must start "
                             "with its diagonal entry")
        self.upper = upper
        self.layout = layout
        self.shape = upper.shape
        self.dtype = upper.dtype
        self._diag = self.diagonal()
        self._transpose = upper.T

    @property
    def nnz(self) -> int:
        """The stored entries of the full matrix M."""
        return 2 * self.upper.nnz - self.shape[0]

    def diagonal(self) -> np.ndarray:
        """diag(M), the first stored entry of each row (O(n))."""
        return self.upper.data[self.upper.indptr[:-1]]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """M x for x of shape (n,) or (n, k): U x + U^T x - diag(M) x."""
        x = np.asarray(x)
        y = self.upper @ x
        y += self._transpose @ x
        y -= self._diag.reshape((-1,) + (1,) * (x.ndim - 1)) * x
        return y

    def toarray(self) -> np.ndarray:
        """The dense M, each entry below the diagonal copied from above."""
        M = self.upper.toarray()
        M += np.triu(M, 1).T
        return M

    def row_block(self, lo: int, hi: int) -> sp.csr_matrix:
        """Rows lo <= i < hi of U as a CSR matrix over U's arrays.

        Nothing of size nnz is copied: ``data`` and ``indices`` are
        read-only views, and only the block's ``indptr`` is new.  Each row
        keeps the order of its entries, so a product sums it as one with
        ``upper[lo:hi]`` does.  The constructor is not given the views,
        since it copies slices much smaller than their base.
        """
        U = self.upper
        start, stop = U.indptr[lo], U.indptr[hi]
        block = sp.csr_matrix((hi - lo, self.shape[1]), dtype=self.dtype)
        block.data = U.data[start:stop]
        block.indices = U.indices[start:stop]
        block.indptr = U.indptr[lo:hi + 1] - start
        for a in (block.data, block.indices):
            a.flags.writeable = False
        return block

    def principal(self, unknowns: np.ndarray) -> TwoPatchMass:
        """The principal submatrix of M over the sorted ``unknowns``, with
        no layout: the upper triangle of the rows of U that they span, read
        in place, over the ``unknowns``."""
        lo = unknowns[0]
        span = self.row_block(lo, unknowns[-1] + 1)
        return TwoPatchMass(span[:, unknowns][unknowns - lo])


class DomainAssembler:
    """Mass/load assembly for a smooth basis over a two-patch geometry.

    The unknowns of the smooth space are the interface basis, in family
    order, then the tensor B-splines of the u-rows i >= 3 of patch L, which
    the interface leaves untouched, then those of patch R: the slices
    ``interiors[s]``.  A patch grid, flattened (i, j) -> i n + j, maps to
    them through C_s: its first 3n entries (the u-rows i < 3) through the
    interface rows A_s of the basis (``basis.A_L``, ``basis.A_R``), the
    others one to one onto ``interiors[s]``.
    """

    def __init__(self, F: TwoPatchGeometry, basis: SmoothBasis,
                 points_per_cell: int | None = None):
        self.F = F
        self.basis = basis
        self.asm = {side: PatchAssembler(F.patch(side), points_per_cell)
                    for side in F.sides}
        m, n = basis.num_basis, basis.n
        n_int = (n - INTERFACE_ROWS) * n
        self.dim = m + 2 * n_int
        self.interiors = {"L": slice(m, m + n_int),
                          "R": slice(m + n_int, self.dim)}
        self._maps = {"L": basis.A_L, "R": basis.A_R}

    def mass(self) -> TwoPatchMass:
        """Mass matrix of the full smooth space, C_L M_L C_L^T + C_R M_R C_R^T.

        Its upper triangle is written once into preallocated CSR arrays.
        The first rows hold the upper triangle of the interface block
        sum_s A_s M_s[:3n, :3n] A_s^T (dense, its zeros dropped) and the
        couplings A_s M_s[:3n, 3n:] of the interface basis with the first
        interior rows of each patch; the interior band rows of L and then R
        follow, each from its diagonal on.  The interface rows come first,
        from the u-stage rows of the first cells, and with them the count
        of every row.  Then each patch in turn builds its u-stage and its
        interior band in blocks of ``BAND_BLOCK_BYTES`` (at least one
        u-row), each written straight into its rows: the slots of the band
        on and above the diagonal, which is all a band row holds but the
        slots e = 0, dj < p.
        """
        m, n = self.basis.num_basis, self.basis.n
        nr = INTERFACE_ROWS
        offsets = {s: block.start for s, block in self.interiors.items()}
        space = self.F.space
        p = space.degree
        # stored slots (e, dj) of the interior rows, the same in both
        # patches: the pairs sharing a cell, on or above the diagonal
        keep_v = space.overlap()
        # the interior u-rows nr..nr+c-1 share cells with the interface
        # rows, those that share one with u-row nr-1
        c = int(np.count_nonzero(keep_v[nr - 1, p + 1:]))
        keep_u = keep_v[nr:, p:]
        upper = (np.arange(p + 1)[:, None] > 0) | (np.arange(2 * p + 1) >= p)
        interior_counts = (keep_u.astype(np.int64)
                           @ (upper.astype(np.int64) @ keep_v.T)).ravel()
        iface = np.zeros((m, m))
        couples = []
        for s, A in self._maps.items():
            pa = self.asm[s]
            T = A @ _band_block(pa.mass_band(pa.mass_u_stage(nr), 0, nr), nr + c)
            iface += T[:, :nr * n] @ A.T
            # a copy, so that T is not kept
            couples.append(T[:, nr * n:].copy())
        del T
        first = np.hstack([np.triu(iface)] + couples)
        del iface, couples
        keep = first != 0.0
        dim = self.dim
        indptr = np.zeros(dim + 1, dtype=np.int64)
        np.cumsum(np.concatenate([keep.sum(axis=1), interior_counts,
                                  interior_counts]), out=indptr[1:])
        data = np.empty(indptr[-1])
        indices = np.empty(indptr[-1], dtype=np.int32)
        data[:indptr[m]] = first[keep]
        first_cols = np.concatenate(
            [np.arange(m)] + [offset + np.arange(c * n)
                              for offset in offsets.values()]).astype(np.int32)
        indices[:indptr[m]] = np.broadcast_to(first_cols, keep.shape)[keep]
        del first, keep, first_cols
        # the reads and columns of the stored slots of each u-row; the
        # u-rows with the same slots share them
        reads, cols = _upper_reads(n, p)
        patterns, slots = {}, []
        for i in range(n - nr):
            key = keep_u[i].tobytes()
            if key not in patterns:
                mask = keep_v[:, None, :] & (keep_u[i][:, None] & upper)
                patterns[key] = reads[mask], cols[mask]
            slots.append(patterns[key])
        # the band entries of one u-row
        rs = (p + 1) * n * (2 * p + 1)
        block = min(max(1, BAND_BLOCK_BYTES // (8 * rs)), n - nr)
        buf = np.empty(block * rs)
        for s, offset in offsets.items():
            pa = self.asm[s]
            u_stage = pa.mass_u_stage()
            for lo in range(nr, n, block):
                hi = min(lo + block, n)
                pa.mass_band(u_stage, lo, hi, out=buf[:(hi - lo) * rs]
                             .reshape(hi - lo, p + 1, n, -1))
                for i in range(lo - nr, hi - nr):
                    row = slice(indptr[offset + i * n],
                                indptr[offset + (i + 1) * n])
                    read, row_cols = slots[i]
                    buf.take(read + (i + nr - lo) * rs, out=data[row])
                    np.add(row_cols, offset + i * n, out=indices[row])
            # the next patch's u-stage is built without this one alive
            del u_stage
        # both interiors are the grid S x S less the u-rows i < nr
        G = self.asm["L"].mass_1d()
        return TwoPatchMass(sp.csr_matrix((data, indices, indptr),
                                          shape=(dim, dim)),
                            MassLayout(m, (G[nr:, nr:], G)))

    def from_patches(self, vectors: dict[str, np.ndarray]) -> np.ndarray:
        """C_L v_L + C_R v_R for the patch vectors v_s of ``vectors``, keyed
        by side, such as the loads of the tensor B-splines."""
        m, head = self.basis.num_basis, INTERFACE_ROWS * self.basis.n
        b = np.zeros(self.dim)
        for s, v in vectors.items():
            b[:m] += self._maps[s] @ v[:head]
            b[self.interiors[s]] = v[head:]
        return b

    def load(self, f) -> np.ndarray:
        return self.from_patches({s: self.asm[s].load(f) for s in self.F.sides})

    def patch_coefficients(self, b: np.ndarray, side: str) -> np.ndarray:
        """C_s^T b: the coefficient grid of patch ``side``, flattened."""
        m = self.basis.num_basis
        return np.concatenate([self._maps[side].T @ b[:m],
                               b[self.interiors[side]]])

    def relative_l2_error(self, b: np.ndarray, f) -> float:
        err = 0.0
        ref = 0.0
        for s in ("L", "R"):
            e, r = self.asm[s].integrate_sq_diff(self.patch_coefficients(b, s), f)
            err += e
            ref += r
        return float(np.sqrt(err / ref))


class KroneckerPreconditioner:
    """The exact inverse of a block approximation B of a scaled two-patch
    mass A (diag(A) = 1), over the interface I and the interiors L and R.

    B keeps the interface block A_II and its couplings C = A_IK with the
    interiors K = (L, R), and replaces each interior block, a tensor grid,
    as in Loli, Sangalli & Tani ("Easy and efficient preconditioning of the
    isogeometric mass matrix", CAMWA 2022), by K_s = W^(-1) (M_u (x) M_v)
    W^(-1) with W^2 = diag(M_u (x) M_v).  The interiors do not couple each
    other, and B^(-1) is applied by block elimination with the Schur
    complement S = A_II - C K^(-1) C^T (Saad, "Iterative Methods for Sparse
    Linear Systems", 2003, ch. 14):

        y_I = S^(-1) (r_I - C K^(-1) r_K),  y_K = K^(-1) (r_K - C^T y_I).

    B is symmetric, and positive definite exactly when S is.  The interior
    unknowns that couple with the interface lie in the first c <= p u-rows
    of each interior, so C K^(-1) r_K reads c rows of M_u^(-1), and S is
    formed once from those unknowns alone, where
    K^(-1)[a, b] = w_a w_b (M_u^(-1))[i_a, i_b] (M_v^(-1))[j_a, j_b], and
    factored by Cholesky.  Both interiors have the same grid and 1D Gram
    matrices, so K_L = K_R, M_u and M_v are inverted once, and each product
    with them serves both interiors.  The couplings are one dense block
    over the interior unknowns that touch the interface.
    """

    def __init__(self, M: TwoPatchMass, scale: np.ndarray, layout: MassLayout):
        m = layout.interface
        # A_II, and the couplings of the interface rows with the interior
        # columns they reach, read in place from M's upper triangle and
        # scaled in place, each entry times s_i s_j as in A
        schur = _scaled_block(M, scale, np.arange(m))
        rows = M.row_block(0, m)
        touched = np.zeros(M.shape[0], dtype=bool)
        touched[rows.indices] = True
        touched[:m] = False
        coupled = np.flatnonzero(touched)
        self._coupling = rows[:, coupled].toarray()
        self._coupling *= scale[:m, None] * scale[coupled]
        # the interior unknowns that couple with the interface
        self.coupled = coupled
        self.layout = layout
        # the two interiors: one tensor grid and one pair of Gram matrices,
        # inverted once
        Mu, Mv = layout.grams
        nu, nv = len(Mu), len(Mv)
        size = nu * nv
        self.interiors = (slice(m, m + size), slice(m + size, m + 2 * size))
        # W on both interiors, which lie one after the other
        w = np.sqrt(np.outer(Mu.diagonal(), Mv.diagonal())).ravel()
        self._w = np.tile(w, 2)
        self._Iu, self._Iv = np.linalg.inv(Mu), np.linalg.inv(Mv)
        # the interior work arrays, W r_K and M_u^(-1) W r_K on both
        # interiors, kept for every call
        self._work = np.empty(len(self._w)), np.empty((2, nu, nv))
        # the coupled unknowns: their indices in both interiors, W there,
        # and their indices in the first c u-rows of both
        self._flat = coupled - m
        self._w_coupled = self._w[self._flat]
        interior, grid = np.divmod(self._flat, size)
        self._c = c = int(grid.max()) // nv + 1 if len(grid) else 0
        self._near = interior * c * nv + grid
        # S = A_II - C K^(-1) C^T, from X = W C^T on the first c u-rows of
        # both interiors and Z = (M_u^(-1) (x) M_v^(-1)) X, each formed one
        # interior at a time; X Z^T stays one product, since a sum of one
        # per interior would move the last bits of S
        X = np.zeros((m, 2, c * nv))
        Z = np.empty((m, 2, c, nv))
        bounds = np.searchsorted(interior, [0, 1, 2])
        for k in range(2):
            cols = slice(bounds[k], bounds[k + 1])
            X[:, k, grid[cols]] = self._coupling[:, cols] * self._w_coupled[cols]
            np.matmul(self._Iu[:c, :c],
                      X[:, k].reshape(m, c, nv) @ self._Iv.T, out=Z[:, k])
        schur -= X.reshape(m, -1) @ Z.reshape(m, -1).T
        try:
            self._schur, _ = sla.cho_factor(schur, lower=True,
                                            check_finite=False)
        except np.linalg.LinAlgError:
            raise ValueError(
                "preconditioner is not positive definite: the interface's "
                "Schur complement S = A_II - C K^(-1) C^T has a nonpositive "
                "pivot") from None
        # S^(-1) is applied by LAPACK potrs on the factor, without the
        # checks of scipy's cho_solve
        self._potrs, = sla.get_lapack_funcs(("potrs",), (self._schur,))

    def schur_complement(self) -> np.ndarray:
        """S = L L^T from its Cholesky factor L."""
        L = np.tril(self._schur)
        return L @ L.T

    def _grid_solve(self, z: np.ndarray, rows: int,
                    work: np.ndarray | None = None) -> np.ndarray:
        """(M_u^(-1) (x) M_v^(-1)) z on both interiors, for z of shape
        (n - m,): its first ``rows`` u-rows in each, flattened.  With
        ``work``, of shape (2, nu, nv), all rows are formed in ``work`` and
        then in z, which is returned."""
        Iu, Iv = self._Iu, self._Iv
        x = z.reshape(2, len(Iu), len(Iv))
        if work is None:
            return (Iu[:rows] @ x @ Iv.T).ravel()
        np.matmul(Iu, x, out=work)
        np.matmul(work, Iv.T, out=x)
        return z

    def __call__(self, r: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
        """B^(-1) r for a vector r, written into ``out``, a C-contiguous
        vector, if given.

        The interior work arrays are kept from call to call, so B^(-1) r
        allocates nothing of size n but its result, and nothing with
        ``out``; calls must not overlap.
        """
        m, w, w_coupled = self.layout.interface, self._w, self._w_coupled
        z, work = self._work
        np.multiply(w, r[m:], out=z)
        # K^(-1) r_K on the coupled unknowns, from the first c u-rows
        coupled = w_coupled * self._grid_solve(z, self._c)[self._near]
        y = np.empty_like(r) if out is None else out
        y[:m], info = self._potrs(self._schur, r[:m] - self._coupling @ coupled,
                                  lower=True, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
        z[self._flat] -= w_coupled * (self._coupling.T @ y[:m])
        np.multiply(w, self._grid_solve(z, len(self._Iu), work), out=y[m:])
        return y

    def extend(self, x_I: np.ndarray) -> np.ndarray:
        """x_I on the interface, extended into the interiors by
        x_K = -K^(-1) C^T x_I."""
        z = np.zeros(len(self._w))
        z[self._flat] = -(self._w_coupled * (self._coupling.T @ x_I))
        x_K = self._w * self._grid_solve(z, len(self._Iu))
        return np.concatenate([x_I, x_K])


def _scaled_product(M: TwoPatchMass, scale: np.ndarray
                    ) -> Callable[[np.ndarray], np.ndarray]:
    """x -> A x = s * (M (s * x)) for vectors x, with A = S M S.

    The function holds M and s, not the ``SPDFactor`` that keeps it, so no
    reference cycle keeps a factor, or its M, alive once its last
    reference goes.
    """
    def product(x: np.ndarray) -> np.ndarray:
        y = M @ (scale * x)
        y *= scale
        return y

    return product


def _scaled_block(M: TwoPatchMass, scale: np.ndarray,
                  unknowns: np.ndarray) -> np.ndarray:
    """The dense principal submatrix of A = S M S over the sorted
    ``unknowns``, each entry M_ij times s_i s_j."""
    s = scale[unknowns]
    block = M.principal(unknowns).toarray()
    block *= s[:, None] * s
    return block


class SPDFactor:
    """Solves and the condition number of a symmetric positive definite
    two-patch mass M (``TwoPatchMass``).

    The matrix is scaled diagonally, A = S M S with S = diag(M)^(-1/2).  A
    mass of ``KRONECKER_CUTOFF`` or more unknowns with a ``MassLayout`` is
    not factored, nor copied: A is applied as s * (M (s * x)), solves run
    preconditioned CG and lambda_min comes from LOBPCG, both with a
    ``KroneckerPreconditioner``, which eliminates the interface exactly
    against Kronecker approximations of the two patch interiors.  An
    iteration that does not converge within ``ITERATION_CAP`` steps raises
    ``ValueError``.  A smaller mass, or a principal submatrix with no
    layout, is scaled into a dense copy ``A`` and factored by Cholesky;
    each s_i s_j is formed before it multiplies M_ij, so A is exactly
    symmetric, as M is.  A matrix that is not positive definite raises
    ``ValueError``: Cholesky fails, CG meets a direction of nonpositive
    curvature, or LOBPCG a Rayleigh quotient <= 0; so does a preconditioner
    whose Schur complement is not positive definite.  An eigenvalue of the
    condition number that a Rayleigh quotient of its start shows to be no
    extreme one raises ``ValueError`` too.
    """

    def __init__(self, M: TwoPatchMass):
        d = M.diagonal()
        if not (d > 0.0).all():
            raise ValueError("matrix has a nonpositive diagonal entry")
        self.scale = 1.0 / np.sqrt(d)
        self._M = M
        self._precond = None
        if M.layout is not None and M.shape[0] >= KRONECKER_CUTOFF:
            self._product = _scaled_product(M, self.scale)
            self._precond = KroneckerPreconditioner(M, self.scale, M.layout)
        else:
            self.A = M.toarray() * np.outer(self.scale, self.scale)
            self._product = self.A.__matmul__
            try:
                self._cho = sla.cho_factor(self.A)
            except np.linalg.LinAlgError:
                raise ValueError(
                    "matrix is not positive definite") from None

    def _pcg(self, b: np.ndarray) -> np.ndarray:
        """A^(-1) b by preconditioned CG.

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
        # alpha p, alpha q and the unscaled residual, in turn
        step = np.empty_like(b)
        rz = r @ z
        for _ in range(ITERATION_CAP):
            q = self._product(p)
            curvature = p @ q
            if curvature <= 0.0:
                raise ValueError("matrix is not positive definite")
            alpha = rz / curvature
            x += np.multiply(alpha, p, out=step)
            r -= np.multiply(alpha, q, out=step)
            del q
            if np.linalg.norm(np.divide(r, self.scale, out=step)) <= stop:
                return x
            self._precond(r, out=z)
            rz, rz_old = r @ z, rz
            # p = z + beta p, in place
            p *= rz / rz_old
            p += z
        raise ValueError(
            f"PCG did not converge within {ITERATION_CAP} iterations")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^(-1) rhs for a right-hand side of shape (n,) or (n, m)."""
        s = self.scale.reshape((-1,) + (1,) * (np.ndim(rhs) - 1))
        b = s * rhs
        if self._precond is None:
            return s * sla.cho_solve(self._cho, b)
        cols = [self._pcg(c) for c in b.reshape(len(b), -1).T]
        return s * np.stack(cols, axis=1).reshape(b.shape)

    def _corners(self, size: int) -> np.ndarray:
        """The unknowns of the four outer corners of the interiors, one row
        each: the last ``size`` u-rows (away from the interface) of one
        interior by its first or last ``size`` v-columns, fewer where the
        grid is smaller."""
        P = self._precond
        nu, nv = (len(G) for G in P.layout.grams)
        cu, cv = min(size, nu), min(size, nv)
        last = (nu - cu + np.arange(cu))[:, None] * nv
        return np.stack([block.start + (last + j + np.arange(cv)).ravel()
                         for block in P.interiors for j in (0, nv - cv)])

    def _top_corner(self) -> tuple[np.ndarray, np.ndarray, float, int]:
        """The outer-corner principal submatrix of A whose top eigenvalue is
        the largest of the four: its unknowns, top eigenvector, top
        eigenvalue and its row in ``_corners``.

        A corner is p + 4 unknowns each way: the p + 1 B-splines that share
        a cell with the last one, and three more.
        """
        Mv = self._precond.layout.grams[1]
        corners = self._corners(np.count_nonzero(Mv[-1]) + 3)
        k = corners.shape[1]
        # one corner at a time, so that no dense temporary spans all four
        pairs = [sla.eigh(_scaled_block(self._M, self.scale, corner),
                          subset_by_index=[k - 1, k - 1])
                 for corner in corners]
        top = int(np.argmax([value[0] for value, _ in pairs]))
        value, vector = pairs[top]
        return corners[top], _signed(vector[:, 0]), float(value[0]), top

    def _corner_candidate(self) -> tuple[np.ndarray, float]:
        """The top corner's eigenvector (``_top_corner``), refined by
        ``lanczos_largest`` to a relative tolerance of 1e-4 on the principal
        submatrix of A over the 4 (p + 1) x 4 (p + 1) unknowns of the same
        corner, zero-extended; and its Rayleigh quotient in A."""
        corner, vector, _, top = self._top_corner()
        Mv = self._precond.layout.grams[1]
        block = self._corners(4 * np.count_nonzero(Mv[-1]))[top]
        apply = _scaled_product(self._M.principal(block), self.scale[block])
        start = np.zeros(len(block))
        start[np.searchsorted(block, corner)] = vector
        _, x = lanczos_largest(apply, start, 1e-4, ritz_vector=True)
        extended = np.zeros(len(self.scale))
        extended[block] = x
        return extended, float(x @ apply(x) / (x @ x))

    def _interface_candidate(self) -> tuple[np.ndarray, float]:
        """The top eigenvector (theta, x_I) of A_II, extended into the
        interiors by two steps x_K <- (A x)_K / (theta - 1); and its
        Rayleigh quotient in A.

        The steps reach the interior unknowns that couple with the
        interface, then those that couple with them: (A x)_K is zero
        elsewhere, so x stays zero there.
        """
        m = self._precond.layout.interface
        value, vector = sla.eigh(_scaled_block(self._M, self.scale,
                                               np.arange(m)),
                                 subset_by_index=[m - 1, m - 1])
        x = np.zeros(len(self.scale))
        x[:m] = _signed(vector[:, 0])
        # theta = 1 only where A_II = I
        for _ in range(2 if value[0] > 1.0 else 0):
            x[m:] = self._product(x)[m:] / (value[0] - 1.0)
        return x, float(x @ self._product(x) / (x @ x))

    def _top_start(self, v0: np.ndarray) -> tuple[np.ndarray, float]:
        """lambda_max's start on the preconditioned path, and a Rayleigh
        quotient of A, which bounds lambda_max from below.

        Of the two candidates, the refined top corner
        (``_corner_candidate``) and A_II's extended top eigenvector
        (``_interface_candidate``), the one with the larger Rayleigh
        quotient in A, normalised, plus 1e-3 of v0, normalised, so that the
        Krylov space holds every direction.  The bound is that quotient.
        """
        x, floor = max(self._corner_candidate(), self._interface_candidate(),
                       key=lambda pair: pair[1])
        return (x / np.linalg.norm(x)
                + (1e-3 / np.linalg.norm(v0)) * v0), floor

    def _low_start(self, v0: np.ndarray) -> tuple[np.ndarray, float]:
        """LOBPCG's start on the preconditioned path, and a Rayleigh
        quotient of A, which bounds lambda_min from above.

        The lowest eigenvector x_I of the preconditioner's Schur complement
        S is extended into the interiors by x_K = -K^(-1) C^T x_I
        (``KroneckerPreconditioner.extend``).  When its Rayleigh quotient
        in A is below that of the interiors' lowest Kronecker mode
        e_u (x) e_v, on both interiors, the start is that extension,
        normalised, plus 1e-3 of v0, normalised; otherwise it is v0.  The
        bound is the lesser of the two quotients.
        """
        P = self._precond
        vector = sla.eigh(P.schur_complement(), subset_by_index=[0, 0])[1]
        extended = P.extend(_signed(vector[:, 0]))
        # K_s = G_u (x) G_v with G the Jacobi-scaled 1D Gram matrices
        e_u, e_v = (sla.eigh(G / np.sqrt(np.outer(G.diagonal(), G.diagonal())),
                             subset_by_index=[0, 0])[1][:, 0]
                    for G in P.layout.grams)
        mode = np.zeros_like(v0)
        for block in P.interiors:
            mode[block] = np.outer(e_u, e_v).ravel()
        q_ext, q_mode = (x @ self._product(x) / (x @ x)
                         for x in (extended, mode))
        ceiling = float(min(q_ext, q_mode))
        if q_ext < q_mode:
            return (extended / np.linalg.norm(extended)
                    + (1e-3 / np.linalg.norm(v0)) * v0), ceiling
        return v0, ceiling

    def _inverse_smallest(self, v0: np.ndarray) -> float:
        """1 / lambda_min of A by ``lobpcg_smallest``, preconditioned, from
        ``_low_start(v0)``.

        A lambda that lies above the start's Rayleigh quotient by more than
        the residual norm is not lambda_min, and raises.
        """
        start, ceiling = self._low_start(v0)
        lam = lobpcg_smallest(self._product, self._precond, start, LOBPCG_TOL)
        # an eigenvalue lies within the residual norm of lam
        if lam - LOBPCG_TOL > ceiling:
            raise ValueError(
                f"LOBPCG missed lambda_min: {lam!r} lies above "
                f"the Rayleigh quotient {ceiling!r}")
        return 1.0 / lam

    def _largest(self, start: np.ndarray, floor: float) -> float:
        """lambda_max of A by ``lanczos_largest``, from ``start``.

        ``floor`` is a Rayleigh quotient of A (``_top_start``).  A theta that
        lies below it by more than the stop rule's tolerance is not
        lambda_max, and raises.
        """
        theta = lanczos_largest(self._product, start, LANCZOS_TOL)
        # the stop rule puts an eigenvalue within LANCZOS_TOL theta of theta
        if theta * (1.0 + LANCZOS_TOL) < floor:
            raise ValueError(
                f"Lanczos missed lambda_max: {theta!r} lies below the "
                f"Rayleigh quotient {floor!r}")
        return theta

    def condition_number(self) -> float:
        """Condition number of A, lambda_max / lambda_min.

        ``lanczos_largest`` finds lambda_max of A to the relative tolerance
        ``LANCZOS_TOL``.
        1 / lambda_min comes from ``lobpcg_smallest`` (absolute residual
        ``LOBPCG_TOL``) when A is preconditioned, and otherwise is the
        largest eigenvalue of A^(-1), found the same way through the
        Cholesky factor.  Where A is
        factored, both start from a seeded random vector v0.  On the
        preconditioned path each starts where its eigenvector lives
        (``_top_start``, ``_low_start``), with a part of v0, and a result
        beyond a Rayleigh quotient of A raises ``ValueError``; both run side
        by side when ``blas.can_overlap()``, with the same result as one
        after the other.
        """
        v0 = np.random.default_rng(0).standard_normal(len(self.scale))
        if self._precond is None:
            # the factor was checked once; the Lanczos vectors are finite
            inverse_min = partial(lanczos_largest, lambda y: sla.cho_solve(
                self._cho, y, check_finite=False), v0, LANCZOS_TOL)
            largest = partial(lanczos_largest, self._product, v0, LANCZOS_TOL)
        else:
            inverse_min = partial(self._inverse_smallest, v0)
            # lambda_max's start is built on this thread, so that the worker
            # runs the recurrence alone: LAPACK calls on the worker would
            # give it a buffer of its own in each BLAS library, ~2 MB more
            # resident
            largest = partial(self._largest, *self._top_start(v0))
        if self._precond is not None and blas.can_overlap():
            # lambda_max on a worker thread, joined before this returns or
            # raises
            with ThreadPoolExecutor(max_workers=1) as worker:
                future = worker.submit(largest)
                return float(inverse_min() * future.result())
        return float(inverse_min() * largest())


def _signed(v: np.ndarray) -> np.ndarray:
    """The eigenvector v with its entry of largest magnitude positive, so
    that a start does not depend on the sign LAPACK returns."""
    return v if v[np.argmax(np.abs(v))] > 0.0 else -v


def lanczos_largest(apply: Callable[[np.ndarray], np.ndarray],
                    v0: np.ndarray, tol: float, ritz_vector: bool = False
                    ) -> float | tuple[float, np.ndarray]:
    """Largest eigenvalue of the symmetric operator ``apply``, from v0.

    Three-term Lanczos recurrence, not reorthogonalised: the top Ritz value
    still converges and its Ritz estimate beta_k |s_k| stays exact (Paige,
    LAA 1980).  Every ``LANCZOS_CHECK`` steps it stops if the top Ritz pair
    (theta, s) of the tridiagonal matrix meets ARPACK's rule for
    ``which="LA"``, beta_k |s_k| <= tol |theta|; a zero beta_k leaves theta
    exact.  Past ``LANCZOS_CAP`` steps it raises.  With ``ritz_vector`` it
    keeps the Lanczos vectors q_i and returns (theta, sum_i s_i q_i).
    """
    q, q_prev, b = v0 / np.linalg.norm(v0), 0.0, 0.0
    alpha, beta, basis = [], [], []
    for k in range(1, LANCZOS_CAP + 1):
        if ritz_vector:
            basis.append(q)
        w = apply(q)
        alpha.append(q @ w)
        # w -= alpha_k q + b q_prev, the sum formed in place
        step = alpha[-1] * q
        step += b * q_prev
        w -= step
        del step
        b = np.linalg.norm(w)
        if b == 0.0 or k % LANCZOS_CHECK == 0:
            theta, s = sla.eigh_tridiagonal(alpha, beta, select="i",
                                            select_range=(k - 1, k - 1))
            if b * abs(s[-1, 0]) <= tol * abs(theta[0]):
                if ritz_vector:
                    return float(theta[0]), s[:, 0] @ np.array(basis)
                return float(theta[0])
        beta.append(b)
        w /= b
        q_prev, q = q, w
    raise ValueError(f"Lanczos did not converge within {LANCZOS_CAP} steps")


def lobpcg_smallest(apply: Callable[[np.ndarray], np.ndarray],
                    precondition: Callable[[np.ndarray], np.ndarray],
                    x0: np.ndarray, tol: float) -> float:
    """Smallest eigenvalue of the symmetric positive definite operator
    ``apply``, from x0, by single-vector preconditioned LOBPCG.

    Each step takes the lowest Ritz pair of A over the basis [x, w, p]
    (Knyazev, SIAM J. Sci. Comput. 23, 2001): the iterate x, the
    preconditioned residual w = T (A x - lambda x), orthogonalised against
    x, and the last step's direction p = x_new - c_x x, w and p normalised.
    A 3 x 3 Gram matrix that is not positive definite drops p for that step
    (Hetmaniuk & Lehoucq, J. Comput. Phys. 218, 2006).  x, A x, p and A p
    are updated in place from w and A w, so a step applies A and T once
    each; ``precondition`` returns T r in an array that the iteration may
    overwrite.  It stops when ||A x - lambda x|| <= tol for the Rayleigh
    quotient lambda of x, and raises ``ValueError`` past ``ITERATION_CAP``
    steps, or at a Rayleigh quotient <= 0, which shows that A is not
    positive definite.  x0 is not written to.
    """
    x = x0 / np.linalg.norm(x0)
    Ax = apply(x)
    p = Ap = None
    for steps in range(ITERATION_CAP + 1):
        lam = float(x @ Ax)
        if lam <= 0.0:
            raise ValueError("matrix is not positive definite")
        r = np.multiply(lam, x)
        np.subtract(Ax, r, out=r)
        if np.linalg.norm(r) <= tol:
            return lam
        if steps == ITERATION_CAP:
            break
        w = precondition(r)
        del r
        w -= (x @ w) * x
        w /= np.linalg.norm(w)
        Aw = apply(w)
        basis, images = [x, w, p], [Ax, Aw, Ap]
        k = 2 if p is None else 3
        G, H = np.empty((k, k)), np.empty((k, k))
        for i in range(k):
            for j in range(i, k):
                G[i, j] = G[j, i] = basis[i] @ basis[j]
                H[i, j] = H[j, i] = basis[i] @ images[j]
        del basis, images
        try:
            c = sla.eigh(H, G, check_finite=False)[1][:, 0]
        except np.linalg.LinAlgError:
            if k == 2:
                raise
            c = sla.eigh(H[:2, :2], G[:2, :2], check_finite=False)[1][:, 0]
            p = Ap = None
        # p <- c_w w + c_p p and A p likewise, in place; p takes over w's
        # arrays where it was dropped
        w *= c[1]
        Aw *= c[1]
        if p is None:
            p, Ap = w, Aw
        else:
            p *= c[2]
            p += w
            Ap *= c[2]
            Ap += Aw
        del w, Aw
        x *= c[0]
        x += p
        Ax *= c[0]
        Ax += Ap
        for v, Av in ((x, Ax), (p, Ap)):
            norm = np.linalg.norm(v)
            v /= norm
            Av /= norm
    raise ValueError(f"LOBPCG did not converge within {ITERATION_CAP} iterations")


def solve_spd(M: TwoPatchMass, rhs: np.ndarray) -> np.ndarray:
    """M^(-1) rhs for an SPD matrix M (one ``SPDFactor``)."""
    return SPDFactor(M).solve(rhs)


def scaled_condition_number(M: TwoPatchMass) -> float:
    """Condition number of the diagonally scaled SPD matrix (see ``SPDFactor``)."""
    return SPDFactor(M).condition_number()


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


def check_study_input(F0: TwoPatchGeometry, space: str) -> None:
    """Raises ``ValueError`` unless ``convergence_study`` can start from the
    level-0 geometry ``F0`` in ``space``."""
    if space not in ("v2", "w2"):
        raise ValueError("space must be 'v2' or 'w2'")
    inner = F0.space.kv.inner_knots
    if inner:
        raise ValueError(
            f"the level-0 geometry must have no interior knots, got "
            f"{len(inner)}: {list(inner)}")


def convergence_study(F0: TwoPatchGeometry, gluing: GluingData, space: str,
                      levels: int, f, on_report=None) -> list[ApproxReport]:
    """Dyadic h-refinement study: levels L = 0..levels, k = 2^L - 1.

    The level-0 geometry ``F0``, which has no interior knots, is refined
    exactly by knot insertion; the gluing data is level-independent.  Each level's mass matrix gets one
    ``SPDFactor``, which serves the solve and the condition number: dense
    Cholesky below ``KRONECKER_CUTOFF`` unknowns (levels 0-2), the
    preconditioned iterations from there on.  A level's mass and factor are
    freed before the next level is built.  ``on_report`` is called with
    each finished per-level report, which allows callers to flush partial
    results.  Inputs that ``check_study_input`` rejects raise before any
    level.
    """
    check_study_input(F0, space)
    p = F0.space.degree
    base_r = 2
    reports: list[ApproxReport] = []
    prev_err = None
    prev_cond = None
    for L in range(levels + 1):
        k = 2 ** L - 1
        dim, err, cond = _study_level(F0, gluing, space, p, base_r, k, f)
        rate = None if prev_err is None else float(np.log2(prev_err / err))
        cond_rate = None if prev_cond is None else float(np.log2(prev_cond / cond))
        report = ApproxReport(L, dim_v1(p, base_r, k), dim,
                              err, rate, cond, cond_rate)
        reports.append(report)
        if on_report is not None:
            on_report(report)
        prev_err, prev_cond = err, cond
    return reports


def _study_level(F0: TwoPatchGeometry, gluing: GluingData, space: str,
                 p: int, base_r: int, k: int, f) -> tuple[int, float, float]:
    """One level of ``convergence_study``: (dim of the space, relative L2
    error, condition number).  Its basis, assembler, mass and factor are
    freed on return, before the next level is built."""
    kv = make_knot_vector(p, base_r, k, uniform_inner_knots(k))
    inv = gluing_invariants(gluing, kv)
    build = build_basis_v2 if space == "v2" else build_basis_w2
    basis = build(gluing, inv, p, base_r, k)
    asm = DomainAssembler(refine_geometry(F0, kv), basis)
    factor = SPDFactor(asm.mass())
    b = factor.solve(asm.load(f))
    return (basis.num_basis, asm.relative_l2_error(b, f),
            factor.condition_number())


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
    parameter domain instead).  Returns the assembler, the mass matrix and
    the loads of both input coordinates, shape (2, dim).
    """
    kv = make_knot_vector(5, 2, 0)
    basis = build_basis_v2(gluing, gluing_invariants(gluing, kv), 5, 2, 0)
    domain = represent_geometry(F_hat, kv) if weighted else _identity_geometry(kv)
    asm = DomainAssembler(domain, basis, FIT_POINTS_PER_CELL)
    values = {}
    for side, pa in asm.asm.items():
        # input patch on the quadrature grid, laid out (ncu, ncv, q, r, 2)
        values[side] = F_tilde.patch(side).eval(
            pa.rule.nodes, pa.rule.nodes).transpose(0, 2, 1, 3, 4)
    loads = np.stack([asm.from_patches({
        side: asm.asm[side].load(values=v[..., c]) for side, v in values.items()})
        for c in (0, 1)])
    return asm, asm.mass(), loads


def geometry_from_solutions(asm: DomainAssembler,
                            sol: np.ndarray) -> TwoPatchGeometry:
    """The geometry whose two coordinates have coefficient vectors ``sol``."""
    n = asm.basis.n
    space = asm.F.space
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
    return FitResult(fitted, discrete_relative_error(F_tilde, fitted))


def _identity_geometry(kv: KnotVector) -> TwoPatchGeometry:
    """Two unit-square patches mirrored across x = 0 (|det J| = 1)."""
    s = SplineSpace1D(kv)
    gx = s.interpolate(s.greville())
    cp_R = np.stack(np.meshgrid(gx, gx, indexing="ij"), axis=-1)
    cp_L = cp_R.copy()
    cp_L[:, :, 0] *= -1.0
    return TwoPatchGeometry(Patch(s, cp_L), Patch(s, cp_R))
