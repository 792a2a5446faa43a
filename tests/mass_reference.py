"""Frozen reference for the two-patch mass: the full-band builder and CSR
writer that the upper-half band replaced.  Each patch band is built over all
2p+1 x 2p+1 slots, its lower half is taken from a sliding-window mirror
view, and the CSR rows are gathered block by block and concatenated.  The
tests require the upper triangle that ``DomainAssembler.mass`` stores to
have the sparsity pattern of this matrix's upper triangle, and values
within 1e-15 of max |M|; its product is the reference for ``M @ x``.  The 1D Gram matrix is kept in band form
here, as the assembler kept it before it built it densely; the stored
slots are those whose 1D Gram entries are positive.  The sparse coefficient
matrices C_s of the smooth space (``full_space_matrices``) are those that
the assembler built before it mapped through the interface rows of the
basis and an index offset; they are the reference for its loads and patch
coefficients.
"""

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

INTERFACE_ROWS = 3


def band_scatter(first, X, out):
    """Add the cell blocks X[cell, a, b, ...] into ``out`` in band form."""
    p = X.shape[1] - 1
    for a in range(p + 1):
        out[first + a, p - a:2 * p + 1 - a] += X[:, a]
    return out


def gram_band(pa):
    """The parametric 1D Gram matrix (n, 2p+1) of a ``PatchAssembler`` in
    band form: entry [i, d] is the integral of N_i N_{i+d-p}."""
    B = pa.cells.values[:, :, 0]
    local = np.einsum("cqa,cq,cqb->cab", B, pa.rule.weights, B)
    return band_scatter(pa.cells.first, local,
                        np.zeros((pa.n, 2 * B.shape[-1] - 1)))


def band_to_dense(band):
    """The dense n x n matrix of a band (n, 2p+1)."""
    n, width = band.shape
    i = np.arange(n)[:, None]
    d = np.arange(n)[None, :] - i + width // 2
    inside = (d >= 0) & (d < width)
    return np.where(inside, band[i, d.clip(0, width - 1)], 0.0)


def band_block(band, rows, cols):
    """Dense M[(i, j), (i', j')] for i < rows and i' < cols of a tensor band."""
    _, n_v, wu, wv = band.shape
    i = np.arange(rows)[:, None, None, None]
    j = np.arange(n_v)[None, :, None, None]
    di = np.arange(cols)[None, None, :, None] - i + wu // 2
    dj = np.arange(n_v)[None, None, None, :] - j + wv // 2
    inside = (di >= 0) & (di < wu) & (dj >= 0) & (dj < wv)
    block = np.where(inside, band[i, j, di.clip(0, wu - 1), dj.clip(0, wv - 1)],
                     0.0)
    return block.reshape(rows * n_v, cols * n_v)


def band_offsets(n_v, wu, wv):
    """Flat column minus flat row of each band slot (di, dj): (wu * wv,)."""
    return ((np.arange(wu)[:, None] - wu // 2) * n_v
            + np.arange(wv)[None, :] - wv // 2).ravel()


def row_block(cols, vals, keep):
    """(entries per row, column indices, values) of a block of CSR rows."""
    keep = np.broadcast_to(keep, vals.shape)
    cols = np.broadcast_to(cols, vals.shape)[keep]
    return keep.sum(axis=1), cols.astype(np.int32, copy=False), vals[keep]


def mass_band(pa):
    """(band, keep) of shape (n_u, n_v, 2p_u+1, 2p_v+1) of a ``PatchAssembler``."""
    Bu = Bv = pa.cells.values[:, :, 0]
    ncu, q, ku = Bu.shape
    ncv, r, kv = Bv.shape
    n_u = n_v = pa.n
    pu = pv = pa.p
    Tu = (Bu[..., :, None] * Bu[..., None, :]).reshape(ncu, q, ku * ku)
    Tv = (Bv[..., :, None] * Bv[..., None, :]).reshape(ncv, r, kv * kv)
    W = pa.measure.transpose(0, 2, 1, 3)
    X = np.matmul(Tu.transpose(0, 2, 1), W.reshape(ncu, q, ncv * r))
    Y = band_scatter(pa.cells.first, X.reshape(ncu, ku, ku, ncv, r),
                     np.zeros((n_u, 2 * pu + 1, ncv, r)))
    Y = Y.transpose(2, 3, 0, 1).reshape(ncv, r, -1)
    Z = np.matmul(Tv.transpose(0, 2, 1), Y).reshape(ncv, kv, kv, n_u, -1)
    padded = np.zeros((n_v + 2 * pv, 2 * pv + 1, n_u + 2 * pu, 2 * pu + 1))
    band_scatter(pa.cells.first, Z, padded[pv:pv + n_v, :, pu:pu + n_u])
    padded = padded.transpose(2, 0, 3, 1)
    band = padded[pu:pu + n_u, pv:pv + n_v]
    windows = sliding_window_view(padded, band.shape[2:], axis=(0, 1))
    mirror = windows[:, :, ::-1, ::-1].diagonal(axis1=2, axis2=4).diagonal(
        axis1=2, axis2=3)
    gram = gram_band(pa) > 0.0
    keep = gram[:, None, :, None] & gram[None, :, None, :]
    _, _, di, dj = np.ogrid[:1, :1, :2 * pu + 1, :2 * pv + 1]
    below = (di < pu) | ((di == pu) & (dj < pv))
    return np.where(below & keep, mirror, band), keep


def mass(asm):
    """The two-patch mass of a ``DomainAssembler`` as a plain CSR matrix."""
    m, n = asm.basis.num_basis, asm.basis.n
    nr = INTERFACE_ROWS
    n_int = (n - nr) * n
    iface = np.zeros((m, m))
    couplings, interiors = [], []
    for s, A, offset in (("L", asm.basis.A_L, m),
                         ("R", asm.basis.A_R, m + n_int)):
        pa = asm.asm[s]
        band, keep = mass_band(pa)
        c = min(pa.p, n - nr)
        T = A @ band_block(band, nr, nr + c)
        iface += T[:, :nr * n] @ A.T
        couple = T[:, nr * n:]
        couplings.append((offset + np.arange(c * n), couple))
        wu, wv = band.shape[2:]
        keep = keep & (np.arange(n)[:, None] + np.arange(wu) - pa.p
                       >= nr)[:, None, :, None]
        band = band[nr:].reshape(n_int, -1)
        keep = keep[nr:].reshape(n_int, -1)
        cols = ((offset + np.arange(n_int, dtype=np.int32))[:, None]
                + band_offsets(n, wu, wv).astype(np.int32))
        near = slice(0, c * n)
        interiors += [
            row_block(np.hstack([np.broadcast_to(np.arange(m), (c * n, m)),
                                 cols[near]]),
                      np.hstack([couple.T, band[near]]),
                      np.hstack([couple.T != 0.0, keep[near]])),
            row_block(cols[c * n:], band[c * n:], keep[c * n:])]
    iface = np.triu(iface) + np.triu(iface, 1).T
    first = np.hstack([iface] + [couple for _, couple in couplings])
    first_cols = np.concatenate([np.arange(m)]
                                + [cols for cols, _ in couplings])
    dim = m + 2 * n_int
    first_rows = row_block(first_cols, first, first != 0.0)
    counts, indices, data = zip(first_rows, *interiors)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return sp.csr_matrix((np.concatenate(data), np.concatenate(indices),
                          indptr), shape=(dim, dim))


def full_space_matrices(basis):
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
