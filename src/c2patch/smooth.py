"""Dimension formulas and explicit bases of the smooth isogeometric spaces.

The interface-supported part of the C2 space is built family by family, as
in the paper: each family takes B-splines of one source spline space as the
trace, first or second transversal data of its basis functions.  Each basis
function yields, per patch, three coefficient rows with respect to the
underlying tensor-product space; the rows of all functions are computed
together, by Greville collocation of the three trace combinations in one
banded solve.
A constraint-collocation nullspace oracle and a numerical C2 interface
check provide independent validation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np

from .bspline import KnotVector, SplineSpace1D, make_knot_vector
from .geometry import TwoPatchGeometry
from .gluing import (GluingData, GluingInvariants, interface_samples,
                     matching_weights)

TRACE_RESID_TOL = 1e-9
ORACLE_OVERSAMPLE = 4     # the oracle collocates 4 (p + 1) points per knot span
# singular values below this times the largest one and the larger side of
# the collocation matrix are zero (numpy's ``matrix_rank`` rule); genuine
# ones fall below 1e-9 of the largest as k grows
ORACLE_ZERO_TOL = np.finfo(float).eps
# the oracle raises when kept and dropped singular values are closer
ORACLE_MIN_GAP = 1e2
# the oracle takes its row norms over C-ordered copies of this many rows
ORACLE_NORM_ROWS = 64


class DegreeBudgetError(ValueError):
    """Spline spaces of the smooth basis would degenerate."""


class RepresentationError(RuntimeError):
    """A trace combination is not representable in the target spline space."""


class IndeterminateRankError(RuntimeError):
    """Singular value gap too small to decide the nullspace dimension."""


def _check_params(p: int, r: int, k: int) -> None:
    if p < 5:
        raise ValueError(f"degree must be >= 5, got {p}")
    if not 2 <= r <= p - 3:
        raise ValueError(f"regularity r={r} outside 2..{p - 3}")
    if k < 0:
        raise ValueError(f"negative knot count {k}")


# ---------------------------------------------------------------------------
# dimension formulas


def dim_v1(p: int, r: int, k: int) -> int:
    """Dimension of the interface-untouched part of the C2 space."""
    _check_params(p, r, k)
    return 2 * (p - 2 + k * (p - r)) * (p + 1 + k * (p - r))


def dim_gamma_from_numbers(p: int, r: int, k: int, d_atilde: int, d_h: int,
                           z_beta: int) -> tuple[int, int, int]:
    _check_params(p, r, k)
    if p - 2 * d_atilde < r + 1:
        raise DegreeBudgetError(
            f"p - 2*d_atilde = {p - 2 * d_atilde} < r + 1 = {r + 1}")
    g0 = k * (p - r - 1) + p + z_beta + 1
    g1 = k * (p - d_atilde - d_h - r - 1) + p - d_atilde - d_h + z_beta + 1
    g2 = k * (p - 2 * d_atilde - r) + p + 1 - 2 * d_atilde
    return g0, g1, g2


def dim_gamma(inv: GluingInvariants, p: int, r: int, k: int) -> tuple[int, int, int]:
    """Dimensions of the three trace-component spaces."""
    return dim_gamma_from_numbers(p, r, k, inv.d_atilde, inv.d_h, inv.z_beta)


def dim_v2_from_numbers(p: int, r: int, k: int, d_atilde: int, d_h: int,
                        z_beta: int) -> int:
    dim_gamma_from_numbers(p, r, k, d_atilde, d_h, z_beta)   # raises if invalid
    return (k + 1) * (3 * (p + 1) - 3 * d_atilde - d_h) - (3 * r + 5) * k + 2 * z_beta


def dim_v2(inv: GluingInvariants, p: int, r: int, k: int) -> int:
    """Dimension of the interface part of the C2 space (closed form)."""
    value = dim_v2_from_numbers(p, r, k, inv.d_atilde, inv.d_h, inv.z_beta)
    assert value == sum(dim_gamma(inv, p, r, k))
    return value


def dim_w2(p: int, r: int, k: int, d_alpha: int) -> int:
    """Dimension of the uniformly constructible interface subspace."""
    _check_params(p, r, k)
    if p - 2 * d_alpha < r:
        raise DegreeBudgetError(
            f"p - 2*d_alpha = {p - 2 * d_alpha} < r = {r}")
    return (k + 1) * (3 * p - 3 * d_alpha) + 3 * (1 - k - k * r)


# ---------------------------------------------------------------------------
# edge functions in the transversal direction


def edge_rows(space: SplineSpace1D) -> np.ndarray:
    """Coefficients of u-basis functions 0..2 (rows) in the three edge
    profiles (columns) with unit value, slope and curvature at u = 0; row a
    weighs the trace jets that make up u-row a of a patch.
    """
    p = space.degree
    inner = space.kv.inner_knots
    tau1 = inner[0] if inner else 1.0
    return np.array([[1.0, 0.0, 0.0],
                     [1.0, tau1 / p, 0.0],
                     [1.0, 2.0 * tau1 / p, tau1 ** 2 / (p * (p - 1))]])


# ---------------------------------------------------------------------------
# basis families


@dataclass(frozen=True)
class Family:
    """Basis functions built from the B-splines N_cols[j] of one space.

    A part ``(slot, order, poly, scalars)`` puts scalars[j] * poly(v) *
    D^order N_cols[j](v) (``poly`` None stands for 1) into trace slot 0, 1
    or 2; a slot takes at most one part and is zero without one.
    """

    name: str
    space: SplineSpace1D
    cols: np.ndarray
    parts: tuple


def _regular(name: str, space: SplineSpace1D, slot: int, poly=None) -> Family:
    """Every B-spline of ``space``, in trace slot ``slot``."""
    return Family(name, space, np.arange(space.dim),
                  ((slot, 0, poly, np.ones(space.dim)),))


def _refined(name: str, base: KnotVector, which: int, extra_mult: int,
             parts) -> Family:
    """One new B-spline of ``base`` raised at breakpoint ``which``; parts
    with a zero scalar are structurally zero and dropped."""
    space, index = select_refined_bspline(base, which, extra_mult)
    return Family(name, space, np.array([index]),
                  tuple((slot, order, poly, np.array([c]))
                        for slot, order, poly, c in parts if c))


def select_refined_bspline(base: KnotVector, which: int,
                           extra_mult: int) -> tuple[SplineSpace1D, int]:
    """A B-spline of the multiplicity-raised space that is genuinely new,
    as (raised space, index).

    The selected B-spline is nonzero at the raised knot and exhibits the
    full smoothness defect there (nonzero jump in the derivative of order
    p - new_multiplicity + 1), which certifies that it does not belong to
    the unrefined space.
    """
    if extra_mult not in (1, 2):
        raise ValueError("extra_mult must be 1 or 2")
    raised = base.with_raised_multiplicity(which, extra_mult)
    space = SplineSpace1D(raised)
    p = base.degree
    tau = base.breakpoints[which]
    new_mult = raised.multiplicities[which]
    jump_order = p - new_mult + 1

    # right and left limits at tau in one kernel pass
    spans = np.array([space.find_span(tau, "right"),
                      space.find_span(tau, "left")])
    ders_r, ders_l = space._eval_spans(np.array([tau, tau]), spans, jump_order)
    first_r, first_l = spans - p

    jumps = np.zeros(space.dim)
    values = np.zeros(space.dim)
    jumps[first_r:first_r + p + 1] += ders_r[jump_order]
    jumps[first_l:first_l + p + 1] -= ders_l[jump_order]
    values[first_r:first_r + p + 1] = ders_r[0]

    scale = max(np.abs(ders_r[jump_order]).max(), np.abs(ders_l[jump_order]).max())
    candidates = [i for i in range(space.dim)
                  if abs(values[i]) > 1e-12 and abs(jumps[i]) > 1e-6 * scale]
    if not candidates:
        raise ValueError(
            f"no refined B-spline with a defect of order {jump_order} at {tau}")
    # Tie-break among certified candidates: the central one reproduces the
    # conditioning benchmarks of the bundled experiments; any other choice
    # changes only the basis, not the space.
    return space, candidates[(len(candidates) - 1) // 2]


# ---------------------------------------------------------------------------
# families -> per-patch interface coefficient rows


def _component_derivs(families, xs: np.ndarray) -> list[np.ndarray]:
    """Derivatives of the trace components of all basis functions at ``xs``.

    Entry s has shape (3 - s, len(xs), T) and holds derivatives 0..2-s of
    the s-th component of the T basis functions, family after family.  Each
    family takes one ``basis_matrix`` of its space, evaluated up to the
    highest order its parts need.
    """
    T = sum(len(f.cols) for f in families)
    out = [np.zeros((3 - s, len(xs), T)) for s in range(3)]
    start = 0
    for f in families:
        block = slice(start, start + len(f.cols))
        start = block.stop
        top = max(order + 2 - slot for slot, order, _, _ in f.parts)
        svals = f.space.basis_matrix(xs, top)[:, :, f.cols]     # (top + 1, x, C)
        # scalars * D^i (poly * N^(order))
        for slot, order, poly, scalars in f.parts:
            nd = 2 - slot
            if poly is None:
                ders = svals[order:order + nd + 1]
            else:
                pd = [poly.deriv(i)(xs)[:, None] if i <= poly.degree()
                      else np.zeros((len(xs), 1)) for i in range(nd + 1)]
                ders = np.zeros((nd + 1, len(xs), len(f.cols)))
                for i in range(nd + 1):
                    for j in range(i + 1):
                        ders[i] += comb(i, j) * pd[j] * svals[order + i - j]
            out[slot][:, :, block] = scalars * ders
    return out


def interface_jets(kind: str, families, g: GluingData, inv: GluingInvariants,
                   xs) -> np.ndarray:
    """Sampled trace, D_u trace and D_uu trace of every basis function's
    patch function on both sides: shape (2, 3, len(xs), T), side L first.

    V2 functions are scaled by the reduced alpha and the common factor q;
    W2 functions (``kind == "w2"``) are the same expressions with alpha in
    place of atilde and q = 1.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    g0, g1, g2 = _component_derivs(families, xs)
    if kind == "w2":
        qv, qd = 1.0, 0.0
    else:
        # q is monic of degree d_alpha - d_atilde (0 or 1)
        qv, qd = inv.q(xs)[:, None], float(inv.d_alpha - inv.d_atilde)
    out = np.empty((2, 3) + g0.shape[1:])
    for i, side in enumerate(("L", "R")):
        beta = g.beta(side)(xs)[:, None]
        alpha = (g.alpha(side) if kind == "w2" else inv.atilde(side))(xs)[:, None]
        out[i, 0] = g0[0]
        out[i, 1] = beta * g0[1] + alpha * g1[0]
        out[i, 2] = (beta ** 2 * g0[2]
                     + 2.0 * alpha * beta * (g1[1] - g1[0] * qd / qv)
                     + alpha ** 2 * g2[0])
    return out


# ---------------------------------------------------------------------------
# basis assembly


@dataclass(frozen=True)
class SmoothBasis:
    """An explicit basis of the interface part of a smooth space."""

    space_kind: str                      # "v2" or "w2"
    families: tuple[Family, ...]
    A_L: np.ndarray                      # (num_basis, 3n)
    A_R: np.ndarray
    n: int                               # trace-space dimension
    trace_residual: float                # worst trace-representability residual

    @property
    def num_basis(self) -> int:
        return len(self.A_L)

    @property
    def kinds(self) -> list[str]:
        """The family name of every basis function, in row order."""
        return [f.name for f in self.families for _ in f.cols]

    def rows(self, side: str, m: int) -> np.ndarray:
        if side not in ("L", "R"):
            raise ValueError(f"side must be 'L' or 'R', got {side!r}")
        A = self.A_L if side == "L" else self.A_R
        return A[m].reshape(3, self.n)

    def stacked_matrix(self) -> np.ndarray:
        """[A_L | A_R] with the shared trace block identified (num x 5n)."""
        return np.hstack([self.A_L, self.A_R[:, self.n:]])

    def records(self):
        """JSON-ready export records {family, j, rows_L, rows_R}; j counts
        the functions of one family name."""
        count: Counter = Counter()
        for m, name in enumerate(self.kinds):
            yield {"family": name, "j": count[name],
                   "rows_L": self.rows("L", m).tolist(),
                   "rows_R": self.rows("R", m).tolist()}
            count[name] += 1


# the five interpolated trace combinations: (row, side); row 0, the trace,
# is shared by both patches
_COMBINATIONS = ((0, "L"), (1, "L"), (2, "L"), (1, "R"), (2, "R"))


def _assemble_basis(kind: str, families, g, inv, trace_space) -> SmoothBasis:
    """Interface coefficient rows of all basis functions on both patches.

    Row i of a patch holds the coefficients multiplying the i-th u-column
    of the tensor basis; they are obtained by collocating the value, slope
    and curvature combinations of the interface jets at the Greville
    points, all in one banded solve.  Midpoints between Greville points
    check that every combination is representable in the trace space.
    """
    n = trace_space.dim
    xi = trace_space.greville()
    mids = 0.5 * (xi[:-1] + xi[1:])
    mids = mids[(mids > 0.0) & (mids < 1.0)]
    val, du, duu = interface_jets(kind, families, g, inv,
                                  np.concatenate([xi, mids])).swapaxes(0, 1)
    E = edge_rows(trace_space)
    rows = [val, val + E[1, 1] * du, val + E[2, 1] * du + E[2, 2] * duu]
    targets = np.stack([rows[i]["LR".index(side)]
                        for i, side in _COMBINATIONS], axis=1)   # (x, 5, T)

    coeffs = trace_space.interpolate(targets[:n])                # (n, 5, T)
    check = targets[n:]
    approx = trace_space.eval_function(coeffs, mids)[0]
    resid = (np.abs(approx - check).max(axis=0)
             / np.maximum(1.0, np.abs(check).max(axis=0)))
    bad = np.argwhere(~(resid.T <= TRACE_RESID_TOL))
    if len(bad):
        m, c = bad[0]
        i, side = _COMBINATIONS[c]
        kinds = [f.name for f in families for _ in f.cols]
        name, j = kinds[m], kinds[:m].count(kinds[m])
        raise RepresentationError(
            f"trace combination {i} of {name}[{j}] on side {side} not "
            f"representable in the patch space (residual {resid[c, m]:.2e})")

    coeffs = coeffs.transpose(2, 1, 0)                           # (T, 5, n)
    A_L = coeffs[:, [0, 1, 2]].reshape(-1, 3 * n)
    A_R = coeffs[:, [0, 3, 4]].reshape(-1, 3 * n)
    return SmoothBasis(kind, tuple(families), A_L, A_R, n,
                       float(resid.max(initial=0.0)))


def _spline_space(p: int, r: int, inner) -> SplineSpace1D:
    """S(T_k^{p,r}); interior multiplicity zero degenerates to k = 0."""
    if p - r <= 0:
        return SplineSpace1D(make_knot_vector(p, p - 1, 0))
    return SplineSpace1D(make_knot_vector(p, r, len(inner), inner))


def build_basis_v2(g: GluingData, inv: GluingInvariants, p: int, r: int,
                   k: int) -> SmoothBasis:
    """Explicit basis of the interface part of the full C2 space."""
    count = sum(dim_gamma(inv, p, r, k))
    inner = inv.inner_knots
    if len(inner) != k:
        raise ValueError("invariants were built for a different knot count")

    trace_space = _spline_space(p, r, inner)
    s0 = _spline_space(p, r + 2, inner)
    s1_base = _spline_space(p - inv.d_atilde - inv.d_h, r + 1, inner)
    s2 = _spline_space(p - 2 * inv.d_atilde, r, inner)

    # q and h are 1 at degree 0; q has degree 1 where it takes the alphas'
    # shared root out of atilde
    h_poly = inv.h if inv.d_h else None
    q_poly = inv.q if inv.d_atilde < inv.d_alpha else None

    # trace family: plain B-splines of the smoother space
    families = [_regular("Gamma0_regular", s0, 0)]

    # the gluing data at the interior knots
    aL, aR, bL, bR, qk = (f(np.array(inner)).tolist() for f in (
        inv.atilde_L, inv.atilde_R, g.beta_L, g.beta_R, inv.q))

    # one function per interior knot, from the once-raised space
    for j in range(k):
        c1 = -(aR[j] * bL[j] + aL[j] * bR[j]) / (2.0 * aR[j] * aL[j] * qk[j])
        c2 = (bL[j] * bR[j]) / (aL[j] * aR[j])
        families.append(_refined("Gamma0_knot", s0.kv, j + 1, 1, (
            (0, 0, None, 1.0), (1, 1, q_poly, c1), (2, 2, None, c2))))

    # extra trace functions at the roots of beta, from the twice-raised space
    for ell in inv.Z_beta:
        j = ell - 1
        c1 = -bL[j] / (qk[j] * aL[j])
        c2 = (bL[j] / aL[j]) ** 2
        families.append(_refined("Gamma0_zbeta", s0.kv, ell, 2, (
            (0, 0, None, 1.0), (1, 1, q_poly, c1), (2, 2, None, c2))))

    # first transversal family
    families.append(_regular("Gamma1_regular", s1_base, 1, h_poly))
    for ell in inv.Z_beta:
        c2 = -2.0 * bL[ell - 1] / aL[ell - 1]
        families.append(_refined("Gamma1_zbeta", s1_base.kv, ell, 1, (
            (1, 0, h_poly, 1.0), (2, 1, h_poly, c2))))

    # second transversal family
    families.append(_regular("Gamma2", s2, 2))

    assert sum(len(f.cols) for f in families) == count
    return _assemble_basis("v2", families, g, inv, trace_space)


def build_basis_w2(g: GluingData, inv: GluingInvariants, p: int, r: int,
                   k: int) -> SmoothBasis:
    """Basis of the uniformly constructible interface subspace."""
    d_alpha = inv.d_alpha
    count = dim_w2(p, r, k, d_alpha)
    inner = inv.inner_knots
    families = (_regular("W0", _spline_space(p, r + 2, inner), 0),
                _regular("W1", _spline_space(p - d_alpha, r + 1, inner), 1),
                _regular("W2", _spline_space(p - 2 * d_alpha, r, inner), 2))
    assert sum(len(f.cols) for f in families) == count
    return _assemble_basis("w2", families, g, inv, _spline_space(p, r, inner))


# ---------------------------------------------------------------------------
# independent nullspace oracle on the smoothness conditions


@dataclass(frozen=True)
class OracleResult:
    nullspace_dim: int
    gap: float


def constraint_nullspace_dim(F: TwoPatchGeometry, g: GluingData, p: int,
                             r: int, k: int) -> OracleResult:
    """Nullspace dimension of the collocated interface smoothness system.

    Collocates the matching equations of ``gluing.matching_weights`` in the
    6n interface coefficients of both patches and counts the numerical
    nullspace (singular values below ``ORACLE_ZERO_TOL`` times the
    largest and times the larger dimension of the system).  Raises
    IndeterminateRankError when the spectral gap between kept and dropped
    singular values is smaller than ``ORACLE_MIN_GAP``.
    """
    _check_params(p, r, k)
    space = F.space
    if space.degree != p or space.kv.num_inner != k:
        raise ValueError("geometry space does not match the requested (p, k)")
    n = space.dim

    vs = np.linspace(0.0, 1.0, ORACLE_OVERSAMPLE * (p + 1) * (k + 1))
    W = matching_weights(g, vs)
    # u-jets of the first three u-basis functions at u = 0; the others vanish
    Nu = space.jets_at_zero[:, :3]
    Nv = space.basis_matrix(vs, 2)

    import scipy.linalg as sla

    # unknown layout: d[(side, i, j)] -> side * 3n + i * n + j.  The system
    # C is built once, Fortran-ordered so that LAPACK factors it in place:
    # the rows of equation e in the unknowns of one side, (v, i, j), are one
    # batched product each, written into C's columns of that side
    rows = 3 * len(vs)
    C = np.empty((rows, 6 * n), order="F")
    blocks = C.reshape(len(vs), 3, 2, 3, n)
    WN = np.einsum("vesab,ai->sevib", W, Nu, optimize=True)
    Nv = np.ascontiguousarray(Nv.transpose(1, 0, 2))
    for side in range(2):
        for e in range(3):
            blocks[:, e, side] = WN[side, e] @ Nv
    # the row norms, from C-ordered blocks of rows, and the rows scaled in
    # place; a zero row stays zero and adds no singular value, so the
    # system's rows are its nonzero ones
    norms = np.concatenate([
        np.linalg.norm(np.ascontiguousarray(C[lo:lo + ORACLE_NORM_ROWS]), axis=1)
        for lo in range(0, rows, ORACLE_NORM_ROWS)])
    nonzero = norms > 0.0
    np.divide(C, norms[:, None], out=C, where=nonzero[:, None])
    rows = int(np.count_nonzero(nonzero))

    sv = sla.svd(C, compute_uv=False, overwrite_a=True,
                 check_finite=False)[:min(rows, 6 * n)]
    cutoff = ORACLE_ZERO_TOL * max(rows, 6 * n) * sv[0]
    rank = int((sv > cutoff).sum())
    nullity = 6 * n - rank
    if rank == len(sv) or rank == 0:
        gap = np.inf
    else:
        gap = sv[rank - 1] / sv[rank] if sv[rank] > 0 else np.inf
    if gap < ORACLE_MIN_GAP:
        raise IndeterminateRankError(
            f"singular value gap {gap:.1e} below {ORACLE_MIN_GAP:.0e}; "
            f"rank decision is ambiguous")
    return OracleResult(nullity, float(gap))


# ---------------------------------------------------------------------------
# numerical C2 check in physical space


@dataclass(frozen=True)
class C2Report:
    value_diff: float
    grad_diff: float
    hess_diff: float
    tol: float

    @property
    def passed(self) -> bool:
        return all(d < self.tol for d in (self.value_diff, self.grad_diff,
                                          self.hess_diff))

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"interface smoothness: value={self.value_diff:.3e} "
                f"grad={self.grad_diff:.3e} hess={self.hess_diff:.3e} "
                f"(tol {self.tol:.1e}) {status}")


def _physical_jets(d):
    """Values, gradients and Hessians in physical space, from the parametric
    jets ``d[a, b, c, ...]`` = d_u^a d_v^b of (x, y, f_1, ..., f_T): shape
    (7, T, ...), with the value, the gradient and the Hessian (row-major)
    along the first axis."""
    # J = [[x_u, x_v], [y_u, y_v]] and its inverse by Cramer's rule
    J = np.array([[d[1, 0, 0], d[0, 1, 0]], [d[1, 0, 1], d[0, 1, 1]]])
    Jinv = np.array([[J[1, 1], -J[0, 1]], [-J[1, 0], J[0, 0]]]) \
        / (J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])
    grad = np.einsum("ji...,j...->i...", Jinv, d[[1, 0], [0, 1], 2:])  # (2, T, ...)
    # parametric Hessians of x, y and the functions: (2, 2, 2 + T, ...)
    hess = np.array([[d[2, 0], d[1, 1]], [d[1, 1], d[0, 2]]])
    hf = hess[:, :, 2:] - grad[0] * hess[:, :, :1] - grad[1] * hess[:, :, 1:2]
    # H = J^-T hf J^-1
    H = np.einsum("ki...,kl...->il...", Jinv, hf)
    H = np.einsum("il...,lj...->ij...", H, Jinv)
    return np.concatenate([d[None, 0, 0, 2:], grad, H.reshape((4,) + H.shape[2:])])


def _c2_frame(F: TwoPatchGeometry, n_samples: int):
    """The check's local linear maps at the ``n_samples`` cell midpoints
    v = (i + 1/2) / n_samples, as ``(index, maps)`` with a leading side
    axis.

    Only the v-B-splines first[v]..first[v] + p are nonzero at sample v,
    so a side's jets there depend on the 3 (p + 1) interface coefficients
    of u-rows i = 0..2 and columns first[v] + l.  ``index[s, v]`` picks
    them out of the rows of both sides laid end to end, [rows_L | rows_R],
    at position i (p + 1) + l.  ``maps[s, v]``, of shape (7, 3 (p + 1)),
    takes them to the physical value, the gradient times the domain
    diameter D and the Hessian times D^2, which compare at any scale; its
    columns are the ``_physical_jets`` of the unit jets Nu[a, i]
    B_l^(b)(v) on the patch's geometry.  The maps depend only on the
    geometry and the count, so they are built once per count, kept on the
    geometry and read-only.
    """
    frames = vars(F).setdefault("_c2_frames", {})
    if n_samples in frames:
        return frames[n_samples]
    vs = (np.arange(n_samples) + 0.5) / n_samples
    scales = F.diameter ** np.array([0, 1, 1, 2, 2, 2, 2])[:, None]
    space = F.space
    first, Bv = space.eval_basis(vs, 2)                      # (v,), (v, b, l)
    Nu = space.jets_at_zero                                  # (a, i)
    q = Nu.shape[1]
    cols = first[:, None] + np.arange(q)                     # (v, l)
    # parametric jets of the 3q unit functions, the same on both sides
    unit = np.einsum("ai,vbl->abilv", Nu[:, :3], Bv).reshape(3, 3, 3 * q, -1)
    index, maps = [], []
    for s, side in enumerate(F.sides):
        # parametric jets d[a, b, c, v] of x, y and the unit functions; the
        # u-rows nearly cancel in the u-derivatives, so they are combined
        # before the v-sums
        cp = F.patch(side).control_points
        X = (Nu @ cp[:q].reshape(q, -1)).reshape(3, -1, 2)
        geo = np.einsum("avlc,vbl->abcv", X[:, cols], Bv)
        d = np.concatenate([geo, unit], axis=2)
        maps.append(_physical_jets(d).transpose(2, 0, 1) * scales)
        # u-row i of side s starts at (3 s + i) n in [rows_L | rows_R]
        starts = space.dim * np.arange(3 * s, 3 * s + 3)[:, None]
        index.append((starts + cols[:, None]).reshape(n_samples, -1))
    frame = frames[n_samples] = np.array(index), np.array(maps)
    for a in frame:
        a.flags.writeable = False
    return frame


def verify_c2_at_interface(F: TwoPatchGeometry, rows_L: np.ndarray,
                           rows_R: np.ndarray, n_samples: int | None = None,
                           tol: float = 1e-8) -> C2Report:
    """Compare value, gradient and Hessian across the interface.

    ``rows_L`` / ``rows_R`` hold the three interface coefficient rows of the
    respective patch, of shape (3, n) or (3n,) for one function and with a
    leading axis for several; the remaining coefficients are zero.  The
    jets at the ``n_samples`` cell midpoints (``interface_samples`` when
    None) are linear in the coefficients active there, so they take one
    batched product with the local maps of ``_c2_frame``.
    Differences are scaled function by function: each derivative order by
    the largest of its own size and the sizes of the lower orders divided
    by the matching power of the domain diameter, so that the scaling
    follows the domain and a zero Hessian is never a divisor.  The report
    holds the worst function's.
    """
    n = F.space.dim
    n_samples = interface_samples(F, n_samples)
    flat = []
    for side, rows in (("L", rows_L), ("R", rows_R)):
        rows = np.asarray(rows, dtype=float)
        if rows.shape[-1:] == (3 * n,):
            rows = rows.reshape(rows.shape[:-1] + (3, n))
        if rows.ndim not in (2, 3) or rows.shape[-2:] != (3, n):
            raise ValueError(f"rows_{side} must have shape (3, {n}), with "
                             f"a leading axis for several functions")
        flat.append(rows.reshape(-1, 3 * n))
    index, maps = _c2_frame(F, n_samples)
    # (side, v, 7, 3q) x (side, v, 3q, T) -> (side, v, 7, T)
    jets = maps @ np.take(np.hstack(flat).T, index, axis=0)
    diff = np.abs(jets[0] - jets[1]).max(axis=0)                 # (7, T)
    size = np.abs(jets).max(axis=(0, 1))
    # value, gradient and Hessian rows; where a scale is zero, so are both
    # sides and their difference
    diff, size = np.maximum.reduceat([diff, size], [0, 1, 3], axis=1)
    scale = np.maximum.accumulate(size, axis=0)
    rel = diff / np.where(scale > 0, scale, 1.0)
    return C2Report(*rel.max(axis=1).tolist(), tol)
