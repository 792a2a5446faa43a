"""Univariate B-spline spaces on [0, 1].

Open knot vectors with per-knot multiplicity bookkeeping, basis evaluation
with derivatives, Greville abscissae, collocation interpolation, knot
insertion and Gauss rules on the knot spans.  ``SplineSpace1D.eval_basis``
takes whole arrays of points, and every other evaluation of a space (spline
functions, dense collocation matrices, the tensor-product patches of
``geometry.Patch``) is built on its output with array operations instead of
per-point loops.  It is ``find_span`` followed by ``cox_de_boor``, the one
Cox-de Boor pass, which takes the knots and the spans and runs the
recurrences over all points and all basis functions at once; the refined
B-splines of ``smooth.RaisedBsplines`` call that pass directly, over many
knot vectors laid end to end.  Everything is immutable after
construction; operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

KNOT_TOL = 1e-12


@dataclass(frozen=True)
class KnotVector:
    """Open knot vector on [0, 1] stored as distinct breakpoints + multiplicities.

    Breakpoints include the interval ends 0 and 1, whose multiplicity is
    always ``degree + 1``.  Interior multiplicities lie in ``1..degree``.
    """

    degree: int
    breakpoints: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        p = self.degree
        bp = self.breakpoints
        mult = self.multiplicities
        if p < 1:
            raise ValueError(f"degree must be >= 1, got {p}")
        if len(bp) != len(mult):
            raise ValueError("breakpoints and multiplicities differ in length")
        if len(bp) < 2:
            raise ValueError("need at least the two boundary breakpoints")
        if abs(bp[0]) > KNOT_TOL or abs(bp[-1] - 1.0) > KNOT_TOL:
            raise ValueError("knot vector must span exactly [0, 1]")
        if any(b2 - b1 <= KNOT_TOL for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if mult[0] != p + 1 or mult[-1] != p + 1:
            raise ValueError("boundary knots must have multiplicity degree + 1")
        for m in mult[1:-1]:
            if not 1 <= m <= p:
                raise ValueError(f"interior multiplicity {m} outside 1..{p}")

    @cached_property
    def knots(self) -> np.ndarray:
        """Expanded nondecreasing knot sequence."""
        out = np.repeat(np.asarray(self.breakpoints, dtype=float),
                        np.asarray(self.multiplicities, dtype=int))
        out.flags.writeable = False
        return out

    @property
    def num_inner(self) -> int:
        return len(self.breakpoints) - 2

    @property
    def inner_knots(self) -> tuple[float, ...]:
        return self.breakpoints[1:-1]

    @property
    def dim(self) -> int:
        """Number of B-spline basis functions."""
        return len(self.knots) - self.degree - 1

    def multiplicity_of(self, x: float) -> int:
        for b, m in zip(self.breakpoints, self.multiplicities):
            if abs(b - x) <= KNOT_TOL:
                return m
        return 0

    def with_raised_multiplicity(self, which: int, times: int = 1) -> "KnotVector":
        """Raise the multiplicity of the ``which``-th interior knot (1-based)."""
        if not 1 <= which <= self.num_inner:
            raise ValueError(f"interior knot index {which} outside 1..{self.num_inner}")
        if times < 1:
            raise ValueError("times must be >= 1")
        mult = list(self.multiplicities)
        mult[which] += times
        if mult[which] > self.degree:
            raise ValueError(
                f"multiplicity {mult[which]} exceeds degree {self.degree} "
                f"at inner knot {which}")
        return KnotVector(self.degree, self.breakpoints, tuple(mult))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnotVector):
            return NotImplemented
        return (self.degree == other.degree
                and self.multiplicities == other.multiplicities
                and len(self.breakpoints) == len(other.breakpoints)
                and all(abs(a - b) <= KNOT_TOL
                        for a, b in zip(self.breakpoints, other.breakpoints)))

    def __hash__(self):
        return hash((self.degree, self.multiplicities, len(self.breakpoints)))


def make_knot_vector(p: int, r: int, k: int, inner_knots=()) -> KnotVector:
    """Open knot vector of degree ``p`` whose ``k`` interior knots all carry
    multiplicity ``p - r`` (splines are then C^r at every interior knot)."""
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    if not 0 <= r <= p - 1:
        raise ValueError(f"regularity r={r} outside 0..{p - 1}")
    inner = tuple(float(v) for v in inner_knots)
    if len(inner) != k:
        raise ValueError(f"expected {k} interior knots, got {len(inner)}")
    if any(not 0.0 < t < 1.0 for t in inner):
        raise ValueError("interior knots must lie strictly inside (0, 1)")
    if any(t2 - t1 <= KNOT_TOL for t1, t2 in zip(inner, inner[1:])):
        raise ValueError("interior knots must be strictly increasing")
    bp = (0.0,) + inner + (1.0,)
    mult = (p + 1,) + (p - r,) * k + (p + 1,)
    return KnotVector(p, bp, mult)


def uniform_inner_knots(k: int) -> tuple[float, ...]:
    """k uniformly spaced interior knots i/(k+1); exact dyadics for k = 2^L - 1."""
    return tuple((i + 1) / (k + 1) for i in range(k))


def cox_de_boor(knots: np.ndarray, degree: int, pts: np.ndarray,
                span: np.ndarray, max_deriv: int) -> np.ndarray:
    """The Cox-de Boor pass of ``SplineSpace1D.eval_basis``: values and
    derivatives of the ``degree`` + 1 B-splines nonzero at each 1D point
    of ``pts`` in its knot span of ``knots``, shape ``(len(pts),
    max_deriv + 1, degree + 1)``.

    ``knots`` may hold several knot vectors of one degree laid end to end;
    a span then indexes the knot vector of its point, since the pass reads
    the knots ``span - degree + 1 .. span + degree`` only.  The recurrences of The NURBS Book, A2.3, with each step taken over
    all points and all basis functions at once.  Every value goes
    through the same floating-point operations as in A2.3, in the same
    order, so the results equal the per-function loops bit for bit
    (signs of zeros included).  A point may appear with two spans, as
    the left and right limits at a knot.
    """
    p, t = degree, knots
    nd = min(max_deriv, p)
    ders = np.zeros((max_deriv + 1, p + 1, len(pts)))
    steps = np.arange(p)[:, None]
    left = pts - t[span - steps]            # left[i] = x - t[span - i]
    right = t[span + 1 + steps] - pts       # right[i] = t[span + 1 + i] - x

    # Degree-j values N[r] of the functions span - j + r (r = 0..j) and
    # the denominators den[r] = t[span + r + 1] - t[span + r + 1 - j];
    # the derivative pass reads those of degrees p - nd .. p only.
    N = 1.0
    vals, dens = {0: N}, {}
    for j in range(1, p + 1):
        den = right[:j] + left[j - 1::-1]
        temp = N / den
        N = ders[0] if j == p else np.zeros((j + 1, len(pts)))
        np.multiply(left[j - 1::-1], temp, out=N[1:])
        N[:j] += right[:j] * temp
        if j >= p - nd:
            vals[j], dens[j] = N, den

    del left, right
    # a[j, i] is A2.3's a_{k,j} of function r = i + k - j, the only r
    # for which it is used, so every row i at order k has p - k + 1 r's.
    a = np.ones((1, p + 1, 1))
    fac = float(p)
    for k in range(1, nd + 1):
        den, low = dens[p - k + 1], vals[p - k]
        nxt = np.empty((k + 1, p - k + 1, len(pts)))
        np.divide(a[0, 1:], den, out=nxt[0])
        np.subtract(a[1:, 1:], a[:-1, :-1], out=nxt[1:k])
        np.divide(nxt[1:k], den, out=nxt[1:k])
        np.negative(a[k - 1, :-1], out=nxt[k])
        np.divide(nxt[k], den, out=nxt[k])
        a = nxt
        # d_r sums the terms a_{k,j} N_{r-k+j,p-k} of j = 0..k in order;
        # A2.3 starts from the j = 0 term where r >= k and from 0.0 below
        d = ders[k]
        np.multiply(a[0], low, out=d[k:])
        for j in range(1, k + 1):
            d[k - j:p + 1 - j] += a[j] * low
        d *= fac
        fac *= p - k
    return ders.transpose(2, 0, 1).copy()


class SplineSpace1D:
    """Univariate spline space S(T, [0, 1]) over an open knot vector."""

    def __init__(self, kv: KnotVector):
        self.kv = kv
        self.degree = kv.degree
        self.knots = kv.knots
        self.dim = kv.dim

    def __repr__(self):
        return (f"SplineSpace1D(p={self.degree}, dim={self.dim}, "
                f"inner={list(self.kv.inner_knots)})")

    def __eq__(self, other):
        return isinstance(other, SplineSpace1D) and self.kv == other.kv

    def __hash__(self):
        return hash(self.kv)

    def find_span(self, x, side: str = "right"):
        """Span indices i with knots[i] <= x < knots[i+1], elementwise.

        ``side='right'`` gives right limits at knots, except at x = 1 where
        the left limit is used; ``side='left'`` gives left limits.  Returns
        an int for a scalar ``x`` and an int array of its shape otherwise.
        """
        x = np.asarray(x, dtype=float)
        inside = (x >= -KNOT_TOL) & (x <= 1.0 + KNOT_TOL)
        if not inside.all():
            raise ValueError(
                f"evaluation point {x[~inside].flat[0]} outside [0, 1]")
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        span = np.searchsorted(self.knots, x, side=side) - 1
        span = np.minimum(np.maximum(span, self.degree), self.dim - 1)
        return int(span) if span.ndim == 0 else span

    def eval_basis(self, xs, max_deriv: int = 0):
        """Values/derivatives of the <= p+1 basis functions nonzero at ``xs``.

        For a scalar ``xs`` returns ``(first_index, ders)`` where
        ``ders[m, j]`` is the m-th derivative of basis function
        ``first_index + j``.  For an array ``xs`` returns ``first`` of shape
        ``xs.shape`` and ``ders`` of shape ``xs.shape + (max_deriv + 1,
        p + 1)``, indexed the same way per point; right limits at knots.
        Derivative orders beyond the degree are identically zero.
        """
        x = np.asarray(xs, dtype=float)
        pts = x.reshape(-1)
        span = self.find_span(pts)
        ders = self._eval_spans(pts, span, max_deriv)
        first = (span - self.degree).reshape(x.shape)
        ders = ders.reshape(x.shape + ders.shape[1:])
        return (int(first), ders) if x.ndim == 0 else (first, ders)

    def _eval_spans(self, pts: np.ndarray, span: np.ndarray,
                    max_deriv: int) -> np.ndarray:
        """``cox_de_boor`` over this space's knots: shape ``(len(pts),
        max_deriv + 1, p + 1)``."""
        return cox_de_boor(self.knots, self.degree, pts, span, max_deriv)

    def basis_matrix(self, xs, max_deriv: int = 0) -> np.ndarray:
        """Dense collocation matrices, shape (max_deriv + 1, len(xs), dim).

        Entry ``[m, i, j]`` is the m-th derivative of basis function j at
        ``xs[i]``.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        first, ders = self.eval_basis(xs, max_deriv)
        out = np.zeros((max_deriv + 1, len(xs), self.dim))
        cols = first[:, None] + np.arange(self.degree + 1)
        out[:, np.arange(len(xs))[:, None], cols] = ders.transpose(1, 0, 2)
        return out

    @cached_property
    def jets_at_zero(self) -> np.ndarray:
        """Values and first two derivatives at x = 0 of the basis functions
        0..p, the only ones nonzero there: shape (3, p + 1), read-only."""
        _, ders = self.eval_basis(0.0, 2)
        ders.flags.writeable = False
        return ders

    def eval_function(self, coeffs, xs, max_deriv: int = 0) -> np.ndarray:
        """Evaluate a spline (given by its coefficients) and derivatives.

        ``coeffs`` has shape ``(dim,) + trailing``; returns an array of
        shape ``(max_deriv + 1, len(xs)) + trailing``.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[:1] != (self.dim,):
            raise ValueError(f"expected {self.dim} coefficients, got {coeffs.shape}")
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        first, ders = self.eval_basis(xs, max_deriv)
        local = coeffs[first[:, None] + np.arange(self.degree + 1)]
        return np.einsum("mdj,mj...->dm...", ders, local)

    def greville(self) -> np.ndarray:
        """Greville abscissae xi_i = (t_{i+1} + ... + t_{i+p}) / p."""
        p = self.degree
        windows = np.lib.stride_tricks.sliding_window_view(self.knots[1:-1], p)
        return np.clip(windows.sum(axis=1) / p, 0.0, 1.0)

    @cached_property
    def _collocation_banded(self) -> np.ndarray:
        """Banded storage of the Greville collocation matrix for solve_banded."""
        p = self.degree
        n = self.dim
        first, ders = self.eval_basis(self.greville())
        cols = first[:, None] + np.arange(p + 1)
        ab = np.zeros((2 * p + 1, n))
        ab[p + np.arange(n)[:, None] - cols, cols] = ders[:, 0]
        return ab

    def interpolate(self, samples) -> np.ndarray:
        """Coefficients c with sum_j c_j N_j(xi_i) = samples[i] at Greville points.

        ``samples`` has shape ``(dim,) + trailing``; every trailing column is
        interpolated in one banded solve.
        """
        # imported here, so that the CLI starts without scipy.linalg
        from scipy.linalg import solve_banded

        samples = np.asarray(samples, dtype=float)
        if samples.shape[0] != self.dim:
            raise ValueError(f"expected {self.dim} samples, got {samples.shape[0]}")
        p = self.degree
        cols = solve_banded((p, p), self._collocation_banded,
                            samples.reshape(self.dim, -1))
        return cols.reshape(samples.shape)

    def overlap(self) -> np.ndarray:
        """Which B-splines share a nonempty knot span, in band form.

        Entry [i, d] of the (dim, 2p+1) mask is True when i and j = i + d - p
        do: max(t_i, t_j) < min(t_{i+p+1}, t_{j+p+1}).
        """
        p, t = self.degree, self.knots
        i = np.arange(self.dim)[:, None]
        j = i + np.arange(2 * p + 1) - p
        inside = (j >= 0) & (j < self.dim)
        j = j.clip(0, self.dim - 1)
        return inside & (np.maximum(t[i], t[j])
                         < np.minimum(t[i + p + 1], t[j + p + 1]))

    def spans(self) -> list[tuple[int, float, float]]:
        """Nonempty knot spans as (span_index, left, right)."""
        t = self.knots
        return [(i, t[i], t[i + 1])
                for i in range(self.degree, self.dim)
                if t[i + 1] - t[i] > KNOT_TOL]


@dataclass(frozen=True)
class QuadratureRule:
    """Per-cell Gauss nodes and weights on [0, 1]."""

    nodes: np.ndarray      # (ncells, q)
    weights: np.ndarray    # (ncells, q)


@cache
def gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per point
    count and read-only."""
    x, w = np.polynomial.legendre.leggauss(points)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_rule(points_per_cell: int, cells: Sequence[tuple[float, float]]) -> QuadratureRule:
    """Gauss-Legendre rule mapped to each cell (a, b)."""
    if points_per_cell < 1:
        raise ValueError("points_per_cell must be >= 1")
    x, w = gauss_legendre(points_per_cell)
    cells = np.asarray(cells, dtype=float)
    mid = 0.5 * (cells[:, 0] + cells[:, 1])
    half = 0.5 * (cells[:, 1] - cells[:, 0])
    return QuadratureRule(mid[:, None] + half[:, None] * x[None, :],
                          half[:, None] * w[None, :])


def space_rule(space: SplineSpace1D, points_per_cell: int) -> QuadratureRule:
    """Gauss-Legendre rule mapped into every nonempty knot span of ``space``."""
    return gauss_rule(points_per_cell, [(a, b) for _, a, b in space.spans()])


def _insert_knots(kv: KnotVector, coeffs, xs) -> tuple[np.ndarray, np.ndarray]:
    """Knots and coefficients (along axis 0) of the spline ``coeffs`` of
    S(kv) after inserting the nondecreasing knots ``xs`` one at a time by
    Boehm's step, into buffers allocated once.

    Rows past an insertion's span are its input's rows moved down by one;
    they are copied into the buffer only when a later insertion reaches
    them, so every row is copied about once.  A knot within ``KNOT_TOL``
    of ``x`` is repeated in place of ``x``, so that equal breakpoints stay
    bitwise equal.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    p, n = kv.degree, kv.dim
    if coeffs.shape[0] != n:
        raise ValueError(f"expected {n} coefficient rows, got {coeffs.shape[0]}")
    t = np.empty(n + p + 1 + len(xs))
    t[:n + p + 1] = kv.knots
    out = np.empty((n + len(xs),) + coeffs.shape[1:])
    done = 0                # out[:done] is set; row j >= done is coeffs[j - m]
    for m, x in enumerate(xs):
        dim = n + m
        span = int(np.searchsorted(t[:dim + p + 1], x, side="right")) - 1
        span = min(max(span, p), dim - 1)
        lo = span - p + 1
        if done <= span:
            out[done:span + 1] = coeffs[done - m:span + 1 - m]
            done = span + 1
        out[span + 1:done + 1] = out[span:done]
        done += 1
        i = np.arange(lo, span + 1)
        a = ((x - t[i]) / (t[i + p] - t[i])).reshape((-1,) + (1,) * (coeffs.ndim - 1))
        out[lo:span + 1] = a * out[lo:span + 1] + (1.0 - a) * out[lo - 1:span]
        if x - t[span] <= KNOT_TOL:
            x = t[span]
        elif t[span + 1] - x <= KNOT_TOL:
            x = t[span + 1]
        t[span + 2:dim + p + 2] = t[span + 1:dim + p + 1]
        t[span + 1] = x
    out[done:] = coeffs[done - len(xs):]
    return t, out


def insert_knot(kv: KnotVector, coeffs: np.ndarray, x: float) -> tuple[KnotVector, np.ndarray]:
    """Insert the knot ``x`` once (Boehm); coefficients along axis 0.

    Reproduces the same spline in the refined space.
    """
    if not KNOT_TOL < x < 1.0 - KNOT_TOL:
        raise ValueError("can only insert interior knots")
    t, new = _insert_knots(kv, coeffs, [x])
    bp, mult = np.unique(t, return_counts=True)
    return KnotVector(kv.degree, tuple(bp.tolist()), tuple(mult.tolist())), new


def refine_to(kv: KnotVector, target: KnotVector, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the same spline in the finer space ``target``.

    ``target`` must refine ``kv``: same degree, knot multiset containment.
    The missing knots of ``target`` are inserted in increasing order into
    one buffer, bit for bit as by chained ``insert_knot``.
    """
    if target.degree != kv.degree:
        raise ValueError("refinement requires equal degrees")
    bp = np.asarray(target.breakpoints[1:-1])
    have = (np.searchsorted(kv.knots, bp + KNOT_TOL, side="right")
            - np.searchsorted(kv.knots, bp - KNOT_TOL, side="left"))
    missing = np.asarray(target.multiplicities[1:-1], dtype=int) - have
    if (missing < 0).any():
        raise ValueError(f"target is coarser than source at knot "
                         f"{bp[np.argmax(missing < 0)]}")
    t, out = _insert_knots(kv, coeffs, np.repeat(bp, missing).tolist())
    if len(t) != len(target.knots) or np.abs(t - target.knots).max() > KNOT_TOL:
        raise ValueError("target does not refine the source knot vector")
    return out
