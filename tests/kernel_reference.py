"""Frozen reference for ``SplineSpace1D.eval_basis``: the Cox-de Boor
recurrences of The NURBS Book (A2.2/A2.3) with one loop per basis function,
each step taken over all points at once.  This is the evaluator the
function-vectorised kernel replaced; the tests require the two to agree bit
for bit, signs of zeros included.
"""

import numpy as np


def eval_basis_loops(space, xs, max_deriv=0, side="right"):
    """Same contract as ``space.eval_basis(xs, max_deriv)``; ``side="left"``
    gives the left limits at knots (``find_span``)."""
    x = np.asarray(xs, dtype=float)
    pts = x.reshape(-1)
    span = space.find_span(pts, side=side)
    p, t = space.degree, space.knots
    nd = min(max_deriv, p)

    ndu = np.empty((p + 1, p + 1, len(pts)))
    ndu[0, 0] = 1.0
    left = np.empty((p + 1, len(pts)))
    right = np.empty((p + 1, len(pts)))
    for j in range(1, p + 1):
        left[j] = pts - t[span + 1 - j]
        right[j] = t[span + j] - pts
        saved = 0.0
        for rr in range(j):
            ndu[j, rr] = right[rr + 1] + left[j - rr]
            temp = ndu[rr, j - 1] / ndu[j, rr]
            ndu[rr, j] = saved + right[rr + 1] * temp
            saved = left[j - rr] * temp
        ndu[j, j] = saved

    ders = np.zeros((max_deriv + 1, p + 1, len(pts)))
    ders[0] = ndu[:, p]
    a = np.empty((2, p + 1, len(pts)))
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
                d = d + a[s2, j] * ndu[rk + j, pk]
            if rr <= pk:
                a[s2, kk] = -a[s1, kk - 1] / ndu[pk + 1, rr]
                d = d + a[s2, kk] * ndu[rr, pk]
            ders[kk, rr] = d
            s1, s2 = s2, s1

    fac = float(p)
    for kk in range(1, nd + 1):
        ders[kk] *= fac
        fac *= p - kk
    first = (span - p).reshape(x.shape)
    ders = np.moveaxis(ders, -1, 0).reshape(x.shape + ders.shape[:2])
    return (int(first), ders) if x.ndim == 0 else (first, ders)
