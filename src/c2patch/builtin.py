"""Bundled reference geometries.

Two bicubic two-patch inputs with curved interfaces ("a" and "b"), their
bilinear vertex interpolants, and reference smooth biquintic geometries
whose interface data (the first three coefficient rows of each patch) is
pinned exactly; the interior rows are completed by per-patch weighted
least squares against the bicubic input.

All coefficient tables are exact rationals; conversion to tensor Bezier
control nets is done in exact arithmetic before rounding to float.

Note: the "a" input's y-component u^2 block carries a factor 4 relative
to one widely circulated rendering of the same data; without it the input
contradicts its own bilinear vertex interpolant (corner mismatch), while
with it the interpolant, the interface gluing data and the downstream
conditioning/approximation benchmarks are all reproduced.  See the test
suite for the cross checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .bspline import SplineSpace1D, make_knot_vector
from .geometry import Patch, TwoPatchGeometry


def _monomial_to_bezier_1d(coeffs: list[Fraction], n: int) -> list[Fraction]:
    """Bezier ordinates of sum_k a_k t^k on [0, 1], degree n."""
    out = []
    for i in range(n + 1):
        b = Fraction(0)
        for k in range(min(i, len(coeffs) - 1) + 1):
            b += Fraction(comb(i, k), comb(n, k)) * coeffs[k]
        out.append(b)
    return out


def _monomial_to_bezier_2d(table, denom: int, n: int) -> np.ndarray:
    """Tensor Bezier control net of sum_{i,j} table[i][j] u^i v^j / denom."""
    rows = [[Fraction(c, denom) for c in row] for row in table]
    cols = list(zip(*rows))
    interim = [_monomial_to_bezier_1d(list(col), n) for col in cols]  # per v-power
    net = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        vrow = [interim[j][i] for j in range(len(interim))]
        bez = _monomial_to_bezier_1d(vrow, n)
        for j in range(n + 1):
            net[i][j] = bez[j]
    return np.array([[float(net[i][j]) for j in range(n + 1)]
                     for i in range(n + 1)])


def _bicubic_patch(x_table, x_den, y_table, y_den) -> Patch:
    space = SplineSpace1D(make_knot_vector(3, 2, 0))
    cx = _monomial_to_bezier_2d(x_table, x_den, 3)
    cy = _monomial_to_bezier_2d(y_table, y_den, 3)
    return Patch(space, np.stack([cx, cy], axis=-1))


# coefficient tables: row i = u^i, column j = v^j

_A_L_X = [[0, 150, -75, -75],
          [-450, -234, 9, 175],
          [0, -63, 261, -148],
          [0, 297, -845, 498]]
_A_L_Y = [[0, 450, 0, 0],
          [-75, -72, 477, -280],
          [-300, 1116, -1440, 824],
          [300, -919, 963, -544]]
_A_R_X = [[0, 50, -25, -25],
          [175, -90, -21, 86],
          [0, -30, 114, -84],
          [0, -55, 182, -127]]
_A_R_Y = [[0, 600, 0, 0],
          [-150, 198, 126, 126],
          [0, 324, -504, -420],
          [100, -297, 228, 369]]

_B_L_X = [[-1050, 4050, -2500, 1600],
          [-1260, 513, 3342, -3645],
          [3780, -8640, 4785, 1125],
          [-2520, 7227, -6257, 1550]]
_B_L_Y = [[0, 350, 1750, -1050],
          [1890, 1596, -6132, 3396],
          [770, -4158, 8001, -4013],
          [-560, 3262, -6349, 3347]]
_B_R_X = [[-1050, 4050, -2500, 1600],
          [6300, -6480, 8256, -4926],
          [-1050, 5661, -9705, 5094],
          [1050, -4491, 7099, -3658]]
_B_R_Y = [[0, 100, 500, -300],
          [-240, 1176, -2148, 1137],
          [630, -2292, 3264, -1552],
          [-390, 1316, -1556, 655]]


def initial_geometry(name: str) -> TwoPatchGeometry:
    """The bundled bicubic two-patch input 'a' or 'b'."""
    if name == "a":
        left = _bicubic_patch(_A_L_X, 150, _A_L_Y, 150)
        right = _bicubic_patch(_A_R_X, 50, _A_R_Y, 200)
    elif name == "b":
        left = _bicubic_patch(_B_L_X, 1050, _B_L_Y, 350)
        right = _bicubic_patch(_B_R_X, 1050, _B_R_Y, 100)
    else:
        raise ValueError(f"unknown bundled geometry {name!r}")
    return TwoPatchGeometry(left, right)


# ---------------------------------------------------------------------------
# Reference smooth biquintic geometries: u-expansions F = u0 + u1*u + u2*u^2
# + O(u^3) of each patch, as (integer numerators, denominator) per v-poly.

_FIT_A = {
    ("L", "x"): ((([0, 15390, -8100, -6480, -1620, 810], 16200),
                  ([-49221, -4041, 6840, -3348, -6849, 639], 16200),
                  ([7308, -160224, -29650, 171723, 31872, 2191], 16200))),
    ("L", "y"): ((([-162, 48600, -1620, 6480, -7290, 2754], 16200),
                  ([-6642, 14202, -4140, 10260, -14769, 3339], 16200),
                  ([-39411, -8058, 114472, -10452, -19209, 1018], 16200))),
    ("R", "x"): ((([0, 6840, -3600, -2880, -720, 360], 7200),
                  ([23622, 1878, -6048, -1272, 1398, 126], 7200),
                  ([3692, -94752, 24918, 100483, -27528, 2007], 7200))),
    ("R", "y"): ((([-72, 21600, -720, 2880, -3240, 1224], 7200),
                  ([-2556, 5628, -1080, 3240, -1482, 1206], 7200),
                  ([-23819, 6894, 70416, -47516, 10047, -126], 7200))),
}

_FIT_B = {
    ("L", "x"): ((([-200, 610, 540, -2080, 2420, -896], 200),
                  ([-128, 1675, -8220, 14780, -10940, 2780], 200),
                  ([-306, -6420, 21885, -6770, -30880, 21709], 200))),
    ("L", "y"): ((([-2, 260, 640, 140, -680, 238], 200),
                  ([1034, 340, 680, -4190, 3630, -973], 200),
                  ([703, -445, -11810, 10525, 5240, -4562], 200))),
    ("R", "x"): ((([-200, 610, 540, -2080, 2420, -896], 200),
                  ([1348, -125, -5340, 10820, -7700, 1700], 200),
                  ([-1368, -660, 8565, 10150, -41140, 23869], 200))),
    ("R", "y"): ((([-2, 260, 640, 140, -680, 238], 200),
                  ([-514, 1960, -1120, -1670, 1470, -217], 200),
                  ([1549, -4045, -3350, -635, 12260, -6074], 200))),
}


def reference_interface_jets(name: str) -> dict:
    """The pinned u-expansion data of the reference smooth geometries.

    Returns {(side, coord): (u0, u1, u2)} with each entry a float
    coefficient vector of the v-polynomial (ascending degree).
    """
    table = {"a": _FIT_A, "b": _FIT_B}[name.lower()]
    out = {}
    for key, polys in table.items():
        out[key] = tuple(np.array([float(Fraction(c, den)) for c in nums])
                         for nums, den in polys)
    return out


def reference_interface_rows(name: str) -> dict:
    """First three coefficient rows of each reference patch, per coordinate.

    Derived exactly from the pinned u-expansions: for a biquintic with no
    interior knots, row0 = u0, row1 = row0 + u1/5, row2 = 2*row1 - row0
    + u2/10 (the second u-expansion coefficient is half the second
    derivative).
    """
    table = {"a": _FIT_A, "b": _FIT_B}[name.lower()]
    out = {}
    for (side, coord), polys in table.items():
        bez = [np.array([float(x) for x in _monomial_to_bezier_1d(
            [Fraction(c, den) for c in nums], 5)]) for nums, den in polys]
        r0 = bez[0]
        r1 = r0 + bez[1] / 5.0
        r2 = 2.0 * r1 - r0 + bez[2] / 10.0
        out[(side, coord)] = np.vstack([r0, r1, r2])
    return out


def reference_fitted_geometry(name: str) -> TwoPatchGeometry:
    """The bundled smooth biquintic geometry 'a' or 'b'.

    The interface data (first three coefficient rows of both patches) is
    taken verbatim from the pinned tables; the interior rows complete the
    patches by weighted least squares against the bicubic input.
    The result is exactly smooth across the interface for the bundled
    gluing data.
    """
    from .assembly import SPDFactor, geometry_from_solutions, reference_projection
    from .geometry import bilinear_from_vertices
    from .gluing import gluing_from_bilinear

    geo = initial_geometry(name)
    fhat = bilinear_from_vertices(geo)
    asm, M, loads = reference_projection(geo, fhat, gluing_from_bilinear(fhat))
    basis = asm.basis
    dim2 = basis.num_basis
    rows = reference_interface_rows(name)
    A = np.hstack([basis.A_L, basis.A_R]).T
    sol = np.zeros((2, asm.dim))
    for coord, c in (("x", 0), ("y", 1)):
        target = np.concatenate([rows[("L", coord)].ravel(),
                                 rows[("R", coord)].ravel()])
        cint, *_ = np.linalg.lstsq(A, target, rcond=None)
        resid = np.linalg.norm(A @ cint - target)
        if resid > 1e-8 * max(np.abs(target).max(), 1.0):
            raise RuntimeError(
                f"pinned interface rows of {name!r}/{coord} are not smooth "
                f"(span residual {resid:.2e})")
        sol[c, :dim2] = cint
    r = loads - sol @ M.toarray()
    interior = SPDFactor(M.principal(np.arange(dim2, asm.dim)))
    for c in (0, 1):
        sol[c, dim2:] = interior.solve(r[c, dim2:])
    return geometry_from_solutions(asm, sol)
