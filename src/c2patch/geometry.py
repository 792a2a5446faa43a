"""Two-patch planar geometries: spline patches sharing the u = 0 edge.

Both patches and both parametric directions use one univariate spline
space S, so a geometry has one space (``TwoPatchGeometry.space``).  The
JSON geometry schema used by the CLI gives S by its degree, regularity and
interior knots:

    {
      "degree": p, "regularity": r, "knots_interior": [...],
      "patches": {"L": {"control_points": [[x, y], ...]}, "R": {...}},
      "gluing": {"alpha_L": [a, b], "alpha_R": [...],
                 "beta_L": [...], "beta_R": [...]}      # optional
    }

Control points are listed i-major (i along u, i = 0 at the interface;
j along v).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bspline import (KnotVector, SplineSpace1D, make_knot_vector, refine_to,
                      space_rule)

INTERFACE_TOL = 1e-10


class GeometryError(ValueError):
    """Invalid two-patch geometry data."""


@dataclass(frozen=True)
class Patch:
    """A planar tensor-product spline patch in S x S for one univariate
    spline space S, used along u and along v."""

    space: SplineSpace1D
    control_points: np.ndarray  # (n, n, 2), n = space.dim

    def __post_init__(self):
        cp = np.asarray(self.control_points, dtype=float)
        want = (self.space.dim, self.space.dim, 2)
        if cp.shape != want:
            raise GeometryError(
                f"control point grid {cp.shape} does not match {want}")
        object.__setattr__(self, "control_points", cp)

    def eval(self, us, vs, du: int = 0, dv: int = 0) -> np.ndarray:
        """d_u^du d_v^dv F on the grid us x vs: shape us.shape + vs.shape
        + (2,)."""
        return self.derivs(us, vs, du, dv)[du, dv]

    def derivs(self, us, vs, max_du: int, max_dv: int) -> np.ndarray:
        """All mixed derivatives d_u^a d_v^b F, a <= max_du, b <= max_dv, on
        the grid us x vs: shape (max_du+1, max_dv+1) + us.shape + vs.shape
        + (2,)."""
        us = np.asarray(us, dtype=float)
        vs = np.asarray(vs, dtype=float)
        Bu = self.space.basis_matrix(us.reshape(-1), max_du)
        Bv = self.space.basis_matrix(vs.reshape(-1), max_dv)
        # (a, u, j, c) x (b, v, j) -> (a, u, c, b, v) -> (a, b, u, v, c)
        out = np.tensordot(np.tensordot(Bu, self.control_points, 1), Bv, (2, 2))
        out = out.transpose(0, 3, 1, 4, 2)
        return out.reshape(out.shape[:2] + us.shape + vs.shape + (2,))


@dataclass(frozen=True)
class TwoPatchGeometry:
    """Two spline patches F_L, F_R in one space S x S that share the
    interface F_L(0, v) = F_R(0, v)."""

    patch_L: Patch
    patch_R: Patch

    def __post_init__(self):
        if self.patch_L.space != self.patch_R.space:
            raise GeometryError(
                f"patches must live in one spline space, got "
                f"{self.patch_L.space} and {self.patch_R.space}")

    @property
    def space(self) -> SplineSpace1D:
        """The univariate spline space S of both patches and directions."""
        return self.patch_L.space

    def patch(self, side: str) -> Patch:
        if side == "L":
            return self.patch_L
        if side == "R":
            return self.patch_R
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")

    @property
    def sides(self) -> tuple[str, str]:
        return ("L", "R")

    @cached_property
    def diameter(self) -> float:
        pts = np.vstack([self.patch_L.control_points.reshape(-1, 2),
                         self.patch_R.control_points.reshape(-1, 2)])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        return float(np.hypot(*(hi - lo)))

    def interface_mismatch(self) -> float:
        """Largest distance between the interface control points of the
        two patches.  It bounds max_v |F_L(0, v) - F_R(0, v)| (partition of
        unity) and is zero exactly when the interface curves agree (the
        B-splines are linearly independent)."""
        d = self.patch_L.control_points[0] - self.patch_R.control_points[0]
        return float(np.hypot(d[:, 0], d[:, 1]).max())

    def min_abs_jacobian(self) -> float:
        """Smallest |det J| over Gauss sample grids of both patches."""
        xs = space_rule(self.space, self.space.degree + 1).nodes.ravel()
        d = np.array([patch.derivs(xs, xs, 1, 1)
                      for patch in (self.patch_L, self.patch_R)])
        dets = d[:, 1, 0, ..., 0] * d[:, 0, 1, ..., 1] \
            - d[:, 1, 0, ..., 1] * d[:, 0, 1, ..., 0]
        return float(np.abs(dets).min())

    def validate(self) -> None:
        for side in self.sides:
            if not np.isfinite(self.patch(side).control_points).all():
                raise GeometryError(f"patch {side!r}: non-finite control point")
        mism = self.interface_mismatch()
        if mism > INTERFACE_TOL * max(self.diameter, 1e-30):
            raise GeometryError(
                f"patch interfaces disagree: interface control points "
                f"differ by up to {mism:.3e}")
        if self.min_abs_jacobian() <= 0.0:
            raise GeometryError("patch Jacobian vanishes on the sample grid")


def refine_geometry(geo: TwoPatchGeometry, target_kv: KnotVector) -> TwoPatchGeometry:
    """Exact knot-insertion refinement of both patches into S(target)^2.

    The patches share one spline space, so their control grids are stacked
    and refined by one ``refine_to`` along u and one along v.
    """
    kv = geo.space.kv
    cp = np.concatenate([geo.patch(side).control_points for side in geo.sides],
                        axis=-1)
    cp = refine_to(kv, target_kv, cp)                      # along u
    cp = np.swapaxes(refine_to(kv, target_kv, np.swapaxes(cp, 0, 1)), 0, 1)
    space = SplineSpace1D(target_kv)
    return TwoPatchGeometry(Patch(space, cp[..., :2]), Patch(space, cp[..., 2:]))


def represent_geometry(geo: TwoPatchGeometry,
                       target_kv: KnotVector) -> TwoPatchGeometry:
    """Represent both patches in S(target)^2 by Greville-grid interpolation.

    Exact (up to roundoff) when the patches already lie in the target space,
    e.g. low-degree polynomial patches re-expressed at a higher degree; a
    residual check at off-grid points guards against inexact inputs.
    """
    space = SplineSpace1D(target_kv)
    xi = space.greville()
    check_us, check_vs = np.array([0.37, 0.73]), np.array([0.51, 0.18])
    patches = {}
    for side in geo.sides:
        patch = geo.patch(side)
        samples = patch.eval(xi, xi)
        cp = space.interpolate(samples)                              # along u
        cp = np.swapaxes(space.interpolate(np.swapaxes(cp, 0, 1)), 0, 1)  # along v
        new = Patch(space, cp)
        err = np.abs(new.eval(check_us, check_vs)
                     - patch.eval(check_us, check_vs)).max()
        if err > 1e-9 * np.abs(samples).max():
            raise GeometryError(
                f"patch {side!r} is not representable in the target space "
                f"(residual {err:.2e})")
        patches[side] = new
    return TwoPatchGeometry(patches["L"], patches["R"])


def bilinear_from_vertices(initial: TwoPatchGeometry) -> TwoPatchGeometry:
    """Bilinear two-patch geometry interpolating the four corners of each patch."""
    space = SplineSpace1D(make_knot_vector(1, 0, 0))
    corner_tol = INTERFACE_TOL * max(initial.diameter, 1e-30)
    ends = np.array([0.0, 1.0])
    d = initial.patch_L.eval(0.0, ends) - initial.patch_R.eval(0.0, ends)
    for v, gap in zip(ends, np.hypot(d[:, 0], d[:, 1])):
        if gap > corner_tol:
            raise GeometryError(
                f"interface corners disagree at v={v}: |diff| = {gap:.3e}")
    return TwoPatchGeometry(*(Patch(space, initial.patch(side).eval(ends, ends))
                              for side in initial.sides))


# ---------------------------------------------------------------------------
# JSON geometry schema


def _patch_to_dict(patch: Patch) -> dict:
    return {"control_points": [[float(x), float(y)]
                               for x, y in patch.control_points.reshape(-1, 2)]}


def geometry_to_dict(geo: TwoPatchGeometry, gluing=None, *,
                     regularity: int) -> dict:
    kv = geo.space.kv
    out = {
        "degree": kv.degree,
        "regularity": int(regularity),
        "knots_interior": [float(t) for t in kv.inner_knots],
        "patches": {side: _patch_to_dict(geo.patch(side)) for side in geo.sides},
    }
    if gluing is not None:
        out["gluing"] = gluing.to_dict()
    return out


def geometry_from_dict(data: dict) -> tuple[TwoPatchGeometry, dict | None]:
    """Parse the geometry schema; returns (geometry, raw gluing dict or None)."""
    try:
        p, r = (float(data[key]) for key in ("degree", "regularity"))
        inner = [float(t) for t in data["knots_interior"]]
        patches_raw = data["patches"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GeometryError(f"malformed geometry record: {exc}") from exc
    for name, value in (("degree", p), ("regularity", r)):
        if not value.is_integer():
            raise GeometryError(f"{name} {value} is not an integer")
    p, r = int(p), int(r)
    if not 0 <= r <= p - 1:
        raise GeometryError(f"regularity {r} invalid for degree {p}")
    if not np.isfinite(inner).all():
        raise GeometryError("non-finite interior knot")
    space = SplineSpace1D(make_knot_vector(p, r, len(inner), inner))
    n = space.dim
    patches = {}
    for side in ("L", "R"):
        if side not in patches_raw:
            raise GeometryError(f"missing patch {side!r}")
        try:
            pts = np.asarray(patches_raw[side]["control_points"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise GeometryError(
                f"patch {side!r}: malformed control points: {exc}") from exc
        if pts.shape != (n * n, 2):
            raise GeometryError(
                f"patch {side!r}: expected {n * n} control points, got {pts.shape}")
        patches[side] = Patch(space, pts.reshape(n, n, 2))
    geo = TwoPatchGeometry(patches["L"], patches["R"])
    geo.validate()
    return geo, data.get("gluing")


def load_geometry(path) -> tuple[TwoPatchGeometry, dict | None]:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GeometryError(f"invalid JSON in {path}: {exc}") from exc
    return geometry_from_dict(data)


def save_geometry(path, geo: TwoPatchGeometry, gluing=None, *,
                  regularity: int) -> None:
    with open(path, "w") as fh:
        json.dump(geometry_to_dict(geo, gluing, regularity=regularity), fh,
                  indent=1)
        fh.write("\n")
