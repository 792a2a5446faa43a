"""Linear gluing data along the two-patch interface and derived invariants.

The gluing data consists of four linear polynomials (alpha_L, alpha_R,
beta_L, beta_R) relating transversal derivatives of the two patches along
the shared edge.  Derived quantities: the quadratic beta, the common monic
factor q of the alphas, the reduced alphas, the auxiliary factor h, the set
of interior knots where beta vanishes, and the smoothness-adjusted knot
vector used by the trace space of the smooth basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .bspline import KnotVector, make_knot_vector
from .geometry import TwoPatchGeometry

ROOT_TOL = 1e-10
COEF_TOL = 1e-12


class GluingError(ValueError):
    """Invalid gluing data (e.g. violated sign condition)."""


@dataclass(frozen=True)
class LinearPoly:
    """The linear polynomial const + slope * v on [0, 1]."""

    const: float
    slope: float = 0.0

    def __call__(self, v):
        return self.const + self.slope * np.asarray(v, dtype=float)

    @property
    def poly(self) -> Polynomial:
        return Polynomial([self.const, self.slope])

    def degree(self) -> int:
        return max(_poly_degree(self.poly), 0)

    def root(self) -> float:
        if self.degree() == 0:
            raise ValueError("constant polynomial has no root")
        return -self.const / self.slope

    def is_zero(self) -> bool:
        return abs(self.const) <= COEF_TOL and abs(self.slope) <= COEF_TOL

    def to_list(self) -> list[float]:
        return [float(self.const), float(self.slope)]

    @staticmethod
    def from_list(data) -> "LinearPoly":
        data = list(data)
        if not 1 <= len(data) <= 2:
            raise ValueError(f"{len(data)} coefficients of a linear polynomial")
        a, b = (float(x) for x in (data + [0.0])[:2])
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError(f"non-finite coefficients {[a, b]}")
        return LinearPoly(a, b)


@dataclass(frozen=True)
class GluingData:
    """Linear gluing functions of a two-patch interface."""

    alpha_L: LinearPoly
    alpha_R: LinearPoly
    beta_L: LinearPoly
    beta_R: LinearPoly

    def alpha(self, side: str) -> LinearPoly:
        return self.alpha_L if side == "L" else self.alpha_R

    def beta(self, side: str) -> LinearPoly:
        return self.beta_L if side == "L" else self.beta_R

    def to_dict(self) -> dict:
        return {"alpha_L": self.alpha_L.to_list(),
                "alpha_R": self.alpha_R.to_list(),
                "beta_L": self.beta_L.to_list(),
                "beta_R": self.beta_R.to_list()}

    @staticmethod
    def from_dict(data: dict) -> "GluingData":
        try:
            return GluingData(*(LinearPoly.from_list(data[key]) for key in
                                ("alpha_L", "alpha_R", "beta_L", "beta_R")))
        except (KeyError, TypeError, ValueError) as exc:
            raise GluingError(f"malformed gluing record: {exc}") from exc


def verify_sign_condition(g: GluingData) -> bool:
    """True iff alpha_L * alpha_R < 0 on all of [0, 1]."""
    for lin in (g.alpha_L, g.alpha_R):
        if lin.is_zero():
            return False
        if lin.degree() == 1 and 0.0 <= lin.root() <= 1.0:
            return False
    return bool(g.alpha_L(0.0) * g.alpha_R(0.0) < 0.0
                and g.alpha_L(1.0) * g.alpha_R(1.0) < 0.0)


def beta_from_gluing(g: GluingData) -> Polynomial:
    """beta = alpha_L * beta_R - alpha_R * beta_L (degree <= 2)."""
    poly = g.alpha_L.poly * g.beta_R.poly - g.alpha_R.poly * g.beta_L.poly
    coef = np.zeros(3)
    coef[:len(poly.coef)] = poly.coef
    return Polynomial(coef)


def gluing_from_bilinear(fhat: TwoPatchGeometry) -> GluingData:
    """Extract the linear gluing data of a bilinear two-patch geometry.

    alpha_S(v) = det[D_u F_S(0, v), F0'(v)] and
    beta_S(v)  = D_u F_S(0, v) . F0'(v) / |F0'(v)|^2.
    """
    for side in fhat.sides:
        if fhat.patch(side).degree != 1:
            raise GluingError("gluing extraction requires bilinear patches")

    cp_L = fhat.patch_L.control_points
    edge = cp_L[0, 1] - cp_L[0, 0]          # F0'(v), constant for bilinear
    edge_sq = float(edge @ edge)
    if edge_sq <= (COEF_TOL * fhat.diameter) ** 2:
        raise GluingError("interface edge has zero length")

    alphas = {}
    betas = {}
    for side in fhat.sides:
        cp = fhat.patch(side).control_points
        d0 = cp[1, 0] - cp[0, 0]            # D_u F(0, 0)
        d1 = cp[1, 1] - cp[0, 1]            # D_u F(0, 1)
        # D_u F(0, v) = d0 + (d1 - d0) v
        alphas[side] = LinearPoly(float(d0[0] * edge[1] - d0[1] * edge[0]),
                                  float((d1 - d0)[0] * edge[1] - (d1 - d0)[1] * edge[0]))
        betas[side] = LinearPoly(float(d0 @ edge) / edge_sq,
                                 float((d1 - d0) @ edge) / edge_sq)

    g = GluingData(alphas["L"], alphas["R"], betas["L"], betas["R"])
    if not verify_sign_condition(g):
        raise GluingError("sign condition alpha_L * alpha_R < 0 fails on [0, 1]")
    return g


def _poly_degree(poly: Polynomial) -> int:
    coef = poly.coef
    scale = max(np.abs(coef).max(), 1.0)
    deg = -1
    for i, c in enumerate(coef):
        if abs(c) > COEF_TOL * scale:
            deg = i
    return deg


def _monic_gcd_linear(f: LinearPoly, g: LinearPoly) -> Polynomial | None:
    """Monic gcd of two linear polynomials via root comparison.

    Returns None when both polynomials vanish identically (gcd undefined).
    """
    fz, gz = f.is_zero(), g.is_zero()
    if fz and gz:
        return None
    if fz or gz:
        nz = g if fz else f
        if nz.degree() == 1:
            return Polynomial([-nz.root(), 1.0])
        return Polynomial([1.0])
    if f.degree() == 1 and g.degree() == 1 and abs(f.root() - g.root()) <= ROOT_TOL:
        return Polynomial([-0.5 * (f.root() + g.root()), 1.0])
    return Polynomial([1.0])


@dataclass(frozen=True)
class GluingInvariants:
    """Quantities derived from gluing data and the base knot vector."""

    q: Polynomial
    h: Polynomial
    atilde_L: Polynomial
    atilde_R: Polynomial
    beta: Polynomial
    d_alpha: int
    d_atilde: int
    d_h: int
    Z_beta: tuple[int, ...]       # 1-based interior-knot indices with beta = 0
    z_beta: int
    beta_is_zero: bool
    ttilde: KnotVector
    ttilde_branch: str

    def atilde(self, side: str) -> Polynomial:
        return self.atilde_L if side == "L" else self.atilde_R


def ttilde_knot_vector(p: int, r: int, inner_knots, beta_is_zero: bool,
                       Z_beta) -> tuple[KnotVector, str]:
    """Smoothness-adjusted knot vector: the four-branch selection by beta."""
    k = len(inner_knots)
    if beta_is_zero:
        branch = "beta==0: base"
    else:
        names = {0: "r+1", 1: "r+1, one knot raised", 2: "r+1, two knots raised"}
        branch = names[len(Z_beta)]
    if k == 0:
        return make_knot_vector(p, p - 1, 0), branch
    if beta_is_zero:
        return make_knot_vector(p, r, k, inner_knots), branch
    kv = make_knot_vector(p, r + 1, k, inner_knots)
    for ell in Z_beta:
        kv = kv.with_raised_multiplicity(ell, 1)
    return kv, branch


def gluing_invariants(g: GluingData, base: KnotVector) -> GluingInvariants:
    """All derived gluing quantities for a base knot vector T_k^{p,r};
    gluing data that violate the sign condition raise ``GluingError``."""
    if not verify_sign_condition(g):
        raise GluingError("sign condition alpha_L * alpha_R < 0 fails on [0, 1]")
    beta = beta_from_gluing(g)
    beta_scale = max(np.abs(beta.coef).max(), 1.0)
    beta_is_zero = bool(np.abs(beta.coef).max() <= COEF_TOL)

    q = _monic_gcd_linear(g.alpha_L, g.alpha_R)
    deg_q = _poly_degree(q)

    # q = v - rho with rho the shared root of both alphas, so alpha / q is
    # alpha's slope
    atilde = {side: Polynomial([alpha.slope]) if deg_q else alpha.poly
              for side, alpha in (("L", g.alpha_L), ("R", g.alpha_R))}

    gcd_beta = _monic_gcd_linear(g.beta_L, g.beta_R)
    if gcd_beta is not None and _poly_degree(gcd_beta) == deg_q and (
            deg_q == 0 or abs(gcd_beta.coef[0] - q.coef[0]) <= ROOT_TOL):
        h = Polynomial([1.0])
    else:
        h = q

    d_alpha = max(g.alpha_L.degree(), g.alpha_R.degree())
    d_atilde = max(_poly_degree(atilde["L"]), _poly_degree(atilde["R"]))
    d_h = _poly_degree(h)

    inner = base.inner_knots
    if beta_is_zero:
        Z = tuple(range(1, len(inner) + 1))
    else:
        Z = tuple(i + 1 for i, tau in enumerate(inner)
                  if abs(beta(tau)) < ROOT_TOL * beta_scale)

    p = base.degree
    mults = set(base.multiplicities[1:-1])
    if mults and len(mults) != 1:
        raise GluingError("base knot vector must have uniform interior multiplicity")
    r = p - mults.pop() if mults else p - 1
    ttilde, branch = ttilde_knot_vector(p, r, inner, beta_is_zero,
                                        () if beta_is_zero else Z)

    return GluingInvariants(
        q=q, h=h, atilde_L=atilde["L"], atilde_R=atilde["R"], beta=beta,
        d_alpha=d_alpha, d_atilde=d_atilde, d_h=d_h,
        Z_beta=Z, z_beta=len(Z), beta_is_zero=beta_is_zero,
        ttilde=ttilde, ttilde_branch=branch)


@dataclass(frozen=True)
class ResidualReport:
    """Max sampled residuals of the three interface matching equations."""

    c0: float
    c1: float
    c2: float
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.c0, self.c1, self.c2) < self.tol

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"interface residuals: c0={self.c0:.3e} c1={self.c1:.3e} "
                f"c2={self.c2:.3e} (tol {self.tol:.1e}) {status}")


def matching_weights(g: GluingData, vs) -> np.ndarray:
    """Weights of the three interface matching equations at the samples ``vs``.

    Returns ``W`` of shape (len(vs), 3, 2, 3, 3) such that equation ``eq`` at
    ``vs[m]`` reads sum_{side, a, b} W[m, eq, side, a, b] D_u^a D_v^b
    f_side(0, vs[m]) = 0, with side 0 = L and side 1 = R.  Equation 0 is
    interface agreement, equation 1 couples D_u of both patches through
    (alpha, beta), and equation 2 couples the second-order jets through the
    derived factors eta = 2 alpha_L' alpha_R beta and
    theta = 2 (alpha_L beta_L' - alpha_L' beta_L) alpha_R beta.
    """
    vs = np.atleast_1d(np.asarray(vs, dtype=float))
    aL, aR, bv = g.alpha_L(vs), g.alpha_R(vs), beta_from_gluing(g)(vs)
    eta = 2.0 * g.alpha_L.slope * aR * bv
    theta = 2.0 * (aL * g.beta_L.slope - g.alpha_L.slope * g.beta_L(vs)) * aR * bv
    W = np.zeros((len(vs), 3, 2, 3, 3))
    W[:, 0, 0, 0, 0] = 1.0
    W[:, 0, 1, 0, 0] = -1.0
    W[:, 1, 0, 1, 0] = aR
    W[:, 1, 1, 1, 0] = -aL
    W[:, 1, 0, 0, 1] = bv
    W[:, 2, 1, 2, 0] = aL ** 3
    W[:, 2, 0, 2, 0] = -aL * aR ** 2
    W[:, 2, 0, 1, 1] = -2.0 * aL * aR * bv
    W[:, 2, 0, 0, 2] = -aL * bv ** 2
    W[:, 2, 0, 1, 0] = eta
    W[:, 2, 0, 0, 1] = theta
    return W


def verify_bilinear_like(F: TwoPatchGeometry, g: GluingData,
                         n_samples: int | None = None,
                         tol: float = 1e-9) -> ResidualReport:
    """Sampled residuals of the three vector matching equations along u = 0.

    The equations are those of ``matching_weights``.  Residuals are scaled
    by the domain diameter.
    """
    p = F.patch_L.degree
    k = F.patch_L.space.space_u.kv.num_inner
    if n_samples is None:
        n_samples = 2 * (p + 1) * (k + 1)
    vs = np.linspace(0.0, 1.0, n_samples)
    W = matching_weights(g, vs)
    jets = np.stack([F.patch_L.derivs(0.0, vs, 2, 2),
                     F.patch_R.derivs(0.0, vs, 2, 2)])
    r = np.einsum("vesab,sabvc->vec", W, jets)
    worst = np.hypot(r[..., 0], r[..., 1]).max(axis=0)
    c0, c1, c2 = (float(w) for w in worst / max(F.diameter, 1e-30))
    return ResidualReport(c0, c1, c2, tol)
