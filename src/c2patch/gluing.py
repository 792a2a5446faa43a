"""Linear gluing data along the two-patch interface and derived invariants.

The gluing data consists of four linear polynomials (alpha_L, alpha_R,
beta_L, beta_R) relating transversal derivatives of the two patches along
the shared edge.  Derived quantities: the quadratic beta, the common monic
factor q of the alphas, the reduced alphas, the auxiliary factor h and the
set of interior knots where beta vanishes.

The G2 conditions do not change when both alphas are multiplied by the same
number, and neither does any decision made here: each zero, degree and
common-root decision is taken on the gluing data with both alphas divided
by their common scale (``_normalised_alphas``), where a coefficient of size at
most ``COEF_TOL`` counts as zero, and a knot is a root of beta where beta is
at most ``ROOT_TOL`` times its own largest coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .bspline import KnotVector
from .geometry import TwoPatchGeometry

ROOT_TOL = 1e-10
COEF_TOL = 1e-12
GLUING_KEYS = ("alpha_L", "alpha_R", "beta_L", "beta_R")


class GluingError(ValueError):
    """Invalid gluing data (e.g. violated sign condition)."""


@dataclass(frozen=True)
class GluingData:
    """Linear gluing functions of a two-patch interface, each a
    ``Polynomial`` with the two coefficients [const, slope]."""

    alpha_L: Polynomial
    alpha_R: Polynomial
    beta_L: Polynomial
    beta_R: Polynomial

    def alpha(self, side: str) -> Polynomial:
        return self.alpha_L if side == "L" else self.alpha_R

    def beta(self, side: str) -> Polynomial:
        return self.beta_L if side == "L" else self.beta_R

    def to_dict(self) -> dict:
        return {key: getattr(self, key).coef.tolist() for key in GLUING_KEYS}

    @staticmethod
    def from_dict(data: dict) -> "GluingData":
        """Gluing data from one or two finite coefficients per function."""
        try:
            coefs = [np.array(data[key], dtype=float) for key in GLUING_KEYS]
        except (KeyError, TypeError, ValueError) as exc:
            raise GluingError(f"malformed gluing record: {exc}") from exc
        for key, c in zip(GLUING_KEYS, coefs):
            if c.ndim != 1 or not 1 <= len(c) <= 2:
                raise GluingError(f"malformed gluing record: {key} must list "
                                  f"one or two coefficients, got {data[key]!r}")
            if not np.isfinite(c).all():
                raise GluingError(f"malformed gluing record: {key} has "
                                  f"non-finite coefficients {c.tolist()}")
        return GluingData(*(Polynomial(np.pad(c, (0, 2 - len(c))))
                            for c in coefs))


def _normalised_alphas(g: GluingData) -> tuple[np.ndarray, float]:
    """The coefficients of alpha_L and alpha_R (rows) divided by the power
    of two just above the largest of them, an exact division, and that
    power."""
    coef = np.array([g.alpha_L.coef, g.alpha_R.coef])
    scale = np.ldexp(1.0, np.frexp(np.abs(coef).max())[1])
    return coef / scale, scale


def _degree(coef: np.ndarray) -> int:
    """Degree of a polynomial of normalised gluing data, given by its
    coefficients; -1 for zero."""
    return int(np.flatnonzero(np.abs(coef) > COEF_TOL).max(initial=-1))


def verify_sign_condition(g: GluingData) -> bool:
    """True iff alpha_L * alpha_R < 0 on all of [0, 1]: neither alpha is
    zero, their signs differ at v = 0 and at v = 1, and alpha_L has the same
    sign at both ends, so that neither has a root in [0, 1]."""
    alphas, _ = _normalised_alphas(g)
    if min(_degree(a) for a in alphas) < 0:
        return False
    (l0, l1), (r0, r1) = ((a[0], a[0] + a[1]) for a in alphas)
    return bool(l0 * r0 < 0.0 and l1 * r1 < 0.0 and l0 * l1 > 0.0)


def beta_from_gluing(g: GluingData) -> Polynomial:
    """beta = alpha_L * beta_R - alpha_R * beta_L (degree <= 2)."""
    poly = g.alpha_L * g.beta_R - g.alpha_R * g.beta_L
    coef = np.zeros(3)
    coef[:len(poly.coef)] = poly.coef
    return Polynomial(coef)


def gluing_from_bilinear(fhat: TwoPatchGeometry) -> GluingData:
    """Extract the linear gluing data of a bilinear two-patch geometry.

    alpha_S(v) = det[D_u F_S(0, v), F0'(v)] and
    beta_S(v)  = D_u F_S(0, v) . F0'(v) / |F0'(v)|^2.
    """
    if fhat.space.degree != 1:
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
        alphas[side] = Polynomial([d0[0] * edge[1] - d0[1] * edge[0],
                                   (d1 - d0)[0] * edge[1] - (d1 - d0)[1] * edge[0]])
        betas[side] = Polynomial([float(d0 @ edge) / edge_sq,
                                  float((d1 - d0) @ edge) / edge_sq])

    g = GluingData(alphas["L"], alphas["R"], betas["L"], betas["R"])
    if not verify_sign_condition(g):
        raise GluingError("sign condition alpha_L * alpha_R < 0 fails on [0, 1]")
    return g


def _monic_gcd_linear(f: np.ndarray, g: np.ndarray) -> Polynomial | None:
    """Monic gcd of two linear polynomials of normalised gluing data, given
    by their coefficients, via root comparison.

    Returns None when both polynomials vanish identically (gcd undefined).
    """
    nonzero = [c for c in (f, g) if _degree(c) >= 0]
    if not nonzero:
        return None
    roots = [-c[0] / c[1] for c in nonzero if _degree(c) == 1]
    if len(roots) == len(nonzero) and np.ptp(roots) <= ROOT_TOL:
        return Polynomial([-np.mean(roots), 1.0])
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
    beta_is_zero: bool
    inner_knots: tuple[float, ...]

    @property
    def z_beta(self) -> int:
        return len(self.Z_beta)

    def atilde(self, side: str) -> Polynomial:
        return self.atilde_L if side == "L" else self.atilde_R


def gluing_invariants(g: GluingData, base: KnotVector) -> GluingInvariants:
    """All derived gluing quantities at the interior knots of ``base``;
    gluing data that violate the sign condition raise ``GluingError``."""
    if not verify_sign_condition(g):
        raise GluingError("sign condition alpha_L * alpha_R < 0 fails on [0, 1]")
    beta = beta_from_gluing(g)
    alphas, scale = _normalised_alphas(g)
    beta_is_zero = _degree(beta.coef / scale) < 0

    q = _monic_gcd_linear(*alphas)
    deg_q = q.degree()

    # q = v - rho with rho the shared root of both alphas, so alpha / q is
    # alpha's slope
    atilde = {side: Polynomial(alpha.coef[1:]) if deg_q else alpha
              for side, alpha in (("L", g.alpha_L), ("R", g.alpha_R))}

    # h = 1 where q also divides both betas, unless both vanish
    gcd_beta = _monic_gcd_linear(g.beta_L.coef, g.beta_R.coef)
    h = q
    if deg_q and gcd_beta is not None and gcd_beta.degree() == 1 and abs(
            gcd_beta.coef[0] - q.coef[0]) <= ROOT_TOL:
        h = Polynomial([1.0])

    d_alpha = max(_degree(a) for a in alphas)

    inner = base.inner_knots
    near = np.abs(beta(np.array(inner))) < ROOT_TOL * np.abs(beta.coef).max()
    Z = tuple(int(i) + 1 for i in np.flatnonzero(near | beta_is_zero))

    return GluingInvariants(
        q=q, h=h, atilde_L=atilde["L"], atilde_R=atilde["R"], beta=beta,
        d_alpha=d_alpha, d_atilde=d_alpha - deg_q, d_h=h.degree(),
        Z_beta=Z, beta_is_zero=beta_is_zero, inner_knots=inner)


@dataclass(frozen=True)
class ResidualReport:
    """Max sampled residuals of the three interface matching equations."""

    c0: float
    c1: float
    c2: float
    tol: float

    @property
    def passed(self) -> bool:
        # a NaN residual fails, wherever it stands
        return all(r < self.tol for r in (self.c0, self.c1, self.c2))

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
    eta = 2.0 * g.alpha_L.coef[1] * aR * bv
    theta = 2.0 * (aL * g.beta_L.coef[1] - g.alpha_L.coef[1] * g.beta_L(vs)) * aR * bv
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


def interface_samples(F: TwoPatchGeometry,
                      n_samples: int | None = None) -> int:
    """Sample count of the interface checks: ``n_samples``, which must be
    a positive integer, or when None 2 (p + 1) per knot span of the
    interface, so that it grows with the trace space."""
    if n_samples is None:
        return 2 * (F.space.degree + 1) * (F.space.kv.num_inner + 1)
    if (isinstance(n_samples, bool)
            or not isinstance(n_samples, (int, np.integer)) or n_samples < 1):
        raise ValueError(
            f"n_samples must be a positive integer, got {n_samples!r}")
    return int(n_samples)


def verify_bilinear_like(F: TwoPatchGeometry, g: GluingData,
                         n_samples: int | None = None,
                         tol: float = 1e-9) -> ResidualReport:
    """Sampled residuals of the three vector matching equations along u = 0.

    The equations are those of ``matching_weights``.  Each residual is
    scaled by the largest size its terms reach at the samples, so that
    the report does not change with the scale of the domain.
    """
    vs = np.linspace(0.0, 1.0, interface_samples(F, n_samples))
    W = matching_weights(g, vs)
    jets = np.stack([F.patch_L.derivs(0.0, vs, 2, 2),
                     F.patch_R.derivs(0.0, vs, 2, 2)])
    r = np.einsum("vesab,sabvc->vec", W, jets)
    # |residual| <= size, so an equation whose terms all vanish reads 0
    size = np.einsum("vesab,sabv->ve", np.abs(W),
                     np.hypot(jets[..., 0], jets[..., 1])).max(axis=0)
    worst = np.hypot(r[..., 0], r[..., 1]).max(axis=0)
    return ResidualReport(*(worst / np.where(size > 0, size, 1.0)).tolist(), tol)
