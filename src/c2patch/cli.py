"""Command line interface.

Subcommands: dim, gluing, basis, verify, fit, bilinear, table2.
Exit codes: 0 success, 1 validation failure, 2 numerical indeterminacy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from importlib import resources


from . import fields, smooth
from .bspline import make_knot_vector, uniform_inner_knots
from .geometry import (GeometryError, bilinear_from_vertices,
                       geometry_from_dict, refine_geometry,
                       represent_geometry, save_geometry)
from .gluing import (GluingData, beta_from_gluing,
                     gluing_from_bilinear, gluing_invariants,
                     verify_bilinear_like, verify_sign_condition)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INDETERMINATE = 2


class CommandError(ValueError):
    """Bad command-line input; ``main`` prints it and exits 1."""


def _resolve_geometry_path(path: str):
    """A filesystem path, or 'builtin:<name>' for a bundled asset."""
    if path.startswith("builtin:"):
        name = path.split(":", 1)[1]
        ref = resources.files("c2patch") / "assets" / f"{name}.json"
        if not ref.is_file():
            raise CommandError(f"no bundled geometry {name!r}")
        return str(ref)
    return path


def _load(path: str):
    real_path = _resolve_geometry_path(path)
    try:
        with open(real_path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CommandError(f"cannot read geometry file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CommandError(f"invalid JSON in geometry file: {exc}") from exc
    try:
        geo, gluing_raw = geometry_from_dict(data)
    except GeometryError as exc:
        raise CommandError(f"invalid geometry file: {exc}") from exc
    return geo, gluing_raw, int(data["regularity"])


def _gluing_for(geo, gluing_raw):
    if gluing_raw is not None:
        return GluingData.from_dict(gluing_raw)
    if geo.space.degree == 1:
        return gluing_from_bilinear(geo)
    raise CommandError(
        "geometry file carries no gluing record and is not bilinear")


def _check_degree(degree, advice=""):
    if degree < 5:
        raise CommandError(f"the geometry has degree {degree}, below the "
                           f"least space degree 5{advice}")


def _space_params(geo, args, file_r):
    degree = geo.space.degree
    if args.p is None:
        _check_degree(degree, "; pass --p 5 or higher")
    p = degree if args.p is None else args.p
    if args.r is not None:
        r = args.r
    else:
        # a lifted geometry's file regularity is that of its own patches,
        # not of a space; the paper's spaces use r = 2
        r = file_r if degree >= 5 else 2
    if args.k is None:
        inner = geo.space.kv.inner_knots
        k = len(inner)
    else:
        k = args.k
        if k < 0:
            raise CommandError(f"--k must be at least 0, got {k}")
        inner = uniform_inner_knots(k)
    return p, r, k, inner


def cmd_dim(args) -> int:
    geo, gluing_raw, file_r = _load(args.geometry)
    g = _gluing_for(geo, gluing_raw)
    p, r, k, inner = _space_params(geo, args, file_r)
    kv = make_knot_vector(p, r, k, inner)
    inv = gluing_invariants(g, kv)
    g0, g1, g2 = smooth.dim_gamma(inv, p, r, k)
    d_v1 = smooth.dim_v1(p, r, k)
    d_v2 = smooth.dim_v2(inv, p, r, k)
    d_w2 = smooth.dim_w2(p, r, k, inv.d_alpha)
    print(f"p={p} r={r} k={k}")
    print(f"q = {inv.q.coef.tolist()}  h = {inv.h.coef.tolist()}")
    print(f"d_alpha={inv.d_alpha} d_atilde={inv.d_atilde} d_h={inv.d_h}")
    print(f"z_beta={inv.z_beta} Z_beta={list(inv.Z_beta)}")
    print(f"dim_Gamma0 = {g0}  dim_Gamma1 = {g1}  dim_Gamma2 = {g2}")
    print(f"dim_V1 = {d_v1}")
    print(f"dim_V2 = {d_v2}")
    print(f"dim_V = {d_v1 + d_v2}")
    print(f"dim_W2 = {d_w2}")
    print(f"dim_W = {d_v1 + d_w2}")
    return EXIT_OK


def cmd_gluing(args) -> int:
    geo, gluing_raw, _file_r = _load(args.geometry)
    g = _gluing_for(geo, gluing_raw)
    rows = dict(g.to_dict(), beta=beta_from_gluing(g).coef.tolist())
    for key, coef in rows.items():
        print(f"{key:<7} = {coef}")
    ok = verify_sign_condition(g)
    print(f"sign condition: {'OK' if ok else 'VIOLATED'}")
    return EXIT_OK if ok else EXIT_INVALID


def _output(path):
    """The ``--out`` file opened for writing, or stdout (left open)."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _build_basis(geo, g, space, p, r, k, inner):
    """Basis at the given parameters + the geometry refined to match.

    A bilinear geometry lies in every space, so it is represented at the
    space's degree; any other geometry must have that degree.
    """
    degree = geo.space.degree
    if p != degree and degree != 1:
        raise CommandError(
            f"space degree {p} does not match the geometry degree {degree}")
    kv = make_knot_vector(p, r, k, inner)
    inv = gluing_invariants(g, kv)
    if degree != p:
        geo = represent_geometry(geo, kv)
    elif kv != geo.space.kv:
        geo = refine_geometry(geo, kv)
    build = smooth.build_basis_v2 if space == "v2" else smooth.build_basis_w2
    return build(g, inv, p, r, k), inv, geo


def cmd_basis(args) -> int:
    geo, gluing_raw, file_r = _load(args.geometry)
    g = _gluing_for(geo, gluing_raw)
    basis, _, _ = _build_basis(geo, g, args.space,
                               *_space_params(geo, args, file_r))
    with _output(args.out) as out:
        for record in basis.records():
            out.write(json.dumps(record))
            out.write("\n")
    print(f"exported {basis.num_basis} basis records "
          f"({args.space})", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    # a bilinear-like residual is at most 1 (|sum w j| <= sum |w| |j|), so
    # a tolerance of 1 or more passes that check whatever the input
    if not 0.0 < args.tol < 1.0:
        raise CommandError(f"--tol must be finite and positive and below 1, "
                           f"the largest bilinear-like residual, got {args.tol}")
    geo, gluing_raw, file_r = _load(args.geometry)
    g = _gluing_for(geo, gluing_raw)
    ok = verify_sign_condition(g)
    print(f"sign condition: {'OK' if ok else 'VIOLATED'}")
    if not ok:
        return EXIT_INVALID
    report = verify_bilinear_like(geo, g, tol=args.tol)
    print(report)
    all_ok = report.passed

    p, r, k, inner = _space_params(geo, args, file_r)
    basis, inv, geo = _build_basis(geo, g, args.space, p, r, k, inner)
    worst = smooth.verify_c2_at_interface(geo, basis.A_L, basis.A_R,
                                          tol=args.tol)
    print(f"{basis.num_basis} basis functions ({args.space}): {worst}")
    all_ok = all_ok and worst.passed

    if args.oracle:
        try:
            res = smooth.constraint_nullspace_dim(geo, g, p, r, k)
        except smooth.IndeterminateRankError as exc:
            print(f"oracle: INDETERMINATE ({exc})")
            return EXIT_INDETERMINATE
        nullity = res.nullspace_dim
        if args.space == "v2":
            formula = smooth.dim_v2(inv, p, r, k)
            agrees = nullity == formula
            claim = f"oracle={nullity} formula={formula}"
        else:
            # the nullity is dim V2, which contains W2
            formula = smooth.dim_w2(p, r, k, inv.d_alpha)
            agrees = formula <= nullity
            claim = f"oracle dim_V2={nullity} >= dim_W2={formula}"
        print(f"{claim} {'OK' if agrees else 'MISMATCH'} (gap {res.gap:.1e})")
        all_ok = all_ok and agrees
    return EXIT_OK if all_ok else EXIT_INVALID


def cmd_fit(args) -> int:
    # assembly loads scipy.sparse and scipy.linalg, which the other
    # commands do not need
    from . import assembly

    geo, _gluing, _file_r = _load(args.initial)
    if args.out:
        open(args.out, "w").close()     # a bad path fails before the fit
    fhat = bilinear_from_vertices(geo)
    g = gluing_from_bilinear(fhat)
    result = assembly.fit_bilinear_like(geo, fhat, g, weighted=not args.unweighted)
    print(f"discrete relative error: {result.epsilon:.6g}")
    if args.out:
        save_geometry(args.out, result.geometry, gluing=g, regularity=2)
        print(f"fitted geometry written to {args.out}")
    return EXIT_OK


def cmd_bilinear(args) -> int:
    geo, _gluing, _file_r = _load(args.initial)
    fhat = bilinear_from_vertices(geo)
    g = gluing_from_bilinear(fhat)
    if args.out:
        save_geometry(args.out, fhat, gluing=g, regularity=0)
        print(f"bilinear interpolant written to {args.out}")
    else:
        print(json.dumps(g.to_dict()))
    return EXIT_OK


def cmd_table2(args) -> int:
    from . import assembly

    if args.levels < 0:
        raise CommandError(f"--levels must be at least 0, got {args.levels}")
    geo, gluing_raw, _file_r = _load(args.geometry)
    _check_degree(geo.space.degree)
    g = _gluing_for(geo, gluing_raw)
    f = fields.resolve_field(args.function)
    space = args.space
    # an input the study rejects is no failure at a level: no table
    assembly.check_study_input(geo, space)
    reports, failure = [], None
    with _output(args.out) as out:
        try:
            assembly.convergence_study(geo, g, space, args.levels, f,
                                       on_report=reports.append)
        except ValueError as exc:
            failure = exc
        # whatever finished, with a trailing error row after a failure
        out.write(assembly.reports_to_csv(reports))
        if failure is not None:
            out.write(f"# error at level {len(reports)}: {failure}\n")
    if failure is not None:
        raise CommandError(
            f"convergence study failed: {failure}") from failure
    if args.out:
        print(f"wrote {args.out}")
    for rep in reports:
        rate = "-" if rep.rate is None else f"{rep.rate:.3g}"
        crate = "-" if rep.cond_rate is None else f"{rep.cond_rate:.3g}"
        print(f"L={rep.level} dim_V1={rep.dim_interior} "
              f"dim_{space}={rep.dim_interface} err={rep.rel_l2_error:.6g} "
              f"rate={rate} cond={rep.cond:.6g} cond_rate={crate}",
              file=sys.stderr)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c2patch",
        description="Smooth isogeometric spline spaces on two-patch domains")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space_opts(p):
        p.add_argument("--space", choices=("v2", "w2"), default="v2")
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--k", type=int, default=None)

    p = sub.add_parser("dim", help="dimension and invariant report")
    p.add_argument("--geometry", required=True)
    add_space_opts(p)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("gluing", help="print the interface gluing data")
    p.add_argument("--geometry", required=True)
    p.set_defaults(func=cmd_gluing)

    p = sub.add_parser("basis", help="export basis records as JSON lines")
    p.add_argument("--geometry", required=True)
    p.add_argument("--out", default=None)
    add_space_opts(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("verify", help="check interface smoothness")
    p.add_argument("--geometry", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--oracle", action="store_true")
    add_space_opts(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fit", help="fit a smooth geometry to a generic input")
    p.add_argument("--initial", required=True, help="input geometry JSON")
    p.add_argument("--out", default=None)
    p.add_argument("--unweighted", action="store_true",
                   help="project in the parameter domain instead of the "
                        "reference physical domain")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("bilinear", help="bilinear vertex interpolant + gluing")
    p.add_argument("--initial", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bilinear)

    p = sub.add_parser("table2", help="dyadic refinement convergence study")
    p.add_argument("--geometry", required=True)
    p.add_argument("--space", choices=("v2", "w2"), default="v2")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--function", default="cos2sin2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table2)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, smooth.RepresentationError) as exc:
        # every OSError comes from a path the user gave
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except smooth.IndeterminateRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE


if __name__ == "__main__":
    sys.exit(main())
