"""Inputs, cases and output checks of the c2patch benchmark.

A case is one unit of work:

- ``table2``: one refinement level of one Table-2 study (geometry, space,
  level L with k = 2^L - 1 inner knots), the body of
  ``assembly.convergence_study`` for that level;
- ``fit``: ``fit_bilinear_like`` on a bicubic input, then
  ``verify_bilinear_like`` on the result (the ``c2patch fit`` path);
- ``verify``: the nullspace oracle on the bilinear reference, both explicit
  bases on the refined fitted geometry and the C2 check of every basis
  function (the ``c2patch verify --oracle`` path).

Every call into a c2patch layer runs inside ``tracer.span(<layer>)``; the
layer names are the per-layer metric names without their ``_s`` suffix.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from importlib import resources
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from c2patch.assembly import (DomainAssembler, fit_bilinear_like,
                              scaled_condition_number, solve_spd)
from c2patch.bspline import make_knot_vector, uniform_inner_knots
from c2patch.geometry import (bilinear_from_vertices, load_geometry,
                              refine_geometry, represent_geometry)
from c2patch.gluing import (gluing_from_bilinear, gluing_invariants,
                            verify_bilinear_like)
from c2patch.smooth import (build_basis_v2, build_basis_w2,
                            constraint_nullspace_dim, dim_v1, dim_v2,
                            verify_c2_at_interface)

P, R = 5, 2
GEOMETRIES = ("a", "b")

# Reference values.  Dimensions, errors and condition numbers are the
# published Table-2 values that the acceptance suite pins; the fit errors
# are what fit_bilinear_like returns for the bundled bicubic inputs.
PINNED = {
    "dim": {
        ("a", "v2"): [15, 19, 27, 43, 75, 139],
        ("a", "w2"): [15, 18, 24, 36, 60, 108],
        ("b", "v2"): [18, 25, 39, 67, 123, 235],
        ("b", "w2"): [15, 18, 24, 36, 60, 108],
    },
    "dim_v1": [36, 108, 360, 1296, 4896, 19008],
    "err": {
        ("a", "v2"): [1.16e-01, 7.92e-03, 3.85e-04, 4.89e-06, 5.51e-08, 7.67e-10],
        ("a", "w2"): [1.16e-01, 8.09e-03, 5.09e-04, 6.26e-06, 6.25e-08, 8.02e-10],
        ("b", "v2"): [2.69e-01, 2.89e-02, 1.47e-03, 3.59e-05, 4.68e-07, 6.25e-09],
        ("b", "w2"): [3.49e-01, 8.60e-02, 1.78e-02, 2.14e-04, 1.18e-06, 9.83e-09],
    },
    "cond": {
        ("a", "v2"): [16825.54, 32444.61, 67575.40, 106706.11, 118077.96, 121572.95],
        ("a", "w2"): [16825.54, 32168.00, 39914.37, 38809.86, 38083.05, 38006.65],
        ("b", "v2"): [46744.57, 44746.92, 176234.54, 261523.74, 278536.53, 281426.32],
        ("b", "w2"): [12481.88, 29913.20, 38775.18, 38565.81, 38052.72, 37991.91],
    },
    "fit_eps": {"a": 6.46855050826115e-06, "b": 1.1768427755411527e-05},
}

SOLVE_RESIDUAL_TOL = 1e-8
C2_TOL = 1e-8
C2_SAMPLES = 50
ORACLE_MIN_GAP = 1e3
FIT_EPS_RTOL = 1e-6


def cond_tol(level: int) -> float:
    """Acceptance criterion 6: relative tolerance on the condition number."""
    return 0.15 if level == 5 else 0.10


def err_ok(level: int, got: float, want: float) -> bool:
    """Acceptance criterion 5: 5 % up to level 3, a factor 2 beyond."""
    if level <= 3:
        return abs(got - want) / want < 0.05
    return 0.5 < got / want < 2.0


# ---------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class Inputs:
    """Bundled geometries and their gluing data, per geometry name."""

    fitted: dict
    initial: dict
    bilinear: dict
    gluing: dict


def setup() -> Inputs:
    """Parse the bundled assets, extract the gluing data, warm up LAPACK."""
    assets = resources.files("c2patch") / "assets"
    fitted, initial, bilinear, gluing = {}, {}, {}, {}
    for name in GEOMETRIES:
        fitted[name], _ = load_geometry(assets / f"fitted_{name}.json")
        initial[name], _ = load_geometry(assets / f"initial_{name}.json")
        bilinear[name] = bilinear_from_vertices(initial[name])
        gluing[name] = gluing_from_bilinear(bilinear[name])
    _warm_up()
    return Inputs(fitted, initial, bilinear, gluing)


def _warm_up() -> None:
    """First dense LAPACK, SuperLU and ARPACK calls, outside any case."""
    a = np.random.default_rng(0).standard_normal((64, 64))
    spd = a @ a.T + 64.0 * np.eye(64)
    ones = np.ones(64)
    np.linalg.solve(spd, ones)
    np.linalg.eigvalsh(spd)
    np.linalg.svd(a, compute_uv=False)
    sparse = sp.csc_matrix(spd)
    spla.spsolve(sparse, ones)
    spla.eigsh(sparse, k=1, which="LA", return_eigenvectors=False)


def field_expression(seed: int) -> str:
    """The seeded load field A*cos(w1*x1 + f1)*sin(w2*x2 + f2).

    Seed 0 gives the Table-2 field cos2sin2 = 2*cos(2*x1)*sin(2*x2)
    exactly, so that the published errors apply to it.
    """
    if seed == 0:
        return "2*cos(2*x1)*sin(2*x2)"
    rng = random.Random(seed)
    amp = round(rng.uniform(1.0, 3.0), 4)
    w1, w2 = (round(rng.uniform(1.5, 3.0), 4) for _ in range(2))
    f1, f2 = (round(rng.uniform(0.0, 2.0 * math.pi), 4) for _ in range(2))
    return f"{amp}*cos({w1}*x1+{f1})*sin({w2}*x2+{f2})"


# ---------------------------------------------------------------------------
# cases and workloads


@dataclass(frozen=True)
class Case:
    kind: str               # "table2", "fit" or "verify"
    geometry: str           # "a" or "b"
    space: str = ""         # table2 only: "v2" or "w2"
    level: int = 0          # table2: refinement level; verify: knot count k

    @property
    def id(self) -> str:
        if self.kind == "table2":
            return f"table2/{self.geometry}/{self.space}/L{self.level}"
        if self.kind == "verify":
            return f"verify/{self.geometry}/k{self.level}"
        return f"fit/{self.geometry}"


@dataclass(frozen=True)
class Workload:
    cases: tuple[Case, ...]
    largest: str            # id of the case behind largest_case_s


WORKLOADS = {
    "table2-fine": Workload(
        tuple(Case("table2", "a", "v2", L) for L in range(6)),
        "table2/a/v2/L5"),
    "table2-coarse": Workload(
        tuple(Case("table2", g, s, L)
              for g in GEOMETRIES for s in ("v2", "w2") for L in range(4)),
        "table2/b/v2/L3"),
    "verify-fit": Workload(
        tuple(Case("fit", g) for g in GEOMETRIES)
        + tuple(Case("verify", g, level=k)
                for g in GEOMETRIES for k in (0, 1, 3, 7)),
        "verify/b/k7"),
}


@dataclass
class Checks:
    """Output checks attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def _knots(k: int):
    return make_knot_vector(P, R, k, uniform_inner_knots(k))


def run_table2(case: Case, inp: Inputs, f, tracer, checks: Checks,
               ref: dict, pinned_errors: bool) -> float:
    """One level of the Table-2 study; returns the relative L2 error."""
    L, key = case.level, (case.geometry, case.space)
    k = 2 ** L - 1
    kv = _knots(k)
    g = inp.gluing[case.geometry]
    with tracer.span("geometry.refine"):
        geo = refine_geometry(inp.fitted[case.geometry], kv) if k \
            else inp.fitted[case.geometry]
    with tracer.span("gluing.invariants"):
        inv = gluing_invariants(g, kv)
    build = build_basis_v2 if case.space == "v2" else build_basis_w2
    with tracer.span("smooth.basis"):
        basis = build(g, inv, P, R, k)
    with tracer.span("assembly.quadrature"):
        asm = DomainAssembler(geo, basis)
    with tracer.span("assembly.mass"):
        M = asm.mass()
    with tracer.span("assembly.load"):
        rhs = asm.load(f)
    with tracer.span("assembly.solve"):
        b = solve_spd(M, rhs)
    with tracer.span("assembly.error"):
        err = asm.relative_l2_error(b, f)
    with tracer.span("assembly.cond"):
        cond = scaled_condition_number(M)

    tracer.count("smooth.basis_functions", basis.num_basis)
    tracer.count("assembly.dofs", asm.dim)
    tracer.count("assembly.mass_nnz", M.nnz)
    tracer.count("assembly.quad_points", sum(
        pa.rule_u.nodes.size * pa.rule_v.nodes.size for pa in asm.asm.values()))

    cid = case.id
    checks.check(basis.num_basis == ref["dim"][key][L]
                 and dim_v1(P, R, k) == ref["dim_v1"][L], f"{cid}: dims")
    want = ref["cond"][key][L]
    checks.check(abs(cond - want) / want < cond_tol(L),
                 f"{cid}: cond {cond:.6g} vs {want:.6g}")
    resid = np.linalg.norm(M @ b - rhs) / np.linalg.norm(rhs)
    checks.check(resid < SOLVE_RESIDUAL_TOL, f"{cid}: solve residual {resid:.2e}")
    if pinned_errors:
        want = ref["err"][key][L]
        checks.check(err_ok(L, err, want), f"{cid}: error {err:.3e} vs {want:.3e}")
    return err


def run_fit(case: Case, inp: Inputs, tracer, checks: Checks, ref: dict) -> None:
    name = case.geometry
    g = inp.gluing[name]
    with tracer.span("assembly.fit"):
        result = fit_bilinear_like(inp.initial[name], inp.bilinear[name], g)
    with tracer.span("gluing.verify"):
        report = verify_bilinear_like(result.geometry, g)
    checks.check(report.passed, f"{case.id}: {report}")
    want = ref["fit_eps"][name]
    checks.check(abs(result.epsilon - want) <= FIT_EPS_RTOL * want,
                 f"{case.id}: epsilon {result.epsilon!r} vs {want!r}")


def run_verify(case: Case, inp: Inputs, tracer, checks: Checks) -> None:
    name, k = case.geometry, case.level
    kv = _knots(k)
    g = inp.gluing[name]
    with tracer.span("gluing.invariants"):
        inv = gluing_invariants(g, kv)
    with tracer.span("geometry.represent"):
        reference = represent_geometry(inp.bilinear[name], kv)
    with tracer.span("smooth.oracle"):
        oracle = constraint_nullspace_dim(reference, g, P, R, k)
    formula = dim_v2(inv, P, R, k)
    checks.check(oracle.nullspace_dim == formula and oracle.gap >= ORACLE_MIN_GAP,
                 f"{case.id}: oracle {oracle.nullspace_dim} vs {formula}, "
                 f"gap {oracle.gap:.1e}")
    with tracer.span("geometry.refine"):
        geo = refine_geometry(inp.fitted[name], kv) if k else inp.fitted[name]
    for build in (build_basis_v2, build_basis_w2):
        with tracer.span("smooth.basis"):
            basis = build(g, inv, P, R, k)
        tracer.count("smooth.basis_functions", basis.num_basis)
        for m in range(basis.num_basis):
            with tracer.span("smooth.c2verify"):
                rep = verify_c2_at_interface(geo, basis.rows("L", m),
                                             basis.rows("R", m), C2_SAMPLES, C2_TOL)
            checks.check(rep.passed, f"{case.id}/{build.__name__}[{m}]: {rep}")


def run_sweep(order: list[Case], inp: Inputs, f, tracer, checks: Checks,
              pinned_errors: bool, ref: dict = PINNED) -> dict[str, float]:
    """Run the cases in ``order`` once; returns wall seconds per case id.

    Garbage left by earlier cases is collected before each case starts, off
    the clock, so that every case starts from the same heap.  A case that
    raises counts as one failed check.  After the cases, the errors of each
    Table-2 study with two or more levels in ``order`` must decrease from
    level to level.
    """
    times = {}
    errors: dict[tuple[str, str], dict[int, float]] = {}
    for case in order:
        tracer.case = case.id
        gc.collect()
        t0 = perf_counter()
        with tracer.span("case"):
            try:
                if case.kind == "table2":
                    err = run_table2(case, inp, f, tracer, checks, ref,
                                     pinned_errors)
                    errors.setdefault((case.geometry, case.space),
                                      {})[case.level] = err
                elif case.kind == "fit":
                    run_fit(case, inp, tracer, checks, ref)
                else:
                    run_verify(case, inp, tracer, checks)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                checks.check(False, f"{case.id}: raised")
        times[case.id] = perf_counter() - t0
    tracer.case = None
    for (name, space), by_level in sorted(errors.items()):
        errs = [by_level[L] for L in sorted(by_level)]
        if len(errs) > 1:
            checks.check(all(b < a for a, b in zip(errs, errs[1:])),
                         f"table2/{name}/{space}: errors not decreasing {errs}")
    return times


@dataclass
class Pass:
    """The steps of one measured pass and the wall time of every case run.

    A step is a list of case ids run by one ``run_sweep`` call: a full sweep,
    or the workload's largest case alone.
    """

    steps: list
    case_times: dict

    @property
    def busy(self) -> float:
        """Seconds spent inside cases, summed over the pass."""
        return sum(sum(t) for t in self.case_times.values())

    def runs(self) -> dict[str, int]:
        return {cid: len(t) for cid, t in self.case_times.items()}

    def sweep_estimate(self) -> float:
        """Seconds for one sweep: the sum over cases of each case's median."""
        return sum(statistics.median(t) for t in self.case_times.values())


def measure(workload: Workload, inp: Inputs, f, seed: int, seconds: float,
            tracer, checks: Checks, plan: list | None = None) -> Pass:
    """Measure for ``seconds``, or replay the steps ``plan`` of an earlier pass.

    Full sweeps run, each in an order drawn from ``seed``, while another
    sweep (as long as the last one) still fits in ``seconds``.  The rest of
    the time goes to the largest case alone, so that a workload whose sweep
    nearly fills the run still times its largest case more than once.  A
    case that has started always finishes, so a pass runs at least one sweep
    and may end past ``seconds``.
    """
    by_id = {c.id: c for c in workload.cases}
    rng = random.Random(seed)
    steps: list[list[str]] = []
    case_times: dict[str, list[float]] = {}

    def step(cases: list[Case]) -> float:
        t = perf_counter()
        times = run_sweep(cases, inp, f, tracer, checks, seed == 0)
        steps.append([c.id for c in cases])
        for cid, dt in times.items():
            case_times.setdefault(cid, []).append(dt)
        return perf_counter() - t

    if plan is not None:
        for ids in plan:
            step([by_id[cid] for cid in ids])
        return Pass(steps, case_times)

    deadline = perf_counter() + seconds
    while True:
        order = list(workload.cases)
        rng.shuffle(order)
        sweep_s = step(order)
        if perf_counter() + sweep_s > deadline:
            break
    while perf_counter() < deadline:
        step([by_id[workload.largest]])
    return Pass(steps, case_times)
