"""Stage-timed benchmark of c2patch: the Table-2 study and the verify/fit path.

Run from the repository root:

    python3 perfbench/run.py --workload verify-fit --seed 0 --seconds 45 --trace 0

The workload's cases run in a closed loop in this one process, one case after
another: whole sweeps (every case of the workload once, in a seeded order)
while another sweep fits in ``--seconds``, then the largest case alone until
``--seconds`` have passed.  Every output is checked.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the cases run untraced and then the
first sweep again, traced, and the metrics are the per-layer ones.  A
record of the run, with its spans when traced, is written to
``perfbench/out/``.  See ``perfbench/README.md`` for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import NullTracer, Tracer, counting

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# In an untraced run, setup is timed in this process, in SETUP_BEFORE fresh
# interpreters before the cases and in SETUP_AFTER fresh ones after them, so
# that the samples come from both ends of the run.
SETUP_BEFORE, SETUP_AFTER = 3, 4

LAYER_SPANS = ("smooth.basis", "assembly.cond", "assembly.solve",
               "assembly.quadrature", "assembly.mass", "assembly.load",
               "assembly.error", "assembly.fit", "smooth.c2verify",
               "smooth.oracle", "geometry.refine", "geometry.represent",
               "gluing.invariants", "gluing.verify")
COUNTS = ("bspline.eval_basis_calls", "smooth.basis_functions",
          "assembly.dofs", "assembly.mass_nnz", "assembly.quad_points")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads(n: int) -> None:
    """Keep BLAS within the cores this process may use (before numpy loads)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, n))
        except ValueError:
            current = n
        os.environ[var] = str(max(1, min(current, n)))


# ---------------------------------------------------------------------------
# run metadata


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "c2patch").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def blas_threads_in_use(packages) -> dict[str, int]:
    """Thread count reported by the OpenBLAS bundled with each package."""
    out = {}
    for pkg in packages:
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def run_metadata() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_use": blas_threads_in_use((numpy, scipy)),
    }


# ---------------------------------------------------------------------------
# measurement


def setup_probe_times(argv, n: int) -> list[float]:
    """Setup time of ``n`` fresh interpreters, one after another."""
    times = []
    for _ in range(n):
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              *argv, "--setup-probe"],
                             capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def end_to_end_metrics(run, workload, setup_times: list[float]) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "cases_per_s": {"value": len(workload.cases) / run.sweep_estimate(),
                        "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def per_sweep(totals: dict, runs: dict[str, int]) -> dict[str, float]:
    """Per-sweep values from totals keyed by (name, case id).

    Each case adds its total divided by the number of times it ran, so a
    case run more often than the others does not weigh more.
    """
    out: dict[str, float] = {}
    for (name, case), value in totals.items():
        if case is not None:
            out[name] = out.get(name, 0.0) + value / runs[case]
    return out


def per_layer_metrics(untraced_s: float, traced, tracer: Tracer) -> dict:
    """Per-sweep layer self times and counts, plus the benchmark's own cost.

    ``untraced_s`` is the untraced time in cases of the steps that ``traced``
    replayed.
    """
    runs = traced.runs()
    self_times = per_sweep(tracer.self_times(), runs)
    counts = per_sweep(tracer.counts, runs)
    metrics = {f"{name}_s": {"value": self_times.get(name, 0.0), "unit": "s"}
               for name in LAYER_SPANS}
    metrics.update({name: {"value": counts.get(name, 0.0), "unit": "count"}
                    for name in COUNTS})
    metrics["bench.self_s"] = {"value": self_times.get("case", 0.0),
                               "unit": "s"}
    metrics["trace.overhead_frac"] = {
        "value": (traced.busy - untraced_s) / untraced_s,
        "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "c2patch" / "__init__.py").is_file():
        print(f"error: no c2patch package sources under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads(nproc())
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import workloads
    inp = workloads.setup()
    setup_here = time.perf_counter() - t0
    if args.setup_probe:
        print(repr(setup_here))
        return 0

    import c2patch
    from c2patch.bspline import SplineSpace1D
    from c2patch.fields import resolve_field

    if Path(c2patch.__file__).resolve().parent != SRC / "c2patch":
        print(f"error: c2patch imported from {c2patch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    setup_times = [setup_here]
    if not args.trace:
        setup_times += setup_probe_times(argv, SETUP_BEFORE)
    expr = workloads.field_expression(args.seed)
    f = resolve_field(expr)

    checks = workloads.Checks()
    untraced = workloads.measure(workload, inp, f, args.seed, args.seconds,
                                 NullTracer(), checks)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "field": expr,
              "run": run_metadata(), "setup_times": setup_times,
              "untraced": vars(untraced)}
    if args.trace:
        # The traced pass replays the first sweep, case for case.
        first = untraced.steps[:1]
        tracer = Tracer()
        with counting(tracer, SplineSpace1D, "eval_basis",
                      "bspline.eval_basis_calls"):
            traced = workloads.measure(workload, inp, f, args.seed,
                                       args.seconds, tracer, checks, first)
        untraced_s = sum(untraced.case_times[cid][0] for cid in first[0])
        metrics = per_layer_metrics(untraced_s, traced, tracer)
        record.update(traced=vars(traced), spans=tracer.spans)
    else:
        setup_times += setup_probe_times(argv, SETUP_AFTER)
        metrics = end_to_end_metrics(untraced, workload, setup_times)

    correct = checks.failed == 0
    record.update(metrics=metrics, attempted=checks.attempted,
                  failed=checks.failed, failures=checks.notes)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    largest = untraced.case_times[workload.largest]
    sweeps = sum(len(ids) == len(workload.cases) for ids in untraced.steps)
    print(f"workload {args.workload}  seed {args.seed}  field {expr}")
    print(f"  {sweeps} sweep(s) of {len(workload.cases)} cases, "
          f"{len(untraced.steps) - sweeps} extra run(s) of {workload.largest}, "
          f"{untraced.busy:.2f} s in cases untraced")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'largest_case_s':28s} {statistics.median(largest):.6g} s "
          f"(median of {len(largest)} run(s) of {workload.largest}, "
          f"max {max(largest):.6g} s; summary only)")
    print(f"  {'failed_frac':28s} {checks.failed / max(checks.attempted, 1):.6g} "
          f"ratio ({checks.failed} of {checks.attempted} checks)")
    for note in checks.notes[:10]:
        print(f"  FAILED {note}")
    print(f"  run {json.dumps(record['run'])}")
    print(f"  record {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
