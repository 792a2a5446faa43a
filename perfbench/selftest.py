"""Self-test of the benchmark's output checks.

Runs a few small cases with the pinned reference values, which must all
pass, and then once per corrupted reference value, which must raise
failed_frac above 0.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from c2patch.fields import resolve_field  # noqa: E402
from spans import NullTracer  # noqa: E402

CASES = [workloads.Case("table2", "a", "v2", 0),
         workloads.Case("table2", "a", "v2", 1),
         workloads.Case("fit", "a")]


def corrupted(what: str) -> dict:
    """A copy of the pinned values with one entry used by CASES changed."""
    ref = copy.deepcopy(workloads.PINNED)
    if what == "dim":
        ref["dim"][("a", "v2")][1] += 1
    elif what == "dim_v1":
        ref["dim_v1"][0] += 1
    elif what == "cond":
        ref["cond"][("a", "v2")][1] *= 1.2
    elif what == "err":
        ref["err"][("a", "v2")][0] *= 1.1
    elif what == "fit_eps":
        ref["fit_eps"]["a"] *= 1.0 + 1e-5
    return ref


def failed_frac(inp, f, ref: dict) -> float:
    checks = workloads.Checks()
    workloads.run_sweep(CASES, inp, f, NullTracer(), checks, True, ref)
    return checks.failed / checks.attempted


def main() -> int:
    inp = workloads.setup()
    f = resolve_field(workloads.field_expression(0))
    ok = True
    for what in ("pinned", "dim", "dim_v1", "cond", "err", "fit_eps"):
        ref = workloads.PINNED if what == "pinned" else corrupted(what)
        frac = failed_frac(inp, f, ref)
        good = frac == 0.0 if what == "pinned" else frac > 0.0
        ok = ok and good
        print(f"{what:8s} failed_frac {frac:.3f} {'ok' if good else 'WRONG'}")
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
