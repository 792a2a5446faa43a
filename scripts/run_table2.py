#!/usr/bin/env python3
"""Run the full dyadic-refinement benchmark on the bundled geometries.

Produces one CSV per (geometry, space) combination, mirroring the layout
L, dim_V1, dim_V2_or_W2, rel_L2_err, ecr, cond, cond_rate.

Usage: python scripts/run_table2.py [--levels N] [--outdir DIR]
"""

import argparse
import json
import time
from importlib import resources
from pathlib import Path

from c2patch.assembly import convergence_study, reports_to_csv
from c2patch.fields import FIELDS
from c2patch.geometry import geometry_from_dict
from c2patch.gluing import GluingData


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--levels", type=int, default=5)
    parser.add_argument("--outdir", default="table2_out")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(exist_ok=True)
    for name in ("a", "b"):
        ref = resources.files("c2patch") / "assets" / f"fitted_{name}.json"
        data = json.loads(ref.read_text())
        geo, gluing_raw = geometry_from_dict(data)
        g = GluingData.from_dict(gluing_raw)
        for space in ("v2", "w2"):
            t0 = time.time()
            reports = convergence_study(geo, g, space, args.levels,
                                        FIELDS["cos2sin2"])
            path = outdir / f"{name}_{space}.csv"
            path.write_text(reports_to_csv(reports))
            print(f"{path}  [{time.time() - t0:.1f}s]")
            for rep in reports:
                rate = "-" if rep.rate is None else f"{rep.rate:.2f}"
                print(f"  L={rep.level} dim={rep.dim_interface:4d} "
                      f"err={rep.rel_l2_error:.3e} rate={rate} "
                      f"cond={rep.cond:.2f}")


if __name__ == "__main__":
    main()
