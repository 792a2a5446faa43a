#!/usr/bin/env python3
"""Regenerate the bundled geometry assets under src/c2patch/assets/.

Writes, for each bundled instance 'a' and 'b':
  initial_<name>.json   - the bicubic two-patch input
  bilinear_<name>.json  - its bilinear vertex interpolant + gluing data
  fitted_<name>.json    - the reference smooth biquintic geometry + gluing
"""

from pathlib import Path

from c2patch.builtin import initial_geometry, reference_fitted_geometry
from c2patch.geometry import bilinear_from_vertices, save_geometry
from c2patch.gluing import gluing_from_bilinear

ASSETS = Path(__file__).resolve().parent.parent / "src" / "c2patch" / "assets"


def main():
    ASSETS.mkdir(exist_ok=True)
    for name in ("a", "b"):
        geo = initial_geometry(name)
        geo.validate()
        save_geometry(ASSETS / f"initial_{name}.json", geo, regularity=2)

        fhat = bilinear_from_vertices(geo)
        g = gluing_from_bilinear(fhat)
        save_geometry(ASSETS / f"bilinear_{name}.json", fhat, gluing=g,
                      regularity=0)

        fitted = reference_fitted_geometry(name)
        fitted.validate()
        save_geometry(ASSETS / f"fitted_{name}.json", fitted, gluing=g,
                      regularity=2)
        print(f"wrote assets for geometry {name!r}")


if __name__ == "__main__":
    main()
