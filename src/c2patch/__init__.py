"""C2-smooth isogeometric spline spaces over G2 two-patch planar domains."""

from . import blas

__version__ = "0.1.0"

blas.pin_single_thread()
