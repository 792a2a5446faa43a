"""One thread each for the OpenBLAS libraries that numpy and scipy bundle.

Each wheel vendors its own OpenBLAS with its own thread pool.  Importing
c2patch pins both to one thread for the rest of the process
(``pin_single_thread``), so results are the same bits on every core count,
and a second Python thread can run BLAS work on another core
(notes/decisions.md).  A library that is not found is left as it is.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
from functools import cache
from pathlib import Path

# (setter, getter): scipy-openblas wheels (64_: numpy's ILP64 build), then
# the older openblas-libs wheels
_SYMBOLS = (("scipy_openblas_set_num_threads64_",
             "scipy_openblas_get_num_threads64_"),
            ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
            ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
            ("openblas_set_num_threads", "openblas_get_num_threads"))


@cache
def thread_controls() -> dict:
    """(setter, getter) of each package's OpenBLAS, keyed "numpy" and
    "scipy"; a package whose library or symbols are not found is absent.

    The packages are found without importing them: importing scipy costs
    ~10 ms, and a library loaded here is the one that the package's own
    extension modules bind to when they are imported later."""
    found = {}
    for package in ("numpy", "scipy"):
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:
            continue
        libs = Path(spec.origin).parent.parent / f"{package}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            names = [pair for pair in _SYMBOLS
                     if all(hasattr(handle, name) for name in pair)]
            if names:
                setter, getter = (getattr(handle, name) for name in names[0])
                setter.argtypes, setter.restype = [ctypes.c_int], None
                found[package] = (setter, getter)
                break
    return found


def pin_single_thread() -> None:
    """Both libraries at one thread from here on."""
    for setter, _ in thread_controls().values():
        setter(1)


def can_overlap() -> bool:
    """Both libraries are pinned and the process may use two cores."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return len(thread_controls()) == 2 and cores >= 2
