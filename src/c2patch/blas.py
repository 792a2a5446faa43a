"""One thread each for the OpenBLAS libraries that numpy and scipy bundle.

Each wheel vendors its own OpenBLAS with its own thread pool.  Pinned to
one thread, a second Python thread can run BLAS work on the other core
(notes/decisions.md).  The libraries are looked up on first use.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from functools import cache
from pathlib import Path

# (setter, getter): scipy-openblas wheels (64_: numpy's ILP64 build), then
# the older openblas-libs wheels
_SYMBOLS = (("scipy_openblas_set_num_threads64_",
             "scipy_openblas_get_num_threads64_"),
            ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
            ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
            ("openblas_set_num_threads", "openblas_get_num_threads"))

_lock = threading.Lock()
_depth = 0
_saved: list = []


@cache
def thread_controls() -> dict:
    """(setter, getter) of each package's OpenBLAS, keyed "numpy" and
    "scipy"; a package whose library or symbols are not found is absent."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
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
                found[pkg.__name__] = (setter, getter)
                break
    return found


def can_overlap() -> bool:
    """Both libraries can be pinned and the process may use two cores."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return len(thread_controls()) == 2 and cores >= 2


@contextmanager
def one_thread():
    """Both libraries at one thread inside the block.  Blocks may nest and
    run in several threads at once; the counts from before the first one
    come back when the last one is left, also when it raises."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(setter, getter())
                      for setter, getter in thread_controls().values()]
            for setter, _ in _saved:
                setter(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for setter, count in _saved:
                    setter(count)
