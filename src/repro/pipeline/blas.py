"""Keep the loaded OpenBLAS to one thread while the engine decodes.

After each front-end GEMM an idle OpenBLAS thread spins on another core,
and the decoders between GEMMs are GIL-bound Python, so extra BLAS threads
burn CPU without shortening a decode.  :func:`single_threaded_blas` sets
every mapped OpenBLAS to one thread for the duration of a scope and
restores the previous count when the outermost scope exits.  Nested and
concurrent scopes share one depth counter, because the thread count is
process-wide state.  When no OpenBLAS setter is found the scope does
nothing.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from functools import lru_cache

#: (setter, getter) symbol pairs: numpy >= 2 wheels, numpy < 2 wheels,
#: then a plain system build.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return []
    return sorted(paths)


@lru_cache(maxsize=1)
def blas_controls() -> tuple:
    """One ``(set_num_threads, get_num_threads)`` pair per loaded OpenBLAS."""
    controls = []
    for path in _loaded_openblas():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for setter_name, getter_name in _SYMBOLS:
            setter = getattr(library, setter_name, None)
            getter = getattr(library, getter_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return tuple(controls)


_lock = threading.Lock()
_depth = 0
_local = threading.local()        # this thread's own nesting depth
_saved: list[int] = []


@contextmanager
def single_threaded_blas():
    """Run the body with every loaded OpenBLAS limited to one thread."""
    global _depth, _saved
    controls = blas_controls()
    if not controls:
        yield
        return
    with _lock:
        if _depth == 0:
            _saved = [getter() for _, getter in controls]
            for setter, _ in controls:
                setter(1)
        _depth += 1
    _local.depth = getattr(_local, "depth", 0) + 1
    try:
        yield
    finally:
        _local.depth -= 1
        with _lock:
            _depth -= 1
            if _depth == 0:
                _restore(controls)


def _restore(controls) -> None:
    for (setter, _), count in zip(controls, _saved):
        setter(count)


def _after_fork_in_child() -> None:
    """Only the forking thread survives a fork: keep just its scopes."""
    global _lock, _depth
    inherited, _depth = _depth, getattr(_local, "depth", 0)
    _lock = threading.Lock()
    if inherited and not _depth:
        _restore(blas_controls())


os.register_at_fork(after_in_child=_after_fork_in_child)
