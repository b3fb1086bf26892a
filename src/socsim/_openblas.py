"""numpy's bundled OpenBLAS, looked up once per process.

numpy's wheels ship OpenBLAS (with its LAPACK) in ``numpy.libs``; numpy's
own extensions call it under prefixed, ILP64 names.  This module is the one
place that knows those names.  It hands out OpenBLAS's thread-count setter,
the thread count and a one-thread pin built on them, a checked binding of
``dgesv``, the LAPACK solver ``np.linalg.inv`` itself calls, the name of
the kernel set OpenBLAS picked, and the machine facts every benchmark
records, that name among them; each is None, or a no-op, where numpy's libraries hold no such symbol (a
numpy built against another BLAS).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import os
import sys
from pathlib import Path

import numpy as np

# thread-count setter and getter, by build: numpy's scipy-openblas ILP64
# build, a plain ILP64 build, a plain LP64 build
_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                   "openblas_set_num_threads")
_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")
# the name of the kernel set a DYNAMIC_ARCH build picked for this CPU (or
# was told to take by OPENBLAS_CORETYPE), by build as above
_CORE_GETTERS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                 "openblas_get_corename")
# the dgesv that numpy's _umath_linalg links to (64-bit integer arguments)
_DGESV = "scipy_dgesv_64_"


@functools.cache
def _libraries() -> tuple[ctypes.CDLL, ...]:
    """Every OpenBLAS in numpy's bundled libraries, opened once."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    return tuple(ctypes.CDLL(str(lib)) for lib in sorted(libs.glob("*openblas*")))


@functools.cache
def _function(symbols: tuple[str, ...], argtypes: tuple, restype):
    """The first of ``symbols`` found, with its types declared, or None."""
    for handle in _libraries():
        for symbol in symbols:
            function = getattr(handle, symbol, None)
            if function is not None:
                function.argtypes, function.restype = argtypes, restype
                return function
    return None


@functools.cache
def _blas_thread_setter():
    """OpenBLAS's ``set_num_threads(int)``, or None (with one warning per
    process) when there is none to call."""
    setter = _function(_THREAD_SETTERS, (ctypes.c_int,), None)
    if setter is None:
        logging.getLogger(__name__).warning(
            "no OpenBLAS thread setter in numpy's bundled libraries: cells keep the BLAS "
            "library's default thread count")
    return setter


def blas_threads() -> int | None:
    """The number of threads OpenBLAS runs in this process, read from its
    own getter in numpy's bundled library; None when there is none."""
    getter = _function(_THREAD_GETTERS, (), ctypes.c_int)
    return None if getter is None else int(getter())


@functools.cache
def blas_core() -> str | None:
    """The name of the kernel set OpenBLAS picked for this process (or was
    told to take by OPENBLAS_CORETYPE, which it reads when it loads), read
    from its own getter in numpy's bundled library; None when there is
    none."""
    core = _function(_CORE_GETTERS, (), ctypes.c_char_p)
    return None if core is None else core().decode()


def machine_facts() -> dict:
    """What a timing or a bit-level result depends on in this process: the
    cores it may run on, the Python, numpy and BLAS versions, the number of
    BLAS threads and the name of OpenBLAS's kernel set (``blas_core``, None
    where there is no getter), which can change training bits."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "blas_core": blas_core()}


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with BLAS on one thread, as pool workers run, then give
    back the count ``blas_threads()`` read before, on an exception too;
    without a setter (or a getter), leave the count as it is."""
    setter, before = _blas_thread_setter(), blas_threads()
    if setter is None or before is None:
        yield
        return
    setter(1)
    try:
        yield
    finally:
        setter(before)


def dgesv():
    """:func:`solve_in_place` bound to numpy's own ``dgesv``, or None."""
    integer, array = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    # dgesv(n, nrhs, a, lda, ipiv, b, ldb, info)
    function = _function((_DGESV,), (integer, integer, array, integer, array, array, integer,
                                     integer), None)
    return None if function is None else functools.partial(solve_in_place, function)


def solve_in_place(function, system: np.ndarray, rhs: np.ndarray) -> None:
    """LAPACK ``dgesv`` through ``function``: ``rhs`` becomes
    ``system^-1 rhs`` and ``system`` its LU factors.  Both must be
    Fortran-ordered float64, ``system`` (n, n) and ``rhs`` (n, k), as numpy's
    ``inv`` lays them out before it makes the same call with an identity
    ``rhs``.  Raises ``np.linalg.LinAlgError`` for a singular system, as
    ``inv`` does."""
    for name, array in (("system", system), ("rhs", rhs)):
        if array.dtype != np.float64 or array.ndim != 2 or not array.flags.f_contiguous \
                or not array.flags.writeable:
            raise ValueError(f"{name} must be a writable Fortran-ordered 2-d float64 array")
    n, k = rhs.shape
    if system.shape != (n, n):
        raise ValueError(f"system must be ({n}, {n}) for rhs of shape {rhs.shape}, "
                         f"got {system.shape}")
    if n == 0:
        return
    order, columns, info = ctypes.c_int64(n), ctypes.c_int64(k), ctypes.c_int64(0)
    pivots = np.empty(n, dtype=np.int64)
    function(ctypes.byref(order), ctypes.byref(columns), system.ctypes.data,
             ctypes.byref(order), pivots.ctypes.data, rhs.ctypes.data, ctypes.byref(order),
             ctypes.byref(info))
    if info.value > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    if info.value < 0:
        raise ValueError(f"dgesv rejected argument {-info.value}")
