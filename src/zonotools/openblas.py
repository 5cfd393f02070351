"""The OpenBLAS that numpy bundles, and its thread count.

The plateau design calls LAPACK, and the thread count, of the OpenBLAS
that numpy bundles (scipy-openblas: 64-bit integers, Fortran calling
convention) through ctypes, run on numpy 2.4.6.  OpenBLAS splits its work
by the thread count, so two computations run at one thread
(``one_thread``):

- the design, whose rounding would follow the thread count and reaches
  every report digit;
- the Gauss-Legendre rule (``sphere.leggauss``), whose eigen-solve stalled
  at two threads in a share of fresh processes.

The library is opened on first use, so a numpy without these symbols
imports the package; only the design requires them.
"""

from __future__ import annotations

import contextlib
import ctypes
from functools import cache

import numpy as np

_INT = ctypes.POINTER(ctypes.c_int64)  # a LAPACK integer, passed by reference
_ARRAY = np.ctypeslib.ndpointer(np.float64)  # passed as the address of its first element
_CHAR = ctypes.c_char_p

#: Symbol -> (restype, argtypes) of every routine of the library the
#: design calls.
SIGNATURES = {
    # dtpqrt(M, N, L, NB, A, LDA, B, LDB, T, LDT, WORK, INFO)
    "scipy_dtpqrt_64_": (None, [_INT, _INT, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT, _ARRAY, _INT, _ARRAY, _INT]),
    # dtrtrs(UPLO, TRANS, DIAG, N, NRHS, A, LDA, B, LDB, INFO), then the
    # lengths of its three character arguments
    "scipy_dtrtrs_64_": (
        None,
        [_CHAR, _CHAR, _CHAR, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT, _INT] + [ctypes.c_size_t] * 3,
    ),
    "scipy_openblas_get_num_threads64_": (ctypes.c_int, []),
    "scipy_openblas_set_num_threads64_": (None, [ctypes.c_int]),
}
_THREAD_ROUTINES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")


@cache
def _opened():
    """numpy's bundled OpenBLAS, opened once, with every routine of
    SIGNATURES that it has typed."""
    library = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for name, (restype, argtypes) in SIGNATURES.items():
        if hasattr(library, name):
            routine = getattr(library, name)
            routine.restype, routine.argtypes = restype, argtypes
    return library


@cache
def library():
    """The library with every routine of SIGNATURES; ImportError naming
    the symbols it lacks."""
    library = _opened()
    missing = [name for name in SIGNATURES if not hasattr(library, name)]
    if missing:
        raise ImportError(
            f"the plateau design needs {', '.join(missing)} from the OpenBLAS that numpy bundles, which numpy "
            f"{np.__version__} does not provide (the design was run on numpy 2.4.6)"
        )
    return library


def lapack(name, *args, lengths=()):
    """INFO of the LAPACK routine ``name`` called with ``args``, its
    arguments before INFO, and ``lengths``, those of its character
    arguments.  Integers are passed by reference, arrays by the address of
    their first element, so a Fortran-strided corner of a larger buffer is
    a matrix with that buffer's leading dimension."""
    routine = getattr(library(), name)
    info = ctypes.c_int64(0)
    refs = [ctypes.byref(ctypes.c_int64(a)) if t is _INT else a for t, a in zip(routine.argtypes, args)]
    routine(*refs, ctypes.byref(info), *lengths)
    return info.value


@contextlib.contextmanager
def one_thread():
    """Run the block at one thread of the library and restore the count
    after it, also when it raises.  A library without the two thread
    routines runs the block at its own thread count; the design then stops
    at its first ``lapack`` call, whose ``library`` names what is missing.
    """
    handle = _opened()
    if not all(hasattr(handle, name) for name in _THREAD_ROUTINES):
        yield
        return
    count = handle.scipy_openblas_get_num_threads64_()
    handle.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        handle.scipy_openblas_set_num_threads64_(count)
