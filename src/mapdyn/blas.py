"""The OpenBLAS copies bundled in the numpy and scipy wheels.

The numpy and scipy wheels each ship their own OpenBLAS build, each with its
own thread pool sized to the core count. A process pool that already keeps
every core busy has to run both copies single-threaded, or each worker adds
one BLAS thread per core per copy and the cores are oversubscribed. The
counts are set and read back through each copy's exported thread-count
functions via ctypes, so no extra package is needed. scipy's copy is opened
by path: no ``scipy`` subpackage is imported for it.

The block solver's LAPACK routines, the Cholesky factor ``dpotrf`` and the
triangular inverse ``dtrtri``, come from scipy's copy through ctypes too
(``cholesky_inverse``): the very library ``scipy.linalg.lapack`` calls, so
the solver's path needs no ``scipy.linalg``. Where that copy does not export
them (MKL or system-BLAS builds), ``scipy.linalg.lapack`` is the fallback.
"""

from __future__ import annotations

import ctypes
import functools
import logging
from pathlib import Path

import numpy as np

log = logging.getLogger("mapdyn")

# (setter, getter) symbol pairs: the scipy-openblas builds in numpy >= 2 and
# scipy >= 1.13 wheels first, then the older bundled builds
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

# (dpotrf, dtrtri) in scipy's bundled copy: the scipy-openblas builds of
# scipy >= 1.13 prefix their symbols, older builds do not. Both are LP64
# builds, with 32-bit LAPACK integers.
_LAPACK_SYMBOLS = (
    ("scipy_dpotrf_", "scipy_dtrtri_"),
    ("dpotrf_", "dtrtri_"),
)


def _bundled_libs(package):
    """(searched directories, OpenBLAS libraries found in them) of a wheel.

    `<package>.libs` for Linux and Windows wheels, `<package>/.dylibs` for
    macOS wheels.
    """
    root = Path(package.__file__).parent
    lib_dirs = (root.parent / f"{package.__name__}.libs", root / ".dylibs")
    return lib_dirs, [lib for lib_dir in lib_dirs for lib in sorted(lib_dir.glob("lib*openblas*"))]


def _open(lib: Path):
    try:
        return ctypes.CDLL(str(lib))
    except OSError:
        return None


@functools.cache
def bundled_openblas() -> dict:
    """{"<libs dir>/<library>": (set_threads, get_threads)} per bundled copy.

    A package without a bundled OpenBLAS (an MKL or system-BLAS build) is
    logged as a warning once per process, since its threads cannot be
    capped here.
    """
    import scipy

    copies = {}
    for package in (np, scipy):
        lib_dirs, libs = _bundled_libs(package)
        found = False
        for lib in libs:
            funcs = _thread_functions(lib)
            if funcs is None:
                log.warning("%s has no usable OpenBLAS thread-count function; its BLAS threads are not capped", lib)
                continue
            copies[f"{lib.parent.name}/{lib.name}"] = funcs
            found = True
        if not found:
            log.warning(
                "no bundled OpenBLAS found for %s in %s; its BLAS threads are not capped "
                "(set OPENBLAS_NUM_THREADS / MKL_NUM_THREADS / OMP_NUM_THREADS instead)",
                package.__name__, " or ".join(str(d) for d in lib_dirs),
            )
    return copies


def _thread_functions(lib: Path):
    handle = _open(lib)
    for set_name, get_name in _SYMBOLS:
        setter = getattr(handle, set_name, None)
        getter = getattr(handle, get_name, None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


def blas_threads() -> dict:
    """Thread count each bundled OpenBLAS copy reads back, by library."""
    return {name: getter() for name, (_, getter) in bundled_openblas().items()}


def set_blas_threads(counts) -> dict:
    """Set the thread count of every bundled copy and return the previous counts.

    `counts` is one int for all copies, or a dict as returned by
    `blas_threads` (so the return value restores the earlier state).
    """
    previous = blas_threads()
    for name, (setter, _) in bundled_openblas().items():
        n = counts if isinstance(counts, int) else counts.get(name)
        if n is not None:
            setter(n)
    return previous


# ---------------------------------------------------------------------------
# Cholesky factor and triangular inverse of stacked blocks


def bundled_lapack() -> list:
    """An ``OpenBlasCholeskyInverse`` per symbol pair found in a library of
    scipy's bundled OpenBLAS, in the order of ``_LAPACK_SYMBOLS``."""
    import scipy

    routes = []
    for potrf, trtri in _LAPACK_SYMBOLS:
        for lib in _bundled_libs(scipy)[1]:
            funcs = [getattr(_open(lib), name, None) for name in (potrf, trtri)]
            if None not in funcs:
                routes.append(OpenBlasCholeskyInverse(*funcs, f"{lib.parent.name}/{lib.name}"))
    return routes


@functools.cache
def cholesky_inverse():
    """The routine that turns a stack of SPD blocks into inverted Cholesky factors.

    It is called as ``route(blocks)``: ``blocks`` is a writable (samples, w,
    w) float64 array whose blocks are each C-contiguous. Each block's lower
    triangle becomes the inverse of its lower Cholesky factor, in place; its
    strict upper triangle is left as it is. The result is ``None``, or
    ``(sample, order)`` for the first sample whose leading minor of that
    order is not positive definite. The route is the first of
    ``bundled_lapack``, else ``scipy.linalg.lapack``.
    """
    routes = bundled_lapack()
    if routes:
        return routes[0]
    log.info("scipy's bundled OpenBLAS exports no dpotrf/dtrtri; the block solver uses scipy.linalg.lapack")
    return ScipyCholeskyInverse()


@functools.lru_cache(maxsize=1024)
def _block_pointers(address, count, step):
    """ctypes pointers to ``count`` blocks ``step`` bytes apart from ``address``.

    A solver refills one stack batch after batch, so the pointers of its
    blocks are built once and then found here.
    """
    return tuple(ctypes.c_void_p(address + k * step) for k in range(count))


@functools.cache
def _order(width):
    return ctypes.byref(ctypes.c_int(width))


class OpenBlasCholeskyInverse:
    """``dpotrf`` and ``dtrtri`` of scipy's bundled OpenBLAS, through ctypes.

    The transpose of a C-ordered block is the Fortran-ordered upper factor,
    which LAPACK factorizes and inverts in place. Every argument goes as a
    prebuilt ctypes object, with no ``argtypes``: converting the arguments
    on each call made the pair of calls slower than scipy's f2py wrappers.
    So the blocks are checked here, and their pointers taken from the array
    itself, before they go out.
    """

    def __init__(self, potrf, trtri, library):
        potrf.restype = trtri.restype = None
        self._potrf, self._trtri = potrf, trtri
        self.library = library
        self._upper = ctypes.byref(ctypes.c_char(b"U"))
        self._not_unit = ctypes.byref(ctypes.c_char(b"N"))

    def __call__(self, blocks):
        samples, width, columns = blocks.shape
        item = blocks.itemsize
        if blocks.dtype != np.float64 or columns != width or (width > 1 and blocks.strides[1:] != (width * item, item)):
            raise ValueError("LAPACK needs square float64 blocks, each C-contiguous")
        if not blocks.flags.writeable:
            raise ValueError("LAPACK writes its factors over the blocks, which are read-only")
        potrf, trtri, upper, not_unit = self._potrf, self._trtri, self._upper, self._not_unit
        # ctypes releases the GIL during a call, so each call has its own info
        info = ctypes.c_int()
        info_ref = ctypes.byref(info)
        n = _order(width)
        for k, block in enumerate(_block_pointers(blocks.ctypes.data, samples, blocks.strides[0])):
            potrf(upper, n, block, n, info_ref)
            if info.value > 0:  # the leading minor of order info is not positive definite
                return k, info.value
            trtri(upper, not_unit, n, block, n, info_ref)
        return None


class ScipyCholeskyInverse:
    """``dpotrf`` and ``dtrtri`` of ``scipy.linalg.lapack``, block by block."""

    def __init__(self):
        from scipy.linalg.lapack import dpotrf, dtrtri

        self._potrf, self._trtri = dpotrf, dtrtri

    def __call__(self, blocks):
        for k, block in enumerate(blocks):
            _, info = self._potrf(block.T, 0, 0, 1)  # upper, leave the rest, overwrite
            if info > 0:
                return k, info
            self._trtri(block.T, 0, 0, 1)  # upper, not unit, overwrite
        return None
