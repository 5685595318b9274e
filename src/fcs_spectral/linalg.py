"""Dense matrix kernels: SVD, pseudoinverse, Hermitian eigensolves and norms.

Everything here is a thin, defensive layer over LAPACK through numpy, and no
other module of the package decomposes a matrix: one place rejects
non-finite input, names a convergence failure with the matrix shape and holds
the one Hermiticity rule (``_check_hermitian``).  The SVD backend is
deterministic for a fixed input, so downstream experiments are
bit-reproducible per seed.  Exempt from these rules:

* ``np.linalg.qr`` where it draws Haar-random isometries
  (``fcs._haar_isometry``);
* ``np.linalg.eigh``, batched over the d^2 package-built basis elements
  (``noise._product_outcomes``);
* ``np.linalg.norm`` where it scales a random draw or a state vector or
  sets a tolerance (``noise.perturb_matrix``, ``cli._build_model``,
  ``opbasis.expand_in_basis``); it is not a decomposition, and no reported
  norm goes through it;
* ``_ZHEEVD`` and ``_ZHEEVD_2STAGE``, the ctypes bindings of LAPACKE's
  Hermitian eigenvalue routines ``zheevd`` and ``zheevd_2stage`` in the
  LAPACK that numpy's own ``_umath_linalg`` extension links.  numpy offers
  no two-stage solver, and its ``eigvalsh`` does not overlap across
  threads: two threads solving 243-256-row matrices ran 0.70-0.98 times as
  fast as one thread solving them in turn, and 1.21-1.97 times with
  ``zheevd`` through ctypes, which gives the same bits.  ``_eigvalsh``
  calls ``zheevd`` below ``_TWO_STAGE_MIN_DIM`` rows, ``zheevd_2stage``
  from there on;
* ``_GET_THREADS``, ``_SET_THREADS``, ``_GET_CONFIG`` and ``_GET_TIMEOUT``,
  the ctypes bindings of OpenBLAS's thread count, build string and
  idle-thread timeout in the same library, behind ``blas_threads`` and
  ``blas_info``.  numpy offers no runtime thread control.  The CLI runs its
  commands at one BLAS thread, and ``blas_threads_for`` gives work of the
  main thread on matrices of ``_THREADED_MIN_DIM`` rows or more the count
  OpenBLAS had when this module loaded (``_INHERITED``);
* ``_MALLOPT``, the ctypes binding of glibc's ``mallopt``, bound only where
  the C library is glibc, behind ``keep_heap``.  Python offers no allocator
  control; the CLI sets the heap thresholds and the arena count once per
  process with it.

One numerical-rank rule: ``numerical_rank`` alone compares singular values
with a relative cutoff, counting those above ``rtol * sigma_1``.
``RANK_RTOL`` gives the rank of exact data; at or below ``PINV_RTOL`` a value
is zero for inversion, as ``SvdResult.pinv`` and the rank guards apply it.
The one other cutoff is the user's absolute threshold of ``spectral.truncate``.

Norm conventions used throughout the package:

* ``frobenius_norm`` is the Schatten-2 norm (entrywise 2-norm; the 2-norm of
  a vector), summed the same way at any BLAS thread count,
* ``operator_norm_2to2`` is the spectral norm (largest singular value),
* ``trace_norm_hermitian`` is the Schatten-1 norm of a Hermitian matrix.

Call sites say explicitly which of the first two they use; both appear in
perturbation statements under the name "2-norm" in the literature.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import threading
from typing import NamedTuple

import numpy as np

__all__ = [
    "RANK_RTOL",
    "PINV_RTOL",
    "SvdResult",
    "svd",
    "singular_values",
    "pseudoinverse",
    "numerical_rank",
    "operator_norm_2to2",
    "frobenius_norm",
    "trace_norm_hermitian",
    "hermitian_eigenvalues",
    "blas_threads",
    "blas_threads_for",
    "blas_info",
    "keep_heap",
]


RANK_RTOL = 1e-9
PINV_RTOL = 1e-12


class SvdResult(NamedTuple):
    """Thin SVD ``a = u @ diag(s) @ vt`` with ``s`` descending."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse of the decomposed matrix; singular
        values at most ``PINV_RTOL * sigma_1`` are treated as zero."""
        u, s, vt = self
        inv = np.zeros_like(s)
        k = numerical_rank(s, PINV_RTOL)
        inv[:k] = 1.0 / s[:k]
        return (vt.conj().T * inv) @ u.conj().T


def _as_finite(a) -> np.ndarray:
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def _lapack(what: str, solver, a: np.ndarray, **kwargs):
    """``solver(a, **kwargs)``, a convergence failure named with the shape."""
    try:
        return solver(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"{what} did not converge for {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc


def svd(a) -> SvdResult:
    """Thin singular value decomposition of a real or complex matrix."""
    return SvdResult(*_lapack("SVD", np.linalg.svd, _as_finite(a), full_matrices=False))


def singular_values(a) -> np.ndarray:
    """Singular values of a real or complex matrix, descending.

    Values only: LAPACK's values-only driver gives other last bits than the
    thin SVD, and these values feed sigma_m, the ranks and the bounds.
    """
    return _lapack("SVD", np.linalg.svd, _as_finite(a), compute_uv=False)


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the cutoff of :meth:`SvdResult.pinv`."""
    return svd(a).pinv()


def numerical_rank(s, rtol: float) -> int:
    """Number of singular values above ``rtol * sigma_1`` (descending ``s``)."""
    return int((s > rtol * s[0]).sum()) if s.size else 0


def operator_norm_2to2(a) -> float:
    """Spectral norm (2->2 operator norm), i.e. the largest singular value."""
    if np.size(a) == 0:
        return 0.0
    return float(singular_values(a)[0])


def frobenius_norm(a) -> float:
    """Schatten-2 (Frobenius) norm: the 2-norm of the entries.

    The squares are summed in numpy's own einsum loop, not in the BLAS dot
    behind ``np.linalg.norm``, whose partial sums follow the BLAS thread
    count: the norm has the same bits with any number of BLAS threads or
    workers.  Only where finite entries square past the float range (above
    about 1e154) is the sum taken again at the scale of the largest entry.
    """
    v = np.ascontiguousarray(a).reshape(-1)
    if np.iscomplexobj(v):
        v = v.view(v.real.dtype)
    total = float(np.einsum("i,i->", v, v))
    if not math.isfinite(total) and np.isfinite(v).all():
        scale = float(np.abs(v).max())
        w = v / scale
        return scale * math.sqrt(float(np.einsum("i,i->", w, w)))
    return math.sqrt(total)


# Rows per pass of the Hermiticity check: its temporaries stay a few MB even
# for the 2187 x 2187 matrices of 7-site marginals.
_HERM_ROWS = 64


def _check_hermitian(a, herm_tol=1e-8) -> np.ndarray:
    """Hermitian part of a square matrix that is Hermitian up to
    max|a - a^dag| <= herm_tol * max(1, max|a|).

    The check compares each block of rows right of the diagonal with its
    mirror, so it makes no full-size temporary, and an exactly Hermitian
    input is returned as is: the dense evaluation path copies nothing.  A
    block equal to its mirror has deviation 0, so ``|a - a^dag|`` is formed
    only for the blocks that are not.
    """
    a = _as_finite(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dev = 0.0
    for i in range(0, a.shape[0], _HERM_ROWS):
        block, mirror = a[i:i + _HERM_ROWS, i:], a[i:, i:i + _HERM_ROWS].conj().T
        if not np.array_equal(block, mirror):
            dev = max(dev, float(np.abs(block - mirror).max()))
    # max|a| is only needed, and only computed, once dev exceeds herm_tol
    if dev > herm_tol and dev > herm_tol * float(np.abs(a).max()):
        raise ValueError(
            f"matrix is not Hermitian: max |a - a^dag| = {dev:.3e} "
            f"exceeds {herm_tol:.0e} * max(1, max |a|)"
        )
    return a if dev == 0.0 else 0.5 * (a + a.conj().T)


# Rows from which ``_eigvalsh`` uses the two-stage solver.  Against ``zheevd``
# (numpy's ``eigvalsh``) at 2 BLAS threads it was 8-26% slower at n = 243-256
# and 16-22% and 40-43% faster at n = 1024 and 2048 in every series
# measured; in between the series disagreed (n = 512: +13% and -16%).
_TWO_STAGE_MIN_DIM = 1024

# matrix_layout argument of the LAPACKE interface
_LAPACK_COL_MAJOR = 102


def _bind(name: str, argtypes, restype):
    """Function ``name`` of the BLAS/LAPACK library that numpy's linalg
    extension links (scipy-openblas, ILP64 integers), or None where that
    library does not export it."""
    try:
        fn = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), name)
    except (AttributeError, OSError):
        return None
    fn.argtypes = argtypes
    fn.restype = restype
    return fn


# (matrix_layout, jobz, uplo, n, a, lda, w) -> info
_ZHEEVD_ARGS = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64,
                ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
_ZHEEVD = _bind("scipy_LAPACKE_zheevd64_", _ZHEEVD_ARGS, ctypes.c_int64)
_ZHEEVD_2STAGE = _bind("scipy_LAPACKE_zheevd_2stage64_", _ZHEEVD_ARGS, ctypes.c_int64)
_GET_THREADS = _bind("scipy_openblas_get_num_threads64_", [], ctypes.c_int)
_SET_THREADS = _bind("scipy_openblas_set_num_threads64_", [ctypes.c_int], None)
_GET_CONFIG = _bind("scipy_openblas_get_config64_", [], ctypes.c_char_p)
# OPENBLAS_THREAD_TIMEOUT as read at load, 0 where unset: an idle worker
# spins for 2^timeout cycles (clamped to 4..30; 2^28 at 0).  Exported
# without the scipy prefix.
_GET_TIMEOUT = _bind("openblas_thread_timeout", [], ctypes.c_int)

# The BLAS thread count when this module loaded, which OpenBLAS takes from
# the process's environment (OPENBLAS_NUM_THREADS) unless the process set
# it before.  No rule here goes above it.  None where the thread control is
# not bound.
_INHERITED = None if None in (_GET_THREADS, _SET_THREADS) else _GET_THREADS()

# Rows from which a matrix gets the inherited BLAS threads under
# ``blas_threads_for``.  On the AKLT differences (12 alternating series, 2
# against 1 thread) the second thread made eigvalsh faster in 4/12 series at
# 243 rows and in 12/12 at 729 (-20%) and 2187 (-35%); at 243 it only spins.
_THREADED_MIN_DIM = 729


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the block at ``min(n, inherited)`` BLAS threads and restore the
    count it found on exit.  Where numpy's BLAS exports no thread control
    (MKL, Accelerate, another BLAS) the count is left alone."""
    if _INHERITED is None:
        yield
        return
    before = _GET_THREADS()
    _SET_THREADS(min(n, _INHERITED))
    try:
        yield
    finally:
        _SET_THREADS(before)


def blas_info() -> dict:
    """BLAS thread count at load (None where numpy's BLAS exports no thread
    control), OpenBLAS's idle-thread timeout as read at load (None where not
    exported) and the BLAS build string."""
    return {"threads": _INHERITED,
            "thread_timeout": _GET_TIMEOUT() if _GET_TIMEOUT else None,
            "blas": _GET_CONFIG().decode() if _GET_CONFIG else "unknown"}


def blas_threads_for(rows: int):
    """Context for work on a matrix of ``rows`` rows: the inherited BLAS
    threads from ``_THREADED_MIN_DIM`` rows on, else the current count.
    The count is one for the whole process, so only the main thread changes
    it; the threads of a sweep pool keep their one thread."""
    if rows < _THREADED_MIN_DIM or threading.current_thread() is not threading.main_thread():
        return contextlib.nullcontext()
    return blas_threads(_INHERITED)


def _bind_mallopt():
    """glibc's ``mallopt(param, value) -> int``, or None where the C library
    is not glibc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return None
    fn = ctypes.CDLL(None).mallopt
    fn.argtypes = [ctypes.c_int, ctypes.c_int]
    fn.restype = ctypes.c_int
    return fn


_MALLOPT = _bind_mallopt()
# mallopt parameters of glibc's malloc.h: M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
# and M_ARENA_MAX
_M_PARAMS = {"mmap": -3, "trim": -1, "arenas": -8}
# Heap settings of a CLI process.  Every per-trial workspace (the 9 x 81 x
# 81 omega_dot of block size 2, a 256-row complex chain difference: at most
# about 1 MB) lies below the mmap threshold, which equals the matmul block
# bound ``fcs._PRODUCT_CHUNK_BYTES``, and up to the trim threshold of freed
# memory stays in the heap, so the next trial reuses it instead of faulting
# it in again.  A larger array, such as a 3^7-site difference, is still
# mapped and unmapped on its own.  Setting either value also stops glibc's
# dynamic adjustment of both.  One arena: the threads of a sweep pool reuse
# the one kept heap instead of each keeping an arena of its own.
_HEAP = {"mmap": 4 << 20, "trim": 8 << 20, "arenas": 1}


def keep_heap() -> dict | None:
    """Sets glibc's mmap and trim thresholds and its arena count to
    ``_HEAP`` for the rest of the process, so freed trial workspaces stay in
    one heap; calling it again changes nothing.  Returns the settings, or
    None where the C library is not glibc (the allocator keeps its defaults)
    or refuses them.  Only CLI processes call it; a library caller's
    allocator is left alone."""
    if _MALLOPT is None or any(_MALLOPT(_M_PARAMS[k], v) != 1 for k, v in _HEAP.items()):
        return None
    return dict(_HEAP)


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a matrix that passed ``_check_hermitian``.

    LAPACK solves it in place, with ``zheevd`` below ``_TWO_STAGE_MIN_DIM``
    rows and the two-stage solver from there on: a writeable C-ordered
    complex ``h`` is overwritten, any other ``h`` is converted to one first.
    LAPACK reads the array as column-major, that is as the transpose of
    ``h``, which for a Hermitian matrix is its conjugate and has the same
    eigenvalues; below the cutoff they have the bits of numpy's ``eigvalsh``.
    The call releases the GIL, so solves on different threads overlap.
    Where the two-stage solver is not bound ``zheevd`` solves every size,
    and where neither is, numpy's ``eigvalsh`` does and ``h`` is kept.
    """
    n = h.shape[0]
    solver = _ZHEEVD_2STAGE if n >= _TWO_STAGE_MIN_DIM and _ZHEEVD_2STAGE else _ZHEEVD
    with blas_threads_for(n):
        if solver is None:
            return _lapack("eigensolver", np.linalg.eigvalsh, h)
        a = np.require(h, np.complex128, ["C", "A", "W"])
        w = np.empty(n)
        info = solver(_LAPACK_COL_MAJOR, b"N", b"L", n, a.ctypes.data, n, w.ctypes.data)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"eigensolver did not converge for {n}x{n} matrix (LAPACK info {info})")
    return w


def trace_norm_hermitian(a, herm_tol=1e-8) -> float:
    """Schatten-1 norm of a Hermitian matrix, as the sum of |eigenvalues|.

    The input must be Hermitian up to ``herm_tol`` (see ``_check_hermitian``);
    its Hermitian part is eigensolved.  The norm takes ``a`` over: the solve
    overwrites it, so a caller that still needs the matrix passes a copy.
    """
    return float(np.abs(_eigvalsh(_check_hermitian(a, herm_tol))).sum())


def hermitian_eigenvalues(a, herm_tol=1e-8) -> np.ndarray:
    """Eigenvalues (ascending) of a matrix that is Hermitian up to
    ``herm_tol`` (see ``_check_hermitian``); its Hermitian part is
    eigensolved, and ``a`` is kept."""
    h = _check_hermitian(a, herm_tol)
    return _eigvalsh(h.copy() if h is a else h)
