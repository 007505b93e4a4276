"""Banded LAPACK kernels from the OpenBLAS that numpy's wheels bundle.

numpy's wheels ship ``libscipy_openblas64_*.so``, which exports the whole of
LAPACK as ``scipy_<routine>_64_`` with 64-bit integers.  Two kernels are
bound here through ``ctypes``:

* ``band_eigvalsh``: eigenvalues of a real symmetric band matrix
  (``dsbev``, JOBZ='N': band reduction to tridiagonal form, then the
  root-free QR of ``dsterf``);
* ``tridiagonal_singular_values``: singular values of a real tridiagonal
  matrix (``dgbbrd`` reduces it to bidiagonal form, then ``dlasq1`` runs
  dqds on it, which finds every singular value to high relative accuracy:
  Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11, 873 (1990); Fernando &
  Parlett, Numer. Math. 67, 191 (1994)).

Each kernel takes a stack of p Fortran-ordered bands, (p, rows, n), and
returns p rows of values; one band is the stack of one.  Sizes, workspace
and the INFO pointer are made once a stack, and each band costs one call
per routine with its own addresses, INFO checked after every call.  Both
cost O(n^2) time and O(n) memory a band.  The library is loaded on the
first call, never at import.  Where it or one of the routines is missing
(a numpy linked against MKL or a distribution's own LAPACK), each kernel
falls back, within this module, to ``numpy.linalg`` on each band expanded
into a dense n x n array, after the memory-budget check.

``band_sums``, the grid driver of fig1 and fig3, fills each point's band from
a list of terms and passes a kernel stacks of at most max(_BLOCK_BYTES =
128 KiB, one band): 680 KB for fig1 and 340 KB for fig3 at n_max 14142.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np

from .errors import NumericError
from .linalg import check_budget

_INT = ctypes.POINTER(ctypes.c_int64)
_ADDR = ctypes.c_void_p  # an array argument, passed as its address
_CHAR = ctypes.c_char_p
_LEN = ctypes.c_size_t  # hidden length of a Fortran CHARACTER argument
_SIGNATURES = {
    # JOBZ, UPLO, N, KD, AB, LDAB, W, Z, LDZ, WORK, INFO
    "dsbev": (_CHAR, _CHAR, _INT, _INT, _ADDR, _INT, _ADDR, _ADDR, _INT, _ADDR, _INT, _LEN, _LEN),
    # VECT, M, N, NCC, KL, KU, AB, LDAB, D, E, Q, LDQ, PT, LDPT, C, LDC, WORK, INFO
    "dgbbrd": (_CHAR, _INT, _INT, _INT, _INT, _INT, _ADDR, _INT, _ADDR, _ADDR, _ADDR, _INT,
               _ADDR, _INT, _ADDR, _INT, _ADDR, _INT, _LEN),
    # N, D, E, WORK, INFO
    "dlasq1": (_INT, _ADDR, _ADDR, _ADDR, _INT),
}
# Bytes of band storage band_sums hands a kernel at once.
_BLOCK_BYTES = 128 * 1024


@functools.cache
def _routines() -> dict | None:
    """The three routines from numpy's bundled ILP64 OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        name = next(n for n in sorted(os.listdir(libs))
                    if n.startswith("libscipy_openblas64_") and n.endswith(".so"))
        lib = ctypes.CDLL(os.path.join(libs, name))
        found = {routine: getattr(lib, f"scipy_{routine}_64_") for routine in _SIGNATURES}
    except (StopIteration, OSError, AttributeError):
        return None
    for routine, fn in found.items():
        fn.argtypes, fn.restype = _SIGNATURES[routine], None
    return found


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _bind(name: str, chars: int = 0):
    """Routine ``name`` with one INFO pointer and its ``chars`` hidden lengths
    bound; the call raises NumericError unless INFO comes back 0."""
    fn, info = _routines()[name], ctypes.c_int64(0)
    tail = (ctypes.pointer(info), *[1] * chars)

    def call(*args) -> None:
        fn(*args, *tail)
        if info.value != 0:
            raise NumericError(f"LAPACK {name} failed with INFO = {info.value}")
    return call


def _stack(ab: np.ndarray, what: str, rows: int | None = None) -> tuple[int, int, int]:
    """(p, rows, n) of a writable stack of Fortran-ordered float64 bands, else ValueError."""
    if not (ab.ndim == 3 and ab.dtype == np.float64 and rows in (None, ab.shape[1]) and ab.flags.writeable
            and (len(ab) == 0 or ab[0].flags.f_contiguous)):  # every band has ab[0]'s strides
        raise ValueError(f"{what} must be a (p, {rows or 'kd + 1'}, n) writable stack of Fortran-ordered "
                         "float64 bands")
    return ab.shape


def band_eigvalsh(ab: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (p, n) of the symmetric matrices A_i whose lower
    bands are the stack ``ab`` (p, kd + 1, n), ab[i, k, j] = A_i[j + k, j],
    each ab[i] Fortran-ordered: ``band.transpose(0, 2, 1)`` of a C-ordered
    (p, n, kd + 1) ``band`` is such a stack.

    ``ab`` may be overwritten.  Without the library, each A_i^T is expanded
    and ``eigvalsh`` reads its upper triangle; on fig1's bands (kd = 2) either
    triangle prints the 12 digits of the banded fig1 values.
    """
    p, kd1, n = _stack(ab, "band storage")
    w = np.empty((p, n))
    if _routines() is None:
        check_budget((n, n), float, "band_eigvalsh dense fallback")
        for band, row in zip(ab, w):
            a = np.zeros((n, n))
            for k in range(min(kd1, n)):  # a[j, j + k] = band[k, j]
                a.reshape(-1)[k::n + 1][:n - k] = band[k, :n - k]
            row[:] = np.linalg.eigvalsh(a, UPLO="U")
        return w
    dsbev = _bind("dsbev", chars=2)
    size, kd, ldab, one = _int(n), _int(kd1 - 1), _int(kd1), _int(1)
    work = np.empty(max(1, 3 * n - 2))
    at_ab, at_w, at_work = ab.ctypes.data, w.ctypes.data, work.ctypes.data
    for i in range(p):  # Z is not referenced with JOBZ='N'
        dsbev(b"N", b"L", size, kd, at_ab + i * ab.strides[0], ldab, at_w + 8 * n * i, None, one, at_work)
    return w


def tridiagonal_singular_values(ab: np.ndarray) -> np.ndarray:
    """Descending singular values (p, n) of the square tridiagonal matrices
    M_i stored in general band form: the stack ``ab`` (p, 3, n) with
    ab[i, 1 + k - j, j] = M_i[k, j] for |k - j| <= 1, each ab[i]
    Fortran-ordered.

    ``ab`` may be overwritten.  Without the library, each M_i is expanded
    for ``numpy.linalg.svd``.
    """
    p, _, n = _stack(ab, "tridiagonal band storage", rows=3)
    d = np.empty((p, n))
    if _routines() is None:
        check_budget((n, n), float, "tridiagonal_singular_values dense fallback")
        for band, row in zip(ab, d):
            m = np.zeros((n, n))
            m.reshape(-1)[::n + 1] = band[1]
            m.reshape(-1)[1::n + 1] = band[0, 1:]
            m.reshape(-1)[n::n + 1] = band[2, :-1]
            row[:] = np.linalg.svd(m, compute_uv=False)
        return d
    dgbbrd, dlasq1 = _bind("dgbbrd", chars=1), _bind("dlasq1")
    size, zero, one, three = _int(n), _int(0), _int(1), _int(3)
    e, work = np.empty(n), np.empty(4 * n)
    at_ab, at_d, at_e, at_work = ab.ctypes.data, d.ctypes.data, e.ctypes.data, work.ctypes.data
    for i in range(p):  # Q, PT and C are not referenced
        row = at_d + 8 * n * i
        dgbbrd(b"N", size, size, zero, one, one, at_ab + i * ab.strides[0], three, row, at_e,
               None, one, None, one, None, one, at_work)
        dlasq1(size, row, at_e, at_work)
    return d


def band_sums(kernel, n: int, terms) -> np.ndarray:
    """sum_j |kernel(ab)[i, j]| for each point i, where ab[i] is the (3, n)
    band of zeros to which each term (k, cols, coef, level) adds
    coef[i] * level at row k, columns ``cols``, in list order.

    A stack holds as many bands as fit in _BLOCK_BYTES, at least one: at most
    680 KB for fig1 (n = 2 n_max + 4) and 340 KB for fig3 (n = n_max + 1) at
    n_max 14142, the largest cutoff ``check_cost`` admits for one point.
    """
    sums = np.empty(len(terms[0][2]))
    per = max(1, _BLOCK_BYTES // (8 * 3 * n))
    for lo in range(0, len(sums), per):
        block = sums[lo:lo + per]
        ab = np.zeros((len(block), n, 3)).transpose(0, 2, 1)
        for k, cols, coef, level in terms:
            ab[:, k, cols] += coef[lo:lo + per, None] * level
        block[:] = np.sum(np.abs(kernel(ab)), axis=1)
    return sums
