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

Both cost O(n^2) time and O(n) memory.  The library is loaded on the first
call, never at import.  Where it or one of the routines is missing (a numpy
linked against MKL or a distribution's own LAPACK), each kernel falls back,
within this module, to ``numpy.linalg`` on its band expanded into one dense
n x n array, after the memory-budget check.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np

from .errors import NumericError
from .linalg import check_budget

_INT = ctypes.POINTER(ctypes.c_int64)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_CHAR = ctypes.c_char_p
_LEN = ctypes.c_size_t  # hidden length of a Fortran CHARACTER argument
_SIGNATURES = {
    # JOBZ, UPLO, N, KD, AB, LDAB, W, Z, LDZ, WORK, INFO
    "dsbev": (_CHAR, _CHAR, _INT, _INT, _DOUBLE, _INT, _DOUBLE, _DOUBLE, _INT, _DOUBLE, _INT,
              _LEN, _LEN),
    # VECT, M, N, NCC, KL, KU, AB, LDAB, D, E, Q, LDQ, PT, LDPT, C, LDC, WORK, INFO
    "dgbbrd": (_CHAR, _INT, _INT, _INT, _INT, _INT, _DOUBLE, _INT, _DOUBLE, _DOUBLE, _DOUBLE, _INT,
               _DOUBLE, _INT, _DOUBLE, _INT, _DOUBLE, _INT, _LEN),
    # N, D, E, WORK, INFO
    "dlasq1": (_INT, _DOUBLE, _DOUBLE, _DOUBLE, _INT),
}


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


def _ptr(array: np.ndarray):
    return array.ctypes.data_as(_DOUBLE)


def _call(name: str, *args, chars: int = 0) -> None:
    """Call a routine with ``args``, then INFO, then the hidden lengths of
    its ``chars`` one-character arguments; raise NumericError unless INFO
    comes back 0."""
    info = ctypes.c_int64(0)
    _routines()[name](*args, ctypes.pointer(info), *[_LEN(1)] * chars)
    if info.value != 0:
        raise NumericError(f"LAPACK {name} failed with INFO = {info.value}")


def band_eigvalsh(ab: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix A whose lower band is
    ``ab``, Fortran-ordered (kd + 1, n) with ab[k, j] = A[j + k, j].

    ``ab`` may be overwritten.  Without the library, A^T is expanded and
    ``eigvalsh`` reads its upper triangle: that prints the banded fig1
    values, where the lower triangle of A moved a row in the 12th digit.
    """
    kd1, n = ab.shape
    if not (ab.dtype == np.float64 and ab.flags.f_contiguous):
        raise ValueError("band storage must be a Fortran-ordered float64 array")
    if _routines() is None:
        check_budget((n, n), float, "band_eigvalsh dense fallback")
        a = np.zeros((n, n))
        for k in range(min(kd1, n)):  # a[j, j + k] = ab[k, j]
            a.reshape(-1)[k::n + 1][:n - k] = ab[k, :n - k]
        return np.linalg.eigvalsh(a, UPLO="U")
    w = np.empty(n)
    work = np.empty(max(1, 3 * n - 2))
    dummy = np.empty(1)
    _call("dsbev", b"N", b"L", _int(n), _int(kd1 - 1), _ptr(ab), _int(kd1), _ptr(w),
          _ptr(dummy), _int(1), _ptr(work), chars=2)
    return w


def tridiagonal_singular_values(ab: np.ndarray) -> np.ndarray:
    """Descending singular values of the square tridiagonal matrix M stored
    in general band form: ``ab`` Fortran-ordered (3, n) with
    ab[1 + i - j, j] = M[i, j] for |i - j| <= 1.

    ``ab`` may be overwritten.  Without the library, M is expanded for
    ``numpy.linalg.svd``.
    """
    three, n = ab.shape
    if not (three == 3 and ab.dtype == np.float64 and ab.flags.f_contiguous):
        raise ValueError("tridiagonal band storage must be a Fortran-ordered (3, n) float64 array")
    if _routines() is None:
        check_budget((n, n), float, "tridiagonal_singular_values dense fallback")
        m = np.zeros((n, n))
        m.reshape(-1)[::n + 1] = ab[1]
        m.reshape(-1)[1::n + 1] = ab[0, 1:]
        m.reshape(-1)[n::n + 1] = ab[2, :-1]
        return np.linalg.svd(m, compute_uv=False)
    d, e = np.empty(n), np.empty(n)
    work = np.empty(4 * n)
    dummy = np.empty(1)
    _call("dgbbrd", b"N", _int(n), _int(n), _int(0), _int(1), _int(1), _ptr(ab), _int(3),
          _ptr(d), _ptr(e), _ptr(dummy), _int(1), _ptr(dummy), _int(1), _ptr(dummy), _int(1),
          _ptr(work), chars=1)
    _call("dlasq1", _int(n), _ptr(d), _ptr(e), _ptr(work))
    return d

