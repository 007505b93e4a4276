"""Dense real and complex linear algebra over truncated and composite mode spaces.

Operators keep float64 entries when they are built from real input and
complex128 entries otherwise, so a real symmetric matrix reaches the real
LAPACK/BLAS routines through the same calls as a complex Hermitian one.

Every operator carries a ``space_tag``, the ordered tuple of tensor-factor
dimensions, so that the partial transpose addresses a factor explicitly
instead of relying on caller bookkeeping.

Within this module, Hermitian eigendecomposition (``numpy.linalg.eigh``) is
the primitive behind the matrix square root, the trace norm and positivity
checks; no general non-Hermitian decompositions are used.  These dense
routines (and ``root_fidelity``'s SVD) are library API and test oracles,
and no command runs them: the fig1 and fig3 sweeps, and ``rqit validate``,
use the banded LAPACK kernels of ``_lapack`` instead (symmetric band
eigenvalues, tridiagonal singular values, each with its own dense
``eigvalsh`` or ``svd`` fallback).

The module also holds the two budgets checked before any work: the memory
budget of one dense array (``check_budget``) and the work budget of a
banded sweep (``check_cost``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotPSDError, SizeError

HERMITIAN_ATOL = 1e-12
PSD_CLAMP = -1e-10
# Largest single array an operator build may allocate: 512 MiB holds the
# real (2) x (n_max + 2) shared state up to n_max 4094 (r = 3 needs 315 MB).
MEMORY_BUDGET = 2**29
# Largest n_max^2 x points a banded sweep (fig1, fig3) may take on.  Those
# kernels need O(n_max) memory and O(n_max^2) time per point (3.3-4.9e-8 s
# per n_max^2 for fig1 and 1.5-1.7e-8 s for fig3 at n_max 155-3136 on a
# 2-core x86 host), so time is their ceiling: this caps a call near 10 s,
# admits one point up to n_max 14142 (r about 3.75) and the 96-point default
# grid up to n_max 1443.
WORK_BUDGET = 2 * 10**8


def check_budget(shape: tuple[int, ...], dtype, what: str) -> None:
    """Raise SizeError when an array of ``shape`` and ``dtype`` would exceed
    MEMORY_BUDGET; call it before allocating anything of that size."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes > MEMORY_BUDGET:
        raise SizeError(
            f"{what} needs a {'x'.join(map(str, shape))} {np.dtype(dtype).name} array "
            f"({nbytes / 2**20:.3g} MiB), over the {MEMORY_BUDGET // 2**20} MiB budget"
        )


def check_cost(n_max: int, points: int, what: str) -> None:
    """Raise SizeError when a banded sweep over ``points`` grid points at
    cutoff ``n_max`` would exceed WORK_BUDGET; call it before building
    anything."""
    work = n_max * n_max * points
    if work > WORK_BUDGET:
        raise SizeError(
            f"{what} needs n_max^2 x points = {n_max}^2 x {points} = {work:.3g}, "
            f"over the work budget of {WORK_BUDGET:.3g}"
        )


class _Frozen:
    """Immutable slotted value: ``__init__`` sets each slot once; repr, ==, hash and pickle by value."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self.__slots__)})"

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()


class DenseOperator(_Frozen):
    """Square matrix on a (possibly composite) truncated mode space.

    Attributes:
        entries: dim x dim matrix, stored read-only as a copy of the input:
            float64 when the input is real (any non-complex dtype), else
            complex128.
        space_tag: ordered factor dimensions; their product equals dim.
    """

    __slots__ = ("entries", "space_tag")
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, entries: np.ndarray, space_tag=None):
        self._adopt(np.array(entries, dtype=complex if np.iscomplexobj(entries) else float), space_tag)

    @classmethod
    def _wrap(cls, m: np.ndarray, space_tag) -> "DenseOperator":
        """The operator over the float64 or complex128 array ``m`` itself, made
        read-only with no copy: for an array its caller built and hands over."""
        op = object.__new__(cls)
        op._adopt(m, space_tag)
        return op

    def _adopt(self, m: np.ndarray, space_tag) -> None:
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if space_tag is None:
            space_tag = (m.shape[0],)
        tag = tuple(int(d) for d in space_tag)
        if any(d <= 0 for d in tag) or math.prod(tag) != m.shape[0]:
            raise ValueError(f"space_tag {tag} does not factor dim {m.shape[0]}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "space_tag", tag)

    def __reduce__(self):
        return DenseOperator._wrap, (self.entries, self.space_tag)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().swapaxes(-1, -2)) / 2


def _require_hermitian(m: np.ndarray, what: str) -> np.ndarray:
    """Hermitian part of a matrix or a stack (..., d, d), checked to HERMITIAN_ATOL."""
    dev = float(np.max(np.abs(m - m.conj().swapaxes(-1, -2))))
    if not dev <= HERMITIAN_ATOL:
        raise ValueError(f"{what} requires a Hermitian operator (max deviation {dev:.3e})")
    return _hermitian_part(m)


def partial_transpose(op: DenseOperator, factor_index: int) -> DenseOperator:
    """Transpose the indices of one tensor factor only; an involution."""
    dims, k = op.space_tag, len(op.space_tag)
    if not 0 <= factor_index < k:
        raise IndexError(f"factor index {factor_index} invalid for space_tag {dims}")
    axes = list(range(2 * k))
    axes[factor_index], axes[factor_index + k] = axes[factor_index + k], axes[factor_index]
    out = op.entries.reshape(dims + dims).transpose(axes).reshape(op.dim, op.dim)
    return DenseOperator(out, op.space_tag)


def eigh(op: DenseOperator):
    """Eigendecomposition of a Hermitian operator: (eigenvalues, eigenvectors)."""
    return np.linalg.eigh(_require_hermitian(op.entries, "eigh"))


def _psd_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Ascending Hermitian eigenvalues, stacked or not, with the PSD clamp.

    Eigenvalues in [PSD_CLAMP, 0) are clamped to zero so that truncation
    noise from the Fock cutoff never aborts a run; anything below the clamp
    raises NotPSDError.
    """
    low = float(np.min(w[..., 0]))
    if low < PSD_CLAMP:
        raise NotPSDError(f"smallest eigenvalue {low:.3e} below clamp {PSD_CLAMP:.1e}")
    return np.clip(w, 0.0, None)


def matrix_sqrt(op: DenseOperator) -> DenseOperator:
    """Hermitian PSD square root; eigenvalues are clamped as in ``_psd_eigenvalues``."""
    w, v = eigh(op)
    root = (v * np.sqrt(_psd_eigenvalues(w))) @ v.conj().T
    return DenseOperator(_hermitian_part(root), op.space_tag)


def trace_norm(op: DenseOperator) -> float:
    """Sum of absolute eigenvalues (Hermitian input only)."""
    w = np.linalg.eigvalsh(_require_hermitian(op.entries, "trace_norm"))
    return float(np.sum(np.abs(w)))
