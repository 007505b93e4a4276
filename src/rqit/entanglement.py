"""Logarithmic negativity of the shared state and its sweep over xi.

E_N(rho) = log2 || rho^Gamma ||_1, the log trace norm of the partial
transpose.  E_N > 0 is sufficient for entanglement and is the figure of
merit used throughout; the partial transpose is taken on the inertial
party's factor (transposing the other factor gives the same trace norm,
which the test suite asserts).  Both routes return max(0, E_N): the trace
norm is >= tr rho = 1 (Vidal & Werner, PRA 65, 032314), so a norm below 1
is rounding or, on a truncated tower, the dropped trace.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import _lapack
from .channel import FockCutoff, _as_accel, _as_cutoff, _shared_etas, _shared_levels, _xi_array
from .linalg import DenseOperator, check_cost, partial_transpose, trace_norm


class NegativityResult(NamedTuple):
    xi: float
    r: float
    log_negativity: float


def log_negativity(state: DenseOperator) -> float:
    """max(0, log2 of the trace norm of the partial transpose)."""
    return _log_trace_norm(trace_norm(partial_transpose(state, 0)))


def _log_trace_norm(norm: float) -> float:
    return max(math.log2(norm), 0.0)  # in this order a NaN passes through


def negativity_sweep(
    r, xi_grid: Sequence[float], cutoff: FockCutoff | None = None
) -> list[NegativityResult]:
    """One NegativityResult per grid point, in grid order.

    Each term of the shared state is |v_n> = |x>|n> + s_n |y>|n+1>, with
    x = (eta_{+-}, eta_{--}) and y = (eta_{-+}, eta_{++}), so rho^Gamma =
    sum_n w_n Gamma(|v_n><v_n|) is block-tridiagonal in the Fock level m:
    diagonal blocks w_m x x^T + w_{m-1} s_{m-1}^2 y y^T, and the rank-one
    w_m s_m x y^T from level m to m + 1 (w_n = 0 outside 0..n_max).  In the
    orthonormal basis (x, (-x_1, x_0)) / |x| of each level (|x| >= 1), x is
    (|x|, 0) and y is (alpha, gamma) with alpha |x| = x.y and gamma |x| =
    x_0 y_1 - x_1 y_0, so the coupling reaches the first vector of level m + 1
    only: in level-major order (index 2m + q) rho^Gamma is a band with 2
    sub-diagonals, the second zero at odd columns.  The rotation is
    orthogonal, so LAPACK ``dsbev`` on that band returns the eigenvalues of
    rho^Gamma in O(n_max^2) time and O(n_max) memory;
    ``log_negativity(entangled_state(...))`` is the dense route to the same
    value.  The grid is one float64 array: s_n and w_n are made once a
    sweep, the four eta of every point in one pass, and ``band_eigvalsh``
    takes blocks of as many points as ``_lapack.points_per_block`` admits
    (the whole default grid at once).  The cost bound is checked first, then
    the grid's values and traces; under the cost bound a block holds at most
    max(128 KiB, one band), 680 KB at n_max 14142.
    """
    a = _as_accel(r)
    cut = _as_cutoff(cutoff, r)
    check_cost(cut.n_max, len(xi_grid), "negativity_sweep")
    xi = _xi_array(xi_grid)
    eta = _shared_etas(xi, a, cut)
    per = _lapack.points_per_block((2 * cut.levels, 3))
    factors, w = _shared_levels(a, cut)
    ws, wss = w * factors[2], w * factors[2] * factors[2]
    norms = np.empty(len(xi))
    for lo in range(0, len(xi), per):
        x0, x1, y0, y1 = eta[lo:lo + per].T[..., None]
        xx, xy, xcy = x0 * x0 + x1 * x1, x0 * y0 + x1 * y1, x0 * y1 - x1 * y0
        alpha, gamma = xy / np.sqrt(xx), xcy / np.sqrt(xx)
        ab = np.zeros((len(xx), 2 * cut.levels, 3)).transpose(0, 2, 1)
        here, up = ab[:, :, :2 * len(w)], ab[:, :, 2:]  # levels 0..n_max, and 1..n_max + 1
        here[:, 0, 0::2] = w * xx
        here[:, 1, 1::2] = ws * xcy
        here[:, 2, 0::2] = ws * xy
        up[:, 0, 0::2] += wss * (alpha * alpha)
        up[:, 0, 1::2] = wss * (gamma * gamma)
        up[:, 1, 0::2] = wss * (alpha * gamma)
        norms[lo:lo + per] = np.sum(np.abs(_lapack.band_eigvalsh(ab)), axis=1)
    return [NegativityResult(x, a.r, _log_trace_norm(norm)) for x, norm in zip(xi.tolist(), norms.tolist())]
