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
from .channel import FockCutoff, _as_accel, _as_cutoff, _shared_etas, _shared_weights, _towers, _xi_array
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
    value.  The grid is one float64 array: w_n, w_n s_n and w_n s_n^2 are
    made once a sweep (``_towers``), the four eta of every point in one pass,
    and ``_lapack.band_sums`` fills the band from six terms, a coefficient a
    point times a weight a level.  The cost bound is checked first, then xi,
    then the states (``_towers``).
    """
    a = _as_accel(r)
    cut = _as_cutoff(cutoff, r)
    check_cost(cut.n_max, len(xi_grid), "negativity_sweep")
    xi = _xi_array(xi_grid)
    eta = _shared_etas(xi)
    w, ws, wss, _ = _towers(a, cut, _shared_weights(eta), "shared-state")
    x0, x1, y0, y1 = eta.T
    xx, xy, xcy = x0 * x0 + x1 * x1, x0 * y0 + x1 * y1, x0 * y1 - x1 * y0
    alpha, gamma = xy / np.sqrt(xx), xcy / np.sqrt(xx)
    norms = _lapack.band_sums(_lapack.band_eigvalsh, 2 * cut.levels, [  # levels 0..n_max, then 1..n_max + 1
        (0, slice(0, -2, 2), xx, w), (1, slice(1, -2, 2), xcy, ws), (2, slice(0, -2, 2), xy, ws),
        (0, slice(2, None, 2), alpha * alpha, wss), (0, slice(3, None, 2), gamma * gamma, wss),
        (1, slice(2, None, 2), alpha * gamma, wss)])
    return [NegativityResult(x, a.r, _log_trace_norm(norm)) for x, norm in zip(xi.tolist(), norms.tolist())]
