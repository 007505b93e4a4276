"""Logarithmic negativity of the shared state and its sweep over xi.

E_N(rho) = log2 || rho^Gamma ||_1, the log trace norm of the partial
transpose.  E_N > 0 is sufficient for entanglement and is the figure of
merit used throughout; the partial transpose is taken on the inertial
party's factor (transposing the other factor gives the same trace norm,
which the test suite asserts).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import _lapack
from .channel import FockCutoff, _as_accel, _as_cutoff, _as_xi, _shared_etas, _shared_levels
from .linalg import DenseOperator, check_budget, check_cost, partial_transpose, trace_norm

_LOG_NEG_FLOOR = 1e-12


class NegativityResult(NamedTuple):
    xi: float
    r: float
    log_negativity: float


def log_negativity(state: DenseOperator) -> float:
    """log2 of the trace norm of the partial transpose; >= 0 up to roundoff."""
    return _log_trace_norm(trace_norm(partial_transpose(state, 0)))


def _log_trace_norm(norm: float) -> float:
    value = math.log2(norm)
    if -_LOG_NEG_FLOOR < value < 0.0:
        return 0.0
    return value


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
    value.  s_n and w_n are made once a sweep, and one ``band_eigvalsh`` call
    takes a block of ``_lapack._BLOCK`` points.  The cost bound is checked
    first, then each point's trace, then a block's memory budget.
    """
    a = _as_accel(r)
    cut = _as_cutoff(cutoff, r)
    check_cost(cut.n_max, len(xi_grid), "negativity_sweep")
    eta = np.array([_shared_etas(_as_xi(xi), a, cut) for xi in xi_grid]).reshape(-1, 4)
    block = min(len(eta), _lapack._BLOCK)
    check_budget((block, 2 * cut.levels, 3), float, "negativity_sweep band stack")
    factors, w = _shared_levels(a, cut)
    ws, wss = w * factors[2], w * factors[2] * factors[2]
    band = np.zeros((block, 2 * cut.levels, 3))
    norms = np.empty(len(eta))
    for lo in range(0, len(eta), _lapack._BLOCK):
        k = min(block, len(eta) - lo)
        x0, x1, y0, y1 = eta[lo:lo + k].T[..., None]
        xx, xy, xcy = x0 * x0 + x1 * x1, x0 * y0 + x1 * y1, x0 * y1 - x1 * y0
        alpha, gamma = xy / np.sqrt(xx), xcy / np.sqrt(xx)
        band[:k] = 0.0
        ab = band[:k].transpose(0, 2, 1)
        here, up = ab[:, :, :2 * len(w)], ab[:, :, 2:]  # levels 0..n_max, and 1..n_max + 1
        here[:, 0, 0::2] = w * xx
        here[:, 1, 1::2] = ws * xcy
        here[:, 2, 0::2] = ws * xy
        up[:, 0, 0::2] += wss * (alpha * alpha)
        up[:, 0, 1::2] = wss * (gamma * gamma)
        up[:, 1, 0::2] = wss * (alpha * gamma)
        norms[lo:lo + k] = np.sum(np.abs(_lapack.band_eigvalsh(ab)), axis=1)
    return [NegativityResult(float(xi), a.r, _log_trace_norm(float(norm))) for xi, norm in zip(xi_grid, norms)]
