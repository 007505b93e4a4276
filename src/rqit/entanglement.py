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
from .channel import (FockCutoff, _SHARED_COMPONENTS, _as_accel, _as_cutoff, _as_xi, _shared_etas,
                      _shared_levels)
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

    In level-major order (index 2m + q for Fock level m and qubit q), each
    term |v_n> of the shared state fills the four indices 2n..2n+3, so the
    partial transpose rho^Gamma = sum_n w_n Gamma(|v_n><v_n|) is a real
    symmetric band matrix with 3 sub-diagonals.  The entry of rho at
    [(q_p, n + d_p), (q_q, n + d_q)] for components p, q of |v_n> moves to
    rho^Gamma[2(n + d_p) + q_q, 2(n + d_q) + q_p]; the ten pairs that land on
    or below the diagonal are scattered straight from the terms of
    ``_shared_terms`` into lower band storage, and LAPACK ``dsbev`` (band
    reduction, then root-free QR) returns its eigenvalues in O(n_max^2) time
    and O(n_max) memory.  ``log_negativity(entangled_state(...))`` is the
    dense route to the same value.  Only the eta of a term depend on xi, so
    s_n and w_n are made once; each pair is scattered into the bands of a
    block of ``_lapack._BLOCK`` points at once, and one ``band_eigvalsh``
    call takes the block.  The cost bound is checked first, then each
    point's trace, then the memory budget of a block.
    """
    a = _as_accel(r)
    cut = _as_cutoff(cutoff, r)
    check_cost(cut.n_max, len(xi_grid), "negativity_sweep")
    eta = np.array([_shared_etas(_as_xi(xi), a, cut) for xi in xi_grid]).reshape(-1, 4)
    block = min(len(eta), _lapack._BLOCK)
    check_budget((block, 2 * cut.levels, 4), float, "negativity_sweep band stack")
    factors, weights = _shared_levels(a, cut)
    band = np.zeros((block, 2 * cut.levels, 4))
    norms = np.empty(len(eta))
    for lo in range(0, len(eta), _lapack._BLOCK):
        k = min(block, len(eta) - lo)
        amps = eta[lo:lo + k, :, None] * factors
        band[:k] = 0.0
        ab = band[:k].transpose(0, 2, 1)
        for p, (q_p, d_p) in enumerate(_SHARED_COMPONENTS):
            for q, (q_q, d_q) in enumerate(_SHARED_COMPONENTS):
                row, col = 2 * d_p + q_q, 2 * d_q + q_p
                if row >= col:
                    ab[:, row - col, col:col + 2 * len(weights):2] += weights * (amps[:, p] * amps[:, q])
        norms[lo:lo + k] = np.sum(np.abs(_lapack.band_eigvalsh(ab)), axis=1)
    return [NegativityResult(float(xi), a.r, _log_trace_norm(float(norm))) for xi, norm in zip(xi_grid, norms)]
