"""Bures angle between the accelerated images of the two encoding states.

theta = arccos( Tr sqrt( rho1^(1/2) rho2 rho1^(1/2) ) ) is maximal exactly
when the optimal same-or-different measurement succeeds with the highest
probability, so the sweep over xi locates the most distinguishable encoding
at a given acceleration.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import _lapack
from .channel import FockCutoff, _as_accel, _as_cutoff, _encoding_amplitudes, _towers, _xi_array
from .geometry import root_fidelity
from .linalg import DenseOperator, check_cost

_TRACE_ATOL = 1e-6


class AngleResult(NamedTuple):
    xi: float
    r: float
    theta: float


def bures_angle(rho1: DenseOperator, rho2: DenseOperator) -> float:
    """arccos of the root fidelity, in [0, pi/2]; symmetric in its arguments.

    Both inputs must be unit-trace density operators on the same space.  The
    arccos argument is clipped to [0, 1] to absorb roundoff-level excess.
    """
    if rho1.dim != rho2.dim:
        raise ValueError(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    for op in (rho1, rho2):
        tr = op.trace()
        if abs(tr.real - 1.0) > _TRACE_ATOL or abs(tr.imag) > _TRACE_ATOL:
            raise ValueError(f"bures_angle expects unit-trace inputs, got trace {tr}")
    return math.acos(float(np.clip(root_fidelity(rho1, rho2), 0.0, 1.0)))


def angle_sweep(r, xi_grid: Sequence[float], cutoff: FockCutoff | None = None) -> list[AngleResult]:
    """theta(xi) between the accelerated images of |+> and |phi>.

    The wedge-I image of a real pure input a|0> + b|1> is A A^T, where column
    n of A is a c_n e_n + b d_n e_{n+1}, and the root fidelity of two such
    images is ||A_+^T A_phi||_1 (Jozsa, J. Mod. Opt. 41, 2315 (1994)).  With
    (a1, b1) = |+> and (a2, b2) = |phi>, M = A_+^T A_phi is tridiagonal:

        M[n, n] = a1 a2 c_n^2 + b1 b2 d_n^2,
        M[n+1, n] = a1 b2 c_{n+1} d_n,   M[n, n+1] = b1 a2 d_n c_{n+1},

    so its singular values give the angle.  The amplitude products are the
    level weights of ``_towers``: c_n^2 = 8 w_n, d_n^2 = 8 w_n s_n^2 and
    c_{n+1} d_n = 8 tanh r w_n s_n.  ``_lapack.band_sums`` fills M from four
    terms, a coefficient a point times an amplitude product a level, and
    ``tridiagonal_singular_values`` (``dgbbrd``, then dqds in ``dlasq1``)
    finds every singular value to high relative accuracy, with no square
    root, in O(n_max^2) time and O(n_max) memory a point.
    ``bures_angle`` of the two ``effective_qubit`` images is the dense route
    to the same angle, which holds its inputs to unit trace within a fixed
    1e-6.  Here, after the cost check, ``_towers`` checks the image of |+>
    and then that of |phi> at each xi, of tower weights (a^2, b^2), in one pass.
    """
    a = _as_accel(r)
    cut = _as_cutoff(cutoff, r)
    check_cost(cut.n_max, len(xi_grid), "angle_sweep")
    xi = _xi_array(xi_grid)
    h, a2, b2 = _encoding_amplitudes(xi)  # |+> = h(|0> + |1>), |phi> = a2|0> + b2|1>
    w, ws, wss, _ = _towers(a, cut, np.column_stack([np.append(h * h, a2 * a2), np.append(h * h, b2 * b2)]),
                            "channel image")
    cc, dd, cd = 8.0 * w, 8.0 * wss, 8.0 * a.T * ws[:-1]
    hu, hv = h * a2, h * b2
    root_fids = _lapack.band_sums(_lapack.tridiagonal_singular_values, cut.n_max + 1, [
        (0, slice(1, None), hu, cd), (1, slice(None), hu, cc), (1, slice(None), hv, dd), (2, slice(0, -1), hv, cd)])
    clipped = np.clip(root_fids, 0.0, 1.0).tolist()
    return [AngleResult(x, a.r, math.acos(fid)) for x, fid in zip(xi.tolist(), clipped)]
