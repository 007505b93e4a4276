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
from .channel import (FockCutoff, OrthogonalityParam, _as_accel, _as_cutoff, _as_xi,
                      unruh_one_particle_amplitudes, unruh_vacuum_amplitudes)
from .errors import TruncationError
from .geometry import root_fidelity
from .linalg import DenseOperator, check_budget, check_cost

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

    so its singular values give the angle.  M is written into general band
    storage (3, n_max + 1) and LAPACK ``dgbbrd`` reduces it to bidiagonal
    form in O(n_max); ``dlasq1`` then runs dqds on that, which finds every
    singular value to high relative accuracy (Demmel & Kahan, SIAM J. Sci.
    Stat. Comput. 11, 873 (1990); Fernando & Parlett, Numer. Math. 67, 191
    (1994)), in O(n_max^2) time and O(n_max) memory, with no square root.
    ``bures_angle`` of the two ``effective_qubit`` images is the dense route
    to the same angle, with the same checks: truncation, cost bound and unit
    trace (Tr A A^T = sum a^2 c_n^2 + b^2 d_n^2) at every point.  The bands
    of a block of ``_lapack._BLOCK`` points are filled in one pass, after the
    memory budget check, and taken by one kernel call.
    """
    a = _as_accel(r)
    cut = _as_cutoff(cutoff, r)
    check_cost(cut.n_max, len(xi_grid), "angle_sweep")
    c = unruh_vacuum_amplitudes(a, cut)
    d = unruh_one_particle_amplitudes(a, cut)
    cc, dd, cd = c * c, d * d, c[1:] * d[:-1]
    vacuum, one = float(np.sum(cc)), float(np.sum(dd))
    a1, b1 = OrthogonalityParam(0.0).plus_state().real
    phis = np.array([_as_xi(xi).phi_state().real for xi in xi_grid]).reshape(-1, 2)
    for a2, b2 in phis:
        for u, v in ((a1, b1), (a2, b2)):
            tr = u * u * vacuum + v * v * one
            if abs(tr - 1.0) > _TRACE_ATOL:
                raise TruncationError(f"channel image trace {tr:.12g} misses 1 by more than {_TRACE_ATOL:.0e}")
    block = min(len(phis), _lapack._BLOCK)
    check_budget((block, cut.n_max + 1, 3), float, "angle_sweep band stack")
    band = np.zeros((block, cut.n_max + 1, 3))
    root_fids = np.empty(len(phis))
    for lo in range(0, len(phis), _lapack._BLOCK):
        k = min(block, len(phis) - lo)
        a2, b2 = phis[lo:lo + k].T[:, :, None]
        ab = band[:k].transpose(0, 2, 1)
        ab[:, 0, 1:] = b1 * a2 * cd
        ab[:, 1] = a1 * a2 * cc + b1 * b2 * dd
        ab[:, 2, :-1] = a1 * b2 * cd
        root_fids[lo:lo + k] = np.sum(_lapack.tridiagonal_singular_values(ab), axis=1)
    return [AngleResult(float(xi), a.r, math.acos(float(np.clip(root_fid, 0.0, 1.0))))
            for xi, root_fid in zip(xi_grid, root_fids)]
