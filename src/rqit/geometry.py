"""Geometry of the effective state space at low acceleration.

Distance.  For the subnormalized low-acceleration family the usual Bures
construction is generalized to

    D(rho, sigma) = 2 [ Tr rho Tr sigma - F(rho, sigma) ],
    F(rho, sigma) = Tr[ sqrt( rho^(1/2) sigma rho^(1/2) ) ]^2,

which vanishes on coinciding states regardless of their trace.  The squared
line element is ds^2 = D(rho, rho + drho)/2; the factor 1/2 reproduces the
standard qubit Bures metric (1/4)[dn^2 + dS^2/(1-n^2)] at r = 0.

Closed form.  Through O(r^2), with C = cosh r, T = tanh r, n = (x, y, z),
dS = x dx + y dy + z dz:

    ds^2 = (1/4C^4) { dn^2 + T^2 dz^2
                      + dS^2/(1-n^2) [ 1 - T^2 (1+z)^2 / (1-n^2) ] }.

``numeric_metric``, the exact quadratic form of D on the low-acceleration
family (no finite differences), is the validation of the closed form.

Curvature.  The scalar curvature is computed by finite-difference
Christoffel symbols of the polar pullback of the validated Cartesian form
above, in the chart (xi_c, theta, phi).  The closed-form polar tensor
g + h (``metric_polar``) and the closed-form curvature (24 + dR) cosh^4 r
are provided alongside so their discrepancy against the numeric oracle
can be reported.

Tables.  ``metric_cartesian``, ``numeric_metric`` and both curvatures
take one point or a table of points along a leading axis; the one-point
call is the table of one, with no second code path.  The stacked kernels
evaluate a table in blocks of ``_BLOCK`` points, so their temporaries
stay bounded whatever its length; the closed-form curvature, a few arrays
as long as the table, takes it whole.  The numeric curvature of a block
takes every stencil point of every point at both Richardson steps (38 a
point) from one ``_pullback_stack`` call, differences them elementwise
and contracts them in one stacked ``_scalar_curvature``.
``numeric_metric`` takes one stacked 3x3 eigensolve of the states of a
block.  The closed-form tables and the curvature are bit-identical to the
one-point scalar code these kernels replaced, because each kernel keeps
that code's roundings: ``n @ n`` as BLAS ddot rounds it, powers by
``pow`` as float64 scalars take them, and sines and cosines from ``math``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import _as_accel, _check_bloch_rows, _small_r_stack, _warn_beyond_small_r
from .errors import BoundaryError, ChartError
from .linalg import DenseOperator, _psd_eigenvalues, matrix_sqrt

BOUNDARY_MARGIN = 1e-9
CHART_MARGIN = 1e-6
# Central-difference step of the curvature, halved once for Richardson.
CURVATURE_STEP = 1e-4
# Points per block of a stacked table (see ``_by_blocks``).  A point takes
# about 16 kB of temporaries for the curvature and 2 kB for the numeric
# metric.  Blocks of 8 keep every array under about 30 kB, which the free
# chunks of a warm heap hold; blocks of 64 ran 1.3-1.7x faster per point on
# long tables but grew the peak RSS of the default tables by 0.1-0.4 MB.
_BLOCK = 8


def root_fidelity(rho: DenseOperator, sigma: DenseOperator) -> float:
    """Tr sqrt( rho^(1/2) sigma rho^(1/2) ), well defined for PSD inputs.

    Evaluated as the nuclear norm || rho^(1/2) sigma^(1/2) ||_1 (the same
    quantity: the two matrices are adjoints up to a unitary).  Summing
    singular values avoids the sqrt-of-roundoff noise that the literal
    Tr sqrt(...) form picks up on rank-deficient states, and makes the
    exchange symmetry exact to machine precision.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    product = matrix_sqrt(rho).entries @ matrix_sqrt(sigma).entries
    return float(np.sum(np.linalg.svd(product, compute_uv=False)))


def fidelity(rho: DenseOperator, sigma: DenseOperator) -> float:
    """F = Tr[ sqrt( rho^(1/2) sigma rho^(1/2) ) ]^2.

    For subnormalized states F(rho, rho) = (Tr rho)^2 and
    F(rho, sigma) <= Tr rho Tr sigma.
    """
    return root_fidelity(rho, sigma) ** 2


def generalized_bures_distance(rho: DenseOperator, sigma: DenseOperator) -> float:
    """D = 2 [ Tr rho Tr sigma - F(rho, sigma) ], the trace-aware distance.

    Symmetric, non-negative, zero on coinciding states, monotone under
    CPTP maps.  Note D is a squared-distance-like quantity (it is the
    second-order line element up to the factor 2); it does not itself obey
    the triangle inequality, see the test suite for counterexamples.
    """
    tr_product = rho.trace().real * sigma.trace().real
    return 2.0 * (tr_product - fidelity(rho, sigma))


@dataclass(frozen=True)
class MetricValue:
    """3x3 symmetric metric tensor at a state-space point, or a table of
    them: point (k, 3) and tensor (k, 3, 3).

    chart is "bloch" for Cartesian (x, y, z) or "polar" for
    (xi_c, theta, phi).
    """

    point: np.ndarray
    chart: str
    tensor: np.ndarray


@dataclass(frozen=True)
class CurvatureResult:
    """Numeric vs closed-form scalar curvature at a polar point.

    numeric_R comes solely from the finite-difference oracle and never
    from the closed form; discrepancy = numeric_R - closed_form_R.
    """

    point: np.ndarray
    r: float
    numeric_R: float
    closed_form_R: float
    discrepancy: float


def metric_cartesian(bloch, r) -> MetricValue:
    """Quadratic form of the closed-form ds^2 in d(x, y, z).

    ``bloch`` is one point (3,) or a table (k, 3); the tensor is (3, 3) or
    (k, 3, 3) to match.
    """
    n, rows = _bloch_rows(bloch)
    g = _by_blocks(_metric_cartesian_stack, rows, (3, 3), r)
    return MetricValue(n, "bloch", g.reshape(n.shape + (3,)))


def _bloch_rows(bloch) -> tuple[np.ndarray, np.ndarray]:
    """A point (3,) or table (k, 3) of Bloch vectors, and its rows as (k, 3)."""
    n = np.asarray(bloch, dtype=float)
    if n.ndim not in (1, 2) or n.shape[-1] != 3:
        raise ValueError(f"expected Bloch vectors of shape (3,) or (k, 3), got {n.shape}")
    return n, n.reshape(-1, 3)


def _by_blocks(kernel, rows: np.ndarray, shape: tuple[int, ...], *args) -> np.ndarray:
    """``kernel(rows[lo:hi], *args)`` over blocks of ``_BLOCK`` rows, stacked
    into one (len(rows), *shape) array; the temporaries stay those of a block."""
    out = np.empty((len(rows), *shape))
    for lo in range(0, len(rows), _BLOCK):
        out[lo:lo + _BLOCK] = kernel(rows[lo:lo + _BLOCK], *args)
    return out


def _interior_norms2(n: np.ndarray) -> np.ndarray:
    """n^2 of each Bloch vector n (k, 3); InvalidBlochError for the first
    outside the ball or with a NaN component, then BoundaryError for the
    first within BOUNDARY_MARGIN of the pure-state boundary, where both
    metrics diverge."""
    n2 = _check_bloch_rows(n)
    bad = np.flatnonzero(n2 >= 1.0 - BOUNDARY_MARGIN)
    if bad.size:
        raise BoundaryError(f"metric singular at the pure-state boundary (n^2 = {n2[bad[0]]:.9f})")
    return n2


def _metric_cartesian_stack(n: np.ndarray, r) -> np.ndarray:
    """Closed-form Cartesian tensors (k, 3, 3) at the Bloch vectors n (k, 3)."""
    a = _as_accel(r)
    n2 = _interior_norms2(n)
    C, T = a.C, a.T
    # (1 + z)^2 through pow, as a float64 scalar squares: the array square
    # x * x rounds differently at a few curvature stencil points
    tilt = 1.0 - T**2 * np.float_power(1.0 + n[:, 2], 2) / (1.0 - n2)
    g = n[:, :, None] * n[:, None, :] / (1.0 - n2)[:, None, None] * tilt[:, None, None]
    g += np.diag([1.0, 1.0, 1.0 + T**2])
    return g / (4.0 * C**4)


def metric_polar(xi_c: float, theta: float, r) -> MetricValue:
    """The closed-form polar tensor (g + h)/(4 C^4).

    g/4 is the standard qubit Bures metric in polar coordinates; h is the
    O(r^2) deformation.  The off-diagonal entry scales with the radial
    coordinate, -T^2 xi_c sin(theta) cos(theta) / 2: an acceleration factor
    in its place would make it O(r^3) and structurally unlike the Cartesian
    pullback.  This h block is still not the exact chain-rule image of the
    Cartesian tensor; ``metric_polar_pullback`` provides that.
    """
    a = _as_accel(r)
    q = np.array([xi_c, theta, 0.0])
    xi_c, st, ct = (float(v[0]) for v in _polar_trig(q[None])[:3])
    T2 = a.T**2
    g = np.diag([1.0 / (1.0 - xi_c**2), xi_c**2, xi_c**2 * st**2])
    g[0, 0] += T2 * (1.0 + xi_c * ct) ** 2 + T2 / 2.0 * ct**2
    g[0, 1] = g[1, 0] = -T2 / 2.0 * xi_c * st * ct
    g[1, 1] += T2 * xi_c**2 / 2.0 * st**2
    return MetricValue(q, "polar", g / (4.0 * a.C**4))


def _polar_trig(q: np.ndarray) -> tuple[np.ndarray, ...]:
    """(xi_c, sin theta, cos theta, sin phi, cos phi) at the polar points
    q (k, 3); the first point outside the chart raises ChartError.

    The sines and cosines come from ``math`` row by row, as one point took
    them: numpy's vectorized ones may round differently.  ``math`` refuses
    infinite angles, so they enter as NaN, which fails the chart test.
    """
    xi_c, theta, phi = q.T
    st, ct, sp, cp = (np.array([f(x) for x in np.where(np.isinf(angle), np.nan, angle).tolist()])
                      for angle in (theta, phi) for f in (math.sin, math.cos))
    radial = (CHART_MARGIN < xi_c) & (xi_c < 1.0 - BOUNDARY_MARGIN)
    polar = st > CHART_MARGIN
    bad = np.flatnonzero(~(radial & polar & np.isfinite(phi)))
    if bad.size:
        k = bad[0]
        if not radial[k]:
            raise ChartError(f"radial coordinate xi_c = {xi_c[k]} outside the admissible chart")
        if not polar[k]:
            raise ChartError(f"polar angle theta = {theta[k]} too close to the axis")
        raise ChartError(f"azimuth phi = {phi[k]} is not finite")
    return xi_c, st, ct, sp, cp


def metric_polar_pullback(xi_c: float, theta: float, r, phi: float = 0.0) -> MetricValue:
    """Chain-rule transform of the Cartesian tensor into the polar chart.

    J^T G(n(q)) J with n = xi_c (sin th cos ph, sin th sin ph, cos th).
    Agrees with ``metric_polar`` at r = 0 and is the validated geometry for
    curvature at r > 0.
    """
    q = np.array([xi_c, theta, phi])
    return MetricValue(q, "polar", _pullback_stack(q[None], r)[0])


def _pullback_stack(q: np.ndarray, r) -> np.ndarray:
    """``metric_polar_pullback`` tensors (k, 3, 3) at the polar points q (k, 3)."""
    xi_c, st, ct, sp, cp = _polar_trig(q)
    zero = np.zeros(len(q))
    jac = np.stack([st * cp, xi_c * ct * cp, -xi_c * st * sp,
                    st * sp, xi_c * ct * sp, xi_c * st * cp,
                    ct, -xi_c * st, zero], axis=1).reshape(-1, 3, 3)
    n = xi_c[:, None] * jac[:, :, 0]  # xi_c (sin th cos ph, sin th sin ph, cos th)
    return jac.transpose(0, 2, 1) @ _metric_cartesian_stack(n, r) @ jac


def numeric_metric(bloch, r) -> MetricValue:
    """Metric of ds^2 = D/2 on the small-r family from the second-order
    expansion of D, with no step.

    ``small_r_qubit`` is affine in n, so A_u = d rho / d n_u are constant.
    Taken in the eigenbasis of rho (eigenvalues lambda_i), they give the
    Bures metric (Huebner 1992) with a trace term for the subnormalized
    family:

        g_uv = (Tr rho / 2) sum_ij Re(A_u,ij conj A_v,ij) / (lambda_i + lambda_j)
               - Tr A_u Tr A_v / 4,

    dropping pairs with lambda_i + lambda_j = 0 (0/0 at r = 0, where rho has
    rank 2).  The eigenvalues take ``matrix_sqrt``'s PSD clamp.  ``bloch``
    is one point (3,) or a table (k, 3) inside the boundary margin of
    ``metric_cartesian``, and the tensor (3, 3) or (k, 3, 3) to match.
    """
    n, rows = _bloch_rows(bloch)
    _interior_norms2(rows)
    a = _as_accel(r)
    _warn_beyond_small_r(a)
    slopes = _small_r_stack(np.eye(3), a) - _small_r_stack(np.zeros((1, 3)), a)
    g = _by_blocks(_numeric_metric_stack, rows, (3, 3), a, slopes)
    return MetricValue(n, "bloch", g.reshape(n.shape + (3,)))


def _numeric_metric_stack(n: np.ndarray, a, slopes: np.ndarray) -> np.ndarray:
    """``numeric_metric`` tensors (k, 3, 3) at the Bloch vectors n (k, 3)
    from one stacked eigensolve of their states; slopes[u] is A_u."""
    states = _small_r_stack(n, a)
    w, v = np.linalg.eigh(states)
    w = _psd_eigenvalues(w)
    pair = w[:, :, None] + w[:, None, :]
    weight = np.divide(1.0, pair, out=np.zeros_like(pair), where=pair > 0.0)
    rotated = v.conj().swapaxes(-1, -2)[:, None] @ slopes @ v[:, None]  # A_u in each eigenbasis
    form = np.einsum("kuij,kvij,kij->kuv", rotated, rotated.conj(), weight).real
    tr_a = np.trace(slopes, axis1=1, axis2=2).real
    tr = np.trace(states, axis1=1, axis2=2).real
    return tr[:, None, None] / 2.0 * form - np.outer(tr_a, tr_a) / 4.0


# The 19-point stencil of second-order central differences, in units of the
# step: the centre, +-e_a for each axis, then for each axis pair (a, b) the
# corners +a+b, +a-b, -a+b, -a-b.
_STENCIL = np.array(
    [[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
     [1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0], [1, 0, 1], [1, 0, -1], [-1, 0, 1], [-1, 0, -1],
     [0, 1, 1], [0, 1, -1], [0, -1, 1], [0, -1, -1]],
    dtype=float,
)


def _central_differences(g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, dg, ddg) at the stencil centres from the metrics g (k, 19, 3, 3)
    on ``_STENCIL`` at the steps h (k,); dg[:, c] = d_c g and
    ddg[:, a, b] = d_a d_b g."""
    h, h2 = h[:, None, None, None], np.float_power(h, 2)[:, None, None, None]  # h**2 of a float is pow
    g0, gp, gm = g[:, 0], g[:, 1:7:2], g[:, 2:7:2]
    pp, pm, mp, mm = (g[:, 7 + c::4] for c in range(4))
    ddg = np.zeros((len(g), 3, 3, 3, 3))
    ddg[:, range(3), range(3)] = (gp - 2.0 * g0[:, None] + gm) / h2
    ddg[:, [0, 0, 1], [1, 2, 2]] = ddg[:, [1, 2, 2], [0, 0, 1]] = (pp - pm - mp + mm) / (4.0 * h2)
    return g0, (gp - gm) / (2.0 * h), ddg


def _scalar_curvature(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """Scalar curvature (k,) from the metrics g (k, 3, 3), their first
    derivatives dg (k, 3, 3, 3) and second derivatives ddg (k, 3, 3, 3, 3)."""
    ginv = np.linalg.inv(g)
    # bracket[e, d, b] = d_d g_eb + d_b g_de - d_e g_db  (dg[c] = d_c g)
    bracket = dg.transpose(0, 2, 1, 3) + dg.transpose(0, 3, 2, 1) - dg
    gam = 0.5 * np.einsum("kae,kedb->kadb", ginv, bracket)
    dginv = -np.einsum("kae,kcef,kfd->kcad", ginv, dg, ginv)
    dbracket = ddg.transpose(0, 1, 3, 2, 4) + ddg.transpose(0, 1, 4, 3, 2) - ddg
    dgam = 0.5 * (
        np.einsum("kcae,kedb->kcadb", dginv, bracket)
        + np.einsum("kae,kcedb->kcadb", ginv, dbracket)
    )
    ricci = (
        np.einsum("kaadb->kbd", dgam)
        - np.einsum("kdaab->kbd", dgam)
        + np.einsum("kaae,kedb->kbd", gam, gam)
        - np.einsum("kade,keab->kbd", gam, gam)
    )
    return np.einsum("kbd,kbd->k", ginv, ricci)


def scalar_curvature_numeric(xi_c, theta, r):
    """Finite-difference scalar curvature in the polar chart.

    Central differences at ``CURVATURE_STEP``, Richardson-extrapolated once,
    of the pullback of the validated Cartesian metric.  ``xi_c`` and
    ``theta`` are one point (a float is returned) or arrays of points (an
    array is returned); every stencil metric of a block of points comes
    from one stacked metric evaluation.
    """
    points, shape = _polar_points(xi_c, theta)
    out = _by_blocks(_curvature_stack, points, (), r)
    return float(out[0]) if shape == () else out.reshape(shape)


def _polar_points(xi_c, theta) -> tuple[np.ndarray, tuple[int, ...]]:
    """The polar points (k, 3) of broadcast ``xi_c`` and ``theta``, and their
    broadcast shape; phi = 0.5 is irrelevant, both curvatures being axisymmetric."""
    xi, th = np.broadcast_arrays(np.asarray(xi_c, dtype=float), np.asarray(theta, dtype=float))
    return np.stack([xi.ravel(), th.ravel(), np.full(xi.size, 0.5)], axis=1), xi.shape


def _curvature_stack(q: np.ndarray, r) -> np.ndarray:
    """Richardson-extrapolated curvature (k,) at the polar points q (k, 3)
    from one ``_pullback_stack`` call on both steps' stencils and one
    contraction."""
    steps = np.array([CURVATURE_STEP, CURVATURE_STEP / 2.0])
    stencil = q[:, None, None, :] + _STENCIL * steps[:, None, None]
    g = _pullback_stack(stencil.reshape(-1, 3), r).reshape(-1, len(_STENCIL), 3, 3)
    coarse, fine = _scalar_curvature(*_central_differences(g, np.tile(steps, len(q)))).reshape(-1, 2).T
    return (4.0 * fine - coarse) / 3.0


def scalar_curvature_closed_form(xi_c, theta, r):
    """Closed form (24 + dR) cosh^4 r with

        dR = 2T^2/(xi^2 (xi^2 - 1)) [ 4 + 8 xi^2 - 15 xi^4 + 5 xi^6
             - 8 xi (2 xi - 3) cos(theta) (4 + 8 xi^2 - 11 xi^4 + 5 xi^6)
               cos(2 theta) ],

    where the juxtaposed cos(theta) ... cos(2 theta) groups multiply.
    ``xi_c`` and ``theta`` are one point or arrays, as for
    ``scalar_curvature_numeric``.  Powers come from ``pow`` and cosines from
    ``math``, as Python floats take them: the array ``x**2`` rounds some
    points differently.
    """
    a = _as_accel(r)
    points, shape = _polar_points(xi_c, theta)
    xi_c, _, ct = _polar_trig(points)[:3]
    c2t = np.array([math.cos(2.0 * t) for t in points[:, 1].tolist()])
    x2 = np.float_power(xi_c, 2)
    x4, x6 = np.float_power(x2, 2), np.float_power(x2, 3)
    lead = 4.0 + 8.0 * x2 - 15.0 * x4 + 5.0 * x6
    mid = 4.0 + 8.0 * x2 - 11.0 * x4 + 5.0 * x6
    cross = 8.0 * xi_c * (2.0 * xi_c - 3.0) * ct * mid * c2t
    out = (24.0 + 2.0 * a.T**2 / (x2 * (x2 - 1.0)) * (lead - cross)) * a.C**4
    return float(out[0]) if shape == () else out.reshape(shape)


def curvature_comparison(points: Sequence[tuple[float, float]], r) -> list[CurvatureResult]:
    """Numeric oracle vs closed form over polar points; discrepancies reported.

    Each column comes from one table call.
    """
    a = _as_accel(r)
    xi, theta = np.array(points, dtype=float).reshape(-1, 2).T
    numeric = scalar_curvature_numeric(xi, theta, a).tolist()
    closed = scalar_curvature_closed_form(xi, theta, a).tolist()
    return [CurvatureResult(np.array(p, dtype=float), a.r, num, cl, num - cl)
            for p, num, cl in zip(points, numeric, closed)]
