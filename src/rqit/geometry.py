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

``numeric_metric`` recovers the quadratic form directly from D on the
low-acceleration family and is the validation of the closed form.

Curvature.  The scalar curvature is computed by finite-difference
Christoffel symbols in the polar chart (xi_c, theta, phi).  The default
geometry is the polar pullback of the validated Cartesian form above;
the closed-form polar tensor g + h (``metric_polar``) and the
closed-form curvature (24 + dR) cosh^4 r are provided alongside so their
discrepancy against the numeric oracle can be reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import _as_accel, small_r_qubit
from .errors import BoundaryError, ChartError
from .linalg import DenseOperator, matrix_sqrt, psd_sqrt_stack

BOUNDARY_MARGIN = 1e-9
CHART_MARGIN = 1e-6


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
    """3x3 symmetric metric tensor at a state-space point.

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
    """Quadratic form of the closed-form ds^2 in d(x, y, z)."""
    n = np.asarray(bloch, dtype=float)
    a = _as_accel(r)
    n2 = float(n @ n)
    if n2 >= 1.0 - BOUNDARY_MARGIN:
        raise BoundaryError(f"metric singular at the pure-state boundary (n^2 = {n2:.9f})")
    C, T = a.C, a.T
    z = n[2]
    g = np.eye(3)
    g[2, 2] += T**2
    g += np.outer(n, n) / (1.0 - n2) * (1.0 - T**2 * (1.0 + z) ** 2 / (1.0 - n2))
    return MetricValue(n, "bloch", g / (4.0 * C**4))


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
    _check_polar(xi_c, theta)
    C, T = a.C, a.T
    st, ct = math.sin(theta), math.cos(theta)
    g = np.diag([1.0 / (1.0 - xi_c**2), xi_c**2, xi_c**2 * st**2])
    h = np.zeros((3, 3))
    h[0, 0] = T**2 * (1.0 + xi_c * ct) ** 2 + T**2 / 2.0 * ct**2
    h[0, 1] = h[1, 0] = -(T**2) / 2.0 * xi_c * st * ct
    h[1, 1] = T**2 * xi_c**2 / 2.0 * st**2
    return MetricValue(np.array([xi_c, theta, 0.0]), "polar", (g + h) / (4.0 * C**4))


def _check_polar(xi_c: float, theta: float) -> None:
    if not CHART_MARGIN < xi_c < 1.0 - BOUNDARY_MARGIN:
        raise ChartError(f"radial coordinate xi_c = {xi_c} outside the admissible chart")
    if math.sin(theta) <= CHART_MARGIN:
        raise ChartError(f"polar angle theta = {theta} too close to the axis")


def _polar_jacobian(q: np.ndarray) -> np.ndarray:
    xi_c, theta, phi = q
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    return np.array(
        [
            [st * cp, xi_c * ct * cp, -xi_c * st * sp],
            [st * sp, xi_c * ct * sp, xi_c * st * cp],
            [ct, -xi_c * st, 0.0],
        ]
    )


def _polar_to_cartesian(q: np.ndarray) -> np.ndarray:
    xi_c, theta, phi = q
    st = math.sin(theta)
    return xi_c * np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def metric_polar_pullback(xi_c: float, theta: float, r, phi: float = 0.0) -> MetricValue:
    """Chain-rule transform of the Cartesian tensor into the polar chart.

    J^T G(n(q)) J with n = xi_c (sin th cos ph, sin th sin ph, cos th).
    Agrees with ``metric_polar`` at r = 0 and is the validated geometry for
    curvature at r > 0.
    """
    _check_polar(xi_c, theta)
    q = np.array([xi_c, theta, phi])
    jac = _polar_jacobian(q)
    cart = metric_cartesian(_polar_to_cartesian(q), r)
    return MetricValue(q, "polar", jac.T @ cart.tensor @ jac)


_DIRECTIONS = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=float)


def numeric_metric(bloch, r, step: float = 1e-3) -> MetricValue:
    """Metric recovered from the generalized distance on the small-r family.

    Central second differences of D along the three axes and three diagonal
    displacement directions determine the symmetric form of ds^2 = D/2
    exactly; one Richardson pass removes the O(step^2) truncation term.  D is
    ``generalized_bures_distance`` with sqrt(base) taken once; the 12
    displaced states of a step share one stacked square root, product and
    SVD, each rounded exactly as in a call of its own.
    """
    n = np.asarray(bloch, dtype=float)
    if float(n @ n) >= 0.95:
        raise BoundaryError("numeric differencing unstable near the pure-state boundary")
    a = _as_accel(r)
    base = small_r_qubit(n, a)
    root, tr_base = matrix_sqrt(base).entries, base.trace().real

    def quad_coeffs(eps: float) -> np.ndarray:
        states = np.stack([small_r_qubit(n + s * (eps * v), a).entries
                           for v in _DIRECTIONS for s in (1.0, -1.0)])
        root_fid = np.sum(np.linalg.svd(root @ psd_sqrt_stack(states), compute_uv=False), axis=-1)
        fid = np.array([f**2 for f in root_fid.tolist()])  # float pow, rounded as ``fidelity`` rounds
        dist = 2.0 * (tr_base * np.trace(states, axis1=1, axis2=2).real - fid)
        return 0.25 * (dist[0::2] + dist[1::2]) / eps**2

    q = (4.0 * quad_coeffs(step / 2.0) - quad_coeffs(step)) / 3.0
    g = np.diag(q[:3])
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        g[i, j] = g[j, i] = (q[3 + k] - q[i] - q[j]) / 2.0
    return MetricValue(n, "bloch", g)


def _scalar_curvature_fd(metric_fn: Callable[[np.ndarray], np.ndarray], q: np.ndarray, h: float) -> float:
    """Scalar curvature from g, dg, ddg by central differences at step h."""
    g0 = metric_fn(q)
    ginv = np.linalg.inv(g0)
    dg = np.zeros((3, 3, 3))
    ddg = np.zeros((3, 3, 3, 3))
    for a in range(3):
        ea = np.zeros(3)
        ea[a] = h
        gp, gm = metric_fn(q + ea), metric_fn(q - ea)
        dg[a] = (gp - gm) / (2.0 * h)
        ddg[a, a] = (gp - 2.0 * g0 + gm) / h**2
    for a in range(3):
        for b in range(a + 1, 3):
            ea, eb = np.zeros(3), np.zeros(3)
            ea[a], eb[b] = h, h
            mixed = (
                metric_fn(q + ea + eb)
                - metric_fn(q + ea - eb)
                - metric_fn(q - ea + eb)
                + metric_fn(q - ea - eb)
            ) / (4.0 * h**2)
            ddg[a, b] = ddg[b, a] = mixed
    # bracket[e, d, b] = d_d g_eb + d_b g_de - d_e g_db  (dg[c] = d_c g)
    bracket = dg.transpose(1, 0, 2) + dg.transpose(2, 1, 0) - dg
    gam = 0.5 * np.einsum("ae,edb->adb", ginv, bracket)
    dginv = -np.einsum("ae,cef,fd->cad", ginv, dg, ginv)
    dbracket = ddg.transpose(0, 2, 1, 3) + ddg.transpose(0, 3, 2, 1) - ddg
    dgam = 0.5 * (
        np.einsum("cae,edb->cadb", dginv, bracket)
        + np.einsum("ae,cedb->cadb", ginv, dbracket)
    )
    ricci = (
        np.einsum("aadb->bd", dgam)
        - np.einsum("daab->bd", dgam)
        + np.einsum("aae,edb->bd", gam, gam)
        - np.einsum("ade,eab->bd", gam, gam)
    )
    return float(np.einsum("bd,bd->", ginv, ricci))


def _polar_metric_fn(r, tensor: str) -> Callable[[np.ndarray], np.ndarray]:
    if tensor == "pullback":
        return lambda q: metric_polar_pullback(q[0], q[1], r, q[2]).tensor
    if tensor == "polar":
        return lambda q: metric_polar(q[0], q[1], r).tensor
    raise ValueError(f"unknown tensor choice {tensor!r}; expected 'pullback' or 'polar'")


def scalar_curvature_numeric(
    xi_c: float, theta: float, r, step: float = 1e-4, tensor: str = "pullback"
) -> float:
    """Finite-difference scalar curvature in the polar chart.

    Central differences at ``step``, Richardson-extrapolated once.  The
    default differentiates the pullback of the validated Cartesian metric;
    tensor="polar" differentiates the assembled polar g + h instead.
    """
    _check_polar(xi_c, theta)
    fn = _polar_metric_fn(r, tensor)
    q = np.array([xi_c, theta, 0.5])  # phi value irrelevant (axisymmetric)
    coarse = _scalar_curvature_fd(fn, q, step)
    fine = _scalar_curvature_fd(fn, q, step / 2.0)
    return (4.0 * fine - coarse) / 3.0


def scalar_curvature_closed_form(xi_c: float, theta: float, r) -> float:
    """Closed form (24 + dR) cosh^4 r with

        dR = 2T^2/(xi^2 (xi^2 - 1)) [ 4 + 8 xi^2 - 15 xi^4 + 5 xi^6
             - 8 xi (2 xi - 3) cos(theta) (4 + 8 xi^2 - 11 xi^4 + 5 xi^6)
               cos(2 theta) ],

    where the juxtaposed cos(theta) ... cos(2 theta) groups multiply.
    """
    a = _as_accel(r)
    if abs(xi_c) < CHART_MARGIN or abs(xi_c**2 - 1.0) < CHART_MARGIN:
        raise ChartError(f"closed-form curvature has a pole at xi_c = {xi_c}")
    T = a.T
    x2 = xi_c**2
    lead = 4.0 + 8.0 * x2 - 15.0 * x2**2 + 5.0 * x2**3
    mid = 4.0 + 8.0 * x2 - 11.0 * x2**2 + 5.0 * x2**3
    cross = 8.0 * xi_c * (2.0 * xi_c - 3.0) * math.cos(theta) * mid * math.cos(2.0 * theta)
    d_r = 2.0 * T**2 / (x2 * (x2 - 1.0)) * (lead - cross)
    return (24.0 + d_r) * a.C**4


def curvature_comparison(points: Sequence[tuple[float, float]], r) -> list[CurvatureResult]:
    """Numeric oracle vs closed form over polar points; discrepancies reported."""
    a = _as_accel(r)
    out = []
    for xi_c, theta in points:
        numeric = scalar_curvature_numeric(xi_c, theta, a)
        closed = scalar_curvature_closed_form(xi_c, theta, a)
        out.append(
            CurvatureResult(np.array([xi_c, theta]), a.r, numeric, closed, numeric - closed)
        )
    return out
