"""Acceptance suite: one test (or test group) per criterion, each at its
stated tolerance, printing one pass/fail line per criterion (run with -s).

Four assertions encode expected behavior that is provably unattainable;
they are kept at full strength and marked strict-xfail, with the analysis
summarized in the reason:

* criterion 3b (saturation): the protocol's exact Haar average at zero
  acceleration equals (2 + 2 lambda0 lambda1)/3, which is the best Haar
  average of standard teleportation over every sender measurement frame
  and receiver correction (p/2 + tau/6; see
  test_criterion_3_best_frame_fidelity_at_rest);
  (lambda0 + lambda1)/sqrt2 is a strict upper bound attained only at
  xi = 0.  Verified against an independent brute-force joint-space
  simulation and Monte Carlo (the gap is ~250 standard errors at xi = 0.5
  with 2e5 samples).
* criterion 4 (fidelity peak at nonzero xi): with this protocol the average
  fidelity at r = 0.6 is monotone decreasing in xi; both the Monte-Carlo
  and exact curves put the argmax at xi = 0.  The exact curve decreases
  strictly at every r checked, r in [0, 5] and up to MAX_R = 170, with
  the largest relative forward difference -1.1e-5 (at xi = 0, r = 0):
  see test_criterion_4_exact_fidelity_decreases_in_xi_at_every_r.  The
  best frame of standard teleportation, up to 3.8e-5 above this protocol
  at r = 1, decreases strictly in xi too
  (test_criterion_4_best_frame_fidelity_decreases_in_xi).
* criterion 6-strict (per-entry 5%): the closed-form metric drops an O(r^2)
  third-mode term, so the numeric oracle deviates from it by about r^2 in
  absolute terms (the ``metric`` command at seed 0 measures
  max_abs_err / r^2 = 1.04 at r = 0.01 and 1.01 at r = 0.05).  That is up to
  0.61% of the tensor scale at r = 0.05, but structurally small cross
  entries deviate by far more than 5% relative.
* criterion 8 (triangle inequality): the trace-aware distance is a squared
  line element; simple unit-trace counterexamples violate the inequality
  (see test_geometry), and random subnormalized triples violate it at a
  ~13% rate.
"""

import math
import time

import numpy as np
import pytest

from oracles import best_frame_fidelity, fidelity, full_tower_blocks, haar_average, random_subnormalized
from rqit.channel import FockCutoff, effective_qubit, entangled_state, minkowski_qubit
from rqit.distinguishability import angle_sweep
from rqit.entanglement import log_negativity, negativity_sweep
from rqit.geometry import (
    generalized_bures_distance,
    metric_cartesian,
    numeric_metric,
    scalar_curvature_numeric,
)
from rqit.linalg import DenseOperator
from rqit.teleportation import (
    average_fidelity_exact,
    average_fidelity_mc,
    fidelity_bound,
    schmidt_decompose,
)

MC_SAMPLES = 200_000
# fig2's default xi grid, with five more points in (0, 1e-3] and two near 1
BEST_FRAME_XIS = np.concatenate([[0.0, 1e-6, 1e-5, 1e-4, 5e-4, 1e-3], np.arange(1, 96) * 0.01, [0.99, 0.999]])


def _report(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_bell_limit():
    t0 = time.monotonic()
    value = log_negativity(entangled_state(0.0, 0.0))
    elapsed = time.monotonic() - t0
    ok = abs(value - 1.0) <= 1e-10 and elapsed < 1.0
    _report("1", ok, f"log-negativity at xi=0,r=0 is {value:.12f} in {elapsed:.2f}s")
    assert abs(value - 1.0) <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_negativity_peak_at_point_six():
    t0 = time.monotonic()
    grid = np.round(np.arange(0.0, 0.9001, 0.01), 6)
    cut = FockCutoff.for_acceleration(0.6, 1e-12)
    vals = np.array([p.log_negativity for p in negativity_sweep(0.6, grid, cut)])
    best = int(np.argmax(vals))
    gap = vals[best] - vals[0]
    elapsed = time.monotonic() - t0
    ok = grid[best] > 0 and gap > 1e-4 and elapsed < 30
    _report("2", ok, f"argmax xi={grid[best]:.2f}, gain over xi=0 is {gap:.3e}, {elapsed:.1f}s")
    assert grid[best] > 0
    assert gap > 1e-4
    assert elapsed < 30


def test_criterion_3_saturation_at_orthogonal_point():
    value = average_fidelity_exact(0.0, 0.0)
    bound = fidelity_bound(0.0)
    ok = abs(value - bound) <= 1e-10
    _report("3a", ok, f"exact average at xi=0,r=0 is {value:.12f}, bound {bound:.12f}")
    assert abs(value - bound) <= 1e-10


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable: at r=0 the best Haar average of standard teleportation "
        "over every sender measurement frame and receiver correction, "
        "p/2 + tau/6, is (2 + 2 l0 l1)/3, and the exact average equals it "
        "within 1e-15 (test_criterion_3_best_frame_fidelity_at_rest; "
        "confirmed by a brute-force oracle and by Monte Carlo); it sits "
        "strictly below (l0 + l1)/sqrt2 for xi > 0"
    ),
)
def test_criterion_3_saturation_at_nonzero_xi():
    reports = []
    for xi in (0.25, 0.5, 0.75):
        value = average_fidelity_exact(xi, 0.0)
        bound = fidelity_bound(xi)
        reports.append(f"xi={xi}: exact {value:.10f} vs bound {bound:.10f}")
    _report("3b", False, "(expected) " + "; ".join(reports))
    for xi in (0.25, 0.5, 0.75):
        assert abs(average_fidelity_exact(xi, 0.0) - fidelity_bound(xi)) <= 1e-10


def test_criterion_3_monte_carlo_consistency():
    t0 = time.monotonic()
    details = []
    for xi in (0.0, 0.25, 0.5, 0.75):
        exact = average_fidelity_exact(xi, 0.0)
        est = average_fidelity_mc(xi, 0.0, samples=MC_SAMPLES, seed=2024)
        # absolute floor covers the zero-variance point xi = 0
        tol = max(4 * est.std_error, 1e-12)
        details.append(f"xi={xi}: |mc-exact|={abs(est.mean - exact):.2e} tol={tol:.2e}")
        assert abs(est.mean - exact) <= tol
    elapsed = time.monotonic() - t0
    _report("3c", elapsed < 120, f"{'; '.join(details)}; {elapsed:.1f}s")
    assert elapsed < 120


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable: the exact average decreases strictly in xi at every r "
        "(test_criterion_4_fidelity_slope_proof proves it; Monte Carlo "
        "agrees), so the argmax sits at xi=0; the best frame of standard "
        "teleportation, p/2 + tau/6, also decreases strictly in xi at r in "
        "{0.1, 0.6, 1, 3} and beats this protocol by at most 3.8e-5 "
        "(test_criterion_4_best_frame_fidelity_decreases_in_xi), so no "
        "measurement frame moves the peak off xi=0"
    ),
)
def test_criterion_4_fidelity_peak_monte_carlo():
    t0 = time.monotonic()
    grid = np.round(np.arange(0.0, 0.9001, 0.02), 6)
    means, errs = [], []
    for i, xi in enumerate(grid):
        est = average_fidelity_mc(xi, 0.6, samples=MC_SAMPLES, seed=97 + i)
        means.append(est.mean)
        errs.append(est.std_error)
    means, errs = np.array(means), np.array(errs)
    best = int(np.argmax(means))
    combined = math.hypot(errs[best], errs[0])
    elapsed = time.monotonic() - t0
    _report(
        "4a",
        False,
        f"(expected) MC argmax xi={grid[best]:.2f}, f*={means[best]:.6f}, "
        f"f0={means[0]:.6f}, 4*combined_se={4*combined:.2e}; {elapsed:.0f}s",
    )
    assert elapsed < 600
    assert grid[best] > 0
    assert means[best] - means[0] > 4 * combined


@pytest.mark.xfail(
    strict=True,
    reason=("unattainable, as the Monte-Carlo variant: the exact curve and the best-frame "
            "optimum both decrease strictly in xi"),
)
def test_criterion_4_fidelity_peak_exact_oracle():
    grid = np.round(np.arange(0.0, 0.9001, 0.02), 6)
    vals = np.array([average_fidelity_exact(xi, 0.6) for xi in grid])
    best = int(np.argmax(vals))
    _report("4b", False, f"(expected) exact argmax xi={grid[best]:.2f}")
    assert grid[best] > 0


def test_criterion_3_best_frame_fidelity_at_rest():
    """No standard protocol beats the code's at r = 0.  Over every sender
    measurement frame and receiver correction, the best Haar average through
    the shared state's levels {0, 1} block S is p/2 + tau/6, with p = tr S
    and tau the sum of the singular values of T_ij = tr(S sigma_i (x) sigma_j)
    where det T <= 0 (Horodecki, Horodecki & Horodecki, Phys. Lett. A 222, 21
    (1996); tests/oracles.best_frame_fidelity).  At r = 0 it is
    (2 + 2 lambda0 lambda1)/3, the code's exact average.
    """
    worst = 0.0
    for xi in BEST_FRAME_XIS:
        sd = schmidt_decompose(xi)
        best = best_frame_fidelity(xi, 0.0)
        worst = max(worst, abs(best - (2 + 2 * sd.lambda0 * sd.lambda1) / 3),
                    abs(best - average_fidelity_exact(xi, 0.0)))
    _report("3d", worst <= 1e-15, f"best frame at r=0 is (2 + 2 l0 l1)/3 and the exact average within {worst:.1e}")
    assert worst <= 1e-15


def test_criterion_4_best_frame_fidelity_decreases_in_xi():
    """The best frame of standard teleportation (p/2 + tau/6, see
    test_criterion_3_best_frame_fidelity_at_rest) is at least the code's
    exact average, equal to it at xi = 0, and strictly decreasing in xi, so
    no measurement frame moves fig2's peak off xi = 0.  It beats the code's
    protocol by up to 3.8e-5 at r = 1: that protocol is optimal for the
    inertial state, not for the accelerated one.
    """
    gain = 0.0
    for r in (0.0, 0.1, 0.6, 1.0, 3.0, 10.0):
        best = np.array([best_frame_fidelity(xi, r) for xi in BEST_FRAME_XIS])
        exact = np.array([average_fidelity_exact(xi, r) for xi in BEST_FRAME_XIS])
        assert np.all(best >= exact - 1e-15), r
        assert abs(best[0] - exact[0]) <= 1e-15, r
        if r in (0.1, 0.6, 1.0, 3.0):
            assert np.all(np.diff(best) < 0), r
        gain = max(gain, float((best - exact).max()))
    _report("4e", True, f"best frame strictly decreasing in xi; largest gain over the code's protocol {gain:.2e}")


def test_criterion_4_exact_fidelity_decreases_in_xi_at_every_r():
    """Why criterion 4 cannot hold at any acceleration: the exact curve falls
    strictly in xi on the whole r range fig2 covers, to MAX_R = 170.

    The proof, checked by test_criterion_4_fidelity_slope_proof: with
    x = 1/cosh r, u = sqrt(1 - xi) and v = sqrt(1 + xi), the exact average
    is F = a x^2 + b x^3 + c x^4 with

        a = (2 - xi)/4,
        b = [(u + v)(3 + uv) + 2(1 - uv)]/24,
        c = xi/4 + [(u + v)(1 - uv) + 2(1 + uv)]/24,

    so dF/dxi = x^2 (-1/4 + b' x + c' x^2).  Put xi = sin 2beta, beta in
    [0, pi/4), s = sin beta and k = cos beta (u = k - s, v = k + s); then

        b' = -s (3k^2 - 2k + 1) / (12 cos 2beta) <= 0,
        c' - 1/4 = s (3k + 1)(k - 1) / (12 cos 2beta) <= 0,

    since 3k^2 - 2k + 1 has no real root.  With 0 < x <= 1 the slope is at
    most x^2 (x^2 - 1)/4 <= 0, and it is 0 only at xi = 0 (s = 0), r = 0.
    This numeric test checks the same on a grid, through the library.
    """
    xis = np.linspace(0.0, 0.95, 60)
    worst = -math.inf
    for r in [*np.linspace(0.0, 5.0, 21), 10.0, 20.0, 50.0, 100.0, 170.0]:
        vals = np.array([average_fidelity_exact(xi, r) for xi in xis])
        step = np.diff(vals) / vals[:-1]
        worst = max(worst, float(step.max()))
        assert np.all(step < 0), r
    _report("4c", True, f"exact curve strictly decreasing in xi; largest relative step {worst:.2e}")


def test_criterion_4_fidelity_slope_proof():
    # 4c's argument in sympy: the coefficients b and c of F = a x^2 + b x^3 + c x^4
    # are the library's, and b' <= 0, c' <= 1/4 on xi = sin 2beta, beta in [0, pi/4)
    sp = pytest.importorskip("sympy")
    beta, x = sp.symbols("beta x", nonnegative=True)
    s, k = sp.sin(beta), sp.cos(beta)
    u, v = k - s, k + s
    xi = sp.sin(2 * beta)
    assert sp.simplify(u**2 - (1 - xi)) == 0 and sp.simplify(v**2 - (1 + xi)) == 0
    a = (2 - xi) / 4
    b = ((u + v) * (3 + u * v) + 2 * (1 - u * v)) / 24
    c = xi / 4 + ((u + v) * (1 - u * v) + 2 * (1 + u * v)) / 24
    f = sp.lambdify([beta, x], a * x**2 + b * x**3 + c * x**4)
    for xi_val in (0.0, 0.3, 0.75, 0.99):
        for r in (0.0, 0.6, 3.0):
            want = average_fidelity_exact(xi_val, r)
            assert abs(f(math.asin(xi_val) / 2, 1 / math.cosh(r)) - want) <= 4e-16 * want, (xi_val, r)
    dxi = sp.diff(xi, beta)
    b_slope, c_slope = sp.diff(b, beta) / dxi, sp.diff(c, beta) / dxi
    assert sp.diff(a, beta) / dxi == sp.Rational(-1, 4)
    assert sp.simplify(b_slope + s * (3 * k**2 - 2 * k + 1) / (12 * sp.cos(2 * beta))) == 0
    assert sp.simplify(c_slope - sp.Rational(1, 4) - s * (3 * k + 1) * (k - 1) / (12 * sp.cos(2 * beta))) == 0
    assert sp.discriminant(3 * x**2 - 2 * x + 1, x) < 0
    _report("4d", True, "proof: b' <= 0 and c' <= 1/4, so dF/dxi <= 0, equal to 0 only at xi = 0, r = 0")


def test_criterion_5_bures_angle_endpoints():
    t0 = time.monotonic()
    flat = angle_sweep(0.0, [0.0])[0].theta
    assert abs(flat - math.pi / 2) <= 1e-10
    grid = np.round(np.arange(0.0, 0.9001, 0.01), 6)
    vals = np.array([p.theta for p in angle_sweep(0.85, grid)])
    best = int(np.argmax(vals))
    margin = vals[best] - vals[0]
    elapsed = time.monotonic() - t0
    ok = grid[best] > 0 and margin > 1e-4 and elapsed < 60
    _report(
        "5", ok, f"theta(0,0)={flat:.10f}; r=0.85 argmax xi={grid[best]:.2f} "
        f"margin={margin:.3e}; {elapsed:.1f}s"
    )
    assert grid[best] > 0
    assert margin > 1e-4
    assert elapsed < 60


def _metric_sample_points(count=20, reach=0.7):
    rng = np.random.default_rng(2718)
    pts = []
    for _ in range(count):
        n = rng.normal(size=3)
        pts.append(n / np.linalg.norm(n) * rng.uniform(0.0, reach))
    return pts


def test_criterion_6_metric_validation():
    t0 = time.monotonic()
    worst_rel, worst_flat = 0.0, 0.0
    for n in _metric_sample_points():
        got = numeric_metric(n, 0.05).tensor
        want = metric_cartesian(n, 0.05).tensor
        scale = np.max(np.abs(want))
        rel = np.max(np.abs(got - want)) / scale
        worst_rel = max(worst_rel, rel)
        assert rel <= 0.05
        flat = numeric_metric(n, 0.0).tensor
        flat_ref = metric_cartesian(n, 0.0).tensor
        err = np.max(np.abs(flat - flat_ref))
        worst_flat = max(worst_flat, err)
        assert err <= 1e-6
    elapsed = time.monotonic() - t0
    ok = elapsed < 60
    _report(
        "6", ok, f"20 points: worst error {worst_rel:.5f} of tensor scale at r=0.05 "
        f"(allowed 0.05), worst abs {worst_flat:.2e} at r=0 (allowed 1e-6); {elapsed:.1f}s"
    )
    assert elapsed < 60


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the closed-form metric drops the third-mode contribution to the "
        "root fidelity, whose square root is O(r^2), not O(r^4); the numeric "
        "oracle therefore deviates from it by about r^2 in absolute terms "
        "(max_abs_err/r^2 = 1.04 at r=0.01 and 1.01 at r=0.05 from the metric "
        "command at seed 0), which exceeds 5% relative on structurally small "
        "cross entries (165% observed here) although it is at most 0.61% of "
        "the tensor scale at r=0.05"
    ),
)
def test_criterion_6_metric_validation_strict_entrywise():
    worst = 0.0
    for n in _metric_sample_points():
        got = numeric_metric(n, 0.05).tensor
        want = metric_cartesian(n, 0.05).tensor
        nz = np.abs(want) > 0
        worst = max(worst, np.max(np.abs((got - want)[nz]) / np.abs(want[nz])))
    _report("6-strict", False, f"(expected) worst per-entry relative error {worst:.3f}")
    assert worst <= 0.05


def test_criterion_7_curvature_baseline_and_deformation():
    xi_vals = np.linspace(0.2, 0.8, 5)
    th_vals = np.linspace(0.4, math.pi - 0.4, 5)
    worst = 0.0
    for xi_c in xi_vals:
        for th in th_vals:
            worst = max(worst, abs(scalar_curvature_numeric(xi_c, th, 0.0) - 24.0))
    assert worst <= 1e-3
    deformed = [scalar_curvature_numeric(0.5, th, 0.1) for th in th_vals]
    spread = max(deformed) - min(deformed)
    ok = worst <= 1e-3 and spread > 0.05
    _report("7", ok, f"r=0 grid |R-24| <= {worst:.2e}; r=0.1 theta spread {spread:.3f}")
    assert spread > 0.05


def test_criterion_8_symmetry():
    rng = np.random.default_rng(31)
    for _ in range(200):
        rho = random_subnormalized(rng, 3)
        sigma = random_subnormalized(rng, 3)
        assert abs(
            generalized_bures_distance(rho, sigma) - generalized_bures_distance(sigma, rho)
        ) <= 1e-9
    _report("8-symmetry", True, "200 random pairs symmetric to 1e-9")


def test_criterion_8_positivity():
    rng = np.random.default_rng(37)
    for _ in range(200):
        rho = random_subnormalized(rng, 3)
        sigma = random_subnormalized(rng, 3)
        d = generalized_bures_distance(rho, sigma)
        assert d >= -1e-9
        assert d > 1e-9  # distinct random draws separate
        assert abs(generalized_bures_distance(rho, rho)) <= 1e-9
    _report("8-positivity", True, "non-negative, zero on equal arguments, positive on distinct")


def test_criterion_8_fidelity_trace_bound():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        rho = random_subnormalized(rng, 3)
        sigma = random_subnormalized(rng, 3)
        assert fidelity(rho, sigma) <= rho.trace().real * sigma.trace().real + 1e-9
    _report("8-bound", True, "F <= Tr rho Tr sigma on 1000 random pairs")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable: the triangle inequality is false for this "
        "squared-distance form; e.g. pure qubit states at angle pi/3 with "
        "their midpoint give 1.5 > 1.0 (see the counterexample tests in "
        "test_geometry)"
    ),
)
def test_criterion_8_triangle_inequality():
    rng = np.random.default_rng(43)
    failures = 0
    for _ in range(1000):
        rho = random_subnormalized(rng, 3)
        sigma = random_subnormalized(rng, 3)
        tau = random_subnormalized(rng, 3)
        lhs = generalized_bures_distance(rho, sigma)
        rhs = generalized_bures_distance(rho, tau) + generalized_bures_distance(sigma, tau)
        failures += lhs > rhs + 1e-9
    _report("8-triangle", False, f"(expected) {failures}/1000 random triples violate")
    assert failures == 0


def test_criterion_8_monotonicity():
    t0 = time.monotonic()
    rng = np.random.default_rng(47)
    cut = FockCutoff(16)
    for _ in range(10):
        n1 = rng.normal(size=3)
        n1 = n1 / np.linalg.norm(n1) * rng.uniform(0, 1)
        n2 = rng.normal(size=3)
        n2 = n2 / np.linalg.norm(n2) * rng.uniform(0, 1)
        before = generalized_bures_distance(minkowski_qubit(n1), minkowski_qubit(n2))
        after = generalized_bures_distance(
            effective_qubit(n1, 0.2, cut), effective_qubit(n2, 0.2, cut)
        )
        assert after <= before + 1e-9
    for _ in range(50):
        rho = random_subnormalized(rng, 3)
        sigma = random_subnormalized(rng, 3)
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        u /= np.linalg.norm(u)
        p = np.outer(u, u.conj())
        q = np.eye(3) - p
        pinched = [
            DenseOperator(p @ op.entries @ p + q @ op.entries @ q) for op in (rho, sigma)
        ]
        assert generalized_bures_distance(*pinched) <= generalized_bures_distance(
            rho, sigma
        ) + 1e-9
    elapsed = time.monotonic() - t0
    _report(
        "8-monotone", elapsed < 60,
        "distance never grows under the acceleration channel or random pinchings "
        "(second-order behavior is criterion 6)",
    )
    assert elapsed < 60


def test_criterion_9_cutoff_convergence():
    checks = {}
    cut6 = FockCutoff.for_acceleration(0.6, 1e-12)
    checks["negativity(r=0.6)"] = abs(
        log_negativity(entangled_state(0.3, 0.6, cut6))
        - log_negativity(entangled_state(0.3, 0.6, cut6.doubled()))
    )
    # fig2's average takes no cutoff; the dense full tower must agree with it at both
    free = average_fidelity_exact(0.3, 0.6)
    checks["fidelity(r=0.6)"] = max(
        abs(free - haar_average(full_tower_blocks(0.3, 0.6, cut))) for cut in (cut6, cut6.doubled())
    )
    cut85 = FockCutoff.for_acceleration(0.85, 1e-12)
    checks["angle(r=0.85)"] = abs(
        angle_sweep(0.85, [0.3], cut85)[0].theta
        - angle_sweep(0.85, [0.3], cut85.doubled())[0].theta
    )
    ok = all(v < 1e-8 for v in checks.values())
    _report("9", ok, "; ".join(f"{k} shift {v:.2e}" for k, v in checks.items()))
    for name, value in checks.items():
        assert value < 1e-8, name
