import functools
import math

import numpy as np
import pytest

from oracles import (bloch_pair, dense_bures_angle, haar_unitary, mp_bures_angle, mp_tower_angles, overlap_formula,
                     random_density)
from rqit.channel import FockCutoff, effective_qubit, minkowski_qubit
from rqit.distinguishability import angle_sweep, bures_angle
from rqit.errors import SizeError, TruncationError
from rqit.linalg import DenseOperator


def test_identical_states():
    rng = np.random.default_rng(0)
    rho = DenseOperator(random_density(rng, 4))
    assert bures_angle(rho, rho) == pytest.approx(0.0, abs=1e-7)


def test_orthogonal_pure_states():
    p0 = DenseOperator(np.diag([1.0, 0.0]))
    p1 = DenseOperator(np.diag([0.0, 1.0]))
    assert bures_angle(p0, p1) == pytest.approx(math.pi / 2, abs=1e-12)


def test_inertial_pure_state_overlap():
    # at r = 0 the angle is arccos |<+|phi>|
    xi = 0.5
    plus, phi = (minkowski_qubit(n) for n in bloch_pair(xi))
    expected = math.acos(abs(overlap_formula(xi)))
    assert bures_angle(plus, phi) == pytest.approx(expected, abs=1e-10)


def test_dimension_and_trace_validation():
    with pytest.raises(ValueError):
        bures_angle(DenseOperator(np.eye(2) / 2), DenseOperator(np.eye(3) / 3))
    with pytest.raises(ValueError):
        bures_angle(DenseOperator(np.eye(2)), DenseOperator(np.eye(2) / 2))


def test_sweep_trivial_point():
    res = angle_sweep(0.0, [0.0])
    assert res[0].theta == pytest.approx(math.pi / 2, abs=1e-12)


def test_sweep_peak_at_nonzero_xi():
    # frozen from the r = 0.85 sweep: theta(0) = 1.01751533, peak near 0.09
    grid = np.round(np.arange(0.0, 0.251, 0.01), 4)
    res = angle_sweep(0.85, grid)
    vals = np.array([p.theta for p in res])
    assert vals[0] == pytest.approx(1.0175153, abs=1e-6)
    best = int(np.argmax(vals))
    assert grid[best] == pytest.approx(0.09, abs=0.011)
    assert vals[best] - vals[0] > 1e-4


def test_sweep_cutoff_stability():
    cut = FockCutoff.for_acceleration(0.85)
    a = angle_sweep(0.85, [0.0], cut)[0].theta
    b = angle_sweep(0.85, [0.0], cut.doubled())[0].theta
    assert abs(a - b) < 1e-8


def test_symmetry_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(5):
        rho, sigma = DenseOperator(random_density(rng, 5)), DenseOperator(random_density(rng, 5))
        assert abs(bures_angle(rho, sigma) - bures_angle(sigma, rho)) < 1e-9


def test_unitary_invariance():
    rng = np.random.default_rng(2)
    rho, sigma = DenseOperator(random_density(rng, 4)), DenseOperator(random_density(rng, 4))
    base = bures_angle(rho, sigma)
    for _ in range(3):
        u = haar_unitary(rng, 4)
        ru = DenseOperator(u @ rho.entries @ u.conj().T)
        su = DenseOperator(u @ sigma.entries @ u.conj().T)
        assert abs(bures_angle(ru, su) - base) < 1e-9


def test_angle_decreases_with_acceleration():
    vals = [angle_sweep(r, [0.0])[0].theta for r in (0.0, 0.3, 0.6, 0.85)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_channel_images_share_labels():
    # both arguments pass through the identical channel; swapping them is harmless
    r = 0.6
    cut = FockCutoff.for_acceleration(r)
    plus_img, phi_img = (effective_qubit(n, r, cut) for n in bloch_pair(0.5))
    assert bures_angle(plus_img, phi_img) == pytest.approx(
        bures_angle(phi_img, plus_img), abs=1e-9
    )


# a cutoff at r = 1.5 small enough for 50-digit mpmath (n_max 41 takes about 1.2 s a point);
# its images drop up to 0.31 of their trace, and the angle is that of the truncated images
MP_CUTOFF = FockCutoff(10, tol=0.5)


@functools.cache
def exact_angle(xi, r, n_max):
    """fig3 over the truncation n = 0..n_max in 50-digit mpmath, rounded to a double."""
    return float(mp_bures_angle(xi, r, n_max))


@pytest.mark.parametrize("xi", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("r", [0.0, 0.6, 1.5])
def test_real_storage_matches_complex(xi, r):
    pair = [effective_qubit(n, r) for n in bloch_pair(xi)]
    assert all(op.entries.dtype == np.float64 for op in pair)
    oracle = [DenseOperator(op.entries.astype(complex)) for op in pair]
    assert bures_angle(*pair) == pytest.approx(bures_angle(*oracle), abs=1e-12)
    # the banded sweep against the dense images; at r = 1.5 the dense angle moves by up to
    # 2.3e-12 when the amplitudes move by 2 ulp, so there it meets the exact angle instead
    if r < 1.5:
        swept, = angle_sweep(r, [xi])
        assert swept.theta == pytest.approx(bures_angle(*pair), abs=1e-12)
    else:
        swept, = angle_sweep(r, [xi], MP_CUTOFF)
        assert abs(swept.theta - exact_angle(xi, r, MP_CUTOFF.n_max)) <= 1e-14


@pytest.mark.parametrize("cut", [MP_CUTOFF, MP_CUTOFF.doubled()], ids=lambda cut: f"1.5-n_max-{cut.n_max}")
def test_factor_form_sweep_matches_mp_oracle(cut):
    # ||A_+^T A_phi||_1 against the exact angle within 1e-14, as validate holds fig3 at r = 0.85
    xis = [0.0, 0.3, 0.9]
    for xi, res in zip(xis, angle_sweep(1.5, xis, cut)):
        assert abs(res.theta - exact_angle(xi, 1.5, cut.n_max)) <= 1e-14


@pytest.mark.parametrize("r", [0.85, 1.5, 2.0, 2.5])
def test_sweep_rounds_its_amplitude_products_once(r):
    # the band kernel fed with c_n^2, d_n^2 and c_{n+1} d_n from 40 digits, each rounded once: fig3
    # differs from it only by the rounding of its tower weights, and powers of the rounded tanh r, which
    # carry up to n ulp, would be up to 5.2e-15 off at r = 2.5
    xis = [0.0, 0.3, 0.5, 0.9]
    cut = FockCutoff.for_acceleration(r)
    swept = np.array([res.theta for res in angle_sweep(r, xis, cut)])
    assert np.max(np.abs(swept - mp_tower_angles(xis, r, cut.n_max))) <= 6e-16


@pytest.mark.parametrize("r, cut", [
    *(pytest.param(r, FockCutoff.for_acceleration(r), id=f"{r}-default-cutoff") for r in (0.0, 0.6)),
    *(pytest.param(r, FockCutoff.for_acceleration(r).doubled(), id=f"{r}-doubled-cutoff") for r in (0.0, 0.6)),
    # loose cutoffs: the truncation checks pass, and the images miss unit trace by up to their
    # tolerance (about 0.1 at tol 0.9), which the closed-form tail makes up; the angle is that of the
    # truncated images
    pytest.param(0.85, FockCutoff.for_acceleration(0.85, 3e-6), id="0.85-tol-3e-6"),
    pytest.param(0.85, FockCutoff(3, tol=0.9), id="0.85-n_max-3-tol-0.9"),
])
def test_factor_form_sweep_matches_dense_oracle(r, cut):
    # ||A_+^T A_phi||_1 against the Bures angle of the two dense channel images
    xis = [0.0, 0.3, 0.9]
    swept = angle_sweep(r, xis, cut)
    for xi, res in zip(xis, swept):
        assert res.xi == xi and res.r == r
        assert abs(res.theta - dense_bures_angle(xi, r, cut)) <= 1e-12


def test_band_sweep_matches_dense_at_large_r():
    # r = 2.5 (n_max 1153).  The dense route square-roots eigenvalues at roundoff
    # level: it is 5e-10 off a 40-digit value at r = 2 and 2.8e-10 to 5.6e-10 off
    # the sweep here, so the tolerance is 1e-9, not the 1e-12 used up to r = 1.5.
    r = 2.5
    cut = FockCutoff.for_acceleration(r)
    swept, = angle_sweep(r, [0.4], cut)
    assert abs(swept.theta - dense_bures_angle(0.4, r, cut)) <= 1e-9


def test_sweep_checks_before_building():
    # a cutoff of 10**6 is refused by the work budget before anything is built
    with pytest.raises(SizeError, match=r"angle_sweep needs n_max\^2 x points"):
        angle_sweep(0.6, [0.3], FockCutoff(10**6))
    with pytest.raises(TruncationError, match="channel image trace deficit 5.729e-02"):
        angle_sweep(0.85, [0.3], FockCutoff(4))
