import numpy as np
import pytest

from oracles import exact_log_negativity_at_xi_zero, haar_unitary, mp_log_negativity, random_density
from rqit.channel import FockCutoff, entangled_state
from rqit.entanglement import log_negativity, negativity_sweep
from rqit.linalg import DenseOperator, partial_transpose, trace_norm


def test_bell_projector():
    bell = DenseOperator(0.5 * np.outer([1, 0, 0, 1], [1, 0, 0, 1]), space_tag=(2, 2))
    assert log_negativity(bell) == pytest.approx(1.0, abs=1e-12)


def test_product_state_is_ppt():
    rng = np.random.default_rng(0)
    prod = DenseOperator(np.kron(random_density(rng, 2), random_density(rng, 3)), space_tag=(2, 3))
    assert log_negativity(prod) == 0.0


def test_entangled_state_bell_limit():
    assert log_negativity(entangled_state(0.0, 0.0)) == pytest.approx(1.0, abs=1e-10)


def test_transposing_either_factor_same_norm():
    rho = entangled_state(0.3, 0.6)
    t0 = trace_norm(partial_transpose(rho, 0))
    t1 = trace_norm(partial_transpose(rho, 1))
    assert abs(t0 - t1) < 1e-12


def test_sweep_trivial_point():
    res = negativity_sweep(0.0, [0.0])
    assert len(res) == 1
    assert res[0].log_negativity == pytest.approx(1.0, abs=1e-10)
    assert res[0].xi == 0.0 and res[0].r == 0.0


def test_sweep_peak_above_orthogonal_encoding():
    # frozen from the r = 0.6 sweep: maximum near xi = 0.14, gap ~1.4e-3
    grid = np.round(np.arange(0.0, 0.301, 0.01), 4)
    res = negativity_sweep(0.6, grid)
    vals = np.array([p.log_negativity for p in res])
    assert vals[0] == pytest.approx(0.6461686715, abs=1e-8)
    best = int(np.argmax(vals))
    assert grid[best] == pytest.approx(0.14, abs=0.011)
    assert vals[best] - vals[0] > 1e-4


def test_sweep_matches_doubled_cutoff():
    cut = FockCutoff.for_acceleration(0.6)
    a = log_negativity(entangled_state(0.0, 0.6, cut))
    b = log_negativity(entangled_state(0.0, 0.6, cut.doubled()))
    assert abs(a - b) < 1e-10


def test_invariance_under_local_unitaries():
    rng = np.random.default_rng(1)
    rho = entangled_state(0.2, 0.5)
    nlev = rho.space_tag[1]
    base = log_negativity(rho)
    for _ in range(4):
        u = np.kron(haar_unitary(rng), np.eye(nlev))
        rotated = DenseOperator(u @ rho.entries @ u.conj().T, rho.space_tag)
        assert abs(log_negativity(rotated) - base) < 1e-10


def test_monotone_decreasing_in_acceleration():
    vals = [log_negativity(entangled_state(0.0, r)) for r in (0, 0.2, 0.4, 0.6, 0.8, 1.0)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_doubling_stability_at_strong_acceleration():
    cut = FockCutoff.for_acceleration(0.85)
    a = log_negativity(entangled_state(0.4, 0.85, cut))
    b = log_negativity(entangled_state(0.4, 0.85, cut.doubled()))
    assert abs(a - b) < 1e-8


@pytest.mark.parametrize("xi", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("r", [0.0, 0.6, 1.5])
def test_real_storage_matches_complex(xi, r):
    state = entangled_state(xi, r)
    assert state.entries.dtype == np.float64
    oracle = DenseOperator(state.entries.astype(complex), state.space_tag)
    assert log_negativity(state) == pytest.approx(log_negativity(oracle), abs=1e-12)
    # the banded sweep against the dense state
    swept, = negativity_sweep(r, [xi])
    assert swept.log_negativity == pytest.approx(log_negativity(state), abs=1e-12)


def test_band_sweep_matches_dense_at_large_r():
    # r = 2.5 (n_max 1153): dense eigvalsh of a 2310-dimensional partial transpose
    cut = FockCutoff.for_acceleration(2.5)
    swept, = negativity_sweep(2.5, [0.4], cut)
    assert swept.log_negativity == pytest.approx(log_negativity(entangled_state(0.4, 2.5, cut)), abs=1e-12)


@pytest.mark.parametrize("r", [0.6, 2.0, 2.5, 3.0, 3.5])
def test_sweep_at_xi_zero_matches_block_closed_form(r):
    # the level weights as exp(n ln t) hold this to 1e-15 up to n_max 8525
    # (r = 3.5); powers of the rounded tanh r were 3e-14 off there
    mp = pytest.importorskip("mpmath")
    cut = FockCutoff.for_acceleration(r)
    value = negativity_sweep(r, [0.0], cut)[0].log_negativity
    assert abs(value - exact_log_negativity_at_xi_zero(r, cut.n_max, mp)) < 1e-15


def test_partial_transpose_oracle_matches_block_closed_form():
    # at xi = 0 the mpmath rho^Gamma, built from the Minkowski amplitudes, has the
    # trace norm of the 2x2-block closed form
    mp = pytest.importorskip("mpmath")
    for r, n_max in ((0.6, 6), (1.5, 4)):
        assert abs(mp_log_negativity(0.0, r, n_max) - exact_log_negativity_at_xi_zero(r, n_max, mp)) < 1e-16
