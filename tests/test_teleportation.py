import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqit import teleportation
from rqit.channel import _SHARED_COMPONENTS, MAX_R, FockCutoff, _as_accel, _as_xi, _shared_terms, entangled_state
from rqit.errors import NumericError, RQITError, SizeError
from rqit.linalg import DenseOperator
from rqit.teleportation import (
    MC_POINT_CHARGE,
    MC_WORK_BOUND,
    SchmidtDecomposition,
    _ExactSum,
    _bloch_form,
    _channel_blocks,
    _draw_form_values,
    _philox,
    apply_protocol,
    average_fidelity_exact,
    average_fidelity_mc,
    build_protocol,
    fidelity_bound,
    fidelity_sweep,
    haar_qubit_unitaries,
    run_protocol,
    schmidt_decompose,
    shared_state_vector,
)

SQRT2 = math.sqrt(2.0)


def overlap_formula(xi):
    return (math.sqrt((1 - xi) / 2) - math.sqrt((1 + xi) / 2)) / SQRT2


def exact_closed_form(xi):
    """Zero-acceleration Haar average: (2 + 2 lambda0 lambda1)/3."""
    sd = schmidt_decompose(xi)
    return (2 + 2 * sd.lambda0 * sd.lambda1) / 3


def test_schmidt_bell_case():
    sd = schmidt_decompose(0.0)
    assert sd.lambda0 == pytest.approx(1 / SQRT2, abs=1e-14)
    assert sd.lambda1 == pytest.approx(1 / SQRT2, abs=1e-14)


def test_schmidt_coefficients_closed_form():
    for xi in (0.0, 0.25, 0.5, 0.75, 0.9):
        sd = schmidt_decompose(xi)
        s = abs(overlap_formula(xi))
        assert sd.lambda0 == pytest.approx(math.sqrt((1 + s) / 2), abs=1e-13)
        assert sd.lambda1 == pytest.approx(math.sqrt((1 - s) / 2), abs=1e-13)
        assert sd.lambda0**2 + sd.lambda1**2 == pytest.approx(1.0, abs=1e-12)


def test_schmidt_reconstruction_and_orthonormality():
    for xi in (0.0, 0.3, 0.8):
        sd = schmidt_decompose(xi)
        np.testing.assert_allclose(sd.state_vector(), shared_state_vector(xi), atol=1e-10)
        for basis in (sd.alice_basis, sd.rob_basis):
            np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)


def test_schmidt_matches_reduced_state_spectrum():
    # independent oracle: eigenvalues of the sender's reduced density matrix
    xi = 0.5
    psi = shared_state_vector(xi).reshape(2, 2)
    rho_a = psi @ psi.conj().T
    w = np.linalg.eigvalsh(rho_a)[::-1]
    sd = schmidt_decompose(xi)
    np.testing.assert_allclose([sd.lambda0, sd.lambda1], np.sqrt(w), atol=1e-12)


def test_fidelity_bound_endpoints():
    assert fidelity_bound(0.0) == pytest.approx(1.0, abs=1e-14)
    assert fidelity_bound(0.999) < 1.0
    assert fidelity_bound(0.5) == pytest.approx(0.9914448614, abs=1e-9)


def test_bound_is_upper_bound_but_not_attained_for_nonzero_xi():
    # the protocol attains the optimum (2 + 2 l0 l1)/3 for its shared state,
    # which sits strictly below (l0 + l1)/sqrt2 whenever the Schmidt spectrum
    # is non-degenerate; the gap at xi = 0.5 is 2.8e-3
    for xi in (0.0, 0.25, 0.5, 0.75):
        f = average_fidelity_exact(xi, 0.0)
        assert f <= fidelity_bound(xi) + 1e-12
    gap = fidelity_bound(0.5) - average_fidelity_exact(0.5, 0.0)
    assert gap == pytest.approx(2.8029e-3, abs=1e-6)


def test_protocol_completeness():
    for xi in (0.0, 0.3, 0.7):
        kit = build_protocol(schmidt_decompose(xi))
        total = sum(kit.povms)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


def test_protocol_bell_case_projectors():
    kit = build_protocol(schmidt_decompose(0.0))
    # orthogonal rank-one projectors forming a complete Bell-type measurement
    for i, p in enumerate(kit.povms):
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
        for q in kit.povms[i + 1:]:
            assert abs(np.trace(p @ q)) < 1e-12


def test_local_op_maps_schmidt_basis():
    # B^i takes |theta_0>, |theta_1> to the computational basis up to the
    # Pauli 1, Z, X and XZ
    sd = schmidt_decompose(0.3)
    kit = build_protocol(sd)
    images = ([[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1], [1, 0]])
    assert len(kit.local_ops) == 4
    for b, image in zip(kit.local_ops, images):
        assert b.shape == (2, 2)
        np.testing.assert_allclose(b @ sd.rob_basis, image, atol=1e-12)
        np.testing.assert_allclose(b @ b.conj().T, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("tag", [(2,), (4, 3), (2, 1)])
def test_apply_protocol_refuses_other_spaces(tag):
    kit = build_protocol(schmidt_decompose(0.3))
    dim = math.prod(tag)
    shared = DenseOperator(np.eye(dim) / dim, tag)
    with pytest.raises(ValueError, match="is not \\(2, levels\\) with levels >= 2"):
        apply_protocol(kit, shared, np.eye(2) / 2)


def test_apply_protocol_is_identity_above_level_one():
    # the POVMs sum to 1_4, so the conditional states sum to Tr(X) rho_R,
    # and no correction touches rows and columns >= 2 of them
    xi, r = 0.4, 0.6
    cut = FockCutoff.for_acceleration(r)
    shared = entangled_state(xi, r, cut)
    rho_r = np.einsum("akal->kl", shared.entries.reshape(2, cut.levels, 2, cut.levels))
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    out = apply_protocol(build_protocol(schmidt_decompose(xi)), shared, x)
    assert out.shape == (cut.levels, cut.levels)
    np.testing.assert_allclose(out[2:, 2:], np.trace(x) * rho_r[2:, 2:], rtol=0, atol=1e-15)


def test_ideal_teleportation():
    rng = np.random.default_rng(2)
    for _ in range(3):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = amps / np.linalg.norm(amps)
        out = run_protocol(amps, 0.0, 0.0)
        emb = np.zeros(out.dim, dtype=complex)
        emb[:2] = amps
        assert (emb.conj() @ out.entries @ emb).real == pytest.approx(1.0, abs=1e-10)


def _brute_force_sigma(amps, xi, r, n_max):
    """Straight-line joint-space evolution with explicit kron matrices.

    Independent of the library's protocol plumbing: Schmidt data from an
    eigendecomposition of the sender's reduced state, POVMs and receiver
    operations assembled by hand on the full space.
    """
    psi_ar = shared_state_vector(xi).reshape(2, 2)
    w, v = np.linalg.eigh(psi_ar @ psi_ar.conj().T)
    lam = np.sqrt(w[::-1])
    phi = v[:, ::-1]
    # |theta_i> = (<phi_i| x 1)|Psi> / lam_i
    theta = np.stack([(phi[:, i].conj() @ psi_ar) / lam[i] for i in range(2)], axis=1)
    nlev = n_max + 2
    shared = entangled_state(xi, r, FockCutoff(n_max)).entries
    e = np.eye(2, dtype=complex)
    joint = np.kron(np.outer(amps, np.conj(amps)), shared)
    vecs = [
        np.kron(e[0], phi[:, 0]) + np.kron(e[1], phi[:, 1]),
        np.kron(e[0], phi[:, 0]) - np.kron(e[1], phi[:, 1]),
        np.kron(e[0], phi[:, 1]) + np.kron(e[1], phi[:, 0]),
        np.kron(e[0], phi[:, 1]) - np.kron(e[1], phi[:, 0]),
    ]
    bs = [
        np.outer(e[0], theta[:, 0].conj()) + np.outer(e[1], theta[:, 1].conj()),
        np.outer(e[0], theta[:, 0].conj()) - np.outer(e[1], theta[:, 1].conj()),
        np.outer(e[1], theta[:, 0].conj()) + np.outer(e[0], theta[:, 1].conj()),
        np.outer(e[1], theta[:, 0].conj()) - np.outer(e[0], theta[:, 1].conj()),
    ]
    sigma = np.zeros((nlev, nlev), dtype=complex)
    for vec, b in zip(vecs, bs):
        proj = np.outer(vec, vec.conj()) / 2.0
        m = np.kron(proj, np.eye(nlev)) @ joint
        cond = np.einsum("akal->kl", m.reshape(4, nlev, 4, nlev))
        b_full = np.eye(nlev, dtype=complex)
        b_full[:2, :2] = b
        sigma += b_full @ cond @ b_full.conj().T
    return sigma


def test_run_protocol_against_brute_force_oracle():
    amps = np.array([1.0, 1.0]) / SQRT2
    for xi, r in ((0.5, 0.0), (0.3, 0.4)):
        n_max = FockCutoff.for_acceleration(r).n_max
        lib = run_protocol(amps, xi, r, FockCutoff(n_max)).entries
        brute = _brute_force_sigma(amps, xi, r, n_max)
        np.testing.assert_allclose(lib, brute, atol=1e-12)
        emb = np.zeros(len(lib), dtype=complex)
        emb[:2] = amps
        got = (emb.conj() @ lib @ emb).real
        want = (emb.conj() @ brute @ emb).real
        assert got == pytest.approx(want, abs=1e-12)


def test_run_protocol_overlap_closed_form():
    # at r = 0 with |+>: overlap = (l0 + l1)^2 / 2
    sd = schmidt_decompose(0.5)
    out = run_protocol((1 / SQRT2, 1 / SQRT2), 0.5, 0.0)
    emb = np.zeros(out.dim, dtype=complex)
    emb[:2] = 1 / SQRT2
    got = (emb.conj() @ out.entries @ emb).real
    assert got == pytest.approx((sd.lambda0 + sd.lambda1) ** 2 / 2, abs=1e-12)


def test_protocol_output_is_density():
    rng = np.random.default_rng(3)
    for _ in range(6):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = amps / np.linalg.norm(amps)
        xi, r = rng.uniform(0, 0.9), rng.uniform(0, 0.8)
        out = run_protocol(amps, xi, r)
        assert abs(out.trace().real - 1.0) < 1e-10
        assert out.is_hermitian()
        assert out.min_eigenvalue() > -1e-10


def test_run_protocol_rejects_unnormalized():
    with pytest.raises(ValueError):
        run_protocol((1.0, 1.0), 0.0, 0.0)


def test_haar_sampler_mean_projector():
    n = 40_000
    us = haar_qubit_unitaries(n, seed=11)
    psi = us @ (np.array([1, 1]) / SQRT2)
    mean_proj = np.einsum("si,sj->ij", psi, psi.conj()) / n
    assert np.max(np.abs(mean_proj - np.eye(2) / 2)) < 5 / math.sqrt(n)


def test_haar_sampler_unitarity_and_counter_offsets():
    us = haar_qubit_unitaries(64, seed=5)
    prods = np.einsum("sij,sik->sjk", us.conj(), us)
    np.testing.assert_allclose(prods, np.broadcast_to(np.eye(2), (64, 2, 2)), atol=1e-12)
    # stream offsets: samples [k, k+m) reproduce the tail of a larger batch
    tail = haar_qubit_unitaries(24, seed=5, start=40)
    np.testing.assert_array_equal(us[40:], tail)


def complex_temporary_haar(samples, seed, start=0):
    """Reference sampler: Box-Muller as rad*cos + 1j*rad*sin, through complex temporaries."""
    bit = np.random.Philox(key=seed)
    if start:
        bit.advance(2 * start)
    u = np.random.Generator(bit).random((samples, 8))
    rad = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    ang = 2.0 * np.pi * u[:, 1::2]
    z = rad * np.cos(ang) + 1j * rad * np.sin(ang)
    zm = z.reshape(samples, 2, 2)
    c0, c1 = zm[:, :, 0], zm[:, :, 1]
    q0 = c0 / np.linalg.norm(c0, axis=1)[:, None]
    v = c1 - np.einsum("si,si->s", q0.conj(), c1)[:, None] * q0
    q1 = v / np.linalg.norm(v, axis=1)[:, None]
    return np.stack([q0, q1], axis=2)


def test_haar_sampler_matches_complex_temporary_construction():
    for seed, samples, start in ((5, 64, 0), (11, 8192, 40), (2**40 + 3, 1000, 123_457)):
        np.testing.assert_array_equal(
            haar_qubit_unitaries(samples, seed, start=start),
            complex_temporary_haar(samples, seed, start=start),
        )


FORM_POINTS = ((0.0, 0.0), (0.4, 0.6), (0.9, 0.85), (0.3, 1.5))
EPS = np.finfo(float).eps


def bloch_vectors(samples, seed, start=0):
    """The general-form reference sampler: unit vectors n = (s cos phi,
    s sin phi, z), s = sqrt((1 - z)(1 + z)), one a row, from the counter
    steps that _draw_form_values reads (sample k: u0 and u1 of step start + k)."""
    u = _philox(seed, start).random((samples, 4))
    z = 2.0 * u[:, 0] - 1.0
    phi = 2.0 * np.pi * u[:, 1]
    s = np.sqrt((1.0 - z) * (1.0 + z))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def form_values(q, n):
    """x^T Q x on x = (1, n) for a general real Q, one value per row of n."""
    return q[0, 0] + np.einsum("sj,sj->s", n @ q[1:, 1:] + (q[0, 1:] + q[1:, 0]), n)


def draw_form_values(q, samples, seed, start=0):
    """_draw_form_values on samples [start, start + samples) of the stream keyed by seed."""
    out = np.empty(samples)
    _draw_form_values(q, _philox(seed, start), out)
    return out


def haar_average(e):
    """Haar average of the channel blocks E[i, j] = E(|i><j|) from the second
    moment integral P (x) P dmu = (I + SWAP)/6:

        f = ( sum_i Tr E_ii + sum_ij (E_ij)[i, j] ) / 6.
    """
    t1 = sum(np.trace(e[i, i]).real for i in range(2))
    t2 = sum(e[i, j][i, j].real for i in range(2) for j in range(2))
    return float((t1 + t2) / 6.0)


def test_bloch_form_matches_five_operand_einsum():
    us = haar_qubit_unitaries(4096, seed=3)
    psi = us @ (np.array([1, 1]) / SQRT2)
    # rho = (1 + n.sigma)/2: rho_01 = (nx - i ny)/2 and rho_00 - rho_11 = nz
    c = psi[:, 0] * psi[:, 1].conj()
    n = np.stack([2 * c.real, -2 * c.imag, abs(psi[:, 0]) ** 2 - abs(psi[:, 1]) ** 2], axis=1)
    for xi, r in FORM_POINTS:
        e = _channel_blocks(xi, r)
        want = np.einsum("si,sj,sk,sl,ijkl->s", psi, psi.conj(), psi.conj(), psi, e).real
        # the Gram-Schmidt psi is off unit norm by up to about 2e-14
        np.testing.assert_allclose(form_values(_bloch_form(e), n), want, rtol=0, atol=1e-13)


def test_bloch_form_sphere_average_is_haar_average():
    # the exact average is Q00 + tr(Q[1:, 1:])/3, the sphere average of the
    # Monte-Carlo form; the (I + SWAP)/6 contraction is an independent oracle
    for xi, r in FORM_POINTS:
        assert abs(average_fidelity_exact(xi, r) - haar_average(_channel_blocks(xi, r))) <= 1e-15, (xi, r)


def test_bloch_sampler_unit_norm_moments_and_counter_offsets():
    count = 40_000
    n = bloch_vectors(count, seed=11)
    assert n.shape == (count, 3)
    assert np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) <= 4 * np.finfo(float).eps
    bound = 5 / math.sqrt(count)
    assert np.max(np.abs(n.mean(axis=0))) < bound
    assert np.max(np.abs(n.T @ n / count - np.eye(3) / 3)) < bound
    # stream offsets: samples [k, k+m) at an odd k reproduce the tail of a larger batch
    np.testing.assert_array_equal(bloch_vectors(37, seed=11, start=count - 37), n[-37:])
    np.testing.assert_array_equal(bloch_vectors(5, seed=11, start=101), n[101:106])


def test_bloch_form_is_one_at_ideal_point():
    values = draw_form_values(_bloch_form(_channel_blocks(0.0, 0.0)), 20_000, seed=1)
    assert np.max(np.abs(values - 1.0)) <= 1e-15


def test_bloch_form_is_diagonal_identically_in_eta_c_t():
    # the channel blocks rebuilt in sympy: the levels-{0, 1} shared block of
    # _channel_blocks in the symbols eta, C and T, build_protocol's kit from
    # Schmidt bases with eight free real entries, apply_protocol's contraction
    # on object arrays, and _bloch_form itself
    sp = pytest.importorskip("sympy")
    epm, emp, emm, epp = sp.symbols("eta_pm eta_mp eta_mm eta_pp", real=True)
    c, t = sp.symbols("C T", positive=True)
    alice = np.array(sp.symbols("a:2:2", real=True)).reshape(2, 2)
    rob = np.array(sp.symbols("b:2:2", real=True)).reshape(2, 2)
    v0 = np.array([epm, emp / c, emm, epp / c], dtype=object)
    v1 = np.array([0, epm, 0, emm], dtype=object)
    rho4 = ((np.outer(v0, v0) + t**2 * np.outer(v1, v1)) / (8 * c**2)).reshape(2, 2, 2, 2)
    units = np.eye(4, dtype=int).astype(object).reshape(2, 2, 2, 2)
    kit = build_protocol(SchmidtDecomposition(None, alice, rob))
    e = 0
    for pi, b in zip(kit.povms, kit.local_ops):
        e = e + b @ np.einsum("qapc,ijpq,ckal->ijkl", pi.reshape(2, 2, 2, 2), units, rho4) @ b.T
    q = _bloch_form(e)
    for i in range(4):
        for j in range(4):
            assert i == j or sp.expand(q[i, j]) == 0, (i, j)
    # the symbolic blocks are the code's, at the code's (real) Schmidt bases
    blocks = sp.lambdify([epm, emp, emm, epp, c, t, *alice.ravel(), *rob.ravel()], sp.Array(e.tolist()))
    for xi, r in ((0.0, 0.6), (0.4, 0.6), (0.9, 2.0)):
        sd, ox, a = schmidt_decompose(xi), _as_xi(xi), _as_accel(r)
        assert not sd.alice_basis.imag.any() and not sd.rob_basis.imag.any()
        got = blocks(ox.eta(1, -1), ox.eta(-1, 1), ox.eta(-1, -1), ox.eta(1, 1), a.C, a.T,
                     *sd.alice_basis.real.ravel(), *sd.rob_basis.real.ravel())
        np.testing.assert_allclose(np.array(got, dtype=float), _channel_blocks(xi, r), rtol=0, atol=1e-15)


def test_bloch_form_is_diagonal_numerically():
    for xi in np.linspace(0.0, 0.99, 34):
        for r in (0.0, 0.1, 0.6, 1.0, 2.0, 5.0, 10.0, 40.0, 100.0, 169.9):
            q = _bloch_form(_channel_blocks(xi, r))
            assert np.abs(q - np.diag(np.diagonal(q))).max() <= 8 * EPS * np.abs(q).max(), (xi, r)


def test_diagonal_samples_equal_general_form_on_the_same_counter_steps():
    for xi, r in (*FORM_POINTS, (0.6, 10.0)):
        q = _bloch_form(_channel_blocks(xi, r))
        got = draw_form_values(q, 20_000, seed=7, start=3)
        want = form_values(q, bloch_vectors(20_000, seed=7, start=3))
        assert np.abs(got - want).max() <= 8 * EPS * np.abs(q).max(), (xi, r)


def test_draw_form_values_continues_the_stream():
    q = _bloch_form(_channel_blocks(0.4, 0.6))
    whole = draw_form_values(q, 1000, seed=5)
    stream, parts = _philox(5), np.empty(1000)
    for a, b in ((0, 1), (1, 137), (137, 1000)):
        _draw_form_values(q, stream, parts[a:b])
    np.testing.assert_array_equal(parts, whole)
    np.testing.assert_array_equal(draw_form_values(q, 37, seed=5, start=963), whole[-37:])


def test_mc_refuses_a_non_diagonal_form(monkeypatch):
    exact_form = teleportation._bloch_form

    def skewed(factor):
        def form(e):
            q = exact_form(e).copy()
            q[1, 3] += factor * EPS * np.abs(q).max()
            return q
        return form

    monkeypatch.setattr(teleportation, "_bloch_form", skewed(4))
    average_fidelity_mc(0.4, 0.6, samples=10, seed=1)
    monkeypatch.setattr(teleportation, "_bloch_form", skewed(16))
    with pytest.raises(NumericError, match="not diagonal"):
        average_fidelity_mc(0.4, 0.6, samples=10, seed=1)


def test_mc_zero_variance_at_ideal_point():
    est = average_fidelity_mc(0.0, 0.0, samples=2000, seed=1)
    assert est.mean == pytest.approx(1.0, abs=1e-9)
    assert est.std_error < 1e-9


def test_mc_deterministic_and_chunk_invariant(monkeypatch):
    # 5000 samples fit in one default chunk; 20 000 span several chunks of 137
    # and of the default 8192, and one of 65 536
    for samples, chunks in ((5000, (137,)), (20_000, (137, 8_192, 65_536))):
        a = average_fidelity_mc(0.4, 0.3, samples=samples, seed=9)
        b = average_fidelity_mc(0.4, 0.3, samples=samples, seed=9)
        assert a.mean == b.mean and a.std_error == b.std_error
        for chunk in chunks:
            with monkeypatch.context() as m:
                m.setattr(teleportation, "MC_CHUNK", chunk)
                c = average_fidelity_mc(0.4, 0.3, samples=samples, seed=9)
            assert c.mean == a.mean and c.std_error == a.std_error
        d = average_fidelity_mc(0.4, 0.3, samples=samples, seed=10)
        assert d.mean != a.mean


def two_pass_fsum(xi, r, samples, seed):
    """The Monte-Carlo mean and standard error as two math.fsum passes over
    the per-sample overlaps, drawn MC_CHUNK at a time: the reference for
    average_fidelity_mc's exact sums."""
    q = _bloch_form(_channel_blocks(xi, r))
    chunk = teleportation.MC_CHUNK
    values = np.concatenate([draw_form_values(q, min(chunk, samples - a), seed, a)
                             for a in range(0, samples, chunk)])
    mean = math.fsum(values.tolist()) / samples
    if samples == 1:
        return mean, 0.0
    d = values - mean
    d *= d
    return mean, math.sqrt(math.fsum(d.tolist()) / (samples - 1) / samples)


def test_mc_equals_two_pass_fsum(monkeypatch):
    chunk = teleportation.MC_CHUNK
    assert chunk <= teleportation._EXACT_CHUNK == 2**26
    for i, samples in enumerate((1, chunk - 1, chunk + 1, 200_000)):
        for xi, r in ((0.4, 0.6), (0.9, 3.0), (0.0, 0.0)):
            est = average_fidelity_mc(xi, r, samples=samples, seed=50 + i)
            assert (est.mean, est.std_error) == two_pass_fsum(xi, r, samples, 50 + i), (samples, xi, r)
    for chunk in (137, 8_192, 65_536):
        with monkeypatch.context() as m:
            m.setattr(teleportation, "MC_CHUNK", chunk)
            for samples in (1, chunk - 1, chunk + 1, 20_000):
                est = average_fidelity_mc(0.7, 1.5, samples=samples, seed=chunk)
                assert (est.mean, est.std_error) == two_pass_fsum(0.7, 1.5, samples, chunk), (chunk, samples)


def exact_sum(chunks):
    acc = _ExactSum()
    for c in chunks:
        acc.add(np.asarray(c, dtype=float))
    return acc.value()


def same_double(a, b):
    # math.fsum's sign of an exact zero varies across Python versions; every
    # other result must agree in every bit
    return a == b and (a == 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b))


# bounded so that no sum of a drawn list overflows; subnormals are drawn
_FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_FINITE, max_size=60), cuts=st.lists(st.integers(0, 60), max_size=5))
def test_exact_sum_matches_fsum_in_any_chunking(values, cuts):
    bounds = [0, *sorted(min(c, len(values)) for c in cuts), len(values)]
    chunks = [values[a:b] for a, b in zip(bounds, bounds[1:])]
    assert same_double(exact_sum(chunks), math.fsum(values))


@pytest.mark.parametrize("values", [
    [],
    [0.0, -0.0],
    [1.0, 2.0**-53],  # a tie: rounds to even
    [1.0, 2.0**-53, 2.0**-200],  # just above the tie
    [-1.0, -(2.0**-53)],
    [1e300, 1e-300, -1e300],  # exact cancellation leaves the smallest term
    [3.5e-300, -2.25e300, 1e-5, 2.25e300, -3.5e-300],
    [5e-324] * 7 + [-1e-320],  # subnormals
    [2.0**-1022, -(2.0**-1022) + 5e-324],  # normal and subnormal
    [0.1] * 10,
    [2.0**60, 1.0, -(2.0**60)],
    [1.7976931348623157e308, -1.7976931348623157e308, 1.0],
    list(np.random.default_rng(3).standard_normal(1000) * 10.0 ** np.random.default_rng(4).integers(-300, 300, 1000)),
])
def test_exact_sum_edge_cases(values):
    assert same_double(exact_sum([values]), math.fsum(values))
    assert same_double(exact_sum([values[::2], values[1::2]]), math.fsum(values))


def test_exact_sum_refuses_non_finite_and_oversized_chunks():
    for bad in (math.nan, math.inf, -math.inf):
        acc = _ExactSum()
        acc.add(np.array([0.5, 0.25]))
        with pytest.raises(NumericError):
            acc.add(np.array([1.0, bad, 2.0]))
    # a broadcast view: the size is refused before anything is read
    with pytest.raises(ValueError):
        _ExactSum().add(np.broadcast_to(1.0, (2**26 + 1,)))


def sampling_variance(q):
    """Variance of x^T Q x, x = (1, n), over n uniform on the sphere, in closed form.

    With b = sym(Q)[0, 1:] and A = sym(Q)[1:, 1:], the value is
    Q00 + 2 b.n + n^T A n.  The odd moments of n vanish, <n n^T> = 1/3 and
    <n_i n_j n_k n_l> = (d_ij d_kl + d_ik d_jl + d_il d_jk)/15, so the variance
    is 4|b|^2/3 + (tr A)^2/15 + 2 tr(A^2)/15 - (tr A)^2/9.
    """
    sym = (q + q.T) / 2
    b, a = sym[0, 1:], sym[1:, 1:]
    tr = np.trace(a)
    return 4 * (b @ b) / 3 + tr**2 / 15 + 2 * np.trace(a @ a) / 15 - tr**2 / 9


def test_mc_std_error_matches_closed_form_sigma():
    samples = 200_000
    for i, (xi, r) in enumerate(((0.4, 0.6), (0.9, 0.85), (0.3, 1.5), (0.7, 3.0))):
        est = average_fidelity_mc(xi, r, samples=samples, seed=30 + i)
        sigma = math.sqrt(sampling_variance(_bloch_form(_channel_blocks(xi, r))))
        assert abs(est.std_error * math.sqrt(samples) / sigma - 1.0) <= 0.01, (xi, r)
    assert abs(sampling_variance(_bloch_form(_channel_blocks(0.0, 0.0)))) <= 1e-15
    assert average_fidelity_mc(0.0, 0.0, samples=samples, seed=30).std_error < 1e-9


def test_mc_agrees_with_exact():
    rng = np.random.default_rng(4)
    for _ in range(4):
        xi, r = rng.uniform(0, 0.9), rng.uniform(0, 0.7)
        exact = average_fidelity_exact(xi, r)
        est = average_fidelity_mc(xi, r, samples=20_000, seed=int(rng.integers(1 << 30)))
        assert abs(est.mean - exact) <= 4 * max(est.std_error, 1e-12)


def test_exact_closed_form_at_zero_acceleration():
    for xi in (0.0, 0.25, 0.5, 0.75):
        assert average_fidelity_exact(xi, 0.0) == pytest.approx(exact_closed_form(xi), abs=1e-12)


def full_tower_blocks(kit, shared):
    """Top-left 2x2 blocks of the protocol output on the four matrix units."""
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            blocks[i, j] = apply_protocol(kit, shared, unit)[:2, :2]
    return blocks


def test_channel_blocks_match_full_tower():
    for xi, r in ((0.0, 0.0), (0.3, 0.6), (0.9, 0.85), (0.5, 1.5)):
        cut = FockCutoff.for_acceleration(r)
        assert cut.n_max <= 200
        kit = build_protocol(schmidt_decompose(xi))
        full = full_tower_blocks(kit, entangled_state(xi, r, cut))
        np.testing.assert_allclose(_channel_blocks(xi, r), full, rtol=0, atol=1e-12)


def test_exact_fidelity_reaches_large_r():
    # no Fock cutoff: the average holds where tanh r rounds to 1 (r above
    # about 19.06), up to MAX_R, where cosh^4 r leaves the double range
    for r in (3.0, 19.5, 100.0, MAX_R):
        assert 0.0 < average_fidelity_exact(0.4, r) < 1.0, r
    with pytest.raises(RQITError, match="exceeds"):
        average_fidelity_exact(0.4, MAX_R + 1.0)


def scatter_crop_channel_blocks(xi, r, cutoff):
    """The channel blocks built the long way: the terms |v_0> and |v_1> of the
    truncated tower scattered into a dense (2) x (3 levels) state, cropped to
    levels {0, 1}, and the protocol applied to one matrix unit at a time."""
    amps, weights = _shared_terms(_as_xi(xi), _as_accel(r), cutoff)
    amps, weights = amps[:, :2], weights[:2]
    rho = np.zeros((6, 6))
    n = np.arange(2)
    offsets = [q * 3 + d for q, d in _SHARED_COMPONENTS]
    for p, row in enumerate(offsets):
        for q, col in enumerate(offsets):
            rho[row + n, col + n] += weights * (amps[p] * amps[q])
    low = rho.reshape(2, 3, 2, 3)[:, :2, :, :2]
    shared = DenseOperator(low.reshape(4, 4), (2, 2))
    kit = build_protocol(schmidt_decompose(xi))
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            blocks[i, j] = apply_protocol(kit, shared, unit)
    return blocks


def test_channel_blocks_equal_scatter_crop_construction():
    # the long way needs every term up to the cutoff (n_max 3.8e9 at r = 10);
    # test_exact_column_matches_mpmath covers r = 10 and above
    for r in (0.0, 0.1, 0.3, 0.6, 0.85, 1.5, 2.0, 3.0):
        cut = FockCutoff.for_acceleration(r)
        for xi in np.arange(96) * 0.01:
            assert np.array_equal(_channel_blocks(xi, r), scatter_crop_channel_blocks(xi, r, cut)), (xi, r)


def test_apply_protocol_on_a_stack_equals_single_calls():
    cut = FockCutoff.for_acceleration(0.3)
    kit = build_protocol(schmidt_decompose(0.4))
    shared = entangled_state(0.4, 0.3, cut)
    rng = np.random.default_rng(12)
    inputs = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
    out = apply_protocol(kit, shared, inputs)
    assert out.shape == (2, 2, cut.levels, cut.levels)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(out[i, j], apply_protocol(kit, shared, inputs[i, j]))


def test_exact_gauge_invariance():
    # rephasing |phi_i> -> e^{ia_i}|phi_i>, |theta_i> -> e^{-ia_i}|theta_i>
    # leaves the decomposed state, hence the protocol average, unchanged
    xi, r = 0.4, 0.5
    cut = FockCutoff.for_acceleration(r)
    shared = entangled_state(xi, r, cut)
    base = average_fidelity_exact(xi, r)
    rng = np.random.default_rng(8)
    sd = schmidt_decompose(xi)
    for _ in range(3):
        ph = np.exp(1j * rng.uniform(0, 2 * math.pi, size=2))
        gauged = SchmidtDecomposition(sd.lambdas, sd.alice_basis * ph, sd.rob_basis * ph.conj())
        np.testing.assert_allclose(gauged.state_vector(), sd.state_vector(), atol=1e-12)
        blocks = full_tower_blocks(build_protocol(gauged), shared)
        assert haar_average(blocks) == pytest.approx(base, abs=1e-12)


def test_fidelity_monotone_in_acceleration():
    for xi in (0.0, 0.5):
        vals = [average_fidelity_exact(xi, r) for r in (0.0, 0.2, 0.4, 0.6)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_trace_preserved_over_random_inputs():
    rng = np.random.default_rng(12)
    for _ in range(20):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = amps / np.linalg.norm(amps)
        out = run_protocol(amps, rng.uniform(0, 0.9), rng.uniform(0, 0.6))
        assert abs(out.trace().real - 1.0) < 1e-10


def test_mc_estimate_carries_exact_average():
    for xi, r in ((0.0, 0.0), (0.4, 0.6), (0.8, 2.0), (0.3, 0.3)):
        est = average_fidelity_mc(xi, r, samples=10, seed=5)
        assert est.exact == average_fidelity_exact(xi, r)
        assert type(est.exact) is float and type(average_fidelity_exact(xi, r)) is float


def per_point_fig2(r, xis, samples, seed):
    """fig2 computed point by point, as the CLI once did: one Monte-Carlo and
    one exact average per xi, point i seeded from SeedSequence((seed, i))."""
    rows = []
    for i, xi in enumerate(xis):
        sub = int(np.random.SeedSequence((seed, i)).generate_state(1, dtype=np.uint64)[0])
        est = average_fidelity_mc(xi, r, samples=samples, seed=sub)
        rows.append((xi, est.mean, est.std_error, average_fidelity_exact(xi, r)))
    return rows


def test_fidelity_sweep_equals_per_point_loop():
    grids = (
        (0.6, np.arange(3) * 0.4, 3000, 42),
        (1.5, np.arange(3) * 0.4, 1, 3),
        (2.0, np.array([0.4]), 1, 3),
        (0.3, np.arange(10) * 0.1, 500, 1),
    )
    for r, xis, samples, seed in grids:
        results = fidelity_sweep(r, xis, samples=samples, seed=seed)
        assert all(p.r == r and type(p.fidelity_exact) is float for p in results)
        got = [(p.xi, p.fidelity_mc, p.std_err, p.fidelity_exact) for p in results]
        assert got == per_point_fig2(r, xis, samples, seed), (r, samples)


def test_fidelity_sweep_checks_work_bound_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("channel built before the work bound was checked")

    monkeypatch.setattr(teleportation, "_channel_blocks", refuse)
    points = MC_WORK_BOUND // (1 + MC_POINT_CHARGE) + 1
    # above MAX_R the channel build itself fails, so the bound must come first
    with pytest.raises(SizeError, match="over the Monte-Carlo work bound"):
        fidelity_sweep(2 * MAX_R, np.zeros(points), samples=1)
    with pytest.raises(SizeError, match="over the Monte-Carlo work bound"):
        fidelity_sweep(0.6, [0.4], samples=MC_WORK_BOUND)


def mp_exact_fidelity(xi, r):
    """fig2's exact average at 40 digits, from the physics alone.

    Rob's |0> maps to sum_n c_n |n>_I |n>_II and |1> to sum_n d_n |n+1>_I |n>_II
    (c_n = tanh^n r / cosh r, d_n = sqrt(n+1) tanh^n r / cosh^2 r).  Tracing
    wedge II leaves one term per n, and on Fock levels {0, 1} only the term
    n = 0 and the level-1 part of n = 1 remain.  The Schmidt form is
    |Psi> = (|0>(|+> + |phi>) + |1>(|+> - |phi>))/2; for xi > 0, <+|phi> < 0,
    so |1> carries the larger coefficient.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        xi, r = mpmath.mpf(xi), mpmath.mpf(r)
        h = 1 / mpmath.sqrt(2)
        plus, minus = mpmath.matrix([h, h]), mpmath.matrix([h, -h])
        phi = mpmath.matrix([mpmath.sqrt((1 - xi) / 2), -mpmath.sqrt((1 + xi) / 2)])
        psi = [[(plus[a] * plus[b] + minus[a] * phi[b]) * h for b in range(2)] for a in range(2)]
        c0, c1, d0 = 1 / mpmath.cosh(r), mpmath.tanh(r) / mpmath.cosh(r), 1 / mpmath.cosh(r) ** 2
        # index 2a + k for Alice's qubit a and Rob's Fock level k
        v0 = mpmath.matrix([psi[0][0] * c0, psi[0][1] * d0, psi[1][0] * c0, psi[1][1] * d0])
        v1 = mpmath.matrix([0, psi[0][0] * c1, 0, psi[1][0] * c1])
        rho = v0 * v0.T + v1 * v1.T
        t0, t1 = plus - phi, plus + phi
        t0, t1 = t0 / mpmath.norm(t0), t1 / mpmath.norm(t1)
        e0, e1 = mpmath.matrix([1, 0]), mpmath.matrix([0, 1])
        a0, a1 = e1, e0

        def kron(x, y):
            return mpmath.matrix([x[i] * y[j] for i in range(2) for j in range(2)])

        us = (kron(e0, a0) + kron(e1, a1), kron(e0, a0) - kron(e1, a1),
              kron(e0, a1) + kron(e1, a0), kron(e0, a1) - kron(e1, a0))
        bs = (e0 * t0.T + e1 * t1.T, e0 * t0.T - e1 * t1.T, e1 * t0.T + e0 * t1.T, e1 * t0.T - e0 * t1.T)
        total = 0
        for i in range(2):
            for j in range(2):
                # output on |i><j|: sum_m B_m M_m B_m^T with Pi_m = u_m u_m^T / 2 and
                # M_m[k, l] = sum_{a, c} Pi_m[(j a), (i c)] rho[(c k), (a l)]
                out = mpmath.zeros(2, 2)
                for u, b in zip(us, bs):
                    m = mpmath.matrix(2, 2)
                    for k in range(2):
                        for l in range(2):
                            m[k, l] = sum(u[2 * j + a] * u[2 * i + c] / 2 * rho[2 * c + k, 2 * a + l]
                                          for a in range(2) for c in range(2))
                    out += b * m * b.T
                # Haar second moment (I + SWAP)/6: Tr E_ii and E_ij[i, j]
                total += (out[0, 0] + out[1, 1] if i == j else 0) + out[i, j]
        return total / 6


def test_exact_column_matches_mpmath():
    # r = 19.5 is past the r at which tanh r rounds to 1, and 170 is MAX_R
    for xi, r in ((0.4, 0.6), (0.8, 2.0), (0.4, 10.0), (0.8, 19.5), (0.4, 100.0), (0.9, MAX_R)):
        (point,) = fidelity_sweep(r, [xi], samples=1)
        want = mp_exact_fidelity(xi, r)
        assert abs(point.fidelity_exact - want) <= 1e-15 * want, (xi, r)
