import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (bloch_form, channel_blocks, eta, exact_mc_moments, full_tower_blocks, haar_average,
                     is_hermitian, min_eigenvalue, mp_exact_fidelity, mp_fidelity_form, object_channel_blocks,
                     overlap_formula, run_protocol, sampling_variance, scatter_crop_channel_blocks,
                     shared_state_vector, state_vector, svd_schmidt_decompose)
from rqit import teleportation
from rqit.channel import MAX_R, FockCutoff, _as_accel, _xi_array, entangled_state
from rqit.errors import NumericError, RQITError, SizeError
from rqit.linalg import DenseOperator
from rqit.teleportation import (
    MC_WORK_BOUND,
    SchmidtDecomposition,
    _ExactSum,
    _draw_bloch,
    _fidelity_columns,
    _fidelity_form,
    _philox,
    apply_protocol,
    average_fidelity_exact,
    average_fidelity_mc,
    build_protocol,
    fidelity_bound,
    fidelity_sweep,
    haar_qubit_unitaries,
    schmidt_decompose,
)

SQRT2 = math.sqrt(2.0)


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
        np.testing.assert_allclose(state_vector(sd), shared_state_vector(xi), atol=1e-10)
        for basis in (sd.alice_basis, sd.rob_basis):
            np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)


def assert_matches_svd_oracle(sd, xi):
    """The closed-form Schmidt data equal the SVD oracle's up to the sign of each pair
    (a_i, theta_i), within 2 eps (1/(lambda0 - lambda1) + 1): the SVD's singular vectors
    carry an error of order eps over the gap (Wedin, BIT 12, 99 (1972)), 2.4e-13 near
    xi = 1e-3, where the closed form has no such factor."""
    ref = svd_schmidt_decompose(xi)
    atol = 2 * np.finfo(float).eps * (1 / (sd.lambda0 - sd.lambda1) + 1)
    np.testing.assert_allclose(sd.lambdas, ref.lambdas, rtol=0, atol=atol)
    for i in range(2):
        sign = np.sign(sd.alice_basis[:, i] @ ref.alice_basis[:, i].real)
        np.testing.assert_allclose(sign * sd.alice_basis[:, i], ref.alice_basis[:, i], rtol=0, atol=atol)
        np.testing.assert_allclose(sign * sd.rob_basis[:, i], ref.rob_basis[:, i], rtol=0, atol=atol)


@pytest.mark.parametrize("xi", [0.0, 1e-12, 1e-9, 1e-6, 1e-4, 0.3, 0.999])
def test_schmidt_closed_form_edge_cases(xi):
    # the sender basis is (|1>, |0>) at every xi, with no phase threshold; the SVD route's
    # 1e-12 threshold read the first sender vector as (1.0e-10, -1) at xi = 1e-6, and it is
    # the oracle from xi = 1e-3 on
    sd = schmidt_decompose(xi)
    assert np.array_equal(sd.alice_basis, [[0.0, 1.0], [1.0, 0.0]])
    assert np.abs(state_vector(sd) - shared_state_vector(xi)).max() <= 1e-15
    for basis in (sd.alice_basis, sd.rob_basis):
        assert np.abs(basis.T @ basis - np.eye(2)).max() <= 1e-15
    if xi >= 1e-3:
        assert_matches_svd_oracle(sd, xi)


def test_schmidt_closed_form_matches_svd_oracle():
    # at 10 000 such points the two routes part by at most 0.53 of the tolerance
    for xi in np.concatenate([np.geomspace(1e-3, 0.05, 400), np.linspace(0.05, 0.999, 600)]):
        assert_matches_svd_oracle(schmidt_decompose(xi), xi)


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
        assert is_hermitian(out)
        assert min_eigenvalue(out) > -1e-10


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


def raw_doubles(words):
    """Uniform doubles from raw Philox-4x64 words, as numpy's Generator.random
    makes them: the top 53 bits of a word times 2^-53."""
    return (words >> np.uint64(11)) * 2.0**-53


def bloch_vectors(samples, seed, start=0):
    """The general-form reference sampler: unit vectors n = (s cos phi,
    s sin phi, z), s = sqrt((1 - z)(1 + z)), one a row, from the raw words
    that _draw_bloch reads: sample k takes u0 and u1 from words 2k and
    2k + 1 of the stream keyed by seed, so a counter step serves two samples."""
    words = np.random.Philox(key=seed).random_raw(2 * (start + samples))[2 * start:]
    u = raw_doubles(words).reshape(samples, 2)
    return bloch_from_doubles(u[:, 0], u[:, 1])


def bloch_from_doubles(u0, u1):
    z = 2.0 * u0 - 1.0
    phi = 2.0 * np.pi * u1
    s = np.sqrt((1.0 - z) * (1.0 + z))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def form_values(q, n):
    """x^T Q x on x = (1, n) for a general real Q, one value per row of n."""
    return q[0, 0] + np.einsum("sj,sj->s", n @ q[1:, 1:] + (q[0, 1:] + q[1:, 0]), n)


def draw_bloch(samples, seed, start=0):
    """``_draw_bloch``'s s = (1 - z)(1 + z) and c = cos^2 phi on samples [start, start + samples)
    of the stream keyed by seed; an odd start begins halfway through counter step start // 2."""
    s, c = np.empty(samples), np.empty(samples)
    stream = _philox(seed, start // 2)
    if start % 2:
        stream.random(2)
    _draw_bloch(stream, s, c)
    return s, c


def draw_form_values(form, samples, seed, start=0):
    """x^T Q x, Q = diag(form), on the samples of ``draw_bloch``: with z^2 = 1 - s and
    n_x^2 = s c, Q00 + Qzz + (Qyy - Qzz) s + (Qxx - Qyy) s c."""
    q00, qxx, qyy, qzz = form
    s, c = draw_bloch(samples, seed, start)
    return q00 + qzz + (qyy - qzz) * s + (qxx - qyy) * s * c


def test_bloch_form_matches_five_operand_einsum():
    us = haar_qubit_unitaries(4096, seed=3)
    psi = us @ (np.array([1, 1]) / SQRT2)
    # rho = (1 + n.sigma)/2: rho_01 = (nx - i ny)/2 and rho_00 - rho_11 = nz
    c = psi[:, 0] * psi[:, 1].conj()
    n = np.stack([2 * c.real, -2 * c.imag, abs(psi[:, 0]) ** 2 - abs(psi[:, 1]) ** 2], axis=1)
    for xi, r in FORM_POINTS:
        e = channel_blocks(xi, r)
        want = np.einsum("si,sj,sk,sl,ijkl->s", psi, psi.conj(), psi.conj(), psi, e).real
        # the Gram-Schmidt psi is off unit norm by up to about 2e-14
        np.testing.assert_allclose(form_values(bloch_form(e), n), want, rtol=0, atol=1e-13)
        np.testing.assert_allclose(form_values(np.diag(_fidelity_form(xi, r)), n), want, rtol=0, atol=1e-13)


def test_bloch_form_sphere_average_is_haar_average():
    # the exact average is Q00 + tr(Q[1:, 1:])/3, the sphere average of the
    # Monte-Carlo form; the (I + SWAP)/6 contraction is an independent oracle
    for xi, r in FORM_POINTS:
        assert abs(average_fidelity_exact(xi, r) - haar_average(channel_blocks(xi, r))) <= 1e-15, (xi, r)


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
    values = draw_form_values(_fidelity_form(0.0, 0.0), 20_000, seed=1)
    assert np.max(np.abs(values - 1.0)) <= 1e-15


def test_bloch_form_is_diagonal_identically_in_eta_c_t():
    # the channel blocks rebuilt in sympy: the levels-{0, 1} shared block of
    # channel_blocks in the symbols eta, C and T, build_protocol's kit from
    # Schmidt bases with eight free real entries, apply_protocol's contraction
    # on object arrays, and bloch_form itself
    sp = pytest.importorskip("sympy")
    etas = sp.symbols("eta_pm eta_mp eta_mm eta_pp", real=True)
    c, t = sp.symbols("C T", positive=True)
    alice = np.array(sp.symbols("a:2:2", real=True)).reshape(2, 2)
    rob = np.array(sp.symbols("b:2:2", real=True)).reshape(2, 2)
    e = object_channel_blocks(etas, c, t, alice, rob)
    q = bloch_form(e)
    for i in range(4):
        for j in range(4):
            assert i == j or sp.expand(q[i, j]) == 0, (i, j)
    # the symbolic blocks are the oracle's, at the code's (real) Schmidt bases
    blocks = sp.lambdify([*etas, c, t, *alice.ravel(), *rob.ravel()], sp.Array(e.tolist()))
    for xi, r in ((0.0, 0.6), (0.4, 0.6), (0.9, 2.0)):
        sd, a = schmidt_decompose(xi), _as_accel(r)
        assert not sd.alice_basis.imag.any() and not sd.rob_basis.imag.any()
        got = blocks(eta(xi, 1, -1), eta(xi, -1, 1), eta(xi, -1, -1), eta(xi, 1, 1), a.C, a.T,
                     *sd.alice_basis.real.ravel(), *sd.rob_basis.real.ravel())
        np.testing.assert_allclose(np.array(got, dtype=float), channel_blocks(xi, r), rtol=0, atol=1e-15)


def test_fidelity_form_equals_generic_route_at_50_digits():
    # the generic route on mpmath object arrays: the shared block, the kit
    # from exact Schmidt bases and the Pauli change of basis; xi = 0 has a
    # degenerate Schmidt spectrum, where any pair of bases serves
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for xi in (0, 0.05, 0.3, 0.55, 0.9, 0.99):
            for r in (0, 0.1, 0.6, 2, 10):
                mxi, mr = mpmath.mpf(xi), mpmath.mpf(r)
                etas = [1 + s1 * mpmath.sqrt(1 + s2 * mxi) for s1, s2 in ((1, -1), (-1, 1), (-1, -1), (1, 1))]
                # |Psi> = (|0>(|+> + |phi>) + |1>(|+> - |phi>))/2: Alice's basis is the computational one
                h = 1 / mpmath.sqrt(2)
                plus = np.array([h, h], dtype=object)
                phi = np.array([mpmath.sqrt((1 - mxi) / 2), -mpmath.sqrt((1 + mxi) / 2)], dtype=object)
                t0, t1 = plus + phi, plus - phi
                rob = np.stack([t0 / mpmath.sqrt(t0 @ t0), t1 / mpmath.sqrt(t1 @ t1)], axis=1)
                alice = np.eye(2, dtype=int).astype(object)
                q = bloch_form(object_channel_blocks(etas, mpmath.cosh(mr), mpmath.tanh(mr), alice, rob))
                want = np.diag(mp_fidelity_form(xi, r))
                scale = max(abs(w) for w in want.ravel())
                assert max(abs(g - w) for g, w in zip(q.ravel(), want.ravel())) <= 1e-40 * scale, (xi, r)


def test_bloch_form_is_diagonal_numerically():
    # and its diagonal is _fidelity_form's: the float oracle is off its
    # 50-digit value by up to 6.7 eps max|Q| on this grid, the closed form by
    # at most 2.2 eps max|Q|
    checked = []
    for xi in np.linspace(0.0, 0.99, 34):
        for r in (0.0, 0.1, 0.6, 1.0, 2.0, 5.0, 10.0, 40.0, 100.0, 169.9):
            q = bloch_form(channel_blocks(xi, r))
            scale = np.abs(q).max()
            assert np.abs(q - np.diag(np.diagonal(q))).max() <= 8 * EPS * scale, (xi, r)
            got = np.array(_fidelity_form(xi, r))
            assert np.abs(got - np.diagonal(q)).max() <= 8 * EPS * scale, (xi, r)
            checked.append((xi, r, got, scale))
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for xi, r, got, scale in checked:
            want = np.array([float(w) for w in mp_fidelity_form(xi, r)])
            assert np.abs(got - want).max() <= 4 * EPS * scale, (xi, r)


def test_diagonal_samples_equal_general_form_on_the_same_counter_steps():
    for xi, r in (*FORM_POINTS, (0.6, 10.0)):
        form = _fidelity_form(xi, r)
        q = np.diag(form)
        got = draw_form_values(form, 20_000, seed=7, start=3)
        want = form_values(q, bloch_vectors(20_000, seed=7, start=3))
        assert np.abs(got - want).max() <= 8 * EPS * np.abs(q).max(), (xi, r)


def test_two_samples_share_each_counter_step():
    # the four words of counter step j, read from a generator advanced by j
    # steps, give samples 2j and 2j + 1
    form = _fidelity_form(0.4, 0.6)
    q = np.diag(form)
    values = draw_form_values(form, 2 * 64, seed=7)
    for j in (0, 1, 17, 63):
        bit = np.random.Philox(key=7)
        bit.advance(j)
        u = raw_doubles(bit.random_raw(4))
        want = form_values(q, bloch_from_doubles(u[0::2], u[1::2]))
        assert np.abs(values[2 * j:2 * j + 2] - want).max() <= 8 * EPS * np.abs(q).max(), j


def test_form_values_are_uncorrelated_at_lag_one():
    # a layout that fed two samples the same two doubles would correlate
    # neighbours by about 1/2
    count = 200_000
    values = draw_form_values(_fidelity_form(0.4, 0.6), count, seed=13)
    assert abs(np.corrcoef(values[:-1], values[1:])[0, 1]) <= 5 / math.sqrt(count)


def test_draw_form_values_continues_the_stream():
    whole = draw_bloch(1000, seed=5)
    # s and c filled in place, chunk by chunk, from one stream
    stream, s, c = _philox(5), np.empty(1000), np.empty(1000)
    for a, b in ((0, 1), (1, 137), (137, 1000)):
        _draw_bloch(stream, s[a:b], c[a:b])
    np.testing.assert_array_equal(s, whole[0])
    np.testing.assert_array_equal(c, whole[1])
    for got, want in zip(draw_bloch(37, seed=5, start=963), whole):
        np.testing.assert_array_equal(got, want[-37:])


def test_mc_zero_variance_at_ideal_point():
    # every sample is 1, and the form's B = C = 0 leave the mean and the deviations exact
    est = average_fidelity_mc(0.0, 0.0, samples=2000, seed=1)
    assert (est.mean, est.std_error) == (1.0, 0.0)


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


def exact_total(values):
    """The exact sum of the doubles ``values``, as a Fraction: np.frexp gives each as m 2^e with
    m 2^53 an integer, and those add up exponent by exponent in Python ints."""
    m, e = np.frexp(values)
    m = (m * 2.0**53).astype(np.int64)
    return Fraction(sum(int(m[e == k].astype(object).sum()) << (k + 1074) for k in np.unique(e).tolist()),
                    1 << 1127)


def feature_sums(samples, seed):
    """The exact sums of s, s c, s^2, s (s c) and (s c)^2 over ``draw_bloch``'s samples, drawn in
    one piece, each feature rounded once from the doubles s and s c, as Fractions."""
    s, c = draw_bloch(samples, seed)
    sc = s * c
    return [exact_total(f) for f in (s, sc, s * s, s * sc, sc * sc)]


def feature_moments(xi, r, samples, sums):
    """Mean and standard error of x^T Q x = A + B s + C s c from the exact feature sums, in
    Fractions, each rounded once: the reference for _mc_moments' integer combination."""
    q00, qxx, qyy, qzz = map(Fraction, _fidelity_form(xi, r))
    a, b, c = q00 + qzz, qyy - qzz, qxx - qyy
    s1, s2, s3, s4, s5 = sums
    lin = b * s1 + c * s2
    if samples == 1:
        return float(a + lin), 0.0
    squares = max(b * b * s3 + 2 * b * c * s4 + c * c * s5 - lin * lin / samples, 0)
    return float(a + lin / samples), math.sqrt(float(squares / (samples * (samples - 1))))


def test_mc_equals_exact_feature_sums(monkeypatch):
    chunk = teleportation.MC_CHUNK
    assert chunk <= teleportation._EXACT_CHUNK == 2**26
    for i, samples in enumerate((1, chunk - 1, chunk + 1, 200_000)):
        sums = feature_sums(samples, 50 + i)
        for xi, r in ((0.4, 0.6), (0.9, 3.0), (0.0, 0.0), (0.5, 20.0)):
            est = average_fidelity_mc(xi, r, samples=samples, seed=50 + i)
            assert (est.mean, est.std_error) == feature_moments(xi, r, samples, sums), (samples, xi, r)
    for chunk in (137, 8_192, 65_536):
        with monkeypatch.context() as m:
            m.setattr(teleportation, "MC_CHUNK", chunk)
            for samples in (1, chunk - 1, chunk + 1, 20_000):
                est = average_fidelity_mc(0.7, 1.5, samples=samples, seed=chunk)
                assert (est.mean, est.std_error) == feature_moments(0.7, 1.5, samples, feature_sums(samples, chunk))


def printed(x):
    return f"{x:.12g}"


def printed_root(square):
    """The CLI's 12 digits of sqrt(square), for a Fraction square."""
    with localcontext() as ctx:
        ctx.prec = 40
        return printed(float((Decimal(square.numerator) / Decimal(square.denominator)).sqrt()))


@pytest.mark.parametrize("samples, seed", [(2, 1), (8193, 5)])
@pytest.mark.parametrize("r", [0.0, 0.6, 20.0])
def test_mc_prints_the_exact_rational_moments(samples, seed, r):
    # the same samples in rational arithmetic (z exact from the stream, cos^2 phi the
    # stream's double): every printed fidelity_mc and std_err is the exact value's
    grid = [0.0, 0.3, 0.9] if samples > 2 else np.linspace(0.0, 0.99, 12).tolist()
    for p in fidelity_sweep(r, grid, samples=samples, seed=seed):
        mean, square = exact_mc_moments(_fidelity_form(p.xi, r), samples, sweep_seed(seed))
        assert (printed(p.fidelity_mc), printed(p.std_err)) == (printed(float(mean)), printed_root(square)), p
    # at r = 0, xi = 0 every sample is 1: the standard error is exactly 0
    assert r != 0.0 or fidelity_sweep(r, [0.0], samples=samples, seed=seed)[0].std_err == 0.0


def exact_sum(chunks):
    acc = _ExactSum()
    for c in chunks:
        acc.add(np.asarray(c, dtype=float))
    return acc.totals[0] / (1 << 1074)


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
    [np.nextafter(2.0**1020, 0.0), -np.nextafter(2.0**1020, 0.0), 1.0],  # the largest magnitudes 3 values take
    list(np.random.default_rng(3).standard_normal(1000) * 10.0 ** np.random.default_rng(4).integers(-300, 300, 1000)),
])
def test_exact_sum_edge_cases(values):
    assert same_double(exact_sum([values]), math.fsum(values))
    assert same_double(exact_sum([values[::2], values[1::2]]), math.fsum(values))


def real_size_chunks(n):
    """Chunks of n values for the exact sum: exponents over the double range that
    it takes, subnormals included, with the largest magnitude it takes (below
    2^(1022 - bit_length(n)), where sigma = 2^(E + bit_length(n) + 1) stays finite),
    then exact cancellations around round-half-even ties."""
    rng = np.random.default_rng(n)
    wide = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, 1023 - n.bit_length(), n))
    wide[0] = -np.nextafter(2.0 ** (1022 - n.bit_length()), 0.0)
    yield wide
    yield np.abs(wide)
    if n == 1:
        yield from ([v] for v in (5e-324, -(2.0**-1022)))
        return
    pairs = wide[:(n - 2) // 2]
    for tie in ([1.0, 2.0**-53], [1.0 + 2.0**-52, 2.0**-53], [-1.0, -(2.0**-53) - 2.0**-105]):
        yield rng.permutation(np.concatenate([pairs, tie, -pairs]))


@pytest.mark.parametrize("n", [1, teleportation.MC_CHUNK, 2**16])
def test_exact_sum_matches_fsum_at_real_chunk_sizes(n):
    for values in real_size_chunks(n):
        assert len(values) == n
        assert same_double(exact_sum([values]), math.fsum(values)), n


def test_exact_sum_refuses_non_finite_and_oversized_chunks():
    for bad in (math.nan, math.inf, -math.inf):
        acc = _ExactSum()
        acc.add(np.array([0.5, 0.25]))
        with pytest.raises(NumericError):
            acc.add(np.array([1.0, bad, 2.0]))
    # a broadcast view: the size is refused before anything is read
    with pytest.raises(ValueError):
        _ExactSum().add(np.broadcast_to(1.0, (2**26 + 1,)))


@pytest.mark.parametrize("values", [
    [1.7976931348623157e308, -1.7976931348623157e308, 1.0],
    [2.0**1021],  # one value takes magnitudes below 2^1021
    [1.0] * 7 + [-(2.0**1018)],  # eight take magnitudes below 2^1018
])
def test_exact_sum_refuses_magnitudes_whose_sigma_would_overflow(values):
    acc = _ExactSum(2)
    acc.add(np.array([[0.5], [0.25]]))
    with pytest.raises(ValueError, match="takes magnitudes below"):
        acc.add(np.array([values, np.zeros(len(values))]))
    assert acc.totals == [1 << 1073, 1 << 1072]  # nothing of the refused rows was added


def test_mc_std_error_matches_closed_form_sigma():
    samples = 200_000
    for i, (xi, r) in enumerate(((0.4, 0.6), (0.9, 0.85), (0.3, 1.5), (0.7, 3.0))):
        est = average_fidelity_mc(xi, r, samples=samples, seed=30 + i)
        sigma = math.sqrt(sampling_variance(np.diag(_fidelity_form(xi, r))))
        assert abs(est.std_error * math.sqrt(samples) / sigma - 1.0) <= 0.01, (xi, r)
    assert abs(sampling_variance(np.diag(_fidelity_form(0.0, 0.0)))) <= 1e-15
    assert average_fidelity_mc(0.0, 0.0, samples=samples, seed=30).std_error == 0.0
    # std_err sqrt(samples) tends to fig2's closed-form sigma column, within 3 / sqrt(samples) relative
    grid = [0.0, 0.4, 0.9]
    for r in (0.6, 20.0):
        sigma = _fidelity_columns(_xi_array(grid), r)[1]
        for n in (2_000, 200_000, 2_000_000):
            got = np.array([p.std_err for p in fidelity_sweep(r, grid, samples=n, seed=3)]) * math.sqrt(n)
            assert np.abs(got / sigma - 1.0).max() <= 3.0 / math.sqrt(n), (r, n)


def test_sigma_column_matches_sampling_variance():
    # the closed-form variance, evaluated on the 40-digit form, holds the sum of squares
    # sigma^2 = (2/45)[(Qxx - Qyy)^2 + ...]; in float64 the oracle's (tr A)^2 terms cancel
    # to about 1.3e-12 relative at r = 0.6, xi = 0.81
    mpmath = pytest.importorskip("mpmath")
    grid = np.arange(20) * 0.05
    with mpmath.workdps(40):
        for r in (0.6, 0.85, 1.5, 2.5, 3.5):
            sigma = _fidelity_columns(_xi_array(grid), r)[1]
            want = [mpmath.sqrt(sampling_variance(np.diag(np.array(mp_fidelity_form(xi, r), dtype=object))))
                    for xi in grid]
            for xi, got, w in zip(grid, sigma, want):
                assert abs(got - w) <= 1e-14 * w, (xi, r)
    # Q_nn is 1/2 times the identity at the ideal point, so sigma is exactly 0 there
    assert _fidelity_columns(_xi_array([0.0]), 0.0)[1][0] == 0.0


def math_fidelity_form(xi, r):
    """_fidelity_form at one xi in Python floats and math.sqrt: the point-by-point
    reference for the array form."""
    x = 1.0 / math.cosh(r)
    u, v = math.sqrt(1.0 - xi), math.sqrt(1.0 + xi)
    uv, x2 = u * v, x * x
    x3, x4 = x2 * x, x2 * x2
    return ((2.0 - xi) * x2 / 4.0 + xi * x4 / 4.0,
            (u + v) * ((1.0 + uv) * x3 + (1.0 - uv) * x4) / 8.0,
            (u + v) * x3 / 4.0,
            ((1.0 - uv) * x3 + (1.0 + uv) * x4) / 4.0)


def test_exact_column_equals_point_by_point_form():
    # one array expression over the grid gives the same doubles as the form evaluated
    # point by point; average_fidelity_exact and fidelity_sweep read the same column
    grid = np.concatenate([np.arange(96) * 0.01, np.linspace(0.0, 0.999, 2000)])
    for r in (0.0, 0.1, 0.6, 0.85, 1.5, 3.5, 10.0, 100.0, MAX_R):
        exact = _fidelity_columns(_xi_array(grid), r)[0]
        for xi, got in zip(grid.tolist(), exact.tolist()):
            q00, qxx, qyy, qzz = math_fidelity_form(xi, r)
            assert got == q00 + (qxx + qyy + qzz) / 3.0, (xi, r)
        assert exact.tolist() == [average_fidelity_exact(xi, r) for xi in grid]
    assert type(average_fidelity_exact(0.4, 0.6)) is float
    assert [p.fidelity_exact for p in fidelity_sweep(0.6, grid[:96], samples=1)] == \
        _fidelity_columns(_xi_array(grid[:96]), 0.6)[0].tolist()


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


def test_channel_blocks_match_full_tower():
    for xi, r in ((0.0, 0.0), (0.3, 0.6), (0.9, 0.85), (0.5, 1.5)):
        cut = FockCutoff.for_acceleration(r)
        assert cut.n_max <= 200
        np.testing.assert_allclose(channel_blocks(xi, r), full_tower_blocks(xi, r, cut), rtol=0, atol=1e-12)


def test_exact_fidelity_reaches_large_r():
    # no Fock cutoff: the average holds where tanh r rounds to 1 (r above
    # about 19.06), up to MAX_R, where cosh^4 r leaves the double range
    for r in (3.0, 19.5, 100.0, MAX_R):
        assert 0.0 < average_fidelity_exact(0.4, r) < 1.0, r
    with pytest.raises(RQITError, match="exceeds"):
        average_fidelity_exact(0.4, MAX_R + 1.0)


def test_channel_blocks_equal_scatter_crop_construction():
    # the long way needs every term up to the cutoff (n_max 3.8e9 at r = 10);
    # test_exact_column_matches_mpmath covers r = 10 and above
    for r in (0.0, 0.1, 0.3, 0.6, 0.85, 1.5, 2.0, 3.0):
        cut = FockCutoff.for_acceleration(r)
        for xi in np.arange(96) * 0.01:
            assert np.array_equal(channel_blocks(xi, r), scatter_crop_channel_blocks(xi, r, cut)), (xi, r)


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
    base = average_fidelity_exact(xi, r)
    rng = np.random.default_rng(8)
    sd = schmidt_decompose(xi)
    for _ in range(3):
        ph = np.exp(1j * rng.uniform(0, 2 * math.pi, size=2))
        gauged = SchmidtDecomposition(sd.lambdas, sd.alice_basis * ph, sd.rob_basis * ph.conj())
        np.testing.assert_allclose(state_vector(gauged), state_vector(sd), atol=1e-12)
        assert haar_average(full_tower_blocks(xi, r, cut, gauged)) == pytest.approx(base, abs=1e-12)


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


def sweep_seed(seed):
    """The key of fidelity_sweep's one sample stream: point 0's sub-seed of SeedSequence((seed, 0))."""
    return int(np.random.SeedSequence((seed, 0)).generate_state(1, dtype=np.uint64)[0])


def test_fidelity_sweep_equals_per_point_loop():
    # every row reads the sweep's one stream: row i is the one-point Monte Carlo
    # of xi_i on it, bit for bit, and the exact column is the one-point average
    grid = np.arange(10) * 0.1
    for samples in (1, 2, 8191, 8193, 20_000):
        sums = feature_sums(samples, sweep_seed(4))
        for r in (0.3, 0.6, 1.5):
            want = [feature_moments(xi, r, samples, sums) for xi in grid]
            for points in (1, 3, 10):
                results = fidelity_sweep(r, grid[:points], samples=samples, seed=4)
                assert all(p.r == r and type(p.fidelity_exact) is float for p in results)
                got = [(p.xi, p.fidelity_mc, p.std_err, p.fidelity_exact) for p in results]
                assert got == [(xi, *w, average_fidelity_exact(xi, r))
                               for xi, w in zip(grid[:points].tolist(), want)], (r, samples, points)


def test_fidelity_sweep_is_chunk_invariant(monkeypatch):
    grid = np.arange(10) * 0.1
    for samples in (8193, 20_000):
        want = fidelity_sweep(0.6, grid, samples=samples, seed=8)
        for chunk in (137, 8_192, 65_536):
            with monkeypatch.context() as m:
                m.setattr(teleportation, "MC_CHUNK", chunk)
                assert fidelity_sweep(0.6, grid, samples=samples, seed=8) == want, (samples, chunk)


def test_fidelity_sweep_opens_its_streams_once_for_the_grid(monkeypatch):
    opened = []

    def counted(seed, step=0):
        opened.append(seed)
        return _philox(seed, step)

    monkeypatch.setattr(teleportation, "_philox", counted)
    counts = []
    for points in (1, 30):
        opened.clear()
        fidelity_sweep(0.6, np.arange(points) * 0.03, samples=1000, seed=2)
        counts.append(len(opened))
        assert set(opened) == {sweep_seed(2)}
    # one stream, drawn once for the five sums, whatever the grid
    assert counts == [1, 1]


def test_fidelity_sweep_memory_does_not_grow_with_points():
    # no array grows with the samples (a chunk's five features and the exact sum's
    # scratch pair take 0.94 MiB), and nothing kept per point grows with them either
    def peak(points, samples):
        grid = np.arange(points) * 0.03
        tracemalloc.start()
        try:
            fidelity_sweep(0.6, grid, samples=samples)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, thirty = peak(1, 100_000), peak(30, 100_000)
    assert thirty - one < 64 * 1024, (one, thirty)
    assert peak(1, 1_000_000) < 2 * 1024**2  # one double a sample would take 8 MB


def test_fidelity_sweep_checks_work_bound_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("fidelity form built before the work bound was checked")

    monkeypatch.setattr(teleportation, "_fidelity_form", refuse)
    # above MAX_R the channel build itself fails, so the bound must come first
    for r in (2 * MAX_R, 0.6):
        with pytest.raises(SizeError, match="over the Monte-Carlo work bound"):
            fidelity_sweep(r, [0.4], samples=MC_WORK_BOUND + 1)
        with pytest.raises(SizeError, match="over the Monte-Carlo work bound"):
            average_fidelity_mc(0.4, r, samples=MC_WORK_BOUND + 1)


def test_average_fidelity_mc_checks_work_bound_before_drawing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a sample drawn before the work bound was checked")

    monkeypatch.setattr(teleportation, "_draw_bloch", refuse)
    with pytest.raises(SizeError, match="over the Monte-Carlo work bound"):
        average_fidelity_mc(0.4, 0.6, samples=MC_WORK_BOUND + 1)


def test_average_fidelity_mc_reproduces_sweep_rows():
    # fidelity_sweep keys its one stream with the first word of SeedSequence((seed, 0)),
    # average_fidelity_mc with its seed itself: on that key it gives every row, bit for bit
    grid = [0.0, 0.35, 0.9]
    for samples, seed, r in ((1, 0, 0.6), (2, 3, 0.0), (8193, 42, 1.5), (20_000, 7, 20.0)):
        for p in fidelity_sweep(r, grid, samples=samples, seed=seed):
            est = average_fidelity_mc(p.xi, r, samples=samples, seed=sweep_seed(seed))
            assert (est.mean, est.std_error) == (p.fidelity_mc, p.std_err), (samples, seed, r, p.xi)


def test_exact_column_matches_mpmath():
    # r = 19.5 is past the r at which tanh r rounds to 1, and 170 is MAX_R
    for xi, r in ((0.4, 0.6), (0.8, 2.0), (0.4, 10.0), (0.8, 19.5), (0.4, 100.0), (0.9, MAX_R)):
        (point,) = fidelity_sweep(r, [xi], samples=1)
        want = mp_exact_fidelity(xi, r)
        assert abs(point.fidelity_exact - want) <= 1e-15 * want, (xi, r)


def test_fidelity_sweep_runs_no_generic_route(monkeypatch):
    # fig2's values come from the closed-form Q alone: no Schmidt
    # decomposition, protocol kit or contraction is built
    def refuse(*args, **kwargs):
        raise AssertionError("fig2 ran the generic protocol route")

    for name in ("schmidt_decompose", "build_protocol", "apply_protocol"):
        monkeypatch.setattr(teleportation, name, refuse)
    (point,) = fidelity_sweep(0.6, [0.4], samples=100)
    assert point.fidelity_exact == average_fidelity_exact(0.4, 0.6)
