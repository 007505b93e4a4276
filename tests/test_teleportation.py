import math

import numpy as np
import pytest

from rqit import teleportation
from rqit.channel import _SHARED_COMPONENTS, FockCutoff, _as_accel, _as_xi, _shared_terms, entangled_state
from rqit.errors import SizeError, TruncationError
from rqit.linalg import DenseOperator
from rqit.teleportation import (
    MC_POINT_CHARGE,
    MC_WORK_BOUND,
    SchmidtDecomposition,
    _channel_blocks,
    _plus_overlaps,
    _protocol_kit,
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
        kit = build_protocol(schmidt_decompose(xi), FockCutoff(16))
        total = sum(kit.povms)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


def test_protocol_bell_case_projectors():
    kit = build_protocol(schmidt_decompose(0.0), FockCutoff(16))
    # orthogonal rank-one projectors forming a complete Bell-type measurement
    for i, p in enumerate(kit.povms):
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
        for q in kit.povms[i + 1:]:
            assert abs(np.trace(p @ q)) < 1e-12


def test_local_op_maps_schmidt_basis():
    sd = schmidt_decompose(0.3)
    kit = build_protocol(sd, FockCutoff(16))
    b1 = kit.local_ops[0][:2, :2]
    np.testing.assert_allclose(b1 @ sd.rob_basis[:, 0], [1, 0], atol=1e-12)
    np.testing.assert_allclose(b1 @ sd.rob_basis[:, 1], [0, 1], atol=1e-12)
    # identity on levels >= 2
    np.testing.assert_array_equal(kit.local_ops[0][2:, 2:], np.eye(kit.levels - 2))
    assert np.max(np.abs(kit.local_ops[0][2:, :2])) == 0.0


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


def test_overlaps_match_five_operand_einsum():
    us = haar_qubit_unitaries(4096, seed=3)
    psi = us @ (np.array([1, 1]) / SQRT2)
    for xi, r in ((0.0, 0.0), (0.4, 0.6), (0.9, 0.85), (0.3, 1.5)):
        e = _channel_blocks(xi, r, FockCutoff.for_acceleration(r))
        want = np.einsum("si,sj,sk,sl,ijkl->s", psi, psi.conj(), psi.conj(), psi, e).real
        np.testing.assert_allclose(_plus_overlaps(us, e.reshape(4, 4)), want, rtol=0, atol=1e-15)


def test_mc_zero_variance_at_ideal_point():
    est = average_fidelity_mc(0.0, 0.0, samples=2000, seed=1)
    assert est.mean == pytest.approx(1.0, abs=1e-9)
    assert est.std_error < 1e-9


def test_mc_deterministic_and_chunk_invariant():
    # 5000 samples fit in one default chunk; 20 000 span several chunks of 137
    # and of the default 8192, and one of 65 536
    for samples, chunks in ((5000, (137,)), (20_000, (137, 8_192, 65_536))):
        a = average_fidelity_mc(0.4, 0.3, samples=samples, seed=9)
        b = average_fidelity_mc(0.4, 0.3, samples=samples, seed=9)
        assert a.mean == b.mean and a.std_error == b.std_error
        for chunk in chunks:
            c = average_fidelity_mc(0.4, 0.3, samples=samples, seed=9, chunk=chunk)
            assert c.mean == a.mean and c.std_error == a.std_error
        d = average_fidelity_mc(0.4, 0.3, samples=samples, seed=10)
        assert d.mean != a.mean


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
        kit = build_protocol(schmidt_decompose(xi), cut)
        full = full_tower_blocks(kit, entangled_state(xi, r, cut))
        np.testing.assert_allclose(_channel_blocks(xi, r, cut), full, rtol=0, atol=1e-12)
    with pytest.raises(TruncationError, match="shared-state trace deficit"):
        _channel_blocks(0.3, 0.9, FockCutoff(8))


def test_exact_fidelity_reaches_large_r():
    # n_max 3136: the dense state alone would take 630 MB
    cut = FockCutoff.for_acceleration(3.0)
    f = average_fidelity_exact(0.4, 3.0, cut)
    assert 0.0 <= f <= 1.0
    assert abs(f - average_fidelity_exact(0.4, 3.0, cut.doubled())) <= 1e-12


def test_channel_blocks_build_only_levels_zero_and_one():
    # 10**12 terms would need 32 TB; only |v_0> and |v_1> are built, and the
    # closed-form truncation check still runs at that cutoff
    huge = FockCutoff(10**12)
    assert np.array_equal(_channel_blocks(0.4, 0.6, huge), _channel_blocks(0.4, 0.6, FockCutoff(24)))
    with pytest.raises(TruncationError, match="shared-state trace deficit"):
        _channel_blocks(0.4, 10.0, FockCutoff(10**9))


def scatter_crop_channel_blocks(xi, r, cutoff):
    """The channel blocks built the long way: |v_0> and |v_1> scattered into a
    dense (2) x (3 levels) state, cropped to levels {0, 1}, and the protocol
    applied to one matrix unit at a time."""
    amps, weights = _shared_terms(_as_xi(xi), _as_accel(r), cutoff, count=2)
    rho = np.zeros((6, 6))
    n = np.arange(2)
    offsets = [q * 3 + d for q, d in _SHARED_COMPONENTS]
    for p, row in enumerate(offsets):
        for q, col in enumerate(offsets):
            rho[row + n, col + n] += weights * (amps[p] * amps[q])
    low = rho.reshape(2, 3, 2, 3)[:, :2, :, :2]
    shared = DenseOperator(low.reshape(4, 4), (2, 2))
    kit = _protocol_kit(schmidt_decompose(xi), 2)
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            blocks[i, j] = apply_protocol(kit, shared, unit)
    return blocks


def test_channel_blocks_equal_scatter_crop_construction():
    for r in (0.0, 0.1, 0.3, 0.6, 0.85, 1.5, 2.0, 3.0, 10.0):
        cut = FockCutoff.for_acceleration(r)
        for xi in np.arange(96) * 0.01:
            assert np.array_equal(_channel_blocks(xi, r, cut), scatter_crop_channel_blocks(xi, r, cut)), (xi, r)


def test_apply_protocol_on_a_stack_equals_single_calls():
    cut = FockCutoff.for_acceleration(0.3)
    kit = build_protocol(schmidt_decompose(0.4), cut)
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
    base = average_fidelity_exact(xi, r, cut)
    rng = np.random.default_rng(8)
    sd = schmidt_decompose(xi)
    for _ in range(3):
        ph = np.exp(1j * rng.uniform(0, 2 * math.pi, size=2))
        gauged = SchmidtDecomposition(sd.lambdas, sd.alice_basis * ph, sd.rob_basis * ph.conj())
        np.testing.assert_allclose(gauged.state_vector(), sd.state_vector(), atol=1e-12)
        blocks = full_tower_blocks(build_protocol(gauged, cut), shared)
        t1 = sum(np.trace(blocks[i, i]).real for i in range(2))
        t2 = sum(blocks[i, j][i, j].real for i in range(2) for j in range(2))
        assert (t1 + t2) / 6 == pytest.approx(base, abs=1e-12)


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
    for xi, r, cut in ((0.0, 0.0, None), (0.4, 0.6, None), (0.8, 2.0, None), (0.3, 0.3, FockCutoff(40))):
        est = average_fidelity_mc(xi, r, cut, samples=10, seed=5)
        assert est.exact == average_fidelity_exact(xi, r, cut)


def per_point_fig2(r, xis, cut, samples, seed):
    """fig2 computed point by point, as the CLI once did: one Monte-Carlo and
    one exact average per xi, point i seeded from SeedSequence((seed, i))."""
    rows = []
    for i, xi in enumerate(xis):
        sub = int(np.random.SeedSequence((seed, i)).generate_state(1, dtype=np.uint64)[0])
        est = average_fidelity_mc(xi, r, cut, samples=samples, seed=sub)
        rows.append((xi, est.mean, est.std_error, average_fidelity_exact(xi, r, cut)))
    return rows


def test_fidelity_sweep_equals_per_point_loop():
    grids = (
        (0.6, np.arange(3) * 0.4, FockCutoff.for_acceleration(0.6), 3000, 42),
        (1.5, np.arange(3) * 0.4, FockCutoff.for_acceleration(1.5), 1, 3),
        (2.0, np.array([0.4]), FockCutoff.for_acceleration(2.0), 1, 3),
        (0.3, np.arange(10) * 0.1, FockCutoff(40), 500, 1),
    )
    for r, xis, cut, samples, seed in grids:
        results = fidelity_sweep(r, xis, cut, samples=samples, seed=seed)
        assert all(p.r == r for p in results)
        got = [(p.xi, p.fidelity_mc, p.std_err, p.fidelity_exact) for p in results]
        assert got == per_point_fig2(r, xis, cut, samples, seed), (r, samples)


def test_fidelity_sweep_checks_work_bound_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("channel built before the work bound was checked")

    monkeypatch.setattr(teleportation, "_channel_blocks", refuse)
    points = MC_WORK_BOUND // (1 + MC_POINT_CHARGE) + 1
    # at r = 20 the cutoff search itself fails, so the bound must come first
    with pytest.raises(SizeError, match="over the Monte-Carlo work bound"):
        fidelity_sweep(20.0, np.zeros(points), samples=1)
    with pytest.raises(SizeError, match="over the Monte-Carlo work bound"):
        fidelity_sweep(0.6, [0.4], FockCutoff(24), samples=MC_WORK_BOUND)


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
    for xi, r in ((0.4, 0.6), (0.8, 2.0)):
        (point,) = fidelity_sweep(r, [xi], samples=1)
        assert abs(point.fidelity_exact - mp_exact_fidelity(xi, r)) <= 1e-15, (xi, r)
