"""Reference implementations that the tests compare the library against.

The figures compute their quantities with structured kernels: fig1's band,
fig2's closed-form fidelity form, fig3's factor form and the curvature's
stacked stencil.  The routes here reach the same quantities the generic or
the exact way, and each is defined once, for every test module to import:

* random inputs: Ginibre densities, subnormalized or not, Hermitian
  matrices and Haar unitaries;
* the encoding pair |+>, |phi>, the inertial shared state vector and the
  shared state's eta, as formulas, and the Schmidt data by an SVD;
* dense and generic routes: the fidelity, the shared state's terms and
  the shared state by rank-one updates, fig3's Bures angle of two dense
  channel images, the protocol run on a given input state, and the
  teleportation channel's blocks on Fock levels {0, 1} with their Bloch
  form, Haar average and sampling variance, and the best-frame average
  fidelity of the shared state's levels {0, 1} block;
* exact values in mpmath and sympy: fig1 at xi = 0 and, from the partial
  transpose itself, at any xi, fig3 from the factor form, fig2's form and
  average, and the jets and scalar curvature of the closed-form metric.
"""

import math
from typing import Sequence

import numpy as np
import pytest

from rqit import _lapack, geometry
from rqit.channel import (_SHARED_COMPONENTS, FockCutoff, _as_accel, _as_cutoff, _as_xi, _encoding_amplitudes, _log_t,
                          _shared_etas, _shared_weights, _towers, effective_qubit, entangled_state)
from rqit.geometry import root_fidelity
from rqit.linalg import HERMITIAN_ATOL, DenseOperator
from rqit.teleportation import SchmidtDecomposition, apply_protocol, build_protocol, schmidt_decompose

_SQRT2 = math.sqrt(2.0)

# Random inputs.  Each maker draws its normals first, real part then imaginary part.


def _ginibre(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(rng, d):
    a = _ginibre(rng, d)
    return (a + a.conj().T) / 2


def random_density(rng, d, trace=1.0):
    """A A^dag of a Ginibre A, scaled to ``trace``: a full-rank positive matrix."""
    a = _ginibre(rng, d)
    m = a @ a.conj().T
    return m / np.trace(m).real * trace


def random_subnormalized(rng, d):
    """random_density's operator scaled to a trace in [0.2, 1), drawn after it."""
    return DenseOperator(random_density(rng, d) * rng.uniform(0.2, 1.0))


def haar_unitary(rng, d=2):
    """Q of the QR of a Ginibre matrix, with R's diagonal made positive: Haar measure."""
    q, r = np.linalg.qr(_ginibre(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# The encoding pair |+> = (|0> + |1>)/sqrt2, |phi> = sqrt((1-xi)/2)|0> - sqrt((1+xi)/2)|1>.


def overlap_formula(xi):
    """<+|phi> = (sqrt((1-xi)/2) - sqrt((1+xi)/2)) / sqrt2, real."""
    return (math.sqrt((1 - xi) / 2) - math.sqrt((1 + xi) / 2)) / math.sqrt(2)


def eta(xi, outer, inner):
    """eta_{s1 s2} = 1 + s1*sqrt(1 + s2*xi) for signs s1 = outer, s2 = inner in {+1, -1}."""
    return 1.0 + outer * math.sqrt(1.0 + inner * xi)


def bloch_pair(xi):
    """Bloch vectors of |+> and |phi>: (1, 0, 0) and (-sqrt(1 - xi^2), 0, -xi)."""
    return np.array([1.0, 0.0, 0.0]), np.array([-math.sqrt(1.0 - xi**2), 0.0, -xi])


def plus_state(xi):
    """|+> as a complex vector; it does not depend on xi."""
    return np.array([1.0, 1.0], dtype=complex) / _SQRT2


def phi_state(xi):
    """|phi> as a complex vector."""
    return np.array([math.sqrt((1.0 - xi) / 2.0), -math.sqrt((1.0 + xi) / 2.0)], dtype=complex)


def shared_state_vector(xi):
    """|Psi> = (|+>|+> + |->|phi>)/sqrt2 on the two inertial qubits."""
    plus = plus_state(xi)
    minus = np.array([1.0, -1.0], dtype=complex) / _SQRT2
    return (np.kron(plus, plus) + np.kron(minus, phi_state(xi))) / _SQRT2


def svd_schmidt_decompose(xi):
    """The Schmidt data by an SVD of the 2x2 amplitude matrix of ``shared_state_vector``,
    the oracle of the closed form ``schmidt_decompose``: the phase of each pair fixed so
    that the first sender component above 1e-12 in magnitude is real positive."""
    psi = shared_state_vector(xi)
    m = psi.reshape(2, 2)
    u, s, vh = np.linalg.svd(m)
    alice = u.copy()
    rob = vh.T.copy()  # column i holds the components of |theta_i>
    for i in range(2):
        k = int(np.argmax(np.abs(alice[:, i]) > 1e-12))
        phase = alice[k, i] / abs(alice[k, i])
        alice[:, i] /= phase
        rob[:, i] *= phase
    return SchmidtDecomposition(s, alice, rob)


def dense_bures_angle(xi, r, cut=None):
    """fig3's dense route: acos of the root fidelity of the effective_qubit images of
    |+> and |phi>, clipped to [0, 1] as angle_sweep clips it.  Unlike bures_angle it
    takes images that miss unit trace by a loose cutoff's tail."""
    plus, phi = bloch_pair(xi)
    fid = root_fidelity(effective_qubit(plus, r, cut), effective_qubit(phi, r, cut))
    return math.acos(float(np.clip(fid, 0.0, 1.0)))


def state_vector(sd):
    """The Schmidt reconstruction sum_i lambda_i |phi_i>|theta_i> on (2) x (2)."""
    return sum(sd.lambdas[i] * np.kron(sd.alice_basis[:, i], sd.rob_basis[:, i]) for i in range(2))


# Density-operator properties of a DenseOperator.


def fidelity(rho, sigma):
    """F = Tr[ sqrt( rho^(1/2) sigma rho^(1/2) ) ]^2, the squared root fidelity.

    For subnormalized states F(rho, rho) = (Tr rho)^2 and
    F(rho, sigma) <= Tr rho Tr sigma.
    """
    return root_fidelity(rho, sigma) ** 2


def is_hermitian(op, atol=HERMITIAN_ATOL):
    return bool(np.max(np.abs(op.entries - op.entries.conj().T)) <= atol)


def min_eigenvalue(op):
    """Smallest eigenvalue of the Hermitian part."""
    return float(np.linalg.eigvalsh((op.entries + op.entries.conj().T) / 2)[0])


# Dense and generic routes.


def dense_entangled_state(xi, r, cut):
    """The shared state by one dense rank-one update per term |v_n>."""
    a = _as_accel(r)
    nlev = cut.levels
    epm, emm = eta(xi, +1, -1), eta(xi, -1, -1)
    emp, epp = eta(xi, -1, +1), eta(xi, +1, +1)
    rho = np.zeros((2 * nlev, 2 * nlev), dtype=complex)
    for n in range(cut.n_max + 1):
        v = np.zeros(2 * nlev, dtype=complex)
        v[n] = epm
        v[nlev + n] = emm
        s = math.sqrt(n + 1.0) / a.C
        v[n + 1] += emp * s
        v[nlev + n + 1] += epp * s
        rho += a.T ** (2 * n) * np.outer(v, v.conj())
    return rho / (8.0 * a.C**2)


def shared_terms(ox, a, cut):
    """The terms n = 0..n_max of the shared state rho = sum_n w_n |v_n><v_n|.

    Returns ``(amps, weights)``.  Rows 0..3 of ``amps`` hold the components
    of |v_n> on |0,n>, |1,n>, |0,n+1> and |1,n+1>:

        (eta_{+-}, eta_{--}, eta_{-+} s_n, eta_{++} s_n),  s_n = sqrt(n+1)/cosh r,

    and ``weights`` holds w_n = tanh^{2n} r / (8 cosh^2 r), from the library's
    own ``_shared_etas`` and ``_towers``.  Raises TruncationError when
    ``_towers`` refuses the cutoff for the state's ``_shared_weights``.
    """
    eta = _shared_etas(np.array([ox.xi]))
    weights = _towers(a, cut, _shared_weights(eta), "shared-state")[0]
    s = np.sqrt(np.arange(cut.n_max + 1) + 1.0) / a.C
    return eta[0][:, None] * np.vstack([np.ones((2, len(s))), s, s]), weights


# the stacked matrix units |i><j| of a qubit, (2, 2, 2, 2)
_UNITS = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)


def shared_block(xi, r):
    """S, the levels {0, 1} block of the shared state on (qubit, level) in
    {0, 1} x {0, 1}: w_0 |v_0><v_0| + w_1 |v_1'><v_1'|, with v_1' the level-1
    part of |v_1>:

        v_0 = (eta_{+-}, eta_{-+}/C, eta_{--}, eta_{++}/C),  w_0 = 1/(8 C^2),
        v_1' = (0, eta_{+-}, 0, eta_{--}),                    w_1 = t/(8 C^2),

    with C = cosh r and t = tanh^2 r (see ``channel.entangled_state``).
    """
    xi, a = _as_xi(xi).xi, _as_accel(r)
    s = 1.0 / a.C  # s_0 = sqrt(1)/cosh r, rounded as in channel._towers
    v0 = np.array([eta(xi, +1, -1), eta(xi, -1, +1) * s, eta(xi, -1, -1), eta(xi, +1, +1) * s])
    v1 = np.array([0.0, eta(xi, +1, -1), 0.0, eta(xi, -1, -1)])
    # t rounded as in channel._towers: exp(ln t) where |ln t| < 1, else tanh r squared
    t = float(np.exp(_log_t(a))) if a.T**2 > math.exp(-1.0) else a.T**2
    w0, w1 = 1.0 / (8.0 * a.C**2), t / (8.0 * a.C**2)
    return w0 * np.outer(v0, v0) + w1 * np.outer(v1, v1)


def channel_blocks(xi, r):
    """E[i, j] = top-left 2x2 block of the protocol channel on |i><j|: the
    generic route, the oracle for teleportation._fidelity_form.

    Only Fock levels {0, 1} of the output are read, and the receiver
    operations act as the identity above them, so the protocol is applied
    once, to the stacked matrix units, with the levels {0, 1} block of the
    shared state alone (``shared_block``).
    """
    shared = DenseOperator(shared_block(xi, r), (2, 2))
    return apply_protocol(build_protocol(schmidt_decompose(_as_xi(xi).xi)), shared, _UNITS)


_PAULIS = (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, -1j], [1j, 0.0]]), np.diag([1.0, -1.0]))


def best_frame_fidelity(xi, r):
    """The Haar-average fidelity of standard teleportation through S =
    ``shared_block(xi, r)``, at the best sender measurement frame and receiver
    correction: p/2 + tau/6, with p = tr S and tau the sum of the singular
    values of T_ij = tr(S sigma_i (x) sigma_j) where det T <= 0 (Horodecki,
    Horodecki & Horodecki, Phys. Lett. A 222, 21 (1996), for a normalised
    state; the weight p follows by linearity in S).  ValueError where
    det T > 0, where the optimum takes another form.
    """
    s = shared_block(xi, r)
    t = np.array([[np.trace(s @ np.kron(a, b)).real for b in _PAULIS] for a in _PAULIS])
    if np.linalg.det(t) > 0:
        raise ValueError(f"det T > 0 at xi = {xi}, r = {r}")
    return float(np.trace(s) / 2 + np.linalg.svd(t, compute_uv=False).sum() / 6)


def object_channel_blocks(etas, c, t, alice, rob):
    """channel_blocks on object arrays (sympy symbols or mpmath numbers).

    etas = (eta_{+-}, eta_{-+}, eta_{--}, eta_{++}), c = cosh r, t = tanh r,
    and alice and rob are real Schmidt bases as columns: build_protocol's
    kit and apply_protocol's contraction, on the levels {0, 1} block.
    """
    epm, emp, emm, epp = etas
    v0 = np.array([epm, emp / c, emm, epp / c], dtype=object)
    v1 = np.array([0, epm, 0, emm], dtype=object)
    rho4 = ((np.outer(v0, v0) + t**2 * np.outer(v1, v1)) / (8 * c**2)).reshape(2, 2, 2, 2)
    units = np.eye(4, dtype=int).astype(object).reshape(2, 2, 2, 2)
    kit = build_protocol(SchmidtDecomposition(None, alice, rob))
    e = 0
    for pi, b in zip(kit.povms, kit.local_ops):
        e = e + b @ np.einsum("qapc,ijpq,ckal->ijkl", pi.reshape(2, 2, 2, 2), units, rho4) @ b.T
    return e


def scatter_crop_channel_blocks(xi, r, cutoff):
    """The channel blocks built the long way: the terms |v_0> and |v_1> of the
    truncated tower scattered into a dense (2) x (3 levels) state, cropped to
    levels {0, 1}, and the protocol applied to one matrix unit at a time."""
    amps, weights = shared_terms(_as_xi(xi), _as_accel(r), cutoff)
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


def full_tower_blocks(xi, r, cut, schmidt=None):
    """The channel blocks E[i, j] from the protocol applied to the dense
    truncated state ``entangled_state(xi, r, cut)``, every Fock level kept,
    and cropped to levels {0, 1}; the kit is built from ``schmidt``,
    ``schmidt_decompose(xi)`` by default.  ``haar_average`` of them is the
    exact average fidelity."""
    kit = build_protocol(schmidt_decompose(xi) if schmidt is None else schmidt)
    return apply_protocol(kit, entangled_state(xi, r, cut), _UNITS)[..., :2, :2]


def run_protocol(input_state: Sequence[complex], xi, r, cutoff: FockCutoff | None = None) -> DenseOperator:
    """Teleport the pure state (alpha, beta); returns the receiver's state."""
    amps = np.asarray(input_state, dtype=complex)
    if amps.shape != (2,):
        raise ValueError(f"input state must have 2 amplitudes, got shape {amps.shape}")
    if abs(float(np.vdot(amps, amps).real) - 1.0) > 1e-10:
        raise ValueError("input amplitudes must be normalized")
    cut = _as_cutoff(cutoff, r)
    kit = build_protocol(schmidt_decompose(xi))
    shared = entangled_state(xi, r, cut)
    out = apply_protocol(kit, shared, np.outer(amps, amps.conj()))
    return DenseOperator(out, (cut.levels,))


# column c is vec(sigma_c / 2), in the (ij) order of E4, for sigma_0 = 1 and the Pauli x, y, z
PAULI_HALF = np.array([[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]]) / 2


def bloch_form(e):
    """Real 4x4 Q with <psi| sigma_R(|psi><psi|) |psi> = x^T Q x on x = (1, n).

    n is the Bloch vector of psi.  With E4 the channel blocks E[i, j][k, l]
    as a 4x4 matrix over the pairs (ij) and (kl), the fidelity is
    Re sum_b (w E4)_b conj(w)_b on w = vec(|psi><psi|), and
    rho = (1 + n.sigma)/2 gives w = T x with T = PAULI_HALF, so
    Q = Re(T^T E4 conj(T)).  Object arrays (sympy, mpmath) keep their
    complex entries: numpy's .real leaves them as they are.
    """
    return (PAULI_HALF.T @ e.reshape(4, 4) @ PAULI_HALF.conj()).real


def haar_average(e):
    """Haar average of the channel blocks E[i, j] = E(|i><j|) from the second
    moment integral P (x) P dmu = (I + SWAP)/6:

        f = ( sum_i Tr E_ii + sum_ij (E_ij)[i, j] ) / 6.
    """
    t1 = sum(np.trace(e[i, i]).real for i in range(2))
    t2 = sum(e[i, j][i, j].real for i in range(2) for j in range(2))
    return float((t1 + t2) / 6.0)


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


# Exact values in mpmath and sympy.


def exact_log_negativity_at_xi_zero(r, n_max, mp):
    """fig1 at xi = 0 from the 2x2-block closed form, in mpmath over the same
    truncation n = 0..n_max as the code.

    At xi = 0, eta_{--} = eta_{-+} = 0, so |v_n> = 2|0,n> + 2 s_n |1,n+1>.
    rho^Gamma then splits into the lone entry 4 w_0 on |0,0> and, for each m,
    the block on {|1,m>, |0,m+1>} with diagonal 4 w_{m-1} s_{m-1}^2 and
    4 w_{m+1} and off-diagonal 4 w_m s_m (w_n = 0 outside 0..n_max).  A real
    symmetric 2x2 block [[a, b], [b, c]] with a, c >= 0 has trace norm
    max(a + c, sqrt((a - c)^2 + 4 b^2)).
    """
    with mp.workdps(40):
        ch, th = mp.cosh(mp.mpf(r)), mp.tanh(mp.mpf(r))
        w = [th ** (2 * n) / (8 * ch**2) if n <= n_max else mp.mpf(0) for n in range(n_max + 3)]
        s2 = [(n + 1) / ch**2 for n in range(n_max + 3)]
        norm = 4 * w[0]
        for m in range(n_max + 2):  # w[-1] is 0: block 0 has no |1,0> diagonal
            a, b, c = 4 * w[m - 1] * s2[m - 1], 4 * w[m] * mp.sqrt(s2[m]), 4 * w[m + 1]
            norm += max(a + c, mp.sqrt((a - c) ** 2 + 4 * b**2))
        return float(mp.log(norm, 2))


def mp_log_negativity(xi, r, n_max, dps=40):
    """fig1 in mpmath at ``dps`` digits: log2 of the trace norm of rho^Gamma over the
    truncation n = 0..n_max, from the physics alone.

    |Psi> = sum_ab psi_ab |a>|b> with psi_ab = (<a|+><b|+> + <a|-><b|phi>)/sqrt2; Rob's
    |0> maps to sum_n c_n |n>_I |n>_II and |1> to sum_n d_n |n+1>_I |n>_II.  Tracing
    wedge II leaves rho = sum_n |u_n><u_n| with u_n = sum_a |a>(psi_a0 c_n |n> + psi_a1 d_n |n+1>),
    which is transposed on Alice's qubit and diagonalised with ``mpmath.eigsy``.  xi and r
    are read as the doubles they are (``mpf(0.6)``, not ``mpf('0.6')``).
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        xi, r = mpmath.mpf(xi), mpmath.mpf(r)
        h = 1 / mpmath.sqrt(2)
        plus, minus = (h, h), (h, -h)
        phi = (mpmath.sqrt((1 - xi) / 2), -mpmath.sqrt((1 + xi) / 2))
        psi = [[(plus[a] * plus[b] + minus[a] * phi[b]) * h for b in range(2)] for a in range(2)]
        ch, th = mpmath.cosh(r), mpmath.tanh(r)
        levels = n_max + 2
        pt = mpmath.zeros(2 * levels, 2 * levels)  # index a * levels + k: Alice's qubit a, Rob's level k
        for n in range(n_max + 1):
            c, d = th**n / ch, th**n * mpmath.sqrt(n + 1) / ch**2
            u = {(a, k): psi[a][b] * amp for a in range(2) for b, k, amp in ((0, n, c), (1, n + 1, d))}
            for (a, k), x in u.items():
                for (b, l), y in u.items():
                    pt[b * levels + k, a * levels + l] += x * y  # rho[(a k), (b l)], transposed on a
        return mpmath.log(sum(abs(e) for e in mpmath.eigsy(pt, eigvals_only=True)), 2)


def mp_bures_angle(xi, r, n_max, dps=50):
    """fig3 in mpmath at ``dps`` digits: the Bures angle between the wedge-I images of
    |+> and |phi> over the truncation n = 0..n_max, from the physics alone.

    Rob's a|0> + b|1> maps to sum_n |n>_II (a c_n |n>_I + b d_n |n+1>_I), with
    c_n = tanh^n r / cosh r and d_n = sqrt(n+1) tanh^n r / cosh^2 r, so its image is
    A A^T with column n of A equal to a c_n e_n + b d_n e_{n+1}.  The root fidelity of
    two such images is the sum of the singular values of M = A_+^T A_phi (Jozsa,
    J. Mod. Opt. 41, 2315 (1994)), taken with ``mpmath.svd_r``.  xi and r are read as
    the doubles they are.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        xi, r = mpmath.mpf(xi), mpmath.mpf(r)
        ch, th = mpmath.cosh(r), mpmath.tanh(r)
        h = 1 / mpmath.sqrt(2)

        def factor(a, b):
            m = mpmath.zeros(n_max + 2, n_max + 1)
            for n in range(n_max + 1):
                m[n, n] = a * th**n / ch
                m[n + 1, n] = b * th**n * mpmath.sqrt(n + 1) / ch**2
            return m

        m = factor(h, h).T * factor(mpmath.sqrt((1 - xi) / 2), -mpmath.sqrt((1 + xi) / 2))
        return mpmath.acos(sum(mpmath.svd_r(m, compute_uv=False)))


def mp_tower_angles(xis, r, n_max, dps=40):
    """fig3's band kernel fed with amplitude products rounded once: c_n^2, d_n^2
    and c_{n+1} d_n over n = 0..n_max in mpmath at ``dps`` digits, each rounded
    to the nearest double, then banded and solved as ``angle_sweep`` does.  The
    angles, one a value of ``xis``, differ from fig3's only by how fig3 rounds
    its ``_towers`` weights.  r is read as the double it is.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        ch, th = mpmath.cosh(mpmath.mpf(r)), mpmath.tanh(mpmath.mpf(r))
        c = [th**n / ch for n in range(n_max + 2)]
        d = [th**n * mpmath.sqrt(n + 1) / ch**2 for n in range(n_max + 1)]
        cc, dd, cd = (np.array([float(x) for x in v]) for v in (
            [x * x for x in c[:-1]], [x * x for x in d], [c[n + 1] * d[n] for n in range(n_max)]))
    h, a2, b2 = _encoding_amplitudes(np.asarray(xis, dtype=float))
    hu, hv = h * a2, h * b2
    fids = _lapack.band_sums(_lapack.tridiagonal_singular_values, n_max + 1, [
        (0, slice(1, None), hu, cd), (1, slice(None), hu, cc), (1, slice(None), hv, dd), (2, slice(0, -1), hv, cd)])
    return np.arccos(np.clip(fids, 0.0, 1.0))


def mp_fidelity_form(xi, r):
    """_fidelity_form's four entries in mpmath, at the working precision."""
    mpmath = pytest.importorskip("mpmath")
    xi, x = mpmath.mpf(xi), 1 / mpmath.cosh(mpmath.mpf(r))
    u, v = mpmath.sqrt(1 - xi), mpmath.sqrt(1 + xi)
    return ((2 - xi) * x**2 / 4 + xi * x**4 / 4,
            (u + v) * ((1 + u * v) * x**3 + (1 - u * v) * x**4) / 8,
            (u + v) * x**3 / 4,
            ((1 - u * v) * x**3 + (1 + u * v) * x**4) / 4)


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


def exact_curvature_jets(n, r):
    """``metric_cartesian``'s tensor at the Bloch vectors n (k, 3) with its
    exact derivatives: g (k, 3, 3), dg (k, 3, 3, 3) with dg[:, c] = d_c g and
    ddg (k, 3, 3, 3, 3) with ddg[:, a, b] = d_a d_b g.

    g = K [I + T^2 e_z e_z^T + f n n^T], K = 1/(4 C^4), f = u - T^2 w u^2,
    u = 1/(1 - n^2) and w = (1 + z)^2; the jets follow by the product rule
    from du = 2 n u^2, ddu = 2 I u^2 + 8 n n^T u^3 and the same for u^2 and w.
    """
    C, T2 = math.cosh(r), math.tanh(r) ** 2
    eye, ez = np.eye(3), np.eye(3)[2]
    u = (1.0 / (1.0 - np.einsum("ki,ki->k", n, n)))[:, None, None]
    nn = n[:, :, None] * n[:, None, :]
    du, ddu = 2.0 * n * u[:, 0] ** 2, 2.0 * eye * u**2 + 8.0 * nn * u**3
    u2, du2, ddu2 = u[:, :, 0] ** 2, 4.0 * n * u[:, 0] ** 3, 4.0 * eye * u**3 + 24.0 * nn * u**4
    w, dw, ddw = (1.0 + n[:, 2:]) ** 2, 2.0 * (1.0 + n[:, 2:]) * ez, 2.0 * np.outer(ez, ez)
    f = u[:, :, 0] - T2 * w * u2
    df = du - T2 * (dw * u2 + w * du2)
    ddf = ddu - T2 * (ddw * u2[:, :, None] + dw[:, :, None] * du2[:, None, :]
                      + du2[:, :, None] * dw[:, None, :] + w[:, :, None] * ddu2)
    # n n^T: d_c (n n^T) = e_c n^T + n e_c^T, d_a d_b (n n^T) = e_a e_b^T + e_b e_a^T
    dnn = np.einsum("ci,kj->kcij", eye, n) + np.einsum("ki,cj->kcij", n, eye)
    ddnn = np.einsum("ai,bj->abij", eye, eye) + np.einsum("bi,aj->abij", eye, eye)
    g = eye + T2 * np.outer(ez, ez) + f[:, :, None] * nn
    dg = df[:, :, None, None] * nn[:, None] + f[:, :, None, None] * dnn
    ddg = (ddf[:, :, :, None, None] * nn[:, None, None] + f[:, :, None, None, None] * ddnn
           + df[:, :, None, None, None] * dnn[:, None] + df[:, None, :, None, None] * dnn[:, :, None])
    return tuple(x / (4.0 * C**4) for x in (g, dg, ddg))


def bloch_of_polar(xi_c, theta, phi=0.5):
    """Bloch vectors (k, 3) at the polar points of the arrays xi_c, theta (k,)."""
    st = np.sin(theta)
    return xi_c[:, None] * np.stack([st * math.cos(phi), st * math.sin(phi), np.cos(theta)], axis=1)


def exact_scalar_curvature(xi_c, theta, r, phi=0.5):
    """Scalar curvature (k,) of the Cartesian closed form from its exact jets
    at the polar points; R is a scalar, so the Cartesian value is the polar one."""
    return geometry._scalar_curvature(*exact_curvature_jets(bloch_of_polar(xi_c, theta, phi), r))
