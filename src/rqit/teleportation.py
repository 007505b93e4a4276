"""Schmidt-basis teleportation through the accelerated shared state.

The inertial parties prepare |Psi> = (|+>|+> + |->|phi>)/sqrt2, write it in
the Schmidt basis sum_i lambda_i |phi_i>|theta_i>, and use the protocol that
is optimal for that state: four Bell-type POVMs on the sender's qubit pair,

    Pi^1..4 = chi[(|0>|phi_i> +/- |1>|phi_j>)/sqrt2],

and four conditional 2x2 receiver corrections B^1..4 mapping the Schmidt
basis {|theta_i>} onto the computational one, applied on Fock levels
{0, 1} of the receiver's wedge-I tower as B (+) 1.  The same (acceleration
independent) protocol is then driven with the accelerated shared state.

The average fidelity over Haar-random pure inputs |psi> = U|+> is the
sphere average of a real quadratic form x^T Q x on x = (1, n), n the Bloch
vector of psi, computed two ways: Monte Carlo over n with counter-based
sampling (Philox; sample k reads two of the four uniform doubles of counter
step k, so any chunked or parallel schedule reproduces identical values),
and exactly, as Q00 + tr Q_nn / 3 (<n> = 0 and <n n^T> = 1/3).  Q is
diagonal, identically in eta, cosh r and tanh r, so a sample needs only n_z
and the azimuth.

Both averages read the receiver's output on Fock levels {0, 1} only.  Each
receiver operation is B (+) 1, so that block depends only on the levels
{0, 1} block of the shared state, to which only the terms |v_0> and |v_1>
contribute, with weights 1/(8 cosh^2 r) and tanh^2 r/(8 cosh^2 r).  The
averages therefore contract a closed-form 4x4 block that is exact for any
Fock cutoff: they take none and run no truncation check, and hold up to
channel.MAX_R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import FockCutoff, _as_accel, _as_cutoff, _as_xi, entangled_state
from .errors import NumericError, SizeError
from .linalg import DenseOperator, check_budget

_SQRT2 = math.sqrt(2.0)
# column c is vec(sigma_c / 2), in the (ij) order of E4, for sigma_0 = 1 and the Pauli x, y, z
_PAULI_HALF = np.array([[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]]) / 2
# Largest work a fidelity_sweep may take, in samples: about 8-12 s at
# 0.08-0.12 us a sample on a 2-core x86 host.  Each xi point counts its
# samples plus MC_POINT_CHARGE for its fixed work (one channel build and the
# sampling set-up, 0.4-0.7 ms a point there); both values date from slower
# samplers and are kept, so that the runs they admit stay the same.  The
# default fig2 run counts 96 x 203 000.
MC_WORK_BOUND = 10**8
MC_POINT_CHARGE = 3000
# Monte-Carlo samples drawn at a time: the sampling temporaries stay cache-sized.
# Each chunk is also one _ExactSum.add, which is exact for at most 2**26 values.
MC_CHUNK = 8_192
# Largest array _ExactSum.add takes: 2**26 halves of magnitude <= 2**27 sum exactly in doubles.
_EXACT_CHUNK = 2**26


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data of the inertial shared state.

    lambdas are sorted descending; alice_basis / rob_basis hold the Schmidt
    vectors as columns.  Phase convention: lambdas real non-negative and the
    first nonzero component of each sender vector real positive, making the
    downstream protocol construction deterministic.
    """

    lambdas: np.ndarray
    alice_basis: np.ndarray
    rob_basis: np.ndarray

    @property
    def lambda0(self) -> float:
        return float(self.lambdas[0])

    @property
    def lambda1(self) -> float:
        return float(self.lambdas[1])

    def state_vector(self) -> np.ndarray:
        """Reconstruction sum_i lambda_i |phi_i>|theta_i> on (2) x (2)."""
        out = np.zeros(4, dtype=complex)
        for i in range(2):
            out += self.lambdas[i] * np.kron(self.alice_basis[:, i], self.rob_basis[:, i])
        return out


def shared_state_vector(xi) -> np.ndarray:
    """|Psi> = (|+>|+> + |->|phi>)/sqrt2 on the two inertial qubits."""
    ox = _as_xi(xi)
    plus = ox.plus_state()
    minus = np.array([1.0, -1.0], dtype=complex) / _SQRT2
    return (np.kron(plus, plus) + np.kron(minus, ox.phi_state())) / _SQRT2


def schmidt_decompose(xi) -> SchmidtDecomposition:
    """Schmidt decomposition of the inertial shared state.

    The coefficients obey lambda_{0,1} = sqrt((1 +/- |<+|phi>|)/2).
    """
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


def fidelity_bound(xi) -> float:
    """(lambda0 + lambda1)/sqrt2, the maximal-entangled-overlap bound.

    This is an upper bound on the average fidelity; the protocol attains it
    only at xi = 0.  At zero acceleration the protocol's exact average is
    (2 + 2 lambda0 lambda1)/3, the optimum for the shared state, which sits
    strictly below the bound for xi > 0.
    """
    sd = schmidt_decompose(xi)
    return (sd.lambda0 + sd.lambda1) / _SQRT2


@dataclass(frozen=True)
class ProtocolKit:
    """POVMs on the sender's qubit pair and 2x2 receiver corrections."""

    povms: tuple[np.ndarray, ...]
    local_ops: tuple[np.ndarray, ...]


def build_protocol(schmidt: SchmidtDecomposition) -> ProtocolKit:
    """Assemble the four POVMs and the four receiver corrections.

    The POVM vectors are (a_0, +/-a_1) and (a_1, +/-a_0), the sender's
    Schmidt vectors stacked, with the 1/sqrt2 normalization that makes
    sum_i Pi^i = 1_4 exact.  The corrections stack the rows <theta_0| and
    <theta_1| as (t_0, t_1), (t_0, -t_1), (t_1, t_0) and (-t_1, t_0): each
    maps the Schmidt basis onto the computational one, up to a Pauli.
    """
    a0, a1 = schmidt.alice_basis.T
    t0, t1 = schmidt.rob_basis.conj().T
    vecs = (
        np.concatenate([a0, a1]),
        np.concatenate([a0, -a1]),
        np.concatenate([a1, a0]),
        np.concatenate([a1, -a0]),
    )
    povms = tuple(np.outer(v, v.conj()) / 2.0 for v in vecs)
    ops = (np.stack([t0, t1]), np.stack([t0, -t1]), np.stack([t1, t0]), np.stack([-t1, t0]))
    return ProtocolKit(povms, ops)


def apply_protocol(kit: ProtocolKit, shared: DenseOperator, input_op: np.ndarray) -> np.ndarray:
    """Receiver output sum_i B_i Tr_QA[(Pi^i (x) 1)(X (x) rho_AR)] B_i^dag.

    ``input_op`` is any 2x2 operator on the teleported qubit (the map is
    linear, so matrix units are valid inputs), or a stack of them of shape
    (..., 2, 2), which gives the stack of outputs (..., levels, levels);
    ``shared`` lives on (2) x (levels), levels >= 2.  The sender-side
    sandwich contracts to

        M_kl = sum P_{(qa),(pc)} X_{pq} rho_{(ck),(al)}

    without ever forming the 4*levels joint matrix.  Each correction B_i
    acts on rows and columns {0, 1} of M, as the identity on the rest.
    """
    tag = shared.space_tag
    if len(tag) != 2 or tag[0] != 2 or tag[1] < 2:
        raise ValueError(f"shared state tag {tag} is not (2, levels) with levels >= 2")
    nlev = tag[1]
    rho4 = shared.entries.reshape(2, nlev, 2, nlev)
    out = np.zeros(input_op.shape[:-2] + (nlev, nlev), dtype=complex)
    for pi, b in zip(kit.povms, kit.local_ops):
        cond = np.einsum("qapc,...pq,ckal->...kl", pi.reshape(2, 2, 2, 2), input_op, rho4)
        cond[..., :2, :] = b @ cond[..., :2, :]
        cond[..., :2] = cond[..., :2] @ b.conj().T
        out += cond
    return out


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


def _channel_blocks(xi, r) -> np.ndarray:
    """E[i, j] = top-left 2x2 block of the protocol channel on |i><j|.

    Only Fock levels {0, 1} of the output are read, and the receiver
    operations act as the identity above them, so the protocol is applied
    once, to the stacked matrix units, with the levels {0, 1} block of the
    shared state alone.  On (qubit, level) in {0, 1} x {0, 1} that block is
    w_0 |v_0><v_0| + w_1 |v_1'><v_1'|, with v_1' the level-1 part of |v_1>:

        v_0 = (eta_{+-}, eta_{-+}/C, eta_{--}, eta_{++}/C),  w_0 = 1/(8 C^2),
        v_1' = (0, eta_{+-}, 0, eta_{--}),                    w_1 = T^2/(8 C^2),

    with C = cosh r and T = tanh r (see ``channel.entangled_state``).
    """
    ox, a = _as_xi(xi), _as_accel(r)
    s = 1.0 / a.C  # s_0 = sqrt(1)/cosh r, rounded as in channel._shared_terms
    v0 = np.array([ox.eta(+1, -1), ox.eta(-1, +1) * s, ox.eta(-1, -1), ox.eta(+1, +1) * s])
    v1 = np.array([0.0, ox.eta(+1, -1), 0.0, ox.eta(-1, -1)])
    w0, w1 = 1.0 / (8.0 * a.C**2), a.T**2 / (8.0 * a.C**2)
    shared = DenseOperator(w0 * np.outer(v0, v0) + w1 * np.outer(v1, v1), (2, 2))
    units = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)
    return apply_protocol(build_protocol(schmidt_decompose(xi)), shared, units)


def average_fidelity_exact(xi, r) -> float:
    """Exact Haar average of <psi| sigma_R(|psi><psi|) |psi>: the sphere
    average of the Monte-Carlo form x^T Q x (``_sphere_average``)."""
    return _sphere_average(_bloch_form(_channel_blocks(xi, r)))


def haar_qubit_unitaries(samples: int, seed: int, start: int = 0) -> np.ndarray:
    """Haar 2x2 unitaries from a counter-based stream.

    Sample k (global index start + k) is built from the eight uniform
    doubles at offset 8(start + k) of the Philox stream keyed by ``seed``:
    Box-Muller gives a complex Ginibre 2x2 draw, and Gram-Schmidt with
    positive-diagonal R (the QR normalization that yields Haar measure)
    unitarizes it.  Monte Carlo needs only n_z and the azimuth of the Bloch
    vector of U|+>, which ``_draw_form_values`` draws directly; the tests use
    this as its reference.
    """
    u = _philox(seed, 2 * start).random((samples, 8))
    rad = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    ang = 2.0 * np.pi * u[:, 1::2]
    z = np.empty((samples, 4), dtype=complex)
    np.multiply(rad, np.cos(ang), out=z.real)
    np.multiply(rad, np.sin(ang), out=z.imag)
    zm = z.reshape(samples, 2, 2)
    c0, c1 = zm[:, :, 0], zm[:, :, 1]
    q0 = c0 / np.linalg.norm(c0, axis=1)[:, None]
    v = c1 - np.einsum("si,si->s", q0.conj(), c1)[:, None] * q0
    q1 = v / np.linalg.norm(v, axis=1)[:, None]
    return np.stack([q0, q1], axis=2)


@dataclass(frozen=True)
class FidelityEstimate:
    """Monte-Carlo average fidelity; ``exact`` is the exact Haar average of the
    same channel, bit for bit ``average_fidelity_exact`` at the same inputs."""

    mean: float
    std_error: float
    samples: int
    seed: int
    exact: float


def _philox(seed: int, step: int = 0) -> np.random.Generator:
    """Generator on the Philox-4x64 stream keyed by ``seed``, at counter step
    ``step``; one counter step yields four uniform doubles."""
    bit = np.random.Philox(key=seed)
    bit.advance(step)
    return np.random.Generator(bit)


def _bloch_form(e: np.ndarray) -> np.ndarray:
    """Real 4x4 Q with <psi| sigma_R(|psi><psi|) |psi> = x^T Q x on x = (1, n).

    n is the Bloch vector of psi.  With E4 the channel blocks E[i, j][k, l]
    as a 4x4 matrix over the pairs (ij) and (kl), the fidelity is
    Re sum_b (w E4)_b conj(w)_b on w = vec(|psi><psi|), and
    rho = (1 + n.sigma)/2 gives w = T x with T = _PAULI_HALF, so
    Q = Re(T^T E4 conj(T)).
    """
    return (_PAULI_HALF.T @ e.reshape(4, 4) @ _PAULI_HALF.conj()).real


def _sphere_average(q: np.ndarray) -> float:
    """Average of x^T Q x, x = (1, n), over n uniform on the sphere:
    <n> = 0 and <n n^T> = 1/3 leave Q00 + tr Q_nn / 3."""
    return float(q[0, 0] + np.trace(q[1:, 1:]) / 3.0)


def _draw_form_values(q: np.ndarray, stream: np.random.Generator, out: np.ndarray) -> None:
    """x^T Q x, Q diagonal, at the next ``out.size`` Bloch vectors of ``stream``,
    into ``out``: Q00 + Qzz z^2 + (1 - z)(1 + z)(Qyy + (Qxx - Qyy) cos^2 phi),
    z = 2 u0 - 1 and phi = 2 pi u1 from the first two doubles of a sample's
    counter step (Archimedes: z is uniform on [-1, 1]).  Draws continue the stream.
    """
    q00, qxx, qyy, qzz = np.diagonal(q).tolist()
    u = stream.random((out.size, 4))
    z = u[:, 0] * 2.0
    z -= 1.0
    c = u[:, 1] * (2.0 * np.pi)
    np.cos(c, out=c)
    c *= c
    c *= qxx - qyy
    c += qyy
    s = 1.0 - z
    np.add(z, 1.0, out=out)
    s *= out  # n_x^2 + n_y^2
    c *= s
    np.multiply(z, z, out=out)
    out *= qzz
    out += q00
    out += c


def average_fidelity_mc(
    xi,
    r,
    samples: int = 200_000,
    seed: int = 0,
) -> FidelityEstimate:
    """Monte-Carlo Haar average over |psi> = U|+>.

    For Haar U the Bloch vector n of U|+> is uniform on the sphere, and the
    fidelity <psi| sigma_R(|psi><psi|) |psi> is x^T Q x on x = (1, n), with Q
    built once per call (``_bloch_form``) and checked diagonal to 8 eps
    max|Q| (else NumericError), so a sample needs only n_z and the azimuth
    (``_draw_form_values``).

    Samples are drawn ``MC_CHUNK`` at a time from one Philox stream, which
    bounds the working memory and never changes a result: sample k always
    consumes counter step k.  The per-sample values are kept at 8 bytes a
    sample.  The mean and the variance are exact sums of them and of the
    squared deviations (``_ExactSum``), each rounded once, so they are the
    correctly rounded sums that math.fsum gives, whatever the chunking.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    q = _bloch_form(_channel_blocks(xi, r))
    if np.abs(q - np.diag(np.diagonal(q))).max() > 8 * np.finfo(float).eps * np.abs(q).max():
        raise NumericError("the Bloch form of the fidelity is not diagonal, as the sampler needs")
    check_budget((samples,), float, "Monte-Carlo overlaps")
    values = np.empty(samples)
    spans = range(0, samples, MC_CHUNK)
    stream = _philox(seed)
    total = _ExactSum()
    for start in spans:
        chunk = values[start:start + MC_CHUNK]
        _draw_form_values(q, stream, chunk)
        total.add(chunk)
    mean = total.value() / samples
    if samples > 1:
        squares = _ExactSum()
        for start in spans:
            d = values[start:start + MC_CHUNK]
            d -= mean
            d *= d  # squared deviations, in place
            squares.add(d)
        var = squares.value() / (samples - 1)
        std_error = math.sqrt(var / samples)
    else:
        std_error = 0.0
    return FidelityEstimate(mean, std_error, samples, seed, _sphere_average(q))


class _ExactSum:
    """Exact running sum of float64 arrays; ``value()`` rounds it once.

    ``np.frexp`` writes a finite double as f 2^e, with f = 0 or
    0.5 <= |f| < 1, so it is M 2^(e - 53) with M = f 2^53 an integer below
    2^53 in magnitude (subnormals included: e >= -1073).  ``add`` splits M
    into H = floor(f 2^27) and L = (f 2^27 - H) 2^26 in [0, 2^26) and sums
    both by e with ``np.bincount``: for at most 2^26 values every partial sum
    is an integer of magnitude at most 2^53, so the double sums are exact.
    The bins are kept as int64 (each grows by at most 2^27 a value, so they
    hold 2^36 values), bin k holding e = k - 1074.  ``value()``
    shifts them into one Python int N = sum_k (H_k 2^26 + L_k) 2^k and
    returns N / 2^1127, which Python rounds correctly: the same double that
    math.fsum gives for the same values, in any order and chunking.
    """

    def __init__(self) -> None:
        self._hi = np.zeros(1074 + 1025, dtype=np.int64)
        self._lo = np.zeros(1074 + 1025, dtype=np.int64)

    def add(self, x: np.ndarray) -> None:
        """Add the values of the float64 array ``x``; NumericError on an
        infinity or a NaN, which no bin could hold."""
        if x.size > _EXACT_CHUNK:
            raise ValueError(f"an exact sum takes at most {_EXACT_CHUNK} values at a time, got {x.size}")
        if not x.size:
            return
        f, e = np.frexp(x)
        low, top = int(e.min()), int(e.max())
        e -= low  # bins from the smallest exponent on: as many as the chunk spans
        t = f * 2.0**27
        hi = np.floor(t)
        hi_bins = np.bincount(e, weights=hi)
        if not np.isfinite(hi_bins).all():
            raise NumericError("a Monte-Carlo sum met an infinity or a NaN")
        t -= hi
        t *= 2.0**26
        self._hi[low + 1074:top + 1075] += hi_bins.astype(np.int64)
        self._lo[low + 1074:top + 1075] += np.bincount(e, weights=t).astype(np.int64)

    def value(self) -> float:
        """The sum of every value added so far, correctly rounded."""
        used = np.flatnonzero(self._hi | self._lo)
        n = 0
        for k, hi, lo in zip(used.tolist(), self._hi[used].tolist(), self._lo[used].tolist()):
            n += ((hi << 26) + lo) << k
        return n / (1 << 1127)


@dataclass(frozen=True)
class FidelityResult:
    xi: float
    r: float
    fidelity_mc: float
    std_err: float
    fidelity_exact: float


def fidelity_sweep(
    r, xi_grid: Sequence[float], samples: int = 200_000, seed: int = 0
) -> list[FidelityResult]:
    """One FidelityResult per grid point, in grid order: Monte Carlo and exact.

    Point i is one ``average_fidelity_mc`` call, seeded from
    ``SeedSequence((seed, i))``, whose one channel build also gives the exact
    average.  (samples + MC_POINT_CHARGE) x points is checked against
    MC_WORK_BOUND before anything is built (``SizeError``).
    """
    if (samples + MC_POINT_CHARGE) * len(xi_grid) > MC_WORK_BOUND:
        raise SizeError(f"fig2 needs (samples + {MC_POINT_CHARGE}) x points = "
                        f"{samples + MC_POINT_CHARGE} x {len(xi_grid)}, "
                        f"over the Monte-Carlo work bound of {MC_WORK_BOUND:.3g}")
    a = _as_accel(r)
    out = []
    for i, xi in enumerate(xi_grid):
        sub = int(np.random.SeedSequence((seed, i)).generate_state(1, dtype=np.uint64)[0])
        est = average_fidelity_mc(xi, a, samples=samples, seed=sub)
        out.append(FidelityResult(float(xi), a.r, est.mean, est.std_error, est.exact))
    return out
