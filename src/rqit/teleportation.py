"""Schmidt-basis teleportation through the accelerated shared state.

The inertial parties prepare |Psi> = (|+>|+> + |->|phi>)/sqrt2, write it in
the Schmidt basis sum_i lambda_i |phi_i>|theta_i>, and use the protocol that
is optimal for that state: four Bell-type POVMs on the sender's qubit pair,

    Pi^1..4 = chi[(|0>|phi_i> +/- |1>|phi_j>)/sqrt2],

and four conditional receiver operations B^1..4 mapping the Schmidt basis
{|theta_i>} onto the computational one, extended as B (+) 1 on Fock levels
>= 2 of the receiver's wedge-I tower.  The same (acceleration independent)
protocol is then driven with the accelerated shared state.

The average fidelity over Haar-random pure inputs |psi> = U|+> is computed
two ways: Monte Carlo with counter-based sampling (Philox; sample k consumes
the eight uniform doubles at stream offset 8k, so any chunked or parallel
schedule reproduces identical values), and exactly, by evaluating the
protocol channel on the four matrix units and contracting with the Haar
second moment  integral P (x) P dmu = (I + SWAP)/6.

Both averages read the receiver's output on Fock levels {0, 1} only.  Each
receiver operation is B (+) 1, so that block depends only on the levels
{0, 1} block of the shared state, to which only the terms |v_0> and |v_1>
contribute.  The averages therefore contract a 4x4 block instead of the
full state, and neither their cost nor their memory grows with the cutoff:
the truncation check on the shared state is a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .channel import (
    FockCutoff,
    _as_accel,
    _as_cutoff,
    _as_xi,
    _shared_terms,
    entangled_state,
)
from .errors import SizeError
from .linalg import DenseOperator, check_budget

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2
# Largest work a fidelity_sweep may take, in samples: about 65-95 s at
# 0.64-0.94 us a sample on a 2-core x86 host.  Each xi point counts its
# samples plus MC_POINT_CHARGE for its fixed work (one channel build and the
# sampling set-up), measured there at 0.5-0.7 ms a point, so the charge
# over-counts it.  The default fig2 run counts 96 x 203 000.
MC_WORK_BOUND = 10**8
MC_POINT_CHARGE = 3000


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
    """POVMs on the sender's qubit pair and extended receiver operations."""

    povms: tuple[np.ndarray, ...]
    local_ops: tuple[np.ndarray, ...]
    schmidt: SchmidtDecomposition
    levels: int


def build_protocol(schmidt: SchmidtDecomposition, cutoff: FockCutoff) -> ProtocolKit:
    """Assemble the four POVMs and the four B (+) 1 receiver operations.

    The POVM vectors carry the 1/sqrt2 normalization that makes
    sum_i Pi^i = 1_4 exact; each receiver operation acts as a unitary on
    Fock levels {0, 1} and as the identity above.
    """
    return _protocol_kit(schmidt, cutoff.levels)


def _protocol_kit(schmidt: SchmidtDecomposition, levels: int) -> ProtocolKit:
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    a0, a1 = schmidt.alice_basis[:, 0], schmidt.alice_basis[:, 1]
    t0, t1 = schmidt.rob_basis[:, 0], schmidt.rob_basis[:, 1]
    vecs = (
        np.kron(e0, a0) + np.kron(e1, a1),
        np.kron(e0, a0) - np.kron(e1, a1),
        np.kron(e0, a1) + np.kron(e1, a0),
        np.kron(e0, a1) - np.kron(e1, a0),
    )
    povms = tuple(np.outer(v, v.conj()) / 2.0 for v in vecs)
    small = (
        np.outer(e0, t0.conj()) + np.outer(e1, t1.conj()),
        np.outer(e0, t0.conj()) - np.outer(e1, t1.conj()),
        np.outer(e1, t0.conj()) + np.outer(e0, t1.conj()),
        np.outer(e1, t0.conj()) - np.outer(e0, t1.conj()),
    )
    ops = []
    for b in small:
        big = np.eye(levels, dtype=complex)
        big[:2, :2] = b
        ops.append(big)
    return ProtocolKit(povms, tuple(ops), schmidt, levels)


def apply_protocol(kit: ProtocolKit, shared: DenseOperator, input_op: np.ndarray) -> np.ndarray:
    """Receiver output sum_i B_i Tr_QA[(Pi^i (x) 1)(X (x) rho_AR)] B_i^dag.

    ``input_op`` is any 2x2 operator on the teleported qubit (the map is
    linear, so matrix units are valid inputs), or a stack of them of shape
    (..., 2, 2), which gives the stack of outputs (..., levels, levels);
    ``shared`` lives on (2) x (levels).  The sender-side sandwich contracts to

        M_kl = sum P_{(qa),(pc)} X_{pq} rho_{(ck),(al)}

    without ever forming the 4*levels joint matrix.
    """
    nlev = kit.levels
    if shared.space_tag != (2, nlev):
        raise ValueError(f"shared state tag {shared.space_tag} does not match (2, {nlev})")
    rho4 = shared.entries.reshape(2, nlev, 2, nlev)
    out = np.zeros(input_op.shape[:-2] + (nlev, nlev), dtype=complex)
    for pi, bop in zip(kit.povms, kit.local_ops):
        p4 = pi.reshape(2, 2, 2, 2)
        cond = np.einsum("qapc,...pq,ckal->...kl", p4, input_op, rho4)
        out += bop @ cond @ bop.conj().T
    return out


def run_protocol(input_state: Sequence[complex], xi, r, cutoff: FockCutoff | None = None) -> DenseOperator:
    """Teleport the pure state (alpha, beta); returns the receiver's state."""
    amps = np.asarray(input_state, dtype=complex)
    if amps.shape != (2,):
        raise ValueError(f"input state must have 2 amplitudes, got shape {amps.shape}")
    if abs(float(np.vdot(amps, amps).real) - 1.0) > 1e-10:
        raise ValueError("input amplitudes must be normalized")
    cut = _as_cutoff(cutoff, r)
    kit = build_protocol(schmidt_decompose(xi), cut)
    shared = entangled_state(xi, r, cut)
    out = apply_protocol(kit, shared, np.outer(amps, amps.conj()))
    return DenseOperator(out, (cut.levels,))


def _channel_blocks(xi, r, cutoff: FockCutoff) -> np.ndarray:
    """E[i, j] = top-left 2x2 block of the protocol channel on |i><j|.

    Only Fock levels {0, 1} of the output are read, and the receiver
    operations act as the identity above them, so the protocol is applied
    once, to the stacked matrix units, with the levels {0, 1} block of the
    shared state alone.  On (qubit, level) in {0, 1} x {0, 1} that block is
    w_0 |v_0><v_0| plus w_1 times the level-1 part of |v_1>; only those two
    terms are built, and the closed-form truncation check still covers
    every term up to the cutoff.
    """
    amps, (w0, w1) = _shared_terms(_as_xi(xi), _as_accel(r), cutoff, count=2)
    v0 = amps[[0, 2, 1, 3], 0]
    v1 = np.array([0.0, amps[0, 1], 0.0, amps[1, 1]])
    shared = DenseOperator(w0 * np.outer(v0, v0) + w1 * np.outer(v1, v1), (2, 2))
    units = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)
    return apply_protocol(_protocol_kit(schmidt_decompose(xi), 2), shared, units)


def average_fidelity_exact(xi, r, cutoff: FockCutoff | None = None) -> float:
    """Exact Haar average of <psi| sigma_R(|psi><psi|) |psi>.

    With E_ij the channel on matrix units and the second moment
    integral P (x) P dmu = (I + SWAP)/6:

        f = ( sum_i Tr E_ii + sum_ij (E_ij)[i, j] ) / 6.
    """
    return _haar_average(_channel_blocks(xi, r, _as_cutoff(cutoff, r)))


def _haar_average(e: np.ndarray) -> float:
    t1 = sum(np.trace(e[i, i]).real for i in range(2))
    t2 = sum(e[i, j][i, j].real for i in range(2) for j in range(2))
    return (t1 + t2) / 6.0


def haar_qubit_unitaries(samples: int, seed: int, start: int = 0) -> np.ndarray:
    """Haar 2x2 unitaries from a counter-based stream.

    Sample k (global index start + k) is built from the eight uniform
    doubles at offset 8(start + k) of the Philox stream keyed by ``seed``:
    Box-Muller gives a complex Ginibre 2x2 draw, and Gram-Schmidt with
    positive-diagonal R (the QR normalization that yields Haar measure)
    unitarizes it.
    """
    bit = np.random.Philox(key=seed)
    if start:
        bit.advance(2 * start)  # one counter step of Philox-4x64 yields 4 doubles
    u = np.random.Generator(bit).random((samples, 8))
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


def _plus_overlaps(us: np.ndarray, e4: np.ndarray) -> np.ndarray:
    """<psi| sigma_R(|psi><psi|) |psi> for psi = U|+>, one per unitary in ``us``.

    ``e4`` holds the channel blocks as a 4x4 matrix: E[i, j][k, l] at row
    (ij) and column (kl).
    """
    psi = us[:, :, 0] * _INV_SQRT2 + us[:, :, 1] * _INV_SQRT2  # U|+>, rounded as us @ |+>
    w = np.multiply(psi[:, :, None], psi.conj()[:, None, :]).reshape(len(us), 4)
    return np.einsum("sb,sb->s", w @ e4, w.conj()).real


def average_fidelity_mc(
    xi,
    r,
    cutoff: FockCutoff | None = None,
    samples: int = 200_000,
    seed: int = 0,
    chunk: int = 8_192,
) -> FidelityEstimate:
    """Monte-Carlo Haar average over |psi> = U|+>.

    With w = psi (x) conj(psi) as a 4-vector and E4 the channel blocks
    E[i, j][k, l] as a 4x4 matrix over the pairs (ij) and (kl), each
    sample's fidelity <psi| sigma_R(|psi><psi|) |psi> is the quadratic form
    Re sum_b (w E4)_b conj(w)_b.

    Samples are drawn ``chunk`` at a time, so ``chunk`` bounds the working
    memory of the sampling and the contraction; it never changes a result.
    Sample k always consumes the same stream segment, and the mean and the
    variance are correctly rounded sums (math.fsum) of the per-sample
    overlaps, which are kept at 8 bytes a sample.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    cut = _as_cutoff(cutoff, r)
    e = _channel_blocks(xi, r, cut)
    e4 = e.reshape(4, 4)
    check_budget((samples,), float, "Monte-Carlo overlaps")
    values = np.empty(samples)
    spans = range(0, samples, chunk)
    for start in spans:
        m = min(chunk, samples - start)
        values[start:start + m] = _plus_overlaps(haar_qubit_unitaries(m, seed, start=start), e4)

    def chunked_floats():
        return chain.from_iterable(values[a:a + chunk].tolist() for a in spans)

    mean = math.fsum(chunked_floats()) / samples
    if samples > 1:
        values -= mean
        values *= values  # squared deviations, in place
        var = math.fsum(chunked_floats()) / (samples - 1)
        std_error = math.sqrt(var / samples)
    else:
        std_error = 0.0
    return FidelityEstimate(mean, std_error, samples, seed, _haar_average(e))


@dataclass(frozen=True)
class FidelityResult:
    xi: float
    r: float
    fidelity_mc: float
    std_err: float
    fidelity_exact: float


def fidelity_sweep(
    r, xi_grid: Sequence[float], cutoff: FockCutoff | None = None, samples: int = 200_000, seed: int = 0
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
    cut = _as_cutoff(cutoff, a)
    out = []
    for i, xi in enumerate(xi_grid):
        sub = int(np.random.SeedSequence((seed, i)).generate_state(1, dtype=np.uint64)[0])
        est = average_fidelity_mc(xi, a, cut, samples=samples, seed=sub)
        out.append(FidelityResult(float(xi), a.r, est.mean, est.std_error, est.exact))
    return out
