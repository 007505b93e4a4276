"""Schmidt-basis teleportation through the accelerated shared state.

The inertial parties prepare |Psi> = (|+>|+> + |->|phi>)/sqrt2, write it in
the Schmidt basis sum_i lambda_i |phi_i>|theta_i> (in closed form: the sender
vectors are |1>, |0> at every xi, ``schmidt_decompose``), and use the protocol
that is optimal for that state: four Bell-type POVMs on the sender's qubit pair,

    Pi^1..4 = chi[(|0>|phi_i> +/- |1>|phi_j>)/sqrt2],

and four conditional 2x2 receiver corrections B^1..4 mapping the Schmidt
basis {|theta_i>} onto the computational one, applied on Fock levels
{0, 1} of the receiver's wedge-I tower as B (+) 1.  The same (acceleration
independent) protocol is then driven with the accelerated shared state.

The average fidelity over Haar-random pure inputs |psi> = U|+> is the
sphere average of a real quadratic form x^T Q x on x = (1, n), n the Bloch
vector of psi.  Q is diagonal, in closed form (``_fidelity_form``): the
fidelity reads the receiver's Fock levels {0, 1} only, which depend only on
the levels {0, 1} block of the shared state, so the averages take no Fock
cutoff and hold up to channel.MAX_R.  The exact average, with the standard
deviation sigma of one sample beside it, is one array expression over a xi
grid (``_fidelity_columns``).  Monte Carlo, on request, samples n from one
counter-based stream a sweep (Philox; sample k reads doubles 2k and 2k + 1 of
the stream, so any chunked or parallel schedule reproduces identical values),
and every xi point evaluates its own form on those samples (``_mc_moments``).
The tests keep the generic route (the 4x4 channel block contracted with the
POVMs and corrections, then changed to the Pauli basis) as the oracle for Q.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .channel import _as_accel, _as_xi, _encoding_amplitudes, _xi_array
from .errors import NumericError, SizeError
from .linalg import DenseOperator, check_budget

_SQRT2 = math.sqrt(2.0)
# Largest work a fidelity_sweep may take, in samples: each xi point counts its
# samples plus MC_POINT_CHARGE for its fixed work.  On a 2-core x86 host a
# sample costs 0.016-0.018 us a point on a grid, which shares the draw (96 and
# 1000 points), so the bound is about 2 s there, and 0.065 us on one point,
# where the memory budget stops a run first, near 67 million samples (4.4 s);
# a point's fixed work is 0.025 ms there (30 000 points at one sample).  Both
# values date from slower code and are kept, so that the runs they admit stay
# the same.  fig2 at --samples 200000 on its default grid counts 96 x 203 000.
MC_WORK_BOUND = 10**8
MC_POINT_CHARGE = 3000
# Monte-Carlo samples drawn at a time: the sampling temporaries stay cache-sized.
# Each chunk is also one _ExactSum.add a point and a pass, about 40 us for 8192
# values in [0, 1] there (two extraction levels).
MC_CHUNK = 8_192
# Largest array _ExactSum.add takes: its two scratch arrays then hold 1 GiB, and
# each extraction level still takes 25 bits (about 6 ns a value at 2**20 values
# in [0, 1] there).
_EXACT_CHUNK = 2**26


class SchmidtDecomposition(NamedTuple):
    """Schmidt data of the inertial shared state.

    lambdas are sorted descending; alice_basis / rob_basis hold the Schmidt
    vectors as columns.  Phase convention: every entry is real, and the
    sender basis is (|1>, |0>) at every xi, including the degenerate xi = 0,
    where any pair of bases serves, so the downstream protocol construction
    is deterministic.
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


def schmidt_decompose(xi) -> SchmidtDecomposition:
    """Schmidt decomposition of the inertial shared state, in closed form.

    |Psi> = (|0>(|+> + |phi>) + |1>(|+> - |phi>))/2, and with s = <+|phi> <= 0
    the sender's reduced state is (1 + s Z)/2.  So lambda_{0,1} =
    sqrt((1 -/+ s)/2), the sender vectors are |1>, |0>, and the receiver
    vectors are theta_0 = (|+> - |phi>)/(2 lambda_0) and theta_1 =
    (|+> + |phi>)/(2 lambda_1); lambda_1 >= 0.38 on [0, 1).
    """
    h, a, b = _encoding_amplitudes(_as_xi(xi).xi)  # |+> = h(|0> + |1>), |phi> = a|0> + b|1>
    s = h * (a + b)
    lambdas = np.sqrt([(1.0 - s) / 2.0, (1.0 + s) / 2.0])
    plus, phi = np.array([h, h]), np.array([a, b])
    rob = np.stack([(plus - phi) / (2.0 * lambdas[0]), (plus + phi) / (2.0 * lambdas[1])], axis=1)
    return SchmidtDecomposition(lambdas, np.array([[0.0, 1.0], [1.0, 0.0]]), rob)


def fidelity_bound(xi) -> float:
    """(lambda0 + lambda1)/sqrt2, the maximal-entangled-overlap bound.

    This is an upper bound on the average fidelity; the protocol attains it
    only at xi = 0.  At zero acceleration the protocol's exact average is
    (2 + 2 lambda0 lambda1)/3, the optimum for the shared state, which sits
    strictly below the bound for xi > 0.
    """
    sd = schmidt_decompose(xi)
    return (sd.lambda0 + sd.lambda1) / _SQRT2


class ProtocolKit(NamedTuple):
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


def _fidelity_form(xi, r):
    """(Q00, Qxx, Qyy, Qzz) at each valid xi of ``xi`` (``channel._xi_array``): the diagonal
    real 4x4 Q with <psi| sigma_R(|psi><psi|) |psi> = x^T Q x on x = (1, n), n the Bloch vector of psi.

    With u = sqrt(1 - xi), v = sqrt(1 + xi) and x = 1/cosh r:

        Q00 = (2 - xi) x^2/4 + xi x^4/4,
        Qxx = (u + v)[(1 + uv) x^3 + (1 - uv) x^4]/8,
        Qyy = (u + v) x^3/4,
        Qzz = [(1 - uv) x^3 + (1 + uv) x^4]/4.
    """
    x = 1.0 / _as_accel(r).C
    u, v = np.sqrt(1.0 - xi), np.sqrt(1.0 + xi)
    uv, x2 = u * v, x * x
    x3, x4 = x2 * x, x2 * x2
    return ((2.0 - xi) * x2 / 4.0 + xi * x4 / 4.0,
            (u + v) * ((1.0 + uv) * x3 + (1.0 - uv) * x4) / 8.0,
            (u + v) * x3 / 4.0,
            ((1.0 - uv) * x3 + (1.0 + uv) * x4) / 4.0)


def _fidelity_columns(xi, r):
    """fidelity_exact and sigma at each valid xi of ``xi``: the mean of x^T Q x (``_fidelity_form``)
    over n uniform on the sphere and its standard deviation per sample.  <n> = 0 and <n n^T> = 1/3
    leave Q00 + tr Q_nn / 3; <n_i^2 n_j^2> = (1 + 2 d_ij)/15 leaves the sum of squares sigma^2 =
    (2/45)[(Qxx - Qyy)^2 + (Qxx - Qzz)^2 + (Qyy - Qzz)^2], 0 where Q_nn is a multiple of 1."""
    q00, qxx, qyy, qzz = _fidelity_form(xi, r)
    sigma = np.sqrt((2.0 / 45.0) * ((qxx - qyy) ** 2 + (qxx - qzz) ** 2 + (qyy - qzz) ** 2))
    return q00 + (qxx + qyy + qzz) / 3.0, sigma


def average_fidelity_exact(xi, r) -> float:
    """Exact Haar average of <psi| sigma_R(|psi><psi|) |psi>: the sphere
    average of the Monte-Carlo form x^T Q x (``_fidelity_columns``)."""
    return float(_fidelity_columns(_as_xi(xi).xi, r)[0])


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


class FidelityEstimate(NamedTuple):
    """Monte-Carlo average fidelity."""

    mean: float
    std_error: float
    samples: int
    seed: int


def _philox(seed: int, step: int = 0) -> np.random.Generator:
    """Generator on the Philox-4x64 stream keyed by ``seed``, at counter step
    ``step``; one counter step yields four uniform doubles."""
    bit = np.random.Philox(key=seed)
    bit.advance(step)
    return np.random.Generator(bit)


def _draw_bloch(stream: np.random.Generator, n: int, cos2: np.ndarray | None = None):
    """z^2 and (1 - z)(1 + z) = n_x^2 + n_y^2 at the next ``n`` Bloch vectors of
    ``stream``, and cos^2 phi into ``cos2`` unless it is None: z = 2 u0 - 1 and
    phi = 2 pi u1 from the next two doubles of the stream, so one counter step of
    four doubles serves two samples (Archimedes: z is uniform on [-1, 1]).  Draws
    continue the stream, mid-step too.
    """
    u = stream.random((n, 2))
    if cos2 is not None:
        np.multiply(u[:, 1], 2.0 * np.pi, out=cos2)
        np.cos(cos2, out=cos2)
        cos2 *= cos2
    z = u[:, 0] * 2.0
    z -= 1.0
    z2, s = z * z, 1.0 - z
    z += 1.0
    s *= z
    return z2, s


def _form_values(form, z2: np.ndarray, s: np.ndarray, cos2: np.ndarray, work: np.ndarray) -> np.ndarray:
    """x^T Q x, Q = diag(form), at the Bloch vectors of ``_draw_bloch``:
    Q00 + Qzz z^2 + (1 - z)(1 + z)(Qyy + (Qxx - Qyy) cos^2 phi), into work[0],
    which it returns, with work[1] as scratch."""
    q00, qxx, qyy, qzz = form
    out, c = work
    np.multiply(cos2, qxx - qyy, out=c)
    c += qyy
    c *= s
    np.multiply(z2, qzz, out=out)
    out += q00
    out += c
    return out


def _mc_moments(form, samples: int, seed: int) -> list[tuple[float, float]]:
    """Monte-Carlo mean and standard error of x^T Q x at each point of ``form``
    (Q00, Qxx, Qyy, Qzz as four arrays over the points, or four numbers for one),
    every point on the same samples of the Philox stream keyed by ``seed``.

    Pass 1 draws the samples ``MC_CHUNK`` at a time (``_sum_chunk``), keeps
    cos^2 phi, the one costly part, at 8 bytes a sample whatever the number of
    points, and adds each point's values (``_form_values``) to its exact sum.
    Pass 2, once every mean is known, draws the stream again for z and adds each
    point's squared deviations to a second exact sum.  Sample k always reads
    doubles 2k and 2k + 1 of the stream, words 2(k mod 2) and 2(k mod 2) + 1 of
    counter step k // 2, and the generator keeps the unread words of a step
    between chunks; both sums are exact (``_ExactSum``) and rounded once, so
    they are the correctly rounded sums that math.fsum gives, whatever the
    chunking or the number of points.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    points = list(zip(*(np.atleast_1d(q).tolist() for q in form)))
    if not points:
        return []
    check_budget((samples,), float, "Monte-Carlo overlaps")
    cos2, spans = np.empty(samples), range(0, samples, MC_CHUNK)
    sums, stream = _ExactSum(len(points)), _philox(seed)
    for start in spans:
        _sum_chunk(stream, cos2[start:start + MC_CHUNK], points, sums)
    means = [sums.value(i) / samples for i in range(len(points))]
    if samples == 1:
        return [(mean, 0.0) for mean in means]
    sums, stream = _ExactSum(len(points)), _philox(seed)  # now of the squared deviations
    for start in spans:
        _sum_chunk(stream, cos2[start:start + MC_CHUNK], points, sums, means)
    return [(mean, math.sqrt(sums.value(i) / (samples - 1) / samples)) for i, mean in enumerate(means)]


def _sum_chunk(stream: np.random.Generator, cos2: np.ndarray, points, sums: _ExactSum, means=None) -> None:
    """Draw the next ``cos2.size`` samples of ``stream`` and add each point's values to
    its slot of ``sums``, or, given the means, its squared deviations.  Without means
    the chunk's cos^2 phi is written into ``cos2``; with them it is read from there.
    Every point's values go through one work pair, so the arrays a chunk allocates do
    not grow with the points, and none outlives the call: one chunk's arrays are live
    at a time."""
    z2, s = _draw_bloch(stream, cos2.size, cos2 if means is None else None)
    work = np.empty((2, cos2.size))
    for i, q in enumerate(points):
        v = _form_values(q, z2, s, cos2, work)
        if means is not None:
            v -= means[i]
            v *= v  # squared deviations, in place
        sums.add(v, i)


def average_fidelity_mc(
    xi,
    r,
    samples: int = 200_000,
    seed: int = 0,
) -> FidelityEstimate:
    """Monte-Carlo Haar average over |psi> = U|+>.

    For Haar U the Bloch vector n of U|+> is uniform on the sphere, and the
    fidelity <psi| sigma_R(|psi><psi|) |psi> is x^T Q x on x = (1, n).  Q is
    diagonal, with four closed-form entries (``_fidelity_form``), so a sample
    needs only n_z and the azimuth.  This is the one-point case of
    ``_mc_moments``, which ``fidelity_sweep`` runs over its whole grid.
    """
    (mean, std_error), = _mc_moments(_fidelity_form(_as_xi(xi).xi, r), samples, seed)
    return FidelityEstimate(mean, std_error, samples, seed)


class _ExactSum:
    """Exact running sums of float64 arrays, one a slot; ``value(slot)`` rounds one once.

    ``add`` uses error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci.
    Comput. 31, 189 (2008)): for n values below 2^E in magnitude and sigma =
    2^(E + bit_length(n) + 1), q = (x + sigma) - sigma, x - q and ``q.sum()``
    (in any order) are exact, and x - q is extracted again until it is zero.
    Where sigma would overflow, the values of magnitude >= 1 go first, at an
    exact scale 2^-shift.  A slot's partials add up in one Python int, which
    ``value()`` rounds once: math.fsum's double, in any order and chunking.
    The slots share one scratch pair, so their number adds no array.
    """

    def __init__(self, slots: int = 1) -> None:
        self._totals = [0] * slots  # in units of 2^-1074
        self._scratch = np.empty((2, 0))

    def add(self, x: np.ndarray, slot: int = 0) -> None:
        """Add the values of the float64 array ``x`` to ``slot``; NumericError on an infinity or a NaN."""
        if x.size > _EXACT_CHUNK:
            raise ValueError(f"an exact sum takes at most {_EXACT_CHUNK} values at a time, got {x.size}")
        top = max(float(x.max(initial=0.0)), -float(x.min(initial=0.0)))
        if not math.isfinite(top):
            raise NumericError("a Monte-Carlo sum met an infinity or a NaN")
        if self._scratch.shape[1] < x.size:
            self._scratch = np.empty((2, x.size))
        q, rest = self._scratch[:, :x.size]
        width = x.size.bit_length() + 1
        parts = [(x, top, 0)]
        if (shift := math.frexp(top)[1] + width - 1023) > 0:  # sigma = 2^(E + width) would overflow
            big = np.where(np.abs(x) >= 1.0, x, 0.0)
            small = x - big
            parts = [(big * 2.0**-shift, top * 2.0**-shift, shift), (small, float(np.abs(small).max()), 0)]
        for y, top, scale in parts:
            while top:
                sigma = math.ldexp(1.0, math.frexp(top)[1] + width)
                np.add(y, sigma, out=q)
                q -= sigma
                p, d = float(q.sum()).as_integer_ratio()  # d: a power of 2, at most 2^1074
                self._totals[slot] += p << (1075 + scale - d.bit_length())
                y = np.subtract(y, q, out=rest)
                top = max(float(y.max()), -float(y.min()))

    def value(self, slot: int = 0) -> float:
        """The sum of every value added to ``slot`` so far, correctly rounded."""
        return self._totals[slot] / (1 << 1074)


class FidelityResult(NamedTuple):
    xi: float
    r: float
    fidelity_mc: float
    std_err: float
    fidelity_exact: float


def fidelity_sweep(
    r, xi_grid: Sequence[float], samples: int = 200_000, seed: int = 0
) -> list[FidelityResult]:
    """One FidelityResult per grid point, in grid order: Monte Carlo and exact.

    The exact column is one array over the grid (``_fidelity_columns``).  The
    Monte Carlo draws one sample stream for the whole grid, keyed by
    ``SeedSequence((seed, 0))``, and every point evaluates its own form on it
    (``_mc_moments``): common random numbers, so each row keeps its
    distribution, the rows are correlated, and row 0 is the one-point sweep.
    (samples + MC_POINT_CHARGE) x points is checked against MC_WORK_BOUND
    before anything is built (``SizeError``).
    """
    if (samples + MC_POINT_CHARGE) * len(xi_grid) > MC_WORK_BOUND:
        raise SizeError(f"fig2 needs (samples + {MC_POINT_CHARGE}) x points = "
                        f"{samples + MC_POINT_CHARGE} x {len(xi_grid)}, "
                        f"over the Monte-Carlo work bound of {MC_WORK_BOUND:.3g}")
    a, xis = _as_accel(r), _xi_array(xi_grid)
    sub = int(np.random.SeedSequence((seed, 0)).generate_state(1, dtype=np.uint64)[0])
    moments = _mc_moments(_fidelity_form(xis, a), samples, sub)
    exact = _fidelity_columns(xis, a)[0].tolist()
    return [FidelityResult(xi, a.r, mean, std_err, ex)
            for xi, (mean, std_err), ex in zip(xis.tolist(), moments, exact)]
