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
the stream, so any chunked or parallel schedule reproduces identical values);
x^T Q x is linear in s = n_x^2 + n_y^2 and s cos^2 phi, so one pass sums five
features exactly, and every xi point combines them with its form (``_mc_moments``).
The tests keep the generic route (the 4x4 channel block contracted with the
POVMs and corrections, then changed to the Pauli basis) as the oracle for Q.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .channel import _as_accel, _as_xi, _encoding_amplitudes, _xi_array
from .errors import NumericError, SizeError
from .linalg import DenseOperator

_SQRT2 = math.sqrt(2.0)
# Most samples one Monte-Carlo call draws (``_mc_moments``, under fidelity_sweep and
# average_fidelity_mc alike): they are drawn once a call, whatever the grid, and each xi
# point adds a fixed combination.  On a 2-core x86 host 1e8 samples take 6-8 s at 36 MB of
# peak RSS on one point, and 9-11 s at 76 MB on 100 000 points.
MC_WORK_BOUND = 10**8
# Monte-Carlo samples drawn at a time: the five feature rows of a chunk stay
# cache-sized.  Each chunk is one _ExactSum.add, about 160 us there: two levels on
# every value, then a few on the 0.4 % whose residuals are still nonzero.
MC_CHUNK = 8_192
# Longest row _ExactSum.add takes: its two scratch arrays then hold 1 GiB a row,
# and each extraction level still takes 25 bits (about 6 ns a value at 2**20
# values in [0, 1] there).
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
    vector of U|+>, which ``_draw_bloch`` draws directly; the tests use
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


def _draw_bloch(stream: np.random.Generator, s: np.ndarray, c: np.ndarray) -> None:
    """(1 - z)(1 + z) = n_x^2 + n_y^2 into ``s`` and cos^2 phi into ``c`` at the next
    ``s.size`` Bloch vectors of ``stream``: z = 2 u0 - 1 and phi = 2 pi u1 from the next
    two doubles of the stream, so one counter step of four doubles serves two samples
    (Archimedes: z is uniform on [-1, 1]).  1 - z = 2(1 - u0) and 1 + z = 2 u0 are exact,
    so s is 4 u0 (1 - u0) rounded once.  Draws continue the stream, mid-step too.
    """
    u = stream.random((s.size, 2))
    np.subtract(1.0, u[:, 0], out=s)
    s *= u[:, 0]
    s *= 4.0
    np.multiply(u[:, 1], 2.0 * np.pi, out=c)
    np.cos(c, out=c)
    c *= c


def _mc_moments(xi: np.ndarray, r, samples: int, seed: int) -> list[tuple[float, float]]:
    """Monte-Carlo mean and standard error of x^T Q x (``_fidelity_form``) at each
    point of the xi array ``xi``, every point on the same samples of the Philox
    stream keyed by ``seed``.  More than MC_WORK_BOUND samples raise SizeError
    before the form is built or a sample drawn.

    With s = (1 - z)(1 + z) and c = cos^2 phi (``_draw_bloch``), x^T Q x =
    A + B s + C s c, A = Q00 + Qzz, B = Qyy - Qzz and C = Qxx - Qyy.  So one pass
    over the samples, ``MC_CHUNK`` at a time, adds five features, s, s c, s^2,
    s (s c) and (s c)^2, to one exact sum (``_ExactSum``), whatever the number of
    points; each point then combines the five totals with its A, B and C in
    integers on the sum's 2^-1074 grid, and rounds its mean once and its variance
    once, under the square root.  Sample k always reads doubles 2k and 2k + 1 of the stream, words
    2(k mod 2) and 2(k mod 2) + 1 of counter step k // 2, and the generator keeps
    the unread words of a step between chunks, so the values do not depend on the
    chunking or on the number of points.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if samples > MC_WORK_BOUND:
        raise SizeError(f"{samples} samples are over the Monte-Carlo work bound of {MC_WORK_BOUND:.3g}")
    points = list(zip(*(q.tolist() for q in _fidelity_form(xi, r))))
    if not points:
        return []
    sums, stream = _ExactSum(5), _philox(seed)
    features = np.empty((5, min(samples, MC_CHUNK)))
    for start in range(0, samples, MC_CHUNK):
        f = features[:, :min(MC_CHUNK, samples - start)]
        _draw_bloch(stream, f[0], f[1])
        f[1] *= f[0]
        np.multiply(f[:2], f[0], out=f[2:4])
        np.multiply(f[1], f[1], out=f[4])
        sums.add(f)
    s1, s2, s3, s4, s5 = sums.totals
    den = samples * samples * max(samples - 1, 1) << 4296
    moments = []
    for q00, qxx, qyy, qzz in points:
        q00, qxx, qyy, qzz = (_units(q) for q in (q00, qxx, qyy, qzz))
        a, b, c = q00 + qzz, qyy - qzz, qxx - qyy
        lin = b * s1 + c * s2  # the sum of x^T Q x - A over the samples, in units of 2^-2148
        # samples times the sum of squared deviations, in units of 2^-4296: s^2, s (s c) and (s c)^2
        # are rounded apart from s and s c, so where the deviations vanish it may fall a few units below 0
        num = max(((b * b * s3 + 2 * b * c * s4 + c * c * s5) * samples << 1074) - lin * lin, 0) if samples > 1 else 0
        e = max(0, (den.bit_length() - num.bit_length()) // 2)  # keeps num / den off the subnormals
        moments.append((((a * samples << 1074) + lin) / (samples << 2148),
                        math.ldexp(math.sqrt((num << 2 * e) / den), -e)))
    return moments


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
    needs only n_z and the azimuth.  This is ``fidelity_sweep``'s kernel and bound
    (``_mc_moments``) on one point, on the Philox stream keyed by ``seed`` itself.
    """
    (mean, std_error), = _mc_moments(np.array([_as_xi(xi).xi]), r, samples, seed)
    return FidelityEstimate(mean, std_error, samples, seed)


def _units(x: float) -> int:
    """The double ``x`` as an integer count of 2^-1074, the spacing of the subnormals."""
    p, d = x.as_integer_ratio()  # d: a power of 2, at most 2^1074
    return p << (1075 - d.bit_length())


def _on_grid(y: np.ndarray, top: float, out: np.ndarray | None = None) -> np.ndarray:
    """(y + sigma) - sigma for y below 2^E >= ``top`` in magnitude, sigma = 2^(E + bit_length(n) + 1),
    n = y.shape[-1]: y rounded to a grid on which y minus it and any sum of n of them are exact."""
    sigma = math.ldexp(1.0, math.frexp(top)[1] + y.shape[-1].bit_length() + 1)
    q = np.add(y, sigma, out=out)
    q -= sigma
    return q


class _ExactSum:
    """Exact running sums of the rows of float64 arrays, one a slot; ``value(slot)`` rounds one once.

    ``add`` uses error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci.
    Comput. 31, 189 (2008)): it sums each row's values on one grid (``_on_grid``),
    in any order, and extracts the exact residuals again until they are zero.
    Once at most 1/16 of the residuals are nonzero, those go on alone, summed into
    their slots by ``np.bincount``.  A slot's partials add up in one Python int,
    ``totals[slot]`` in units of 2^-1074: exact in any order and chunking, and
    divided by 2^1074 it gives math.fsum's double.  The rows share one scratch pair.
    """

    def __init__(self, slots: int = 1) -> None:
        self.totals = [0] * slots
        self._scratch = np.empty(0)

    def add(self, x: np.ndarray) -> None:
        """Add row i of the float64 array ``x`` (a 1-d ``x`` is one row) to slot i.  NumericError
        on an infinity or a NaN; ValueError where sigma would overflow, within 2^(bit_length(n) + 1)
        of the largest double."""
        x = np.atleast_2d(x)
        slots, n = x.shape
        if n > _EXACT_CHUNK:
            raise ValueError(f"an exact sum takes at most {_EXACT_CHUNK} values at a time, got {n}")
        top = max(float(x.max(initial=0.0)), -float(x.min(initial=0.0)))
        if not math.isfinite(top):
            raise NumericError("a Monte-Carlo sum met an infinity or a NaN")
        if math.frexp(top)[1] + n.bit_length() + 1 > 1023:
            raise ValueError(f"an exact sum of {n} values takes magnitudes below 2^{1022 - n.bit_length()}, "
                             f"got {top!r}")
        if self._scratch.size < 2 * x.size:
            self._scratch = np.empty(2 * x.size)
        q, y = self._scratch[:2 * x.size].reshape(2, slots, n)
        np.copyto(y, x)
        while True:  # on every value
            self._bank(_on_grid(y, top, q).sum(axis=1))
            y -= q
            keep = y != 0.0
            if np.count_nonzero(keep) <= y.size // 16:
                break
            top = max(float(y.max()), -float(y.min()))
        at = np.flatnonzero(keep)
        y, slot = y.ravel()[at], at // n
        while y.size:  # on the nonzero residuals alone
            q = _on_grid(y, max(float(y.max()), -float(y.min())))
            self._bank(np.bincount(slot, q, slots))
            y -= q
            keep = y != 0.0
            y, slot = y[keep], slot[keep]

    def _bank(self, parts: np.ndarray) -> None:
        for slot, part in enumerate(parts.tolist()):
            self.totals[slot] += _units(part)


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
    ``SeedSequence((seed, 0))``, and every point reads its five exact sums
    (``_mc_moments``): common random numbers, so each row keeps its
    distribution, the rows are correlated, and row 0 is the one-point sweep.
    More than MC_WORK_BOUND samples raise SizeError before anything is built,
    whatever the grid.
    """
    xis = _xi_array(xi_grid)
    sub = int(np.random.SeedSequence((seed, 0)).generate_state(1, dtype=np.uint64)[0])
    moments = _mc_moments(xis, r, samples, sub)
    a = _as_accel(r)
    exact = _fidelity_columns(xis, a)[0].tolist()
    return [FidelityResult(xi, a.r, mean, std_err, ex)
            for xi, (mean, std_err), ex in zip(xis.tolist(), moments, exact)]
