"""The Unruh channel for a qubit carried by free scalar-field modes.

A uniformly accelerated observer sees the Minkowski vacuum and one-particle
states as two-mode squeezed states over the two Rindler wedges,

    |0>_M = (1/cosh r) sum_n tanh^n r |n>_I |n>_II,
    |1>_M = (1/cosh^2 r) sum_n tanh^n r sqrt(n+1) |n+1>_I |n>_II,

with cosh r = (1 - exp(-2 pi Omega))^(-1/2) and Omega = omega_R / (a/c).
Tracing the causally disconnected wedge II turns acceleration into an open
quantum channel on the wedge-I Fock tower.  The infinite tower is truncated
at a cutoff chosen so the geometric tail tanh^{2n} r is below tolerance.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import InvalidBlochError, RQITError, SizeError, TruncationError
from .linalg import DenseOperator, _Frozen, check_budget

DEFAULT_TRUNCATION_TOL = 1e-12
# Below the smallest normal double the tails that set and check a cutoff are subnormal, off by up to 100%.
MIN_TRUNCATION_TOL = float(np.finfo(float).tiny)
SMALL_R_LIMIT = 0.3
# Up to here cosh^4 r, the highest power of cosh r taken, and its reciprocal are normal doubles.
MAX_R = 170.0


class AccelerationParam(_Frozen):
    """Squeezing parameter r >= 0 of the Rindler-wedge mode transformation."""

    __slots__ = ("r",)

    def __init__(self, r: float):
        if not r >= 0:
            raise ValueError(f"squeezing parameter must be >= 0, got {r}")
        object.__setattr__(self, "r", r)

    @property
    def C(self) -> float:
        """cosh r; raises RQITError for r above MAX_R."""
        if self.r > MAX_R:
            raise RQITError(
                f"r = {self.r:g} exceeds {MAX_R:g}, above which cosh^4 r leaves the double range"
            )
        return math.cosh(self.r)

    @property
    def T(self) -> float:
        return math.tanh(self.r)

    @classmethod
    def from_omega(cls, omega: float) -> "AccelerationParam":
        """From the dimensionless mode frequency Omega = omega_R / (a/c).

        Inverts cosh r = (1 - exp(-2 pi Omega))^(-1/2) through the
        equivalent tanh r = exp(-pi Omega), which stays well conditioned
        for large Omega where cosh r - 1 underflows.
        """
        if not omega > 0:
            raise ValueError(f"Omega must be positive, got {omega}")
        return cls(math.atanh(math.exp(-math.pi * omega)))

    def to_omega(self) -> float:
        if self.r == 0:
            return math.inf
        return -math.log(self.T**2) / (2.0 * math.pi)


def _as_accel(r) -> AccelerationParam:
    return r if isinstance(r, AccelerationParam) else AccelerationParam(float(r))


class OrthogonalityParam(_Frozen):
    """Overlap parameter xi in [0, 1) between the encoding states.

    The encoding basis is |+> = (|0>+|1>)/sqrt2 and
    |phi> = sqrt((1-xi)/2)|0> - sqrt((1+xi)/2)|1>; xi = 0 makes them
    orthogonal (|phi> = |->).
    """

    __slots__ = ("xi",)

    def __init__(self, xi: float):
        if not 0.0 <= xi < 1.0:
            raise ValueError(f"xi must lie in [0, 1), got {xi}")
        object.__setattr__(self, "xi", xi)


def _encoding_amplitudes(xi):
    """(h, a, b) with |+> = h(|0> + |1>) and |phi> = a|0> + b|1>: h = 1/sqrt2,
    a = sqrt((1-xi)/2) and b = -sqrt((1+xi)/2), at one xi or at each xi of an array."""
    return 1.0 / math.sqrt(2.0), np.sqrt((1.0 - xi) / 2.0), -np.sqrt((1.0 + xi) / 2.0)


def _as_xi(xi) -> OrthogonalityParam:
    return xi if isinstance(xi, OrthogonalityParam) else OrthogonalityParam(float(xi))


def _xi_array(xi_grid) -> np.ndarray:
    """A sweep's xi grid as one float64 array; OrthogonalityParam's ValueError
    for its first value outside [0, 1), NaN included."""
    xi = np.asarray(xi_grid, dtype=np.float64).reshape(len(xi_grid))
    bad = ~((xi >= 0.0) & (xi < 1.0))
    if bad.any():
        OrthogonalityParam(float(xi[np.argmax(bad)]))  # raises
    return xi


class FockCutoff(_Frozen):
    """Truncation level of the wedge-I Fock tower.

    Amplitude lists run over n = 0..n_max and the truncated one-particle
    tower reaches level n_max + 1, so operators live on n_max + 2 levels.
    """

    __slots__ = ("n_max", "tol")

    def __init__(self, n_max: int, tol: float = DEFAULT_TRUNCATION_TOL):
        if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)) or n_max < 1:
            raise ValueError(f"n_max must be a positive integer, got {n_max}")
        if not 0 < tol < 1:
            raise ValueError(f"tol must lie in (0, 1), got {tol}")
        if tol < MIN_TRUNCATION_TOL:
            raise ValueError(f"tol must be >= the smallest normal double {MIN_TRUNCATION_TOL!r}, got {tol}")
        object.__setattr__(self, "n_max", int(n_max))
        object.__setattr__(self, "tol", tol)

    @property
    def levels(self) -> int:
        return self.n_max + 2

    @classmethod
    def for_acceleration(cls, r, tol: float = DEFAULT_TRUNCATION_TOL) -> "FockCutoff":
        """Smallest cutoff whose truncation tails stay below ``tol``.

        Starts from max(16, ceil(ln tol / ln t)), t = tanh^2 r, which bounds
        the geometric vacuum tail t^(n+1) exactly, then finds the smallest
        n_max at which the (n+1)-weighted one-particle tail
        t^(n+1) [1 + (n+1)(1 - t)] also drops below ``tol``.  That tail
        decreases strictly in n, so doubling and bisection find the level in
        O(log n_max) steps.  Both tails and ln t are evaluated as in
        ``_tail_weights``, from 1 - t = 1/cosh^2 r.  At r = 0 the series
        terminates and the floor of 16 applies; where tanh r rounds to 1 no
        finite cutoff exists and SizeError is raised.
        """
        a = _as_accel(r)
        if a.T == 0.0:
            return cls(16, tol)
        if a.T == 1.0:
            raise SizeError(f"tanh r rounds to 1 at r = {a.r}: no finite Fock cutoff reaches tol {tol:.1e}")

        def tail(m: int) -> float:
            return _tail_weights(a, m)[1]

        lo = max(16, math.ceil(math.log(tol) / _log_t(a)))
        if tail(lo) <= tol:
            return cls(lo, tol)
        step = 1
        while tail(lo + step) > tol:
            lo, step = lo + step, 2 * step
        hi = lo + step
        while hi - lo > 1:  # tail(lo) > tol >= tail(hi)
            mid = (lo + hi) // 2
            if tail(mid) > tol:
                lo = mid
            else:
                hi = mid
        return cls(hi, tol)

    def doubled(self) -> "FockCutoff":
        return FockCutoff(2 * self.n_max, self.tol)


def _as_cutoff(cutoff, r) -> FockCutoff:
    if cutoff is None:
        return FockCutoff.for_acceleration(r)
    if isinstance(cutoff, FockCutoff):
        return cutoff
    if isinstance(cutoff, (float, np.floating)) and float(cutoff).is_integer():
        cutoff = int(cutoff)  # 24.0 is the integer 24; 24.9 and True stay for FockCutoff to refuse
    return FockCutoff(cutoff)


def _log_t(a: AccelerationParam) -> float:
    """ln t for t = tanh^2 r > 0, from 1 - t = 1/cosh^2 r where tanh r is near 1.

    The rounded tanh r leaves 1 - t with an O(1) relative error once r
    exceeds about 17; below tanh r = 1/2, tanh r itself is the accurate input.
    """
    return math.log1p(-1.0 / a.C**2) if a.T > 0.5 else 2.0 * math.log(a.T)


def _tail_weights(a: AccelerationParam, n_max: int) -> tuple[float, float]:
    """Norm weights of the terms n > n_max of the vacuum and one-particle towers.

    With t = tanh^2 r and 1 - t = 1/cosh^2 r, the geometric sums give

        sum_{n > N} c_n^2 = t^(N+1),
        sum_{n > N} d_n^2 = t^(N+1) [1 + (N+1)(1 - t)].

    Evaluating the dropped terms directly keeps the deficits accurate at
    any cutoff, where 1 - sum_{n <= N} would lose them to rounding once
    n_max reaches about 1e5.  t^(N+1) is exp((N+1) ln t) with ``_log_t``,
    and 1 - t is 1/cosh^2 r, so both stay accurate up to r of about 19,
    where tanh r rounds to 1.
    """
    if a.T == 0.0:
        return 0.0, 0.0
    head = math.exp((n_max + 1) * _log_t(a))
    return head, head * (1.0 + (n_max + 1) / a.C**2)


def _unit_trace_atol(n_max: int) -> float:
    """How far an image's trace over levels 0..n_max plus its dropped trace
    may miss 1 (``_check_images``): 8 (n_max + 1) eps.

    Both parts are exact but for rounding, so this holds at any cutoff
    tolerance.  Measured over towers, fig3 and qubit images and shared states
    (61 xi, 41 z, 36 r in [0, 3.5]), the residual is at most 1.5 (n_max + 1)
    eps at n_max 1..39, and 0.24 (n_max + 1) eps at the cutoffs that
    ``FockCutoff.for_acceleration`` picks at tol 1e-12..0.5 and the smallest normal.
    """
    return 8 * (n_max + 1) * np.finfo(float).eps


def _check_images(p, kept, a: AccelerationParam, cut: FockCutoff, what: str) -> np.ndarray:
    """The one truncation rule of every Unruh image; returns each image's dropped trace.

    Row (p0, p1) of p (images, 2) weighs an image on the vacuum tower c_n and
    the one-particle tower d_n.  Its dropped trace is p0 sum_{n > n_max} c_n^2
    + p1 sum_{n > n_max} d_n^2, from ``_tail_weights``, and its kept trace
    p0 kept[0] + p1 kept[1], ``kept`` being the towers' sums over n <= n_max
    from the caller's own amplitudes.  TruncationError names the first image
    whose dropped trace exceeds the cutoff tolerance, then the first whose
    kept plus dropped trace misses 1 by more than ``_unit_trace_atol``.  So a
    cutoff is accepted image by image, not tower by tower: at r = 0.85,
    n_max 20 the one-particle tower drops 2.18e-6, but fig3's images at
    xi = 0.3 drop at most 1.48e-6, and tol 1.5e-6 passes.
    """
    p = np.asarray(p, dtype=float)
    vacuum, one = _tail_weights(a, cut.n_max)
    dropped, traces = p[:, 0] * vacuum + p[:, 1] * one, p[:, 0] * kept[0] + p[:, 1] * kept[1]
    bad = dropped > cut.tol
    if bad.any():
        i = np.argmax(bad)
        raise TruncationError(f"{what} trace deficit {dropped[i]:.3e} exceeds tol {cut.tol:.1e} at n_max {cut.n_max}")
    misses, atol = traces + dropped - 1.0, _unit_trace_atol(cut.n_max)
    bad = np.abs(misses) > atol
    if bad.any():
        i = np.argmax(bad)
        raise TruncationError(f"{what} trace {traces[i]:.12g} plus its dropped tail {dropped[i]:.6g} "
                              f"misses 1 by {misses[i]:.3g}, more than {atol:.3g}")
    return dropped


def _towers(r, cutoff, p, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The level weights that every Unruh image reads, over n = 0..n_max, after
    the memory budget check: w_n = t^n / (8 cosh^2 r), w_n s_n and w_n s_n^2,
    with t = tanh^2 r and s_n = sqrt(n+1)/cosh r, so c_n^2 = 8 w_n, c_n d_n =
    8 w_n s_n and d_n^2 = 8 w_n s_n^2; and the dropped trace of each image of
    tower weights p, which ``_check_images`` checks against 8 sum w_n and
    8 sum w_n s_n^2.

    This is the one place that raises tanh r to a power.  Powers of the rounded
    tanh r give t^n a relative error up to about n ulp; exp(n ln t) with
    ``_log_t`` gives about eps (1 + n |ln t|), the smaller where |ln t| < 1
    (r above about 0.7), so it is used there.  Below, r = 0 (where ln t = -inf)
    included, the powers stay.
    """
    a, cut = _as_accel(r), _as_cutoff(cutoff, r)
    check_budget((cut.n_max + 1,), float, "unruh_*_amplitudes")
    n = np.arange(cut.n_max + 1)
    s = np.sqrt(n + 1.0) / a.C
    t_n = np.exp(n * _log_t(a)) if a.T**2 > math.exp(-1.0) else np.power(a.T, 2 * n)
    w = t_n / (8.0 * a.C**2)
    ws, wss = w * s, w * s * s
    return w, ws, wss, _check_images(p, (8.0 * np.sum(w), 8.0 * np.sum(wss)), a, cut, what)


def unruh_vacuum_amplitudes(r, cutoff: FockCutoff | None = None) -> np.ndarray:
    """Coefficients c_n = tanh^n r / cosh r of |0>_M on |n>_I |n>_II, n = 0..n_max, as
    sqrt(8 w_n) (``_towers``); the tower is checked as the image of weights (1, 0)."""
    return np.sqrt(8.0 * _towers(r, cutoff, [(1.0, 0.0)], "vacuum tower")[0])


def unruh_one_particle_amplitudes(r, cutoff: FockCutoff | None = None) -> np.ndarray:
    """Coefficients d_n = tanh^n r sqrt(n+1) / cosh^2 r of |1>_M on |n+1>_I |n>_II, n = 0..n_max,
    as sqrt(8 w_n s_n^2) (``_towers``); the tower is checked as the image of weights (0, 1)."""
    return np.sqrt(8.0 * _towers(r, cutoff, [(0.0, 1.0)], "one-particle tower")[2])


def _as_bloch(bloch) -> np.ndarray:
    n = np.asarray(bloch, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got shape {n.shape}")
    _check_bloch_rows(n[None])
    return n


def _norms2(n: np.ndarray) -> np.ndarray:
    """n @ n for each row of n (k, 3), rounded as BLAS ddot rounds the
    one-point ``n @ n``; the plain x*x + y*y + z*z rounds differently on
    about one point in five."""
    return np.matmul(n[:, None, :], n[:, :, None])[:, 0, 0]


def _check_bloch_rows(n: np.ndarray) -> np.ndarray:
    """n @ n of each row of n (k, 3); InvalidBlochError for the first row
    with norm above 1 or a NaN component."""
    norm2 = _norms2(n)
    bad = np.flatnonzero(~(norm2 <= 1.0 + 1e-12))
    if bad.size:
        k = bad[0]
        if math.isnan(norm2[k]):
            raise InvalidBlochError(f"Bloch vector {n[k].tolist()} has a NaN component")
        raise InvalidBlochError(f"Bloch vector norm {math.sqrt(norm2[k]):.12f} exceeds 1")
    return norm2


def minkowski_qubit(bloch) -> DenseOperator:
    """Density matrix (1 + n.sigma)/2 of an inertial qubit."""
    x, y, z = _as_bloch(bloch)
    m = 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])
    return DenseOperator(m, (2,))


def effective_qubit(bloch, r, cutoff: FockCutoff | None = None) -> DenseOperator:
    """Wedge-I state of an accelerated qubit: trace of wedge II.

    The channel is linear on the 2x2 input and couples Fock levels n and
    n+1 only; the output is exactly trace preserving up to the geometric
    tail of the truncation.  All amplitudes are real, so the output is
    stored as a real symmetric float64 matrix when the Bloch y is 0, and as
    complex128 otherwise.  The entries read c_n^2 = 8 w_n, c_n d_n = 8 w_n s_n
    and d_n^2 = 8 w_n s_n^2 from ``_towers``, which checks the truncation on the
    image, of tower weights ((1 + z)/2, (1 - z)/2).
    """
    x, y, z = _as_bloch(bloch)
    cut = _as_cutoff(cutoff, r)
    p00, p11 = (1.0 + z) / 2.0, (1.0 - z) / 2.0
    p01 = (x - 1j * y) / 2.0 if y else x / 2.0
    nlev = cut.levels
    check_budget((nlev, nlev), type(p01), "effective_qubit")
    w, ws, wss, _ = _towers(r, cut, [(p00, p11)], "channel image")
    rho = np.zeros((nlev, nlev), dtype=type(p01))
    idx = np.arange(cut.n_max + 1)
    rho[idx, idx] += p00 * (8.0 * w)
    rho[idx + 1, idx + 1] += p11 * (8.0 * wss)
    rho[idx, idx + 1] += p01 * (8.0 * ws)
    rho[idx + 1, idx] += np.conj(p01) * (8.0 * ws)
    return DenseOperator._wrap(rho, (nlev,))


# (qubit, Fock-level offset from n) of the four components of the term |v_n>
# (``entangled_state``): |0,n>, |1,n>, |0,n+1>, |1,n+1>
_SHARED_COMPONENTS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _shared_etas(xi: np.ndarray) -> np.ndarray:
    """The four eta that scale the components of each term |v_n> (``_SHARED_COMPONENTS``)
    at each xi of a grid, (points, 4): eta_{+-}, eta_{--}, eta_{-+}, eta_{++}, with
    eta_{s1 s2} = 1 + s1 sqrt(1 + s2 xi)."""
    outer, inner = np.array(((1.0, -1.0, -1.0, 1.0), (-1.0, -1.0, 1.0, 1.0)))  # s1, s2 of each row
    return 1.0 + outer * np.sqrt(1.0 + inner * xi[:, None])


def _shared_weights(eta: np.ndarray) -> np.ndarray:
    """The tower weights (p0, p1) of the shared state at each row of ``_shared_etas``.

    |v_n|^2 = (eta_{+-}^2 + eta_{--}^2) + (eta_{-+}^2 + eta_{++}^2) s_n^2, so the
    state weighs (eta_{+-}^2 + eta_{--}^2)/8 on the vacuum tower c_n^2 = 8 w_n and
    (eta_{-+}^2 + eta_{++}^2)/8 on the one-particle tower d_n^2 = 8 w_n s_n^2, which
    add up to 1.  ``np.float_power`` squares round as Python's ``eta ** 2`` (C
    ``pow``) does, not as eta * eta.
    """
    sq = np.float_power(eta, 2)
    return np.column_stack([sq[:, 0] + sq[:, 1], sq[:, 2] + sq[:, 3]]) / 8.0


def entangled_state(xi, r, cutoff: FockCutoff | None = None) -> DenseOperator:
    """Shared state after one party accelerates, on (2) x (n_max + 2).

    rho = (1/(8 cosh^2 r)) sum_n tanh^{2n} r |v_n><v_n| with

        |v_n> = eta_{+-}|0,n> + eta_{--}|1,n>
                + (eta_{-+} sqrt(n+1)/cosh r)|0,n+1>
                + (eta_{++} sqrt(n+1)/cosh r)|1,n+1>,

    where eta_{s1 s2} = 1 + s1*sqrt(1 + s2*xi).  The prefactor makes the
    trace exactly 1 in the untruncated tower; this is checked numerically
    at r = 0 in the test suite.  Every amplitude is real, so the matrix is
    real symmetric and stored as float64.

    Since |v_n> touches Fock levels n and n+1 only, the matrix is
    block-tridiagonal in the level.  It is assembled by writing each of the
    16 component pairs (p, q) of |v_n> into one diagonal, for every n in one
    array operation, with no rank-one update per level: eta_p eta_q times w_n,
    w_n s_n or w_n s_n^2 (``_towers``), as the pair's two Fock-level offsets
    (``_SHARED_COMPONENTS``) add up to 0, 1 or 2.  Terms n and n-1 share
    entries on level n, which the scatters add.  ``_towers`` checks the
    truncation on the terms, after the budget of the matrix is checked.
    """
    cut = _as_cutoff(cutoff, r)
    nlev = cut.levels
    check_budget((2 * nlev, 2 * nlev), float, "entangled_state")
    eta = _shared_etas(np.array([_as_xi(xi).xi]))
    levels = _towers(r, cut, _shared_weights(eta), "shared-state")[:3]
    rho = np.zeros((2 * nlev, 2 * nlev))
    n = np.arange(cut.n_max + 1)
    for (qp, op), ep in zip(_SHARED_COMPONENTS, eta[0]):
        for (qq, oq), eq in zip(_SHARED_COMPONENTS, eta[0]):
            rho[qp * nlev + op + n, qq * nlev + oq + n] += ep * eq * levels[op + oq]
    return DenseOperator._wrap(rho, (2, nlev))


def small_r_qubit(bloch, r) -> DenseOperator:
    """Low-acceleration 3x3 family, keeping terms through O(r^2).

    With C = cosh r and T = tanh r:

        (1/(2C^2)) [[1+z,        (x-iy)/C,               0           ],
                    [(x+iy)/C,   (1-z)/C^2 + T^2 (1+z),  s2 T^2 (x-iy)/C],
                    [0,          s2 T^2 (x+iy)/C,        2 T^2 (1-z)/C^2]]

    with s2 = sqrt 2.  The trace is 1 - (2 - z) r^4 + O(r^6): subnormalized
    at order r^4, which the generalized distance of the geometry module is
    designed to absorb.  No renormalization is applied.
    """
    a = _as_accel(r)
    _warn_beyond_small_r(a)
    return DenseOperator(_small_r_stack(_as_bloch(bloch)[None], a)[0], (3,))


def _warn_beyond_small_r(a: AccelerationParam) -> None:
    """Warn above SMALL_R_LIMIT, at the caller of ``small_r_qubit`` or ``numeric_metric``."""
    if a.r > SMALL_R_LIMIT:
        warnings.warn(f"small_r_qubit called with r={a.r:.3f} > {SMALL_R_LIMIT}; "
                      "the O(r^4) accuracy guarantee degrades", stacklevel=3)


def _small_r_stack(n: np.ndarray, a: AccelerationParam) -> np.ndarray:
    """``small_r_qubit`` entries (k, 3, 3) at the Bloch vectors n (k, 3).

    Each entry takes the operations, in the order, that one point took as a
    scalar expression, so a row rounds exactly as a call of its own.
    """
    _check_bloch_rows(n)
    C, T = a.C, a.T
    x, y, z = n.T
    w = x - 1j * y
    m = np.zeros((len(n), 3, 3), dtype=complex)
    m[:, 0, 0] = 1.0 + z
    m[:, 0, 1] = w / C
    m[:, 1, 0] = np.conj(w) / C
    m[:, 1, 1] = (1.0 - z) / C**2 + T**2 * (1.0 + z)
    m[:, 1, 2] = math.sqrt(2) * T**2 * w / C
    m[:, 2, 1] = math.sqrt(2) * T**2 * np.conj(w) / C
    m[:, 2, 2] = 2.0 * T**2 * (1.0 - z) / C**2
    return m / (2.0 * C**2)
