import math
import os
import re
import time
import tracemalloc

import numpy as np
import pytest

from oracles import (bloch_pair, dense_entangled_state, eta, is_hermitian, min_eigenvalue, phi_state, plus_state,
                     shared_terms)
from rqit import linalg
from rqit.channel import (
    AccelerationParam,
    FockCutoff,
    OrthogonalityParam,
    _check_images,
    _encoding_amplitudes,
    _shared_etas,
    _shared_weights,
    _tail_weights,
    _towers,
    effective_qubit,
    entangled_state,
    minkowski_qubit,
    small_r_qubit,
    unruh_one_particle_amplitudes,
    unruh_vacuum_amplitudes,
)
from rqit.cli import main
from rqit.distinguishability import angle_sweep
from rqit.entanglement import negativity_sweep
from rqit.errors import InvalidBlochError, SizeError, TruncationError


def test_acceleration_param_basics():
    a = AccelerationParam(0.6)
    assert a.C == math.cosh(0.6) and a.T == math.tanh(0.6)
    with pytest.raises(ValueError):
        AccelerationParam(-0.1)


def test_omega_round_trip():
    for omega in (0.05, 0.3, 1.0, 4.0):
        a = AccelerationParam.from_omega(omega)
        assert a.C == pytest.approx((1 - math.exp(-2 * math.pi * omega)) ** -0.5, abs=1e-14)
        assert abs(a.to_omega() - omega) < 1e-12
    assert AccelerationParam(0.0).to_omega() == math.inf


def test_orthogonality_param():
    with pytest.raises(ValueError):
        OrthogonalityParam(1.0)
    assert OrthogonalityParam(0.0).xi == 0.0
    # xi = 0 reproduces |phi> = |->
    minus = np.array([1, -1]) / math.sqrt(2)
    np.testing.assert_allclose(phi_state(0.0).real, minus, atol=1e-15)
    assert abs(plus_state(0.0).conj() @ phi_state(0.0)) < 1e-14
    assert eta(0.5, +1, +1) == pytest.approx(1 + math.sqrt(1.5))
    assert eta(0.5, -1, -1) == pytest.approx(1 - math.sqrt(0.5))
    # the library's one eta formula, rows (+-, --, -+, ++) of the shared terms, rounds as the scalar one
    for xi in (0.0, 0.3, 0.5, 0.9):
        want = [eta(xi, s1, s2) for s1, s2 in ((1, -1), (-1, -1), (-1, 1), (1, 1))]
        assert _shared_etas(np.array([xi]))[0].tolist() == want, xi
    # the library's encoding amplitudes, which fig3 and the Schmidt data read, are the oracle states'
    for xi in (0.0, 0.3, 0.5, 0.9):
        h, a2, b2 = _encoding_amplitudes(xi)
        assert [h, h, a2, b2] == [*plus_state(xi).real, *phi_state(xi).real], xi
    # the states' Bloch vectors are the oracle's, on the unit sphere
    for state, bloch in zip((plus_state(0.5), phi_state(0.5)), bloch_pair(0.5)):
        assert np.linalg.norm(bloch) == pytest.approx(1.0)
        np.testing.assert_allclose(np.outer(state, state.conj()), minkowski_qubit(bloch).entries, atol=1e-15)


def test_cutoff_rule():
    assert FockCutoff.for_acceleration(0.0).n_max == 16
    assert FockCutoff.for_acceleration(0.6).n_max == 24
    assert FockCutoff.for_acceleration(0.85).n_max == 41
    for r in (0.3, 0.6, 0.85):
        cut = FockCutoff.for_acceleration(r)
        t2 = math.tanh(r) ** 2
        assert t2**cut.n_max < cut.tol
        # both series tails below tolerance at the selected level
        assert t2 ** (cut.n_max + 1) * ((cut.n_max + 2) - (cut.n_max + 1) * t2) <= cut.tol
    with pytest.raises(ValueError):
        FockCutoff(0)


@pytest.mark.parametrize("sweep", [negativity_sweep, angle_sweep])
def test_plain_number_cutoff_must_be_integral(sweep):
    want = sweep(0.6, [0.3], FockCutoff(24))
    for cutoff in (24, 24.0, np.int64(24), np.float64(24.0)):
        assert sweep(0.6, [0.3], cutoff) == want, cutoff
    for bad in (24.9, True, math.nan, math.inf):
        with pytest.raises(ValueError):
            sweep(0.6, [0.3], bad)


def linear_scan_cutoff(r, tol=1e-12):
    """Reference cutoff rule: raise n_max one level at a time."""
    t = math.tanh(r)
    if t == 0.0:
        return 16
    t2 = t**2
    m = max(16, math.ceil(math.log(tol) / (2.0 * math.log(t))))
    while t2 ** (m + 1) * ((m + 2) - (m + 1) * t2) > tol:
        m += 1
    return m


@pytest.mark.parametrize("r", [0.0, 0.05, 0.6, 0.85, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 6.0])
def test_cutoff_search_matches_linear_scan(r):
    assert FockCutoff.for_acceleration(r).n_max == linear_scan_cutoff(r)


def exact_one_particle_tail(r, n_max):
    """t^(N+1) [1 + (N+1)(1 - t)], t = tanh^2 r, in 50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        u = 1 / mpmath.cosh(mpmath.mpf(r)) ** 2
        return float((1 - u) ** (n_max + 1) * (1 + (n_max + 1) * u))


@pytest.mark.parametrize("r", [17.0, 18.5])
def test_cutoff_tail_is_honest_at_large_r(r):
    # with t taken from the rounded tanh r, the tail at the chosen cutoff was
    # 1.13e-12 at r = 17 and 1.04e-9 at r = 18.5 against tol 1e-12
    cut = FockCutoff.for_acceleration(r)
    assert exact_one_particle_tail(r, cut.n_max) <= cut.tol


def test_fig2_cutoff_is_honest_at_r_19(capsys):
    # the tanh-based cutoff exited 0 here with a tail 4.3e5 times tol; exp((N+1) ln t)
    # keeps a relative rounding error of about 1e-14, since (N+1)|ln t| = 27.6
    assert main(["fig2", "--r", "19", "--xi", "0.4:0.4:0", "--samples", "10"]) == 0
    n_max = int(re.search(r"^# n_max=(\d+)$", capsys.readouterr().out, re.M).group(1))
    assert exact_one_particle_tail(19.0, n_max) <= 1e-12 * (1 + 1e-13)


def test_cutoff_search_is_fast_and_total():
    start = time.perf_counter()
    assert FockCutoff.for_acceleration(10.0).n_max > 10**9
    assert time.perf_counter() - start < 1.0
    with pytest.raises(SizeError, match="tanh r rounds to 1"):
        FockCutoff.for_acceleration(20.0)


def test_size_budget_checked_before_allocation():
    # each array would need terabytes; the check must fire before numpy is asked
    huge = FockCutoff(10**12)
    with pytest.raises(SizeError, match="entangled_state"):
        entangled_state(0.4, 0.6, huge)
    with pytest.raises(SizeError, match="effective_qubit"):
        effective_qubit((1, 0, 0), 0.6, huge)


def test_vacuum_amplitudes():
    c = unruh_vacuum_amplitudes(0.0)
    assert c[0] == 1.0 and np.all(c[1:] == 0.0)
    c = unruh_vacuum_amplitudes(0.6)
    assert c[0] == pytest.approx(1 / math.cosh(0.6), abs=1e-15)
    assert c[0] == pytest.approx(0.8435506876, abs=1e-9)
    big = unruh_vacuum_amplitudes(0.85, FockCutoff(64))
    assert abs(np.sum(big**2) - 1.0) < 1e-12


def test_one_particle_amplitudes():
    d = unruh_one_particle_amplitudes(0.0)
    assert d[0] == 1.0 and np.all(d[1:] == 0.0)
    d = unruh_one_particle_amplitudes(0.6)
    assert d[0] == pytest.approx(1 / math.cosh(0.6) ** 2, abs=1e-15)
    assert d[0] == pytest.approx(0.7115777626, abs=1e-9)
    big = unruh_one_particle_amplitudes(0.85, FockCutoff(64))
    assert abs(np.sum(big**2) - 1.0) < 1e-12
    # both towers are square roots of the level weights every image reads, within 2 ulp
    for r in (0.0, 0.3, 0.6, 0.85, 1.5, 2.5):
        w, _, wss, _ = _towers(r, None, [(1.0, 0.0), (0.0, 1.0)], "towers")
        for amplitudes, weights in ((unruh_vacuum_amplitudes, w), (unruh_one_particle_amplitudes, wss)):
            assert np.all(np.abs(amplitudes(r) ** 2 / 8 - weights) <= 2 * np.spacing(weights))


def test_amplitude_towers_check_the_memory_budget(monkeypatch):
    # at r = 10 the default cutoff has 3 772 144 013 levels, about 30 GB a tower: refused
    # before numpy is asked, as at a 1 KiB budget a cutoff of 1000 levels is
    with pytest.raises(SizeError, match="unruh_"):
        unruh_vacuum_amplitudes(10)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET", 1024)
    for amplitudes in (unruh_vacuum_amplitudes, unruh_one_particle_amplitudes):
        with pytest.raises(SizeError, match="unruh_"):
            amplitudes(0.6, FockCutoff(1000))


def test_insufficient_cutoff_raises():
    with pytest.raises(TruncationError):
        unruh_vacuum_amplitudes(0.85, FockCutoff(4))
    with pytest.raises(TruncationError):
        effective_qubit((0, 0, 1), 0.9, FockCutoff(8))
    with pytest.raises(TruncationError, match="shared-state trace deficit"):
        entangled_state(0.3, 0.9, FockCutoff(8))


def test_truncation_deficits_match_direct_sums():
    # the dropped traces of the one truncation rule, from the closed-form tails, against
    # 1 - (sum of the kept terms): the two towers, fig3's images of |+> and |phi>, an
    # effective_qubit image, and fig1's shared states
    xis = np.array([0.0, 0.3, 0.9])
    h, a2, b2 = _encoding_amplitudes(xis)
    p = np.array([(1.0, 0.0), (0.0, 1.0), (h * h, h * h), *zip(a2 * a2, b2 * b2), (0.75, 0.25)])
    for r in (0.0, 0.3, 0.6, 0.85, 1.5):
        a = AccelerationParam(r)
        for n_max in (2, 8, FockCutoff.for_acceleration(r).n_max):
            cut = FockCutoff(n_max, tol=0.999)
            c, d = unruh_vacuum_amplitudes(r, cut), unruh_one_particle_amplitudes(r, cut)
            kept = (np.sum(c**2), np.sum(d**2))
            direct = 1.0 - (p[:, 0] * kept[0] + p[:, 1] * kept[1])
            direct[-1] = 1.0 - effective_qubit((0.3, 0.0, 0.5), r, cut).trace().real
            assert np.max(np.abs(_check_images(p, kept, a, cut, "image") - direct)) <= 1e-14
            for xi in xis:
                amps, weights = shared_terms(OrthogonalityParam(xi), a, cut)
                direct = 1.0 - weights @ np.sum(amps**2, axis=0)
                shared = _shared_weights(_shared_etas(np.array([xi])))
                assert abs(_towers(a, cut, shared, "shared-state")[3][0] - direct) <= 1e-14


def test_each_image_is_accepted_by_its_own_dropped_trace():
    # fig1, fig3 and effective_qubit raise exactly when one of their images drops more than
    # tol, whatever each tower drops.  With s = eta_{+-}^2 + eta_{--}^2 = 4 - 2 xi, the shared
    # state weighs (s/8, 1 - s/8) on the two towers; |+> weighs (1/2, 1/2) and |phi>
    # ((1 - xi)/2, (1 + xi)/2)
    xis, accepted = [0.0, 0.3], []
    for r in (0.3, 0.85, 1.5):
        for n_max in (4, 8, 16, 20, 32):
            vacuum, one = _tail_weights(AccelerationParam(r), n_max)
            shared = [((4 - 2 * xi) * vacuum + (4 + 2 * xi) * one) / 8 for xi in xis]
            images = [(vacuum + one) / 2] + [((1 - xi) * vacuum + (1 + xi) * one) / 2 for xi in xis]
            for tol in (1e-12, 1e-6, 1.5e-6, 1e-3, 0.1, 0.5):
                cut = FockCutoff(n_max, tol)
                for name, call, dropped in (
                        ("fig1", lambda: negativity_sweep(r, xis, cut), shared),
                        ("fig3", lambda: angle_sweep(r, xis, cut), images),
                        ("qubit", lambda: [effective_qubit(n, r, cut) for xi in xis for n in bloch_pair(xi)], images)):
                    assert not math.isclose(max(dropped), tol, rel_tol=1e-9)
                    if max(dropped) > tol:
                        with pytest.raises(TruncationError, match="trace deficit"):
                            call()
                    else:
                        call()
                        if one > tol:
                            accepted.append((name, r, n_max, tol))
    # where the one-particle tower drops more than tol and the images do not
    assert accepted == [("fig1", 0.85, 20, 1.5e-6), ("fig3", 0.85, 20, 1.5e-6), ("qubit", 0.85, 20, 1.5e-6),
                        ("fig1", 1.5, 16, 0.1)]
    # the README's boundary case: both figures print
    for fig in ("fig1", "fig3"):
        assert main([fig, "--r", "0.85", "--n-max", "20", "--cutoff-tol", "1.5e-6", "--xi", "0.3:0.3:0",
                     "-o", os.devnull]) == 0


def test_minkowski_qubit_cases():
    np.testing.assert_allclose(minkowski_qubit((0, 0, 1)).entries, np.diag([1.0, 0.0]))
    np.testing.assert_allclose(minkowski_qubit((0, 0, 0)).entries, np.eye(2) / 2)
    plus = np.full((2, 2), 0.5)
    np.testing.assert_allclose(minkowski_qubit((1, 0, 0)).entries, plus)
    with pytest.raises(InvalidBlochError):
        minkowski_qubit((0.8, 0.8, 0.8))


def test_effective_qubit_inertial_embeds_input():
    rho = effective_qubit((0.3, -0.4, 0.5), 0.0)
    ref = minkowski_qubit((0.3, -0.4, 0.5)).entries
    np.testing.assert_allclose(rho.entries[:2, :2], ref, atol=1e-15)
    assert np.max(np.abs(rho.entries[2:, :])) == 0.0


def test_effective_qubit_vacuum_is_thermal_like():
    r = 0.6
    cut = FockCutoff.for_acceleration(r)
    rho = effective_qubit((0, 0, 1), r, cut)
    n = np.arange(cut.n_max + 1)
    expected = np.tanh(r) ** (2 * n) / np.cosh(r) ** 2
    np.testing.assert_allclose(np.diag(rho.entries)[: cut.n_max + 1].real, expected, atol=1e-15)
    off = rho.entries - np.diag(np.diag(rho.entries))
    assert np.max(np.abs(off)) == 0.0


def test_effective_qubit_trace_and_psd():
    rng = np.random.default_rng(3)
    for r in (0.05, 0.3, 0.85):
        cut = FockCutoff.for_acceleration(r)
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0, 1)
        rho = effective_qubit(v, r, cut)
        # tail of the geometric series bounds the trace deficit
        t2 = math.tanh(r) ** 2
        bound = t2 ** (cut.n_max + 1) * ((cut.n_max + 2) - (cut.n_max + 1) * t2)
        assert abs(rho.trace().real - 1.0) <= bound + 1e-15
        assert min_eigenvalue(rho) > -1e-10
        assert is_hermitian(rho, atol=0)


def test_effective_qubit_matches_small_r_block():
    rng = np.random.default_rng(4)
    for _ in range(5):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0, 1)
        exact = effective_qubit(v, 0.05).entries[:3, :3]
        approx = small_r_qubit(v, 0.05).entries
        assert np.max(np.abs(exact - approx)) < 1e-4


def test_channel_linearity():
    rng = np.random.default_rng(5)
    r = 0.4
    cut = FockCutoff.for_acceleration(r)
    for _ in range(5):
        n1 = rng.normal(size=3)
        n1 = n1 / np.linalg.norm(n1) * rng.uniform(0, 1)
        n2 = rng.normal(size=3)
        n2 = n2 / np.linalg.norm(n2) * rng.uniform(0, 1)
        w = rng.uniform(0, 1)
        mixed = effective_qubit(w * n1 + (1 - w) * n2, r, cut).entries
        parts = w * effective_qubit(n1, r, cut).entries + (1 - w) * effective_qubit(n2, r, cut).entries
        np.testing.assert_allclose(mixed, parts, atol=1e-10)


@pytest.mark.parametrize("xi", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("r", [0.0, 0.6, 1.5])
def test_entangled_state_matches_dense_oracle(xi, r):
    base = FockCutoff.for_acceleration(r)
    for cut in (base, base.doubled()):
        rho = entangled_state(xi, r, cut)
        assert rho.space_tag == (2, cut.levels)
        np.testing.assert_allclose(rho.entries, dense_entangled_state(xi, r, cut), rtol=0, atol=1e-15)


def test_real_storage_dtypes():
    assert entangled_state(0.3, 0.6).entries.dtype == np.float64
    assert effective_qubit((0.3, 0.0, -0.5), 0.6).entries.dtype == np.float64
    for op in (effective_qubit((0.3, 0.2, -0.5), 0.6), small_r_qubit((0.3, 0.0, -0.5), 0.1),
               minkowski_qubit((0.3, 0.0, -0.5))):
        assert op.entries.dtype == np.complex128


def test_state_builds_wrap_their_array_without_a_copy():
    # the built matrix is handed to the operator, not copied: the peak stays
    # near one state, where a copy on wrap would double it
    cut = FockCutoff(400)
    nbytes = (2 * cut.levels) ** 2 * 8
    entangled_state(0.3, 0.6, cut)
    tracemalloc.start()
    try:
        rho = entangled_state(0.3, 0.6, cut)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.entries.nbytes == nbytes and peak < 1.3 * nbytes
    for op in (rho, effective_qubit((0.3, 0.0, -0.5), 0.6), effective_qubit((0.3, 0.2, -0.5), 0.6)):
        assert not op.entries.flags.writeable and op.entries.base is None


def test_entangled_state_bell_limit():
    rho = entangled_state(0.0, 0.0)
    nlev = rho.space_tag[1]
    vec = np.zeros(2 * nlev)
    vec[0] = vec[nlev + 1] = 1 / math.sqrt(2)  # (|0,0> + |1,1>)/sqrt2
    assert rho.trace().real == pytest.approx(1.0, abs=1e-14)
    assert vec @ rho.entries.real @ vec == pytest.approx(1.0, abs=1e-13)


def test_entangled_state_normalization():
    for xi, r in ((0.0, 0.0), (0.3, 0.6), (0.9, 0.85), (0.5, 0.2)):
        rho = entangled_state(xi, r)
        assert abs(rho.trace().real - 1.0) < 1e-10
        assert is_hermitian(rho, atol=0)
        assert min_eigenvalue(rho) > -1e-10


def test_entangled_state_alice_reduced_maximally_mixed():
    rho = entangled_state(0.0, 0.6)
    reduced = np.einsum("ajbj->ab", rho.entries.reshape(rho.space_tag * 2))
    np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-10)


def test_small_r_inertial_embedding():
    m = small_r_qubit((0.2, 0.1, -0.3), 0.0).entries
    ref = minkowski_qubit((0.2, 0.1, -0.3)).entries
    np.testing.assert_allclose(m[:2, :2], ref, atol=1e-15)
    assert np.max(np.abs(m[2, :])) == 0.0 and np.max(np.abs(m[:, 2])) == 0.0


def test_small_r_trace():
    # trace = 1 - T^4 (2 - z) + T^6 (1 - z) exactly, i.e. 1 - (2 - z) r^4 + O(r^6);
    # subnormalization enters only at fourth order
    r = 0.1
    t = math.tanh(r)
    for z in (0.0, 0.5, -1.0):
        tr = small_r_qubit((0, 0, z), r).trace().real
        assert tr == pytest.approx(1 - t**4 * (2 - z) + t**6 * (1 - z), abs=1e-12)
        assert tr == pytest.approx(1 - (2 - z) * r**4, abs=1e-5)
    assert small_r_qubit((0, 0, 0), r).trace().real == pytest.approx(0.9998036231, abs=1e-9)


def test_small_r_corner_entry():
    r, z = 0.1, -1.0
    C, T = math.cosh(r), math.tanh(r)
    m = small_r_qubit((0, 0, z), r).entries
    assert m[2, 2].real == pytest.approx(2 * T**2 * (1 - z) / (2 * C**2) / C**2, abs=1e-15)
    assert m[2, 2].real == pytest.approx(2 * T**2 / C**4, abs=1e-15)


def test_small_r_warns_above_limit():
    with pytest.warns(UserWarning):
        small_r_qubit((0, 0, 0), 0.4)


def test_small_r_error_scales_as_r4():
    # fit the constant on small r, then check the quartic envelope holds
    rng = np.random.default_rng(6)
    points = [rng.normal(size=3) for _ in range(8)]
    points = [p / np.linalg.norm(p) * rng.uniform(0, 0.99) for p in points]
    rs = (0.02, 0.04, 0.06, 0.08, 0.1)
    worst = {}
    for r in rs:
        worst[r] = max(
            np.max(np.abs(effective_qubit(p, r).entries[:3, :3] - small_r_qubit(p, r).entries))
            for p in points
        )
    k = max(worst[r] / r**4 for r in rs[:3])
    for r in rs:
        assert worst[r] <= 1.5 * k * r**4
