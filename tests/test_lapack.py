import glob
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from oracles import dense_bures_angle
from rqit import _lapack, channel, entanglement, linalg
from rqit.channel import FockCutoff, entangled_state
from rqit.cli import main
from rqit.distinguishability import angle_sweep
from rqit.entanglement import log_negativity, negativity_sweep
from rqit.errors import NumericError, SizeError, TruncationError


def bundled_library():
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so")
    return glob.glob(pattern)


needs_library = pytest.mark.skipif(not bundled_library(), reason="numpy has no bundled ILP64 OpenBLAS")


ROUTES = ("banded", "dense-fallback")


@pytest.fixture(params=ROUTES)
def route(request, monkeypatch):
    if request.param == "banded":
        if _lapack._routines() is None:
            pytest.skip("numpy has no bundled ILP64 OpenBLAS")
    else:
        monkeypatch.setattr(_lapack, "_routines", lambda: None)
    return request.param


def on_both_routes(names, cases):
    """Parametrize ``route`` and ``names`` over ``cases`` on each route; a
    banded case keeps the id it had when only that route was tested."""
    params = [pytest.param(route, *case, id="-".join(map(str, case)) + ("" if route == "banded" else f"-{route}"))
              for route in ROUTES for case in cases]
    return pytest.mark.parametrize(("route", *names), params, indirect=["route"])


@needs_library
def test_bundled_library_is_bound():
    assert set(_lapack._routines()) == {"dsbev", "dgbbrd", "dlasq1"}


@pytest.mark.parametrize("listing", [[], FileNotFoundError], ids=["no-openblas", "no-numpy-libs"])
def test_loader_reports_a_missing_library(listing, monkeypatch):
    def listdir(path):
        if listing is FileNotFoundError:
            raise FileNotFoundError(path)
        return listing

    monkeypatch.setattr(_lapack.os, "listdir", listdir)
    assert _lapack._routines.__wrapped__() is None


def test_import_does_not_load_the_library():
    code = "import rqit.cli, rqit._lapack as m; print(m._routines.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "0"


@on_both_routes(("kd", "n"), [(kd, n) for kd in (0, 1, 2, 3) for n in (1, 2, 7, 60)])
def test_band_eigvalsh_matches_dense(route, kd, n):
    rng = np.random.default_rng(100 * n + kd)
    ab = np.asfortranarray(rng.normal(size=(kd + 1, n)))
    lower = sum(np.diag(ab[k, :n - k], -k) for k in range(min(kd, n - 1) + 1))
    dense = lower + np.tril(lower, -1).T
    np.testing.assert_allclose(_lapack.band_eigvalsh(ab[None])[0], np.linalg.eigvalsh(dense), atol=1e-12)


@on_both_routes(("n",), [(1,), (2,), (7,), (60,)])
def test_tridiagonal_singular_values_match_dense(route, n):
    rng = np.random.default_rng(n)
    ab = np.asfortranarray(rng.normal(size=(3, n)))
    dense = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
    got = _lapack.tridiagonal_singular_values(ab[None])[0]
    np.testing.assert_allclose(got, np.linalg.svd(dense, compute_uv=False), atol=1e-12)


def test_band_storage_is_validated():
    with pytest.raises(ValueError, match="Fortran-ordered"):
        _lapack.band_eigvalsh(np.zeros((4, 8)))
    with pytest.raises(ValueError, match="Fortran-ordered"):
        _lapack.tridiagonal_singular_values(np.zeros((2, 8), order="F"))
    # stacks whose bands are C-ordered, of the wrong dtype, or not of three rows
    with pytest.raises(ValueError, match="Fortran-ordered"):
        _lapack.band_eigvalsh(np.zeros((2, 4, 8)))
    with pytest.raises(ValueError, match="Fortran-ordered"):
        _lapack.band_eigvalsh(np.zeros((2, 8, 4), dtype=np.float32).transpose(0, 2, 1))
    with pytest.raises(ValueError, match="Fortran-ordered"):
        _lapack.tridiagonal_singular_values(np.zeros((2, 8, 2)).transpose(0, 2, 1))
    # LAPACK overwrites the bands, so a read-only stack is refused
    with pytest.raises(ValueError, match="writable"):
        _lapack.band_eigvalsh(np.broadcast_to(np.eye(4, 8), (3, 4, 8)).transpose(0, 2, 1))


STACKS = (0, 1, 15, 16, 17, 96)


@pytest.mark.parametrize("p", STACKS)
def test_stacked_kernels_equal_per_band_calls(route, p):
    # the stack's values are bit for bit those of each band called as a stack of one
    rng = np.random.default_rng(p)
    kernels = [(_lapack.band_eigvalsh, kd + 1) for kd in (1, 2, 3)]
    for kernel, rows in kernels + [(_lapack.tridiagonal_singular_values, 3)]:
        bands = rng.normal(size=(p, 9, rows))
        stacked = kernel(bands.copy().transpose(0, 2, 1))
        assert stacked.shape == (p, 9)
        single = [kernel(band.copy()[None].transpose(0, 2, 1))[0] for band in bands]
        assert np.array_equal(stacked, np.array(single).reshape(p, 9))


@needs_library
@pytest.mark.parametrize("routine, info_arg, kernel, rows", [
    ("dsbev", 10, _lapack.band_eigvalsh, 4),
    ("dgbbrd", 17, _lapack.tridiagonal_singular_values, 3),
    ("dlasq1", 4, _lapack.tridiagonal_singular_values, 3),
])
def test_nonzero_info_on_a_middle_band_raises(routine, info_arg, kernel, rows, monkeypatch):
    real, calls = _lapack._routines()[routine], []

    def fails_third(*args):
        real(*args)
        calls.append(None)
        if len(calls) == 3:
            args[info_arg].contents.value = -5

    routines = {**_lapack._routines(), routine: fails_third}
    monkeypatch.setattr(_lapack, "_routines", lambda: routines)
    bands = np.random.default_rng(0).normal(size=(6, 12, rows))
    with pytest.raises(NumericError, match=f"LAPACK {routine} failed with INFO = -5"):
        kernel(bands.transpose(0, 2, 1))
    assert len(calls) == 3


SWEEPS = ((negativity_sweep, "band_eigvalsh", 0.6), (angle_sweep, "tridiagonal_singular_values", 0.85))


def record_stacks(monkeypatch, kernel):
    """A list to which each call of ``_lapack.<kernel>`` appends the number of
    bands in its stack, after running the kernel."""
    real, stacks = getattr(_lapack, kernel), []

    def recorded(ab):
        stacks.append(len(ab))
        return real(ab)

    monkeypatch.setattr(_lapack, kernel, recorded)
    return stacks


def test_sweeps_across_blocks_equal_one_point_sweeps(route, monkeypatch):
    # stacks of a few points, then of one (a band larger than the block bytes),
    # so the 35-point grid crosses at least two stack boundaries
    xis = np.arange(35) * 0.025
    for block_bytes in (16 * 1024, 1):
        monkeypatch.setattr(_lapack, "_BLOCK_BYTES", block_bytes)
        for sweep, kernel, r in SWEEPS:
            stacks = record_stacks(monkeypatch, kernel)
            swept = sweep(r, xis)
            assert len(stacks) > 2 and sum(stacks) == len(xis), (sweep, block_bytes, stacks)
            assert swept == [sweep(r, [xi])[0] for xi in xis]


def test_default_grids_fit_one_block(monkeypatch):
    # the 96-point default fig1 and fig3 grids are one fill and one kernel call
    for sweep, kernel, r in SWEEPS:
        stacks = record_stacks(monkeypatch, kernel)
        sweep(r, np.arange(96) * 0.01)
        assert stacks == [96], sweep


@pytest.mark.parametrize("sweep", [negativity_sweep, angle_sweep])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1.0, -0.1])
@pytest.mark.parametrize("at", [0, 3, 7])
def test_sweeps_name_the_first_bad_xi(sweep, bad, at):
    xis = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 2.0]  # the 2.0 after a bad value is not the one named
    xis[at] = bad
    with pytest.raises(ValueError, match=re.escape(f"xi must lie in [0, 1), got {bad}")):
        sweep(0.6, xis)


TAIL_WEIGHTS = channel._tail_weights


def squared_tail_head(a, n_max):
    """_tail_weights with t^(N+1) squared: both tails far too small."""
    vacuum, one = TAIL_WEIGHTS(a, n_max)
    return vacuum * vacuum, one * vacuum


def tails_in_the_wrong_tower(a, n_max):
    """_tail_weights with 1e-13 of the one-particle tail booked to the vacuum
    tail: an image of tower weights (p0, p1) then misses by 1e-13 (p0 - p1),
    which is 0 at |+>, -1e-13 xi at |phi> and -5e-14 xi at fig1's state."""
    vacuum, one = TAIL_WEIGHTS(a, n_max)
    return vacuum + 1e-13, one - 1e-13


@pytest.mark.parametrize("sweep, r, xis, cut, message, tails", [
    (negativity_sweep, 0.9, [0.3, 0.5], FockCutoff(8),
     "shared-state trace deficit 8.674e-03 exceeds tol 1.0e-12 at n_max 8", None),
    (negativity_sweep, 0.9, [0.1, 0.9, 0.2, 0.95], FockCutoff(8, tol=1e-2),
     "shared-state trace deficit 1.029e-02 exceeds tol 1.0e-02 at n_max 8", None),
    (angle_sweep, 0.85, [0.3], FockCutoff(3, tol=0.9),
     "channel image trace 0.893626301934 plus its dropped tail 0.0055336 misses 1 by -0.101, more than 7.11e-15",
     squared_tail_head),
    (angle_sweep, 0.85, [0.2, 0.95, 0.1, 0.99], FockCutoff(21, tol=1e-5),
     "channel image trace 0.999998939459 plus its dropped tail 1.06054e-06 misses 1 by -9.5e-14, "
     "more than 3.91e-14", tails_in_the_wrong_tower),
    (negativity_sweep, 0.9, [0.3, 0.5], FockCutoff(8, tol=0.5),
     "shared-state trace 0.991326317184 plus its dropped tail 2.13742e-05 misses 1 by -0.00865, more than 1.6e-14",
     squared_tail_head),
    (negativity_sweep, 0.9, [0.1, 0.6, 0.2, 0.95], FockCutoff(8, tol=0.5),
     "shared-state trace 0.990516391988 plus its dropped tail 0.00948361 misses 1 by -2.99e-14, more than 1.6e-14",
     tails_in_the_wrong_tower),
])
def test_sweeps_name_the_first_truncated_point(sweep, r, xis, cut, message, tails, monkeypatch):
    # the text one-point checks gave; of several failing points the first is named, not the worst.
    # channel._check_images holds each image's trace plus its closed-form tail to 1 at any
    # cutoff tolerance, so only a wrong tail trips that: here one swapped in for the library's
    if tails:
        monkeypatch.setattr(channel, "_tail_weights", tails)
    with pytest.raises(TruncationError) as err:
        sweep(r, xis, cut)
    assert str(err.value) == message


def test_sweeps_of_an_empty_grid(route):
    assert negativity_sweep(0.6, []) == [] and angle_sweep(0.85, []) == []


def test_negativity_sweep_builds_the_terms_once(monkeypatch):
    # the xi-free level weights once a sweep, and the four eta and the tower weights of every point in one call
    xis = np.arange(40) * 0.02
    expected = negativity_sweep(0.6, xis)
    calls = []
    for name in ("_towers", "_shared_etas", "_shared_weights"):
        built = getattr(channel, name)
        monkeypatch.setattr(entanglement, name, lambda *args, built=built: calls.append(built) or built(*args))
    assert negativity_sweep(0.6, xis) == expected
    assert calls == [channel._shared_etas, channel._shared_weights, channel._towers]


def test_band_stacks_stay_under_the_memory_budget():
    # the sweeps check no memory budget for their band stacks: check_cost admits one point
    # up to n_max = isqrt(WORK_BUDGET), and band_sums keeps a stack at or under
    # max(_BLOCK_BYTES, one band), 680 KB for fig1 and 340 KB for fig3 there.  A kernel
    # that returns the first row of each band stands in for LAPACK
    top = math.isqrt(linalg.WORK_BUDGET)
    linalg.check_cost(top, 1, "one point")
    with pytest.raises(SizeError):
        linalg.check_cost(top + 1, 1, "one point")
    largest = {}
    for n_max in (1, 24, 1443, top):
        for n in (2 * (n_max + 2), n_max + 1):  # negativity_sweep's and angle_sweep's bands
            band, stacks = 8 * 3 * n, []

            def first_rows(ab):
                stacks.append(ab.nbytes)
                return ab[:, 0]

            points = 2 * max(1, _lapack._BLOCK_BYTES // band) + 1
            sums = _lapack.band_sums(first_rows, n, [(0, slice(None), np.zeros(points), np.ones(n))])
            assert np.array_equal(sums, np.zeros(points)) and len(stacks) == 3, (n_max, n)
            assert max(stacks) <= max(_lapack._BLOCK_BYTES, band) <= linalg.MEMORY_BUDGET, (n_max, n)
            largest[n_max, n] = max(stacks)
    assert (largest[top, 2 * (top + 2)], largest[top, top + 1]) == (678_912, 339_432)


@pytest.mark.parametrize("r", [0.0, 0.01])
def test_smallest_cutoff(route, r):
    # n_max = 1: a 6-dimensional band matrix and a 2x2 tridiagonal M
    cut = FockCutoff(1, tol=1e-6)
    xis = [0.0, 0.5]
    for xi, res in zip(xis, negativity_sweep(r, xis, cut)):
        assert res.log_negativity == pytest.approx(log_negativity(entangled_state(xi, r, cut)), abs=1e-12)
    for xi, res in zip(xis, angle_sweep(r, xis, cut)):
        assert res.theta == pytest.approx(dense_bures_angle(xi, r, cut), abs=1e-12)


def csv_rows(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("# output=")]


@needs_library
@pytest.mark.parametrize("argv", [
    ["fig1"], ["fig3"], ["fig1", "--r", "1.5", "--xi", "0:0.8:0.4"], ["fig3", "--r", "2", "--xi", "0.4:0.4:0"],
], ids=["fig1-default", "fig3-default", "fig1-r1.5", "fig3-r2"])
def test_fallback_csv_is_byte_identical(argv, tmp_path, monkeypatch):
    band, dense = tmp_path / "band.csv", tmp_path / "dense.csv"
    assert main(argv + ["-o", str(band)]) == 0
    monkeypatch.setattr(_lapack, "_routines", lambda: None)
    assert main(argv + ["-o", str(dense)]) == 0
    assert csv_rows(band) == csv_rows(dense)


def test_fallback_keeps_the_memory_budget(monkeypatch):
    # within the work budget, but the dense matrices would exceed 512 MiB
    monkeypatch.setattr(_lapack, "_routines", lambda: None)
    with pytest.raises(SizeError, match="band_eigvalsh dense fallback needs"):
        negativity_sweep(0.6, [0.3], FockCutoff(5000))
    with pytest.raises(SizeError, match="tridiagonal_singular_values dense fallback needs"):
        angle_sweep(0.6, [0.3], FockCutoff(9000))


@needs_library
@pytest.mark.parametrize("routine, info_arg, command", [
    ("dsbev", 10, "fig1"), ("dgbbrd", 17, "fig3"), ("dlasq1", 4, "fig3"),
])
def test_nonzero_info_exits_3(routine, info_arg, command, monkeypatch, capsys):
    def fails(*args):
        args[info_arg].contents.value = 1

    routines = {**_lapack._routines(), routine: fails}
    monkeypatch.setattr(_lapack, "_routines", lambda: routines)
    sweep = negativity_sweep if command == "fig1" else angle_sweep
    with pytest.raises(NumericError, match=f"LAPACK {routine} failed with INFO = 1"):
        sweep(0.6, [0.3])
    assert main([command, "--xi", "0.3:0.3:0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
