import contextlib
import importlib.util
import io
import math
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import mp_bures_angle, mp_log_negativity
from rqit import _lapack, cli, geometry, teleportation
from rqit.cli import main


def run_cli(args):
    return main(args)


def read_csv(path):
    header, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                header[key] = value
            else:
                rows.append([float(x) for x in line.split(",")])
    return header, rows


def test_fig3_trivial_row(tmp_path):
    out = tmp_path / "fig3.csv"
    assert run_cli(["fig3", "--r", "0", "--xi", "0:0:1", "-o", str(out)]) == 0
    header, rows = read_csv(out)
    assert header["command"] == "fig3"
    assert header["columns"] == "xi,theta"
    assert len(rows) == 1
    assert rows[0][1] == pytest.approx(math.pi / 2, abs=1e-10)


def test_fig1_columns_and_grid(tmp_path):
    out = tmp_path / "fig1.csv"
    assert run_cli(["fig1", "--r", "0.6", "--xi", "0:0.1:0.02", "-o", str(out)]) == 0
    header, rows = read_csv(out)
    assert header["columns"] == "xi,log_negativity"
    assert header["r"] == "0.6"
    assert "n_max" in header
    assert len(rows) == 6
    assert rows[0][1] == pytest.approx(0.6461686715, abs=1e-8)


def test_fig2_columns(tmp_path):
    out = tmp_path / "fig2.csv"
    code = run_cli(
        ["fig2", "--r", "0.3", "--xi", "0:0.04:0.04", "--samples", "4000", "--seed", "42", "-o", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header["columns"] == "xi,fidelity_mc,std_err,fidelity_exact"
    assert header["samples"] == "4000" and header["seed"] == "42"
    for xi, mc, se, exact in rows:
        assert abs(mc - exact) < 5 * se


def test_fig2_reaches_large_r(tmp_path):
    # fig2 reads Fock levels {0, 1} only; its n_max header is the cutoff the
    # full shared state would need (above 3e9 at r = 10), found in closed form
    for r, n_max in (("3", 3136), ("5", 171_254), ("10", 3_772_144_013)):
        out = tmp_path / f"fig2-{r}.csv"
        assert run_cli(["fig2", "--r", r, "--xi", "0.4:0.4:0", "--samples", "2000", "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header["n_max"] == str(n_max) and header["cutoff_tol"] == "1e-12"
        (xi, mc, se, exact), = rows
        assert abs(mc - exact) <= 5 * se


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["fig2", "--r", "0.2", "--xi", "0:0.02:0.02", "--samples", "2000", "--seed", "7"]
    assert run_cli(args + ["-o", str(a)]) == 0
    assert run_cli(args + ["-o", str(b)]) == 0
    assert a.read_bytes().replace(str(a).encode(), b"") == b.read_bytes().replace(
        str(b).encode(), b""
    )


@pytest.mark.parametrize("argv", [
    ["fig1", "--r", "{z}", "--xi={z}:0:0"],
    ["fig2", "--r", "{z}", "--xi={z}:0:{z}", "--samples", "3"],
    ["fig3", "--r", "{z}", "--xi={z}:0:0"],
    ["metric", "--r", "{z}", "--points", "2"],
    ["curvature", "--r", "{z}", "--grid", "2"],
], ids=lambda argv: argv[0])
def test_negative_zero_prints_as_zero(argv, tmp_path):
    def run(z):
        out = tmp_path / f"{z}.csv"
        assert run_cli([a.format(z=z) for a in argv] + ["-o", str(out)]) == 0
        return [line for line in out.read_bytes().splitlines() if not line.startswith(b"# output=")]

    assert run("-0") == run("0") == run("-0.0")


def test_svg_emission(tmp_path):
    out, svg = tmp_path / "f.csv", tmp_path / "f.svg"
    assert run_cli(["fig1", "--r", "0.4", "--xi", "0:0.2:0.05", "-o", str(out), "--svg", str(svg)]) == 0
    text = svg.read_text(encoding="utf-8")
    assert text.startswith("<svg") and "polyline" in text


def test_metric_command(tmp_path):
    out = tmp_path / "metric.csv"
    assert run_cli(["metric", "--r", "0.05", "--points", "5", "--seed", "3", "-o", str(out)]) == 0
    header, rows = read_csv(out)
    assert len(rows) == 5
    cols = header["columns"].split(",")
    rel = [row[cols.index("scale_rel_err")] for row in rows]
    assert max(rel) < 0.05


def test_curvature_command(tmp_path):
    out = tmp_path / "curv.csv"
    assert run_cli(["curvature", "--r", "0", "--grid", "2", "-o", str(out)]) == 0
    header, rows = read_csv(out)
    assert header["curvature_geometry"] == "cartesian_pullback"
    assert header["h_offdiag_symbol"] == "xi_c"
    for _, _, numeric, closed, disc in rows:
        assert numeric == pytest.approx(24.0, abs=1e-3)
        assert closed == pytest.approx(24.0, abs=1e-12)
        # CSV stores 12 significant digits, so recomputed differences agree
        # only to the rounding of the printed values
        assert disc == pytest.approx(numeric - closed, abs=1e-9)


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("metric-r0.05-points20-seed1.csv", ["metric", "--r", "0.05", "--points", "20", "--seed", "1"]),
        ("metric-default.csv", ["metric"]),
        ("curvature-default.csv", ["curvature"]),
        ("curvature-r0.3-grid9.csv", ["curvature", "--r", "0.3", "--grid", "9"]),
    ],
)
@pytest.mark.parametrize("block", [None, 7])
def test_geometry_tables_match_golden_bytes(name, argv, block, tmp_path, monkeypatch):
    # the curvature golden files were written by the per-point implementation,
    # the metric ones by the eigenbasis form of ``numeric_metric``; the size
    # of the blocks a table is evaluated in changes no byte
    if block is not None:
        monkeypatch.setattr(geometry, "_BLOCK", block)
    assert_golden_bytes(name, argv, tmp_path)


@pytest.mark.parametrize(
    "name, argv",
    [
        ("fig2-samples1000-seed42.csv", ["fig2", "--samples", "1000", "--seed", "42"]),
        ("fig2-r10-samples1-seed3.csv", ["fig2", "--r", "10", "--samples", "1", "--seed", "3"]),
        ("fig2-default.csv", ["fig2"]),
    ],
)
def test_fig2_tables_match_golden_bytes(name, argv, tmp_path):
    # the --samples files were written before the teleportation kit was built
    # from the Schmidt vectors; the Monte-Carlo and exact columns must keep every
    # byte.  The default prints the exact column and sigma and draws no sample
    assert_golden_bytes(name, argv, tmp_path)


@pytest.mark.parametrize("r", ["0", "0.6", "10"])
def test_fig2_default_exact_column_equals_monte_carlo_runs(r, tmp_path):
    # the default's fidelity_exact column is, byte for byte, the one printed beside the Monte Carlo
    def column(argv, name):
        out = tmp_path / "f.csv"
        assert run_cli(["fig2", "--r", r, *argv, "-o", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        names = next(line for line in lines if line.startswith("# columns="))[len("# columns="):].split(",")
        return [line.split(",")[names.index(name)] for line in lines if not line.startswith("#")]

    exact = column([], "fidelity_exact")
    assert len(exact) == 96
    assert exact == column(["--samples", "1"], "fidelity_exact")


BAND_GOLDENS = [
    ("fig1-default.csv", ["fig1"]),
    ("fig3-default.csv", ["fig3"]),
    ("fig1-r2-xi0-0.95-0.05.csv", ["fig1", "--r", "2", "--xi", "0:0.95:0.05"]),
    ("fig3-r2-xi0-0.95-0.05.csv", ["fig3", "--r", "2", "--xi", "0:0.95:0.05"]),
    # n_max 1153; every row's 12 digits are those of oracles.mp_tower_angles, and the row at xi = 0,
    # 0.7581407565865034 there, lies 3.4e-15 above a rounding tie
    ("fig3-r2.5-xi0-0.95-0.05.csv", ["fig3", "--r", "2.5", "--xi", "0:0.95:0.05"]),
]


@pytest.mark.parametrize("name, argv, block", [
    pytest.param(name, argv, block, id=("" if block is None else f"{block}-") + f"{name}-argv{i}")
    for block in (None, 1) for i, (name, argv) in enumerate(BAND_GOLDENS)
])
def test_band_figure_tables_match_golden_bytes(name, argv, block, tmp_path, monkeypatch):
    # before the default files only the benchmark's 1e-10 reference guarded fig1
    # and fig3; test_fallback_csv_is_byte_identical holds the dense fallback
    # to the same bytes.  At r = 2 the 20 points span 4 stacks of fig1 bands and
    # 2 of fig3 bands at the shipped block bytes, and 20 stacks of one at block 1
    if block is not None:
        monkeypatch.setattr(_lapack, "_BLOCK_BYTES", block)
    assert_golden_bytes(name, argv, tmp_path)


def assert_golden_bytes(name, argv, tmp_path):
    # only the '# output=' line, which names the path written, may differ
    out = tmp_path / name
    assert run_cli([*argv, "-o", str(out)]) == 0

    def body(path):
        return [line for line in path.read_bytes().split(b"\n") if not line.startswith(b"# output=")]

    assert body(out) == body(GOLDEN / name)


def test_csv_rows_take_fmt_bytes(tmp_path):
    # one %-template a row prints what _fmt prints of each value
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 1 / 3, -2.5, 7, np.float64(0.1), True]
    rows = [values, values[::-1]]
    out = tmp_path / "special.csv"
    cli._write_csv(SimpleNamespace(command="fig1", output=str(out)), [f"c{i}" for i in range(len(values))], rows)
    lines = out.read_text(encoding="utf-8").split("\n")
    assert lines[-1] == ""
    assert lines[-3:-1] == [",".join(cli._fmt(v) for v in row) for row in rows]


def test_csv_is_written_in_blocks_of_rows(tmp_path):
    # 50 000 rows of 17 columns make a 12.8 MB file; only a block of rows is held as text
    rows = np.random.default_rng(0).uniform(-1.0, 1.0, (50_000, 17))
    out = tmp_path / "big.csv"
    args = SimpleNamespace(command="metric", output=str(out))
    tracemalloc.start()
    try:
        cli._write_csv(args, [f"c{i}" for i in range(17)], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 12_000_000
    assert peak < size / 4
    with open(out, encoding="utf-8") as fh:
        assert [line for line in fh if not line.startswith("#")][-1] == ",".join(map(cli._fmt, rows[-1])) + "\n"


def test_cached_parser_carries_nothing_between_calls(tmp_path):
    # ``main`` builds its parser once a process: the options of one call must
    # not reach the values or defaults of the next
    assert cli._build_parser() is cli._build_parser()
    runs = [
        ["metric", "--r", "0.2", "--points", "3", "--seed", "5", "--max-norm", "0.5"],
        ["curvature", "--r", "0.05", "--grid", "2"],
        ["metric", "--points", "2"],
        ["curvature", "--grid", "2"],
    ]
    bodies = []
    for k, argv in enumerate(runs * 2):
        fresh = vars(cli._build_parser.__wrapped__().parse_args(argv))
        assert vars(cli._build_parser().parse_args(argv)) == fresh
        out = tmp_path / f"{k}.csv"
        assert run_cli([*argv, "-o", str(out)]) == 0
        header, rows = read_csv(out)
        del header["output"]
        bodies.append((header, rows))
    assert bodies[:4] == bodies[4:]
    metric, curvature = bodies[2][0], bodies[3][0]
    assert (metric["r"], metric["seed"], metric["max_norm"], metric["points"]) == ("0.05", "0", "0.7", "2")
    assert (curvature["r"], curvature["grid"]) == ("0.1", "2") and "points" not in curvature


def test_validate_command(tmp_path, capsys):
    out = tmp_path / "validate.csv"
    assert run_cli(["validate", "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 13 and "FAIL" not in stdout


def test_validate_constant_is_the_partial_transpose_oracle():
    # the 40-digit fig1 value that validate checks at xi = 0.5 is the mpmath trace norm
    # of rho^Gamma built from the Minkowski amplitudes; the band is 8.2e-16 from it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        oracle = mp_log_negativity(0.5, 0.6, 24)
        assert abs(mpmath.mpf(cli.FIG1_XI05_R06_N24) - oracle) < mpmath.mpf(10) ** -38


def test_validate_fig3_constant_is_the_factor_form_oracle():
    # the 40-digit fig3 value that validate checks at xi = 0.3 is acos of the mpmath singular
    # values of A_+^T A_phi built from the Minkowski amplitudes; the band is 3.4e-16 from it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        oracle = mp_bures_angle(0.3, 0.85, 41)
        assert abs(mpmath.mpf(cli.FIG3_XI03_R085_N41) - oracle) < mpmath.mpf(10) ** -38


CUTOFF_TOLS = ("1e-12", "1e-9", "2e-6", "3e-6", "1e-3", "0.5")


@pytest.mark.parametrize("r", ["0.85", "1.5"])
def test_band_figures_take_every_cutoff_tolerance(r, tmp_path):
    # --cutoff-tol is documented on (0, 1), and the unit-trace checks hold each trace plus
    # its closed-form tail to 1, so a loose cutoff is no numeric failure.  fig1 moves by at
    # most 2 tol / ((1 - tol) ln 2) from its value at 1e-12: the terms Delta >= 0 between
    # the two cutoffs have ||Delta^Gamma||_1 <= 2 tr Delta <= 2 tol, and the trace norms
    # are at least the traces, 1 - tol.  E_N >= 0, so no row is negative at any tolerance
    tables = {}
    for command in ("fig1", "fig3"):
        for tol in CUTOFF_TOLS:
            out = tmp_path / f"{command}-{tol}.csv"
            assert run_cli([command, "--r", r, "--cutoff-tol", tol, "-o", str(out)]) == 0, (command, tol)
            tables[command, tol] = np.array(read_csv(out)[1])
    tight = tables["fig1", "1e-12"][:, 1]
    for tol in CUTOFF_TOLS:
        bound = 2 * float(tol) / ((1 - float(tol)) * math.log(2)) + 1e-12
        assert np.abs(tables["fig1", tol][:, 1] - tight).max() <= bound, tol
        assert (tables["fig1", tol][:, 1] >= 0).all(), tol
        assert np.isfinite(tables["fig3", tol]).all(), tol


def test_validate_passes_at_a_loose_cutoff_tolerance(capsys):
    # the doubling shifts are held to bounds from the closed-form tails, which grow with the tolerance;
    # the smallest tolerance accepted, the smallest normal double, passes too (below it the tails are subnormal)
    for tol in (*CUTOFF_TOLS, repr(sys.float_info.min)):
        assert run_cli(["validate", "--cutoff-tol", tol, "-o", "-"]) == 0, tol
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 13 and all(line.startswith("PASS  ") for line in lines), (tol, lines)


# the dense layer and the teleportation protocol, which the tests keep as oracles
DENSE_ROUTE = ("channel.entangled_state", "channel.effective_qubit", "linalg.partial_transpose",
               "linalg.trace_norm", "linalg.matrix_sqrt", "linalg.eigh", "entanglement.log_negativity",
               "distinguishability.bures_angle", "geometry.root_fidelity", "teleportation.schmidt_decompose",
               "teleportation.build_protocol", "teleportation.apply_protocol", "teleportation.haar_qubit_unitaries")


def test_cli_runs_no_dense_route(monkeypatch, tmp_path):
    # every command runs on the structured kernels: each function of DENSE_ROUTE is
    # made to raise wherever an rqit module binds it, and every command still exits 0
    def refuse(*args, **kwargs):
        raise AssertionError("a command ran the dense layer or the protocol")

    modules = [m for name, m in sys.modules.items() if name == "rqit" or name.startswith("rqit.")]
    for qual in DENSE_ROUTE:
        module, name = qual.split(".")
        original = getattr(importlib.import_module(f"rqit.{module}"), name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, refuse)
    for argv in (["fig1"], ["fig2", "--samples", "100"], ["fig3"], ["metric"], ["curvature"], ["validate"]):
        assert run_cli([*argv, "-o", str(tmp_path / f"{argv[0]}.csv")]) == 0, argv


def test_default_fig2_draws_no_sample(monkeypatch, tmp_path):
    # without --samples fig2 prints the exact column and sigma: the Monte Carlo and
    # its sampler are made to raise, and the default run still exits 0
    def refuse(*args, **kwargs):
        raise AssertionError("default fig2 drew a Monte-Carlo sample")

    for name in ("_mc_moments", "_draw_bloch"):
        monkeypatch.setattr(teleportation, name, refuse)
    out = tmp_path / "fig2.csv"
    assert run_cli(["fig2", "-o", str(out)]) == 0
    header, rows = read_csv(out)
    assert header["columns"] == "xi,fidelity_exact,sigma" and header["samples"] == "0"
    assert len(rows) == 96 and all(0 < sigma < 0.1 for _, _, sigma in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--xi", "0:0.5:-0.1"],
        ["fig1", "--xi", "0:0.9:inf", "--svg", "never-written.svg"],
        ["fig1", "--xi", "nonsense"],
        ["fig1", "--xi", "0:1:0.5"],
        ["fig1", "--r", "nan"],
        ["fig1", "--r", "inf"],
        ["fig1", "--n-max", "-3"],
        ["fig1", "--cutoff-tol", "0"],
        ["fig1", "--cutoff-tol", "1e-322"],
        ["fig2", "--seed", "-1"],
        ["metric", "--points", "-1"],
        ["fig3", "--xi", "0:0.5:1e-9"],
        ["curvature", "--grid", "100000"],
        ["metric", "--points", "1000000000"],
    ],
    ids=["grid-step", "grid-step-inf", "grid-syntax", "grid-xi-one", "r-nan", "r-inf", "n-max-negative",
         "cutoff-tol-zero", "cutoff-tol-subnormal", "seed-negative", "points-negative", "grid-too-many-points",
         "curvature-grid-too-many-points", "metric-too-many-points"],
)
def test_invalid_input_exits_2(argv, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["metric", "--cutoff-tol", "1e-3"],
        ["curvature", "--cutoff-tol", "1e-3"],
        ["fig2", "--cutoff-tol", "1e-3"],
        ["fig2", "--n-max", "4"],
    ],
    ids=["metric", "curvature", "fig2", "fig2-n-max"],
)
def test_commands_without_fock_cutoff_reject_cutoff_tol(argv, capsys):
    # metric and curvature build no Fock tower, and fig2 reads levels {0, 1}
    # only, which no cutoff changes, so a cutoff option would change nothing
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


_HEADER_KEYS = ["rqit_version", "command", "r", "xi_grid", "cutoff_tol", "samples", "seed", "output"]


@pytest.mark.parametrize(
    "argv, extras",
    [
        (["fig1", "--xi", "0:0:1"], ["n_max"]),
        (["fig2", "--xi", "0:0:1", "--samples", "10"], ["n_max"]),
        (["fig2", "--xi", "0:0:1"], ["n_max"]),
        (["fig3", "--xi", "0:0:1"], ["n_max"]),
        (["metric", "--points", "1"], ["points", "max_norm"]),
        (["curvature", "--grid", "2"], ["grid", "curvature_geometry", "h_offdiag_symbol"]),
        (["validate"], []),
    ],
    ids=["fig1", "fig2", "fig2-default", "fig3", "metric", "curvature", "validate"],
)
def test_header_keys_and_order(argv, extras, tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert run_cli(argv + ["-o", str(out)]) == 0
    keys = [line[2:].partition("=")[0] for line in out.read_text(encoding="utf-8").splitlines()
            if line.startswith("# ")]
    assert keys == _HEADER_KEYS + extras + ["columns"]
    header, _ = read_csv(out)
    assert header["command"] == argv[0] and header["output"] == str(out)
    assert header["cutoff_tol"] == "1e-12"  # the default, also where the command takes no tolerance
    if argv[0] in ("metric", "curvature", "validate"):
        assert header["xi_grid"] == "0:0:0"


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--r", "0.9", "--n-max", "4", "--xi", "0:0:1"],
        ["fig1", "--r", "1000", "--n-max", "50", "--xi", "0:0:1"],
        ["fig2", "--r", "1000", "--xi", "0:0:1", "--samples", "10"],
        ["fig3", "--r", "1000", "--n-max", "50", "--xi", "0:0:1"],
        ["metric", "--r", "1000", "--points", "2"],
        ["curvature", "--r", "400"],
        ["fig3", "--r", "0.85", "--n-max", "3", "--cutoff-tol", "0.1", "--xi", "0.3:0.3:0"],
        # no cutoff exists at r = 20, and the run is over the fig2 work bound too
        ["fig2", "--r", "20", "--samples", "60000000"],
    ],
    ids=["cutoff-too-small", "fig1-r-1000", "fig2-r-1000", "fig3-r-1000", "metric-r-1000",
         "curvature-r-400", "fig3-image-trace", "fig2-no-cutoff-and-over-work-bound"],
)
def test_numeric_failure_exits_3(argv, capsys):
    # a cutoff far too small for the acceleration or the tolerance (fig3's image drops
    # a one-particle tail of 0.16 at n_max 3; at r = 1000 tanh r rounds to 1), or an r
    # above channel.MAX_R
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_monte_carlo_term_exits_3(bad, monkeypatch, capsys):
    # a term the exact sum cannot bin is a numeric failure, not a NaN in the CSV
    def poisoned(form, z2, s, cos2, work):
        work[0] = 0.5
        work[0, -1] = bad
        return work[0]

    monkeypatch.setattr(teleportation, "_form_values", poisoned)
    assert run_cli(["fig2", "--xi", "0.4:0.4:0", "--samples", "100"]) == 3
    err = capsys.readouterr().err
    assert err == "numeric failure: a Monte-Carlo sum met an infinity or a NaN\n"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["fig1", "--r", "4", "--xi", "0.4:0.4:0"], "negativity_sweep needs n_max^2 x points"),
        (["fig3", "--r", "4", "--xi", "0.4:0.4:0"], "angle_sweep needs n_max^2 x points"),
        (["fig1", "--r", "20"], "tanh r rounds to 1"),
        # the most samples the work bound admits on one point, (1e8 - 3000), still
        # exceed the memory budget
        (["fig2", "--xi", "0.4:0.4:0", "--samples", "99997000"], "Monte-Carlo overlaps needs"),
        (["fig2", "--samples", "60000000"], "over the Monte-Carlo work bound"),
        (["fig2", "--xi", "0:0.99999:0.00001", "--samples", "1000"], "over the Monte-Carlo work bound"),
        (["fig2", "--xi", "0:0.99999:0.00001", "--samples", "1"], "over the Monte-Carlo work bound"),
    ],
    ids=["fig1-state-over-budget", "fig3-qubit-over-budget",
         "tanh-rounds-to-one", "fig2-samples-over-budget", "fig2-work-over-budget",
         "fig2-points-over-work-bound", "fig2-points-over-work-bound-one-sample"],
)
def test_size_limit_exits_3(argv, reason, capsys):
    # refused from n_max or the sample count before any large array exists,
    # so it ends at once
    start = time.perf_counter()
    assert run_cli(argv) == 3
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert reason in err


def test_fig2_builds_one_channel_per_point(monkeypatch, tmp_path):
    calls = Counter()

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in ("_fidelity_form", "_mc_moments", "_draw_bloch"):
        monkeypatch.setattr(teleportation, name, counted(name, getattr(teleportation, name)))
    assert run_cli(["fig2", "--xi", "0:0.8:0.2", "--samples", "10", "-o", str(tmp_path / "f.csv")]) == 0
    # one form over the whole grid for the exact column and one for the Monte Carlo, whose
    # one kernel call draws the samples once in each of its two passes, whatever the grid
    assert calls == {"_fidelity_form": 2, "_mc_moments": 1, "_draw_bloch": 2}
    calls.clear()
    assert run_cli(["fig2", "--xi", "0:0.8:0.2", "-o", str(tmp_path / "f.csv")]) == 0
    assert calls == {"_fidelity_form": 1}


def test_io_failure_exits_4(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "f.csv"
    assert run_cli(["fig1", "--r", "0.4", "--xi", "0:0:1", "-o", str(target)]) == 4


def test_benchmark_traced_functions_resolve():
    # perfbench/run.py --trace 1 wraps these names; each must still exist in rqit
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for entry in tracer.FUNCTIONS:
        module, name = entry.split(".")
        assert callable(getattr(importlib.import_module("rqit." + module), name)), entry


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rqit.cli", "fig3", "--r", "0", "--xi", "0:0:1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "columns=xi,theta" in proc.stdout


def test_commands_need_only_numpy(tmp_path):
    # the package depends on numpy alone: every command runs with the test and oracle
    # libraries made unimportable
    code = (
        "import sys\n"
        "for name in ('mpmath', 'sympy', 'hypothesis', 'scipy', 'pytest'):\n"
        "    sys.modules[name] = None\n"
        "from rqit.cli import main\n"
        "argvs = [['fig1'], ['fig3'], ['fig2', '--samples', '2000'], ['metric'], ['curvature'], ['validate']]\n"
        "print([main([*argv, '-o', sys.argv[1] + '/' + argv[0] + '.csv']) for argv in argvs])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0]", proc.stdout




_BAD = st.sampled_from(["nan", "inf", "-inf", "1e999", "abc", "", "0x10", "1,5"])
_NEGATIVE = st.floats(max_value=0, exclude_max=True).map(repr)
# name: (values the command accepts, values it must reject).  The accepted ones
# are cheap: r <= 1.5 and cutoff-tol >= 1e-14 keep n_max near 200 at most, and
# no grid, sample count or table is large.
_OPTIONS = {
    "--r": (st.floats(0, 1.5).map(repr), st.one_of(_NEGATIVE, _BAD)),
    "--xi": (
        st.one_of(
            st.builds(lambda lo, span, n: f"{lo!r}:{lo + span!r}:{max(span, 1e-3) / n!r}",
                      st.floats(0, 0.9), st.floats(0, 0.09), st.integers(1, 20)),
            st.sampled_from(["0:0:1", "0.5:0.5:0", "0:0.9:1e300"]),
        ),
        st.sampled_from(["0:1:0.5", "0.5:0.1:0.1", "nan:0.5:0.1", "0:0.5:nan", "0:0.9:1e-300", "0:0.9:inf",
                         "1:1:0", "a:b:c", "0:0.5", "-0.1:0.2:0.1", "0:0.5:-0.1"]),
    ),
    "--cutoff-tol": (st.floats(1e-14, 1, exclude_max=True).map(repr),
                     st.one_of(st.floats(min_value=1).map(repr), _NEGATIVE, _BAD)),
    "--n-max": (st.integers(0, 200).map(str), st.one_of(st.integers(max_value=-1).map(str), _BAD)),
    "--samples": (st.integers(1, 2000).map(str), st.one_of(st.integers(max_value=0).map(str), _BAD)),
    "--seed": (st.integers(0, 2**70).map(str), st.one_of(st.integers(max_value=-1).map(str), _BAD)),
    "--points": (st.integers(1, 20).map(str),
                 st.one_of(st.integers(max_value=0).map(str), st.integers(min_value=100_001).map(str), _BAD)),
    "--max-norm": (st.floats(0, 0.9, exclude_min=True).map(repr),
                   st.one_of(st.floats(0.9, exclude_min=True).map(repr), _NEGATIVE, _BAD)),
    "--grid": (st.integers(2, 4).map(str),
               st.one_of(st.integers(max_value=1).map(str), st.integers(min_value=317).map(str), _BAD)),
}
# (always passed, sometimes passed): the sweeps always get a small grid, and fig2 a small sample count
# when it samples at all
_COMMAND_OPTIONS = {
    "fig1": (["--xi"], ["--r", "--cutoff-tol", "--n-max"]),
    "fig2": (["--xi"], ["--r", "--seed", "--samples"]),
    "fig3": (["--xi"], ["--r", "--cutoff-tol", "--n-max"]),
    "metric": ([], ["--r", "--points", "--seed", "--max-norm"]),
    "curvature": (["--grid"], ["--r"]),
    "validate": ([], ["--cutoff-tol"]),
}


_SMALL_R_WARNING = re.compile(
    r"small_r_qubit called with r=\d+\.\d{3} > 0\.3; the O\(r\^4\) accuracy guarantee degrades")


@st.composite
def _argv(draw):
    """A command with accepted option values, in half the cases one of them replaced by a
    rejected one."""
    command = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    always, sometimes = _COMMAND_OPTIONS[command]
    names = always + draw(st.lists(st.sampled_from(sometimes), unique=True))
    spoiled = draw(st.one_of(st.none(), st.sampled_from(names))) if names else None
    return [command, "-o", "-"] + [
        f"{name}={draw(_OPTIONS[name][name == spoiled])}" for name in names
    ]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
def test_cli_argv_fuzz_exits_with_documented_code(argv):
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed value itself
            code = exc.code
    assert time.perf_counter() - start < 5.0, argv
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # the only warning is the documented small-r one, from a metric run above r = 0.3
    assert len(caught) <= 1, (argv, [str(w.message) for w in caught])
    for w in caught:
        assert w.category is UserWarning and argv[0] == "metric", (argv, w.message)
        assert _SMALL_R_WARNING.fullmatch(str(w.message)), (argv, w.message)
        assert cli._build_parser().parse_args(argv).r > 0.3, (argv, w.message)
