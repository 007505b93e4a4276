import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from rqit.cli import _thread_count, main


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
    # at r = 5 (n_max 171254) the trace deficit must not be lost to rounding
    for r, n_max in (("3", 3136), ("5", 171_254)):
        out, doubled = tmp_path / f"fig2-{r}.csv", tmp_path / f"fig2-{r}-doubled.csv"
        args = ["fig2", "--r", r, "--xi", "0.4:0.4:0", "--samples", "2000"]
        assert run_cli(args + ["-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header["n_max"] == str(n_max)
        (xi, mc, se, exact), = rows
        assert abs(mc - exact) <= 5 * se
        assert run_cli(args + ["--n-max", str(2 * n_max), "-o", str(doubled)]) == 0
        assert read_csv(doubled)[1][0][3] == exact


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["fig2", "--r", "0.2", "--xi", "0:0.02:0.02", "--samples", "2000", "--seed", "7"]
    assert run_cli(args + ["-o", str(a)]) == 0
    assert run_cli(args + ["-o", str(b)]) == 0
    assert a.read_bytes().replace(str(a).encode(), b"") == b.read_bytes().replace(
        str(b).encode(), b""
    )


def test_thread_fanout_matches_serial(tmp_path):
    a, b = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    args = ["fig1", "--r", "0.5", "--xi", "0:0.3:0.05"]
    assert run_cli(args + ["-o", str(a)]) == 0
    os.environ["RQIT_THREADS"] = "4"
    try:
        assert run_cli(args + ["-o", str(b)]) == 0
    finally:
        del os.environ["RQIT_THREADS"]
    assert a.read_bytes().replace(str(a).encode(), b"") == b.read_bytes().replace(
        str(b).encode(), b""
    )


def test_thread_count_is_capped(monkeypatch):
    # only reads the setting: no thread is started at this value
    monkeypatch.setenv("RQIT_THREADS", str(10**6))
    assert _thread_count() == (os.cpu_count() or 1)
    monkeypatch.setenv("RQIT_THREADS", "0")
    assert _thread_count() == 1
    monkeypatch.setenv("RQIT_THREADS", "many")
    assert _thread_count() == 1


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


def test_validate_command(tmp_path, capsys):
    out = tmp_path / "validate.csv"
    assert run_cli(["validate", "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 8 and "FAIL" not in stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--xi", "0:0.5:-0.1"],
        ["fig1", "--xi", "nonsense"],
        ["fig1", "--xi", "0:1:0.5"],
        ["fig1", "--r", "nan"],
        ["fig1", "--r", "inf"],
        ["fig1", "--n-max", "-3"],
        ["fig1", "--cutoff-tol", "0"],
        ["fig2", "--seed", "-1"],
        ["metric", "--points", "-1"],
        ["fig3", "--xi", "0:0.5:1e-9"],
    ],
    ids=["grid-step", "grid-syntax", "grid-xi-one", "r-nan", "r-inf", "n-max-negative",
         "cutoff-tol-zero", "seed-negative", "points-negative", "grid-too-many-points"],
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
        ["fig1", "--r", "0.9", "--n-max", "4", "--xi", "0:0:1"],
        ["fig1", "--r", "1000", "--n-max", "50", "--xi", "0:0:1"],
        ["fig2", "--r", "1000", "--n-max", "50", "--xi", "0:0:1", "--samples", "10"],
        ["fig3", "--r", "1000", "--n-max", "50", "--xi", "0:0:1"],
        ["metric", "--r", "1000", "--points", "2"],
        ["curvature", "--r", "400"],
    ],
    ids=["cutoff-too-small", "fig1-r-1000", "fig2-r-1000", "fig3-r-1000", "metric-r-1000",
         "curvature-r-400"],
)
def test_numeric_failure_exits_3(argv, capsys):
    # a cutoff far too small for the acceleration (at r = 1000 tanh r rounds to 1),
    # or an r above channel.MAX_R
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["fig1", "--r", "4", "--xi", "0.4:0.4:0"], "entangled_state needs"),
        (["fig2", "--r", "10", "--xi", "0.4:0.4:0", "--samples", "10"], "shared-state terms needs"),
        (["fig3", "--r", "4", "--xi", "0.4:0.4:0"], "effective_qubit needs"),
        (["fig1", "--r", "20"], "tanh r rounds to 1"),
        (["fig2", "--xi", "0.4:0.4:0", "--samples", "100000000"], "Monte-Carlo overlaps needs"),
    ],
    ids=["fig1-state-over-budget", "fig2-terms-over-budget", "fig3-qubit-over-budget",
         "tanh-rounds-to-one", "fig2-samples-over-budget"],
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


def test_io_failure_exits_4(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "f.csv"
    assert run_cli(["fig1", "--r", "0.4", "--xi", "0:0:1", "-o", str(target)]) == 4


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rqit.cli", "fig3", "--r", "0", "--xi", "0:0:1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "columns=xi,theta" in proc.stdout
